"""The benchmark's tracer wraps program functions by module and name.

A refactor that renames or removes one of them would only show when a
traced benchmark run fails; this test reads the tracer's own table and
fails first.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_function_exists():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    table = tracing._install_table()
    assert table
    for module, attr, name, *_ in table:
        assert callable(getattr(module, attr, None)), \
            f"{module.__name__}.{attr} (traced as {name}) is missing"
