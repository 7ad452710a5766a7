"""The benchmark's tracer wraps program functions by module and name.

A refactor that renames or removes one of them, or changes what a
wrapped call takes or returns, would only show when a traced benchmark
run fails; these tests read the tracer's own table, and run the CLI
under it, and fail first.
"""

import json
import sys
from pathlib import Path

import pytest

from cubicstring.cli import main
from cubicstring.inverse import random_spectral, recover
from cubicstring.string_model import string_to_dict

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing


def test_every_traced_function_exists(tracing):
    table = tracing._install_table()
    assert table
    for module, attr, name, *_ in table:
        assert callable(getattr(module, attr, None)), \
            f"{module.__name__}.{attr} (traced as {name}) is missing"


def test_traced_cli_runs_print_what_untraced_ones_do(tracing, tmp_path,
                                                     capsys):
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"masses": ["1", "2", "1", "3"],
                             "gaps": ["1", "1/2", "2"]}), encoding="utf-8")
    # a rational spectrum: forward prints it exactly
    exact = tmp_path / "exact.json"
    doc = string_to_dict(recover(random_spectral(4, 1)))
    exact.write_text(json.dumps(doc), encoding="utf-8")
    runs = [["forward", str(p)],
            ["forward", str(exact)],
            ["evolve", str(p), "--method", "spectral", "--t-end", "0.5",
             "--samples", "3"]]
    plain = []
    for argv in runs:
        assert main(argv) == 0
        plain.append(capsys.readouterr().out)
    table = tracing._install_table()
    originals = [getattr(module, attr) for module, attr, *_ in table]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv, out in zip(runs, plain):
            assert tracer.call(tracing.ROOT, main, argv) == 0
            assert capsys.readouterr().out == out
    finally:
        tracer.uninstall()
    assert [getattr(module, attr) for module, attr, *_ in table] == originals
    for name in ("forward.spectrum", "exact.roots.sturm_isolate",
                 "exact.roots.sturm_chain", "exact.roots.sign_changes",
                 "forward.residues", "exact.roots.refine_enclosure",
                 "exact.interval.eval_interval", "burgers.evolve_spectral"):
        assert tracer.calls[name] > 0, name
    assert tracer.bits["exact.roots.chain_bits"] > 0
    assert tracer.bits["forward.q_bits"] > 0
    assert tracing.ROOT in tracer.self_times(0, len(tracer.spans))
