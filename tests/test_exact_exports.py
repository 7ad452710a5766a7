"""The export list of cubicstring.exact names only what exists."""

import cubicstring.exact as exact


def test_star_import_resolves_every_exported_name():
    ns = {}
    exec("from cubicstring.exact import *", ns)
    for name in exact.__all__:
        assert ns[name] is getattr(exact, name)
