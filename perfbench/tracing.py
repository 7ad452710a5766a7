"""Per-layer tracing from outside the program.

Tracer wraps public functions of each layer under the names their
callers look up (a module global, or a class attribute for polynomial
evaluation), records one span per call in memory, counts calls, and
keeps the largest numerator or denominator bit length seen.  Self time
of a span is its duration minus the durations of its direct children.
The wrappers are installed only for a traced run and removed after it.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

ROOT = "cli"


def _bits(values) -> int:
    out = 0
    for v in values:
        if isinstance(v, Fraction):
            out = max(out, v.numerator.bit_length(), v.denominator.bit_length())
    return out


def _poly_bits(p) -> int:
    return _bits(p.coefficients)


def _matrix_bits(m, rhs=()) -> int:
    return max([_bits(r) for r in m.rows] + [_bits(rhs)])


def _install_table():
    """(module, attribute, name, timed, bit-size key, bit function).

    Every wrapped call counts under its name; a timed one also records a
    span under that name, and one with a key updates that bit size.
    """
    from cubicstring import burgers, cli, forward, inverse
    from cubicstring.exact import roots

    def arg_matrix(args, out):
        return _matrix_bits(*args)

    def out_chain(args, out):
        return max(_poly_bits(p) for p in out)

    def out_poly(args, out):
        return _poly_bits(out)

    def out_table(args, out):
        return max([_bits(out.moments)] + [_bits(r) for r in out.pair_table])

    def out_string(args, out):
        return _bits(out.string.masses + out.string.gaps)

    def arg_spectral(args, out):
        sd = args[0]
        return _bits(sd.eigenvalues + sd.residues + (sd.total_mass,))

    return [
        (forward, "boundary_data", "forward.boundary_data", True, None, None),
        (forward, "eigenvalue_polynomial", "forward.eigenvalue_polynomial",
         False, "forward.q_bits", out_poly),
        (cli, "spectrum", "forward.spectrum", True, None, None),
        (burgers, "spectrum", "forward.spectrum", True, None, None),
        (cli, "residues", "forward.residues", True, None, None),
        (burgers, "residues", "forward.residues", True, None, None),
        (forward, "sturm_isolate", "exact.roots.sturm_isolate", True,
         None, None),
        (roots, "sturm_chain", "exact.roots.sturm_chain", True,
         "exact.roots.chain_bits", out_chain),
        (forward, "refine_enclosure", "exact.roots.refine_enclosure", True,
         None, None),
        (roots, "sign_changes", "exact.roots.sign_changes", False,
         None, None),
        (forward, "eval_interval", "exact.interval.eval_interval", True,
         None, None),
        (inverse, "det_exact", "exact.linalg.det_exact", True,
         "exact.linalg.entry_bits", arg_matrix),
        (inverse, "solve_exact", "exact.linalg.solve_exact", True,
         "exact.linalg.entry_bits", arg_matrix),
        (inverse, "table_from_support", "inverse.table_from_support", True,
         "inverse.table_bits", out_table),
        (inverse, "moment_minors", "inverse.moment_minors", True, None, None),
        (inverse, "solve_type1", "inverse.solve", True, None, None),
        (inverse, "solve_type2", "inverse.solve", True, None, None),
        (inverse, "solve_type3", "inverse.solve", True, None, None),
        (cli, "recover_detailed", "inverse.recover_detailed", True,
         "inverse.output_bits", out_string),
        (inverse, "recover_detailed", "inverse.recover_detailed", True,
         "inverse.output_bits", out_string),
        (cli, "verify_exact_roundtrip", "inverse.verify_exact_roundtrip",
         True, None, None),
        (cli, "evolve_spectral", "burgers.evolve_spectral", True, None, None),
        (burgers, "spectral_snapshot", "burgers.spectral_snapshot", True,
         None, None),
        (burgers, "recover", "burgers.recover", False,
         "burgers.input_bits", arg_spectral),
        (cli, "integrate_rk4", "burgers.integrate_rk4", True, None, None),
        (burgers, "invariant_masses", "string_model.invariant_masses", True,
         None, None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.calls: Counter = Counter()
        self.bits: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording --------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        rec = [name, self._stack[-1] if self._stack else None,
               perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, timed, key, bit_fn):
        calls, bits = self.calls, self.bits

        def wrapped(*args, **kwargs):
            calls[name] += 1
            if timed:
                out = self.call(name, fn, *args, **kwargs)
            else:
                out = fn(*args, **kwargs)
            if key is not None:
                bits[key] = max(bits[key], bit_fn(args, out))
            return out

        return wrapped

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from cubicstring.exact.poly import Polynomial

        for module, attr, name, timed, key, bit_fn in _install_table():
            orig = getattr(module, attr)
            setattr(module, attr, self._wrap(orig, name, timed, key, bit_fn))
            self._undo.append((module, attr, orig))
        evaluate = Polynomial.__call__
        calls = self.calls

        def counted(p, x):
            calls["exact.poly.evals"] += 1
            return evaluate(p, x)

        Polynomial.__call__ = counted
        self._undo.append((Polynomial, "__call__", evaluate))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- analysis -------------------------------------------------------------

    def self_times(self, start: int, end: int) -> dict[str, float]:
        """Summed self time per span name over spans[start:end]."""
        child = [0.0] * (end - start)
        for rec in self.spans[start:end]:
            parent = rec[1]
            if parent is not None and parent >= start:
                child[parent - start] += rec[3] - rec[2]
        out: dict[str, float] = defaultdict(float)
        for i, rec in enumerate(self.spans[start:end]):
            out[rec[0]] += rec[3] - rec[2] - child[i]
        return dict(out)

    def dump(self, path, extra: dict) -> None:
        doc = dict(extra)
        doc["spans"] = [{"name": n, "parent": p, "start": s, "end": e}
                        for n, p, s, e in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# per-layer metric -> (span or counter name, kind); times are self time
# per round, counts are calls per round, bits the largest size seen
PER_LAYER = {
    "cli.self_s": (ROOT, "time"),
    "forward.boundary_data_s": ("forward.boundary_data", "time"),
    "forward.spectrum_s": ("forward.spectrum", "time"),
    "forward.residues_s": ("forward.residues", "time"),
    "forward.q_bits": ("forward.q_bits", "bits"),
    "exact.roots.sturm_chain_s": ("exact.roots.sturm_chain", "time"),
    "exact.roots.sturm_isolate_s": ("exact.roots.sturm_isolate", "time"),
    "exact.roots.refine_enclosure_s": ("exact.roots.refine_enclosure", "time"),
    "exact.roots.sign_changes_calls": ("exact.roots.sign_changes", "count"),
    "exact.roots.chain_bits": ("exact.roots.chain_bits", "bits"),
    "exact.poly.evals": ("exact.poly.evals", "count"),
    "exact.interval.eval_interval_s": ("exact.interval.eval_interval", "time"),
    "exact.interval.eval_interval_calls": ("exact.interval.eval_interval",
                                           "count"),
    "exact.linalg.det_exact_s": ("exact.linalg.det_exact", "time"),
    "exact.linalg.det_exact_calls": ("exact.linalg.det_exact", "count"),
    "exact.linalg.solve_exact_s": ("exact.linalg.solve_exact", "time"),
    "exact.linalg.solve_exact_calls": ("exact.linalg.solve_exact", "count"),
    "exact.linalg.entry_bits": ("exact.linalg.entry_bits", "bits"),
    "inverse.table_from_support_s": ("inverse.table_from_support", "time"),
    "inverse.table_bits": ("inverse.table_bits", "bits"),
    "inverse.moment_minors_s": ("inverse.moment_minors", "time"),
    "inverse.solve_s": ("inverse.solve", "time"),
    "inverse.recover_detailed_s": ("inverse.recover_detailed", "time"),
    "inverse.verify_exact_roundtrip_s": ("inverse.verify_exact_roundtrip",
                                         "time"),
    "inverse.output_bits": ("inverse.output_bits", "bits"),
    "burgers.evolve_spectral_s": ("burgers.evolve_spectral", "time"),
    "burgers.spectral_snapshot_s": ("burgers.spectral_snapshot", "time"),
    "burgers.integrate_rk4_s": ("burgers.integrate_rk4", "time"),
    "burgers.input_bits": ("burgers.input_bits", "bits"),
    "string_model.invariant_masses_s": ("string_model.invariant_masses",
                                        "time"),
}
UNITS = {"time": "s", "count": "count", "bits": "bits"}


def round_figures(tracer: Tracer, first_span: int, calls_before: dict) -> dict:
    """Self times and call counts of one round, plus the bit sizes so far."""
    calls = {k: v - calls_before.get(k, 0) for k, v in tracer.calls.items()}
    return {"self_s": tracer.self_times(first_span, len(tracer.spans)),
            "calls": {k: v for k, v in calls.items() if v},
            "bits": dict(tracer.bits)}


def per_layer_metrics(rounds: list[dict]) -> tuple[dict, list[str]]:
    """Median self time per round, and the counts and bit sizes, which
    must be the same in every round."""
    errors = []
    for r in rounds[1:]:
        if r["calls"] != rounds[0]["calls"] or r["bits"] != rounds[0]["bits"]:
            errors.append("call counts or bit sizes differ between rounds")
            break
    metrics = {}
    for metric, (source, kind) in PER_LAYER.items():
        if kind == "time":
            value = statistics.median(r["self_s"].get(source, 0.0)
                                      for r in rounds)
        elif kind == "count":
            value = rounds[0]["calls"].get(source, 0)
        else:
            value = rounds[0]["bits"].get(source, 0)
        metrics[metric] = (value, UNITS[kind])
    return metrics, errors
