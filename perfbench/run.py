"""Benchmark of the cubicstring command line, run in-process.

    python3 perfbench/run.py --workload forward-ladder --seed 1 \
        --seconds 30 --trace 0

A round runs every rung of the workload once, smallest n first, through
cubicstring.cli.main; the smallest rung runs SMALL_REPEATS times.  The first round is untimed: its outputs are the
ones the independent checks look at, and every later output must equal
them byte for byte.  Timed rounds follow until --seconds have passed,
so short repeats of every rung are interleaved over the whole run and a
slow spell of the machine lands on all rungs alike.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": <CLI calls>, "failed": <nonzero exits>,
     "metrics": {name: {"value": ..., "unit": ...}}}

With --trace 0 the metrics are the end-to-end ones (medians over the
timed rounds); with --trace 1 the layers are wrapped (see tracing.py) and
the metrics are per-layer self times, counts and operand bit sizes per
round.  Inputs, the result and the trace land under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MIN_ROUNDS = 3

# a fresh interpreter: import the CLI module and build its parser
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cubicstring.cli
cubicstring.cli.build_parser()
print(time.perf_counter() - t0)
"""


def load_cli():
    """Import cubicstring.cli from the checkout's src/, or exit."""
    if not (SRC / "cubicstring" / "cli.py").is_file():
        sys.exit(f"error: no cubicstring sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cubicstring.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "cubicstring":
        sys.exit(f"error: imported cubicstring from {cli.__file__}")
    return cli


def run_cli(cli, argv, tracer=None) -> tuple[int, str]:
    """One CLI call; returns the exit code and everything it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                rc = cli.main(list(argv))
            else:
                rc = tracer.call(tracing.ROOT, cli.main, list(argv))
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an uncaught error is a failed call
            print(f"{type(exc).__name__}: {exc}", file=err)
            rc = 1
    if rc:
        print(f"call {' '.join(argv)} exited {rc}: {err.getvalue()}",
              file=sys.stderr)
    return rc, out.getvalue()


def setup_sample() -> float:
    """Seconds a fresh interpreter takes to import the CLI, ready to call."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.split()[-1])


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.LADDERS),
                   required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = load_cli()
    os.environ.pop("CUBICSTRING_PRECISION_BITS", None)
    tag = f"{args.workload}-seed{args.seed}"
    rungs = workloads.build(args.workload, args.seed, OUT / "inputs" / tag)

    attempted = failed = 0

    def run_pass(rung, tracer=None):
        nonlocal attempted, failed
        t0 = perf_counter()
        got = [run_cli(cli, argv, tracer) for argv in rung.calls]
        seconds = perf_counter() - t0
        attempted += len(got)
        failed += sum(1 for rc, _ in got if rc)
        return seconds, got

    reference = [run_pass(rung)[1] for rung in rungs]  # checked below
    errors = []
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    rounds, setup, per_round = [], [], []
    deadline = perf_counter() + args.seconds
    try:
        while len(rounds) < MIN_ROUNDS or perf_counter() < deadline:
            if tracer is None:
                setup.append(setup_sample())
            else:
                first, before = len(tracer.spans), dict(tracer.calls)
            gc.collect()
            times = [[] for _ in rungs]  # seconds of each pass, per rung
            for i, rung in enumerate(rungs):
                for _ in range(workloads.SMALL_REPEATS if i == 0 else 1):
                    seconds, got = run_pass(rung, tracer)
                    times[i].append(seconds)
                    if got != reference[i]:
                        errors.append(f"n={rung.n}: output differs from "
                                      "the first pass")
            rounds.append(times)
            if tracer is not None:
                per_round.append(tracing.round_figures(tracer, first, before))
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for rung, outs in zip(rungs, reference):
        if all(rc == 0 for rc, _ in outs):
            errors += [f"n={rung.n}: {e}"
                       for e in rung.check([text for _, text in outs])]
    round_s = [sum(map(sum, times)) for times in rounds]
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "run_s": (statistics.median(round_s), "s"),
            "small_rung_s": (statistics.median(
                t for times in rounds for t in times[0]), "s"),
            "large_rung_s": (statistics.median(
                t for times in rounds for t in times[-1]), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    else:
        metrics, trace_errors = tracing.per_layer_metrics(per_round)
        errors += trace_errors
        tracer.dump(OUT / f"trace-{tag}.json",
                    {"workload": args.workload, "seed": args.seed,
                     "round_s": round_s, "rounds": per_round})
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    text = json.dumps(result)
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(text + "\n")
    print(f"{len(rounds)} timed rounds, round_s median "
          f"{statistics.median(round_s):.4f}", file=sys.stderr)
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
