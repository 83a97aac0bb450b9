"""seqprove benchmark: three seeded workloads, checked against references that
are not the code under test.

    python3 bench/run.py --workload families|fuzz|certify --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports seqprove from ``src/``.
Each workload is a closed loop with one client in this one process: an
operation starts when the previous one returns.  The operation list is fixed
by the seed, and the run repeats passes over it until the operations have
taken ``--seconds`` in total, finishing the pass in progress.

End-to-end metrics (``--trace 0``).  An operation's latency is the median of
its repetitions, one per pass; every workload has at least 100 operations.
  setup_s      process start to the first timed operation: the median CPU
               time of SETUP_PROBES fresh processes that import seqprove,
               build the workload and stop
  wall_s       time of one pass: the sum of the operations' latencies
  op_p50_ms    median operation latency
  op_p90_ms    90th percentile operation latency
  peak_rss_mb  ru_maxrss of this process
Failed operations are counted in the result line's ``failed`` and printed as
``failed_frac``; it is not a metric because it is 0 on a correct run.

``--trace 1`` makes the same run and then one more set-up and pass with the
public functions of cli, dsl, syntax, calculus, orders and prover listed in
tracing.LAYERS wrapped, and prints and reports the per-layer metrics of that
traced set-up and pass.  A function that the workload never calls reports 0
calls and 0 s.  Its spans go to bench/out/.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("families", "fuzz", "certify")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120


def import_workloads():
    """Import seqprove from this checkout's src/ and the workload module."""
    if not os.path.isfile(os.path.join(SRC, "seqprove", "__init__.py")):
        raise SystemExit(f"bench: no seqprove sources at {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    if BENCH_DIR not in sys.path:
        sys.path.insert(0, BENCH_DIR)
    import seqprove
    if not os.path.abspath(seqprove.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported seqprove from {seqprove.__file__}, not from {SRC}")
    import workloads
    return workloads


# --- measurement ----------------------------------------------------------------------

class Pass:
    """One pass over the operation list."""

    def __init__(self):
        self.latencies = []
        self.verdicts = []
        self.errors = []  # (operation label, reason)
        self.nodes = 0
        self.json_bytes = 0

    @property
    def seconds(self) -> float:
        return sum(self.latencies)


def one_pass(ops, tracer=None) -> Pass:
    """Time each operation, then check its output, untimed.  A raised
    exception or a failed check counts against the operation; neither stops
    the run.  With a tracer, also count the size of the outputs."""
    p = Pass()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op, tracer.active = i, True
        start = time.perf_counter()
        try:
            output = op.run()
            error = None
        except Exception as e:
            output, error = None, f"raised {type(e).__name__}: {e}"
        p.latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.active = False
        verdict = "error"
        if error is None:
            try:
                verdict = op.verdict(output)
                error = op.check(output)
                if tracer is not None:
                    p.nodes += op.nodes(output)
                    p.json_bytes += op.json_bytes(output)
            except Exception as e:
                error = f"check raised {type(e).__name__}: {e}"
        p.verdicts.append(verdict)
        if error is not None:
            p.errors.append((op.label, error))
    return p


def measure(ops, seconds: float):
    passes = []
    while not passes or sum(p.seconds for p in passes) < seconds:
        passes.append(one_pass(ops))
    return passes


def measure_setup(workload: str, seed: int) -> list:
    """CPU time (user + system) of fresh interpreters that run this script up
    to its 'ready' line, printed once the workload is set up.  CPU time, not
    wall time: a set-up takes well under a second, and on a shared host the
    time other processes hold the CPU moved its wall time by up to half."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise SystemExit("bench: set-up probe timed out")
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if proc.stdout.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed ({proc.returncode}):\n{proc.stderr}")
        times.append(after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime)
    return times


def percentile(values, q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


# --- traced run ---------------------------------------------------------------------------

def traced_pass(setup, seed: int):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        ops = setup(seed)
        tracer.active = False
        p = one_pass(ops, tracer)
    finally:
        tracer.active = False
        tracer.uninstall()
    return tracer, p


def layer_metrics(tracer, traced: Pass, untraced_wall: float) -> dict:
    """Per-layer metrics, name -> (value, unit): the tracer's per-function
    figures, the output sizes of the traced pass, and the tracing overhead."""
    out = tracer.metrics()
    out["prover.derivation_nodes"] = (traced.nodes, "count")
    out["prover.json_bytes"] = (traced.json_bytes, "bytes")
    out["trace.wall_s"] = (traced.seconds, "s")
    out["trace.untraced_wall_s"] = (untraced_wall, "s")
    out["trace.overhead"] = (traced.seconds / untraced_wall, "ratio")
    return out


# --- reporting -----------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = import_workloads()
    setup = workloads.SETUP[args.workload]
    if args.setup_probe:
        setup(args.seed)
        print("ready", flush=True)
        os._exit(0)  # the set-up is measured, not the interpreter's teardown

    setup_times = measure_setup(args.workload, args.seed)
    ops = setup(args.seed)
    passes = measure(ops, args.seconds)
    # an operation's latency is the median of its repetitions, one per pass,
    # which filters out short stalls of the machine
    latencies = [statistics.median(p.latencies[i] for p in passes) for i in range(len(ops))]
    errors = [e for p in passes for e in p.errors]
    attempted, failed = len(ops) * len(passes), len(errors)
    wall = sum(latencies)

    print(f"workload {args.workload}  seed {args.seed}  {len(ops)} operations per pass  "
          f"{len(passes)} passes  closed loop, 1 client")
    e2e = {
        "setup_s": (statistics.median(setup_times), "s",
                    f"CPU time, median of {len(setup_times)} fresh processes"),
        "wall_s": (wall, "s", "one pass: sum of the operations' latencies"),
        "op_p50_ms": (1000 * statistics.median(latencies), "ms", f"n={len(ops)}"),
        "op_p90_ms": (1000 * percentile(latencies, 90), "ms",
                      f"n={len(ops)}, {len(ops) - int(0.9 * len(ops))} beyond"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", ""),
    }
    for name, (value, unit, note) in e2e.items():
        print(f"  {name:<12} {value:12.4f} {unit:<3} {note}")
    print(f"  {'failed_frac':<12} {failed / attempted:12.4f}     {failed}/{attempted}")

    metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in e2e.items()}
    if args.trace:
        tracer, traced = traced_pass(setup, args.seed)
        errors += traced.errors
        errors += [(op.label, "traced verdict differs from the untraced one")
                   for op, a, b in zip(ops, passes[0].verdicts, traced.verdicts) if a != b]
        attempted += len(traced.latencies)
        failed = len(errors)
        layer = layer_metrics(tracer, traced, wall)
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_file = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json")
        tracer.write_spans(spans_file)
        print(f"traced set-up and pass: {len(tracer.spans)} spans, "
              f"written to {os.path.relpath(spans_file)}")
        for name, (value, unit) in layer.items():
            print(f"  {name:<52} {value:14.6g} {unit}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}

    for label, reason in errors[:20]:
        print(f"FAILED {label}: {reason}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
