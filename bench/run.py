"""Benchmark for zollfins: one workload, one seed, one fresh process.

    python3 bench/run.py --workload verify --seed 1 --seconds 18 --trace 0

Run from the repository root.  The program is imported from ``src/`` (as the
tier-1 tests do) and driven in-process: one client in a closed loop runs ops
back to back on the main thread; the only other threads are the CLI's own
indicatrix pool.  Workloads (see inputs.py and README.md):

  verify         ``zollfins verify`` on one profile per op
  finsler_trace  ``geodesic --side finsler`` from a seeded start, t-end 2*pi
  indicatrix     ``indicatrix`` at 8 seeded chart values
  zoll_geodesic  ``closure_integrals`` plus ``geodesic --side zoll``, t-end 4*pi

``--trace 0`` times ops for ``--seconds`` of op time at the reference
loop's nominal speed (see REF_NOMINAL_S), checks every output outside the
timed section, re-runs the first op to compare output digests, evaluates the
accuracy metrics on a fixed reference panel and measures set-up time in
fresh processes started between ops.  ``--trace 1`` runs a fixed number of
ops untraced, then the same ops again with per-layer spans (tracing.py), and
reports per-layer metrics.  The last line of standard output is the result
JSON; the lines before it name every metric with its unit and give the
details.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

#: Set-up is measured in this many fresh processes per run, spread evenly
#: over the timed section (between ops, untimed); the median counts.  The
#: host's speed drifts in phases of seconds, so probes taken back to back
#: would all land in one phase and the run's median would follow it.
SETUP_PROBES = 5

#: Ops per traced run.  A fixed count (not a time budget) makes every call
#: count repeat exactly for a given seed.
TRACE_OPS = {"verify": 2, "finsler_trace": 3, "indicatrix": 24, "zoll_geodesic": 32}

#: Iterations of the reference loop (~3 ms of interpreter and small-array
#: work, like the program's own), and the CPU time between its runs inside
#: a long op.
REF_ITERS = 20_000
REF_EVERY_S = 0.25

#: The reference loop's time at this host's full speed.  A run measures
#: ``--seconds`` of op time at that speed (the sum of op times in reference
#: units, times this), so that slow phases of the host lengthen a run instead
#: of changing which ops it holds.
REF_NOMINAL_S = 0.003

#: A finsler_trace op takes 0.4 to 2 s with the height its geodesic reaches,
#: and a run holds only ~20 of them, so a run that ends one or two ops
#: earlier or later holds another mix of heights.  Runs of that workload end
#: on a whole number of this many ops (about 24), so every run holds a like mix.
OPS_MULTIPLE = {"finsler_trace": 8}

END_TO_END = (("setup_s", "s"), ("op_p50_ref", "ref"), ("op_mean_ref", "ref"),
              ("peak_rss_mb", "MB"), ("verify_defect_ratio_max", "ratio"),
              ("F_drift_max", "1"), ("finsler_return_max", "rad"),
              ("implicit_residual_max", "1"), ("closure_defect_max", "rad"),
              ("zoll_return_max", "rad"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify", "finsler_trace", "indicatrix", "zoll_geodesic"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)   # internal: one set-up, then exit
    return parser.parse_args(argv)


def set_up(workload: str, seed: int, work: Path):
    """Import the program, draw the inputs and warm up; returns the op stream."""
    sys.path.insert(0, str(SRC))
    import inputs
    import ops

    stream = inputs.InputStream(workload, seed)
    ops.warm_up(work)
    return stream


def reference_loop() -> float:
    """Seconds taken by a fixed slice of interpreter and small-array work.

    On a shared host the machine's speed drifts in phases of seconds (a
    fixed loop took 35 or 55 ms from one second to the next on a 2-CPU
    VM).  Each op is timed between two runs of this loop, and its time in
    units of their mean (the ``*_ref`` metrics) compares commits rather
    than moments.
    """
    import numpy

    t0 = time.perf_counter()
    acc = 0.0
    arr = numpy.linspace(0.0, 1.0, 64)
    for k in range(REF_ITERS):
        acc += math.sqrt(k)
        if k % 100 == 0:
            arr = numpy.cos(arr)
    return time.perf_counter() - t0


class InOpReference:
    """Runs the reference loop every REF_EVERY_S of CPU time during an op, so
    that ops longer than the host's speed phases are normalized by samples
    taken while they ran.  The loop's own time is subtracted from the op's."""

    def __enter__(self):
        self.samples: list[float] = []
        self._previous = signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, REF_EVERY_S, REF_EVERY_S)
        return self

    def _sample(self, signum, frame):
        self.samples.append(reference_loop())

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0.0, 0.0)
        signal.signal(signal.SIGVTALRM, self._previous)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values):
    """Highest percentile with at least ten ops beyond it, or None."""
    n = len(values)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def measure_setup(args, work: Path, k: int) -> float:
    """Seconds from spawning a fresh process to its set-up being done."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1", "--trace", "0"]
    env = dict(os.environ, BENCH_WORK=str(work / f"probe{k}"))
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []
        self.chart_exits = 0
        self.accuracy: dict[str, float] = {}

    def add(self, inp, check) -> None:
        self.attempted += 1
        self.chart_exits += check.chart_exit
        for name, value in check.accuracy.items():
            self.accuracy[name] = max(self.accuracy.get(name, 0.0), value)
        if check.failure is not None:
            self.failures.append({"input": inp.describe(), "reason": check.failure})


def timed_run(args, stream, work: Path):
    import ops

    tally = Tally()
    durations = []
    relative = []
    setup_samples = []
    first = None
    for inp in stream:
        progress = sum(relative) * REF_NOMINAL_S / args.seconds
        if progress >= 1.0 and len(relative) % OPS_MULTIPLE.get(args.workload, 1) == 0:
            break
        while len(setup_samples) < min(SETUP_PROBES, 1 + SETUP_PROBES * progress):
            setup_samples.append(measure_setup(args, work, len(setup_samples)))
            before = reference_loop()
        out_dir = work / f"op{inp.index}"
        with InOpReference() as during:
            t0 = time.perf_counter()
            result = ops.run_op(args.workload, inp, out_dir)
            elapsed = time.perf_counter() - t0
        durations.append(elapsed - sum(during.samples))
        after = reference_loop()
        relative.append(durations[-1] / statistics.fmean([before, after] + during.samples))
        before = after
        tally.add(inp, ops.check_op(args.workload, inp, out_dir, result))
        if first is None:
            first = (inp, out_dir, result)
        else:
            shutil.rmtree(out_dir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Byte-determinism probe: the first op again, digests must match.
    inp, out_dir, result = first
    again_dir = work / "op0-again"
    again = ops.run_op(args.workload, inp, again_dir)
    digests = (ops.output_digest(out_dir, result), ops.output_digest(again_dir, again))
    deterministic = digests[0] == digests[1]
    tally.attempted += 1
    if not deterministic:
        tally.failures.append({"input": inp.describe(),
                               "reason": "output digest differs on re-run"})

    panel, problems = ops.reference_panel(work)
    while len(setup_samples) < SETUP_PROBES:
        setup_samples.append(measure_setup(args, work, len(setup_samples)))

    q1, p50, q3 = quartiles(durations)
    metrics = {"setup_s": statistics.median(setup_samples),
               "op_p50_ref": statistics.median(relative),
               "op_mean_ref": statistics.fmean(relative),
               "peak_rss_mb": peak_rss_mb}
    metrics.update(panel)
    detail = {"ops": len(durations), "ops_per_s": len(durations) / sum(durations),
              "op_time_s": {"p25": q1, "p50": p50, "p75": q3},
              "op_tail_s": tail(durations), "op_tail_ref": tail(relative),
              "timed_s": sum(durations),
              "error_rate": len(tally.failures) / tally.attempted,
              "chart_exits": tally.chart_exits, "deterministic": deterministic,
              "setup_samples_s": setup_samples,
              "ops_accuracy_max": tally.accuracy, "panel_problems": problems}
    correct = not tally.failures and not problems
    return metrics, END_TO_END, tally, correct, detail


def traced_run(args, stream, work: Path):
    import ops
    import tracing

    inputs = [next(stream) for _ in range(TRACE_OPS[args.workload])]

    # The same ops untraced give the overhead.  They run first, so that the
    # traced pass's span list does not slow them, and the caches are cleared
    # between the passes so that both start equally cold.
    untraced = []
    for inp in inputs:
        out_dir = work / f"untraced{inp.index}"
        t0 = time.perf_counter()
        ops.run_op(args.workload, inp, out_dir)
        untraced.append(time.perf_counter() - t0)
        shutil.rmtree(out_dir, ignore_errors=True)
    for cached in _op_caches():
        cached.cache_clear()

    tally = Tally()
    tracer = tracing.Tracer()
    tracer.install()
    traced = []
    try:
        for inp in inputs:
            out_dir = work / f"op{inp.index}"
            tracer.begin_op(inp.index)
            t0 = time.perf_counter()
            result = ops.run_op(args.workload, inp, out_dir)
            traced.append(time.perf_counter() - t0)
            tracer.end_op()
            tally.add(inp, ops.check_op(args.workload, inp, out_dir, result))
            shutil.rmtree(out_dir, ignore_errors=True)
    finally:
        tracer.uninstall()

    metrics = tracer.metrics(sum(traced) / sum(untraced))
    spans_file = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(spans_file)
    detail = {"ops": len(inputs), "traced_s": sum(traced), "untraced_s": sum(untraced),
              "spans_file": str(spans_file.relative_to(ROOT))}
    return metrics, tracing.per_layer_names(), tally, not tally.failures, detail


def _op_caches():
    """Every lru cache in the program except the Gauss-Legendre node table,
    which is lazy set-up the warm-up already paid for."""
    from zollfins import quadrature

    found = []
    for name, module in sys.modules.items():
        if name == "zollfins" or name.startswith("zollfins."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear") and value is not quadrature._leggauss \
                        and value not in found:
                    found.append(value)
    return found


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "zollfins" / "__init__.py").is_file():
        print(f"error: no zollfins sources under {SRC}", file=sys.stderr)
        return 2

    if args.setup_probe:
        set_up(args.workload, args.seed, Path(os.environ["BENCH_WORK"]))
        print("ready", flush=True)
        return 0

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        stream = set_up(args.workload, args.seed, work)
        in_process_setup = time.perf_counter() - PROCESS_START
        runner = traced_run if args.trace else timed_run
        metrics, names, tally, correct, detail = runner(args, stream, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    import numpy
    import scipy

    detail.update({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "attempted": tally.attempted, "failed": len(tally.failures),
                   "failures": tally.failures, "in_process_setup_s": in_process_setup,
                   "nproc": os.cpu_count(), "python": platform.python_version(),
                   "numpy": numpy.__version__, "scipy": scipy.__version__})
    for failure in tally.failures:
        print(f"failure {failure['input']}: {failure['reason']}")
    for name, unit in names:
        print(f"{name} = {metrics[name]!r} {unit}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": len(tally.failures),
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
