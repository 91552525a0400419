#!/usr/bin/env python3
"""Benchmark of aqmds: catalog generation, certificate verification and
`exists` latency, in one process with one thread (a closed loop with one
caller).

    python3 perfbench/run.py --workload exists_stream --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout.  Each run sets up several times and
reports the median (setup_s), then repeats whole passes of the workload's
operations until --seconds have passed, checking every output against
computations made apart from the program.  Times are scaled to a fixed
machine speed by speed.py's probe.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer spans and counters of tracer.py.  A copy of the result,
with the per-pass detail, goes to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC, TESTS, OUT = ROOT / "src", ROOT / "tests", HERE / "out"
WORKLOAD_NAMES = ("catalog_closed_form", "verify_catalog", "exists_stream")
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import aqmds; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Median time to import aqmds in a fresh interpreter, interpreter start excluded."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, check=True, timeout=60)
        times.append(float(done.stdout))
    return statistics.median(times)


def set_up(workload, gf, tracer, probe):
    """Build the workload's fields from scratch and warm up, SETUP_REPEATS
    times; the tracer records only the last build."""
    cached_builder = gf.make_field  # keeps cache_clear once a tracer wraps it
    times = []
    for i in range(SETUP_REPEATS):
        if tracer is not None and i == SETUP_REPEATS - 1:
            tracer.install()
        cached_builder.cache_clear()
        t0, paused = perf_counter(), probe.paused
        for q in workload.fields:
            gf.make_field(q)
        if tracer is not None:
            tracer.active = False
        workload.warm_up()
        times.append(perf_counter() - t0 - (probe.paused - paused))
        if tracer is not None:
            tracer.active = True
    return statistics.median(times)


def run_passes(workload, seconds: float, probe):
    """Whole passes until `seconds` have passed.  Returns per pass, per op,
    (start, end, seconds spent in the op), then the failed count and the
    problems the checks found."""
    passes, failed, problems = [], 0, []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        ops = []
        for op in workload.ops:
            t0, paused = perf_counter(), probe.paused
            try:
                out = workload.run(op)
            except Exception as exc:  # a crash is a wrong output, not an end to the run
                out = None
                problems.append(f"{op!r:.80}: {type(exc).__name__}: {exc}")
            t1 = perf_counter()
            ops.append((t0, t1, t1 - t0 - (probe.paused - paused)))
            if out is not None:
                op_failed, op_problems = workload.check(op, out)
                failed += op_failed
                problems += op_problems
        passes.append(ops)
    return passes, failed, problems


def percentile_ms(samples, p: float) -> float:
    """Nearest-rank percentile, in ms."""
    ordered = sorted(samples)
    return 1000 * ordered[max(math.ceil(p * len(ordered)) - 1, 0)]


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import aqmds
    if not Path(aqmds.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported aqmds from {aqmds.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import aqmds.gf
    import workloads
    from speed import SpeedProbe
    from tracer import Tracer, metric_names

    workload = workloads.WORKLOADS[name](seed)
    tracer = Tracer() if trace else None
    probe = SpeedProbe(on_pause=tracer.exclude if trace else None)
    setup_start = perf_counter()
    probe.sample()
    import_s = import_seconds()  # before the timer starts, so probes do not slow the child
    with probe:
        raw_setup_s = import_s + set_up(workload, aqmds.gf, tracer, probe)
        setup_end = perf_counter()
        passes, failed, problems = run_passes(workload, seconds, probe)
    setup_s = raw_setup_s * probe.scale(setup_start, setup_end)
    raw_passes = [[raw for _, _, raw in p] for p in passes]
    scaled_passes = [[raw * probe.scale(t0, t1) for t0, t1, raw in p] for p in passes]
    op_times = [t for p in scaled_passes for t in p]
    wall_s = statistics.median(sum(p) for p in scaled_passes)
    raw_wall_s = statistics.median(sum(p) for p in raw_passes)
    for problem in problems[:20]:
        print(f"WRONG {problem}", file=sys.stderr)
    print(f"{name}: seed {seed}, {len(passes)} passes of {len(workload.ops)} ops, "
          f"median pass {wall_s:.3f} s ({raw_wall_s:.3f} s as measured)"
          f"{', traced' if trace else ''}")
    if trace:
        if tracer.absent:
            print(f"absent entry points: {', '.join(tracer.absent)}")
        values = tracer.metrics(len(passes), probe.scale)
        metrics = {m: {"value": values[m], "unit": u} for m, u in metric_names()}
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "p50_ms": {"value": 1000 * statistics.median(op_times), "unit": "ms"},
            "p99_ms": {"value": percentile_ms(op_times, 0.99), "unit": "ms"},
            "max_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                           "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    result = {"correct": not problems, "attempted": len(op_times), "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    detail = {**result, "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "wall_s": wall_s, "pass_s": [sum(p) for p in scaled_passes],
              "raw_wall_s": raw_wall_s, "raw_pass_s": [sum(p) for p in raw_passes],
              "raw_setup_s": raw_setup_s, "problems": problems}
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in a fresh process."""
    code = 0
    for name in WORKLOAD_NAMES:
        code |= subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                                "--seconds", str(seconds), "--trace", str(int(trace))]).returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "aqmds" / "__init__.py", TESTS / "th14_expansion.py")
               if not p.is_file()]
    if missing:
        print(f"perfbench: run from a checkout of the repository; missing {missing}",
              file=sys.stderr)
        return 2
    os.environ.pop("AQMDS_MAX_ENUM", None)  # every run uses the default enumeration cap
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    sys.path[:0] = [str(SRC), str(TESTS)]
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
