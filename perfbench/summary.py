#!/usr/bin/env python3
"""Summarise the results run.py left in perfbench/out/: per workload, the
median, quartiles and spread (quartile distance over median) of each
metric, the same for wall and set-up time as measured before the speed
probe's scaling, the failed share, and the tracing overhead (traced minus
untraced median wall_s).

    python3 perfbench/summary.py [result files...]
"""
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def line(name: str, values, unit: str) -> str:
    if None in values:
        return f"  {name:32s} absent"
    med = statistics.median(values)
    if len(values) < 2:
        return f"  {name:32s} {med:14.6g} {unit}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else 0.0
    return f"  {name:32s} {med:14.6g} {unit:6s} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f}"


def main(paths) -> int:
    runs = defaultdict(list)
    for path in paths or sorted(OUT.glob("*.json")):
        r = json.loads(Path(path).read_text())
        runs[(r["workload"], r["trace"])].append(r)
    for (workload, trace), rs in sorted(runs.items()):
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in rs})
        print(f"\n{workload} ({'traced' if trace else 'untraced'}, {len(rs)} runs, "
              f"seeds {sorted(r['seed'] for r in rs)}, failed/attempted {shares}, "
              f"correct {all(r['correct'] for r in rs)})")
        for name, m in rs[0]["metrics"].items():
            print(line(name, [r["metrics"][name]["value"] for r in rs], m["unit"]))
        for name in ("raw_wall_s", "raw_setup_s"):
            print(line(name, [r[name] for r in rs], "s"))
        if trace and runs.get((workload, False)):
            plain = statistics.median(r["wall_s"] for r in runs[(workload, False)])
            traced = statistics.median(r["wall_s"] for r in rs)
            print(f"  tracing overhead: wall_s {traced:.3f} s traced vs {plain:.3f} s "
                  f"untraced ({(traced - plain) / plain:+.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
