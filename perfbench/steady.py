#!/usr/bin/env python3
"""Run one benchmark workload several times and report how steady it is.

    python3 perfbench/steady.py --workload ycsb_hot --runs 10
    python3 perfbench/steady.py --workload ycsb_hot --runs 10 \\
        --root ../parent --root .

Run i uses seed i (1..runs) and BENCHMARK.json's run_seconds. For every
metric it prints the median, the quartiles (statistics.quantiles, n=4) and
the spread (Q3 - Q1) / median, next to the bound BENCHMARK.json gives the
metric. A spread must stay below its bound for the benchmark to be usable.

With two --root checkouts (parent first, then change) it runs them in
pairs with the same seed, alternating which side runs first, and adds per
metric the change's median relative to the parent's and the share of pairs
the change wins. The last line is the whole summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(root, workload, seed, seconds, trace):
    cmd = [sys.executable, str(Path(root) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"run failed: {' '.join(cmd)} (exit {done.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"run reported incorrect output: {' '.join(cmd)}")
    return {k: v["value"] for k, v in result["metrics"].items()}, result


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of a list of numbers."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", action="append",
                    help="checkout to run (repeat for parent, change)")
    args = ap.parse_args()
    roots = [str(Path(r).resolve()) for r in (args.root or [str(HERE.parent)])]
    if len(roots) > 2:
        raise SystemExit("at most two --root checkouts")
    bench = json.loads((Path(roots[-1]) / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    values = [dict() for _ in roots]  # per root: metric -> list
    failed = [0 for _ in roots]
    for i in range(args.runs):
        seed = i + 1
        order = list(range(len(roots)))
        if i % 2 == 1:
            order.reverse()
        for side in order:
            metrics, result = run_once(roots[side], args.workload, seed,
                                       seconds, args.trace)
            failed[side] += result["failed"]
            for name, v in metrics.items():
                values[side].setdefault(name, []).append(v)
            print(f"seed {seed} side {side}: " +
                  " ".join(f"{k}={v:.6g}" for k, v in metrics.items()),
                  file=sys.stderr)

    summary = {"workload": args.workload, "runs": args.runs,
               "seconds": seconds, "trace": args.trace, "failed": failed,
               "metrics": {}}
    print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}" + ("  change  wins" if len(roots) == 2 else ""))
    for name in values[-1]:
        med, q1, q3, sp = spread(values[-1][name])
        bound = spec.get(name, {}).get("bound")
        entry = {"median": med, "q1": q1, "q3": q3, "spread": sp,
                 "bound": bound, "values": values[-1][name]}
        line = (f"{name:40} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.4f} "
                f"{bound if bound is not None else '-':>6}")
        if len(roots) == 2 and name in values[0]:
            base = values[0][name]
            base_med = statistics.median(base)
            lower = spec.get(name, {}).get("better", "lower") == "lower"
            wins = sum((c < p) if lower else (c > p)
                       for p, c in zip(base, values[1][name]))
            entry["parent"] = {"median": base_med, "values": base}
            entry["change_rel"] = med / base_med - 1 if base_med else None
            entry["wins"] = wins / len(base)
            line += f"  {entry['change_rel'] or 0:+.4f}  {entry['wins']:.2f}"
        summary["metrics"][name] = entry
        print(line)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
