#!/usr/bin/env python3
"""Compare FW-KV and Walter at the paper's 20 nodes on two checkouts.

    python3 scripts/twenty_node_check.py --root ../parent --root . [--runs 3]

For every run, one-way latency (0 and 200 us) and protocol (FW-KV,
Walter) it starts, one process at a time,

    <root>/build/examples/fwkv_cli --nodes 20 --keys 50000 --ro 0.5
        --latency-us <l> --protocol <p> --stats

once per root, interleaving the roots and swapping which goes first from
one run to the next. Each root must be built already (cmake -B build),
and all with the same CMAKE_BUILD_TYPE (an empty one counts as
RelWithDebInfo, the CMakeLists.txt default): the script refuses roots
whose build types differ.
CPU is the user+sys time of the finished process, taken from
resource.getrusage(RUSAGE_CHILDREN) deltas, over its commits. While a
process runs, the script samples the Threads: line of its
/proc/<pid>/status every 20 ms and keeps the peak. It prints one line per
process, then per root and latency the median (and min..max) of tx/s, CPU
us per commit and peak threads of both protocols, FW-KV/Walter paired by
run, the doomed=, catch-up-timeouts= and lock-timeout aborts (the
first field of aborts(lock/val/vote)=) counters of --stats, and the
standalone Remove and the Propagate messages per commit (the Remove: and
Propagate: lines of --stats; they count the warm-up's messages too, the
commits do not), and the contended acquisitions of the node locks per
commit by lock family: site_mu_, watermark_mu_, the ParticipantTable and
the LockTable shards (the lock-waits(...)= field of --stats, shown as "-"
for a root whose fwkv_cli does not print it), and the versions a prepare's
access-set collection walked per written key (the collect-scan= field,
"-" likewise). One --root alone is fine too.
"""

import argparse
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

LATENCIES_US = (0, 200)
PROTOCOLS = (("fwkv", "FW-KV"), ("walter", "Walter"))
# The lock families of --stats' lock-waits(site/watermark/participants/
# lock-table)= field, in its order.
LOCK_FAMILIES = ("site", "watermark", "participants", "lock-table")
LOCK_WAITS = re.compile(r"lock-waits\(site/watermark/participants/"
                        r"lock-table\)=(\d+)/(\d+)/(\d+)/(\d+)")
COLLECT_SCAN = re.compile(r"collect-scan=([\d.]+)")


def build_type(root):
    cache = Path(root) / "build" / "CMakeCache.txt"
    try:
        text = cache.read_text()
    except OSError:
        sys.exit(f"{cache}: not found; configure it with cmake -B build")
    m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", text, re.MULTILINE)
    value = m.group(1).strip() if m else ""
    # CMakeLists.txt builds an empty CMAKE_BUILD_TYPE as RelWithDebInfo.
    return value or "RelWithDebInfo"


def cpu_seconds():
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def threads_of(pid):
    """The Threads: count of a running process, or 0 once it has gone."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def run_cli(root, protocol, latency_us):
    cli = Path(root) / "build" / "examples" / "fwkv_cli"
    cmd = [str(cli), "--nodes", "20", "--keys", "50000", "--ro", "0.5",
           "--latency-us", str(latency_us), "--protocol", protocol, "--stats"]
    cpu0 = cpu_seconds()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    # The output is small (a few lines), so it cannot fill the pipe while
    # the process is sampled.
    peak_threads = 0
    while proc.poll() is None:
        peak_threads = max(peak_threads, threads_of(proc.pid))
        time.sleep(0.02)
    out = proc.stdout.read()
    cpu = cpu_seconds() - cpu0
    if proc.returncode != 0:
        sys.exit(f"failed (exit {proc.returncode}): {' '.join(cmd)}")

    def field(pattern):
        m = re.search(pattern, out)
        if m is None:
            sys.exit(f"no match for {pattern!r} in the output of "
                     f"{' '.join(cmd)}:\n{out}")
        return float(m.group(1))

    commits = field(r"(\d+) commits")

    def per_commit(pattern):
        return field(pattern) / commits if commits else float("inf")

    m = LOCK_WAITS.search(out)
    lock_waits = (None if m is None else
                  [int(g) / commits if commits else float("inf")
                   for g in m.groups()])
    m = COLLECT_SCAN.search(out)
    collect_scan = None if m is None else float(m.group(1))

    return {
        "tps": field(r"([\d.]+) kTx/s") * 1000.0,
        "cpu_us": cpu * 1e6 / commits if commits else float("inf"),
        "doomed": int(field(r"doomed=(\d+)")),
        "catchup": int(field(r"catch-up-timeouts=(\d+)")),
        "lock_aborts": int(field(r"aborts\(lock/val/vote\)=(\d+)/")),
        "threads": peak_threads,
        "removes": per_commit(r"\n\s*Remove: (\d+)"),
        "propagates": per_commit(r"\n\s*Propagate: (\d+)"),
        "lock_waits": lock_waits,
        "collect_scan": collect_scan,
    }


def summary(values, fmt):
    return (f"{fmt.format(statistics.median(values))} "
            f"({fmt.format(min(values))}..{fmt.format(max(values))})")


def lock_waits_run(r):
    """One run's contended acquisitions per commit, by lock family."""
    if r["lock_waits"] is None:
        return "-"
    return "/".join(f"{v:.3f}" for v in r["lock_waits"])


def lock_waits_summary(runs):
    """Per lock family, the median (range) over runs; "-" if unreported."""
    if any(r["lock_waits"] is None for r in runs):
        return "-"
    return "  ".join(
        f"{name} {summary([r['lock_waits'][i] for r in runs], '{:.3f}')}"
        for i, name in enumerate(LOCK_FAMILIES))


def collect_scan_run(r):
    return "-" if r["collect_scan"] is None else f"{r['collect_scan']:.2f}"


def collect_scan_summary(runs):
    """The median (range) over runs of collect-scan=; "-" if unreported."""
    if any(r["collect_scan"] is None for r in runs):
        return "-"
    return summary([r["collect_scan"] for r in runs], "{:.2f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", action="append", required=True,
                    help="checkout with a build/ tree (parent first)")
    ap.add_argument("--runs", type=int, default=3)
    args = ap.parse_args()
    roots = [str(Path(r).resolve()) for r in args.root]
    types = {root: build_type(root) for root in roots}
    if len(set(types.values())) > 1:
        sys.exit("the roots' CMAKE_BUILD_TYPE values differ: " +
                 ", ".join(f"{r}: {t}" for r, t in types.items()))

    # results[root][latency][protocol] -> list of per-run dicts
    results = {r: {l: {p: [] for p, _ in PROTOCOLS} for l in LATENCIES_US}
               for r in roots}
    print("run  latency  protocol  root  tx/s  cpu_us/commit  doomed  "
          "catch-up-timeouts  lock-aborts  peak-threads  removes/commit  "
          "propagates/commit  lock-waits/commit(" + "/".join(LOCK_FAMILIES) +
          ")  collect-scan", flush=True)
    for i in range(args.runs):
        order = roots if i % 2 == 0 else roots[::-1]
        for latency in LATENCIES_US:
            for protocol, name in PROTOCOLS:
                for root in order:
                    r = run_cli(root, protocol, latency)
                    results[root][latency][protocol].append(r)
                    print(f"{i + 1}  {latency}us  {name}  "
                          f"{roots.index(root)}  {r['tps']:.0f}  "
                          f"{r['cpu_us']:.1f}  {r['doomed']}  "
                          f"{r['catchup']}  {r['lock_aborts']}  "
                          f"{r['threads']}  {r['removes']:.2f}  "
                          f"{r['propagates']:.2f}  {lock_waits_run(r)}  "
                          f"{collect_scan_run(r)}",
                          flush=True)

    print()
    for index, root in enumerate(roots):
        print(f"== root {index}: {root} ({types[root]}; median (min..max) "
              f"over {args.runs} runs)")
        for latency in LATENCIES_US:
            per = results[root][latency]
            for protocol, name in PROTOCOLS:
                runs = per[protocol]
                print(f"  {latency:>3} us {name:<6} "
                      f"tx/s {summary([r['tps'] for r in runs], '{:.0f}')}  "
                      f"cpu_us/commit "
                      f"{summary([r['cpu_us'] for r in runs], '{:.1f}')}  "
                      f"doomed {summary([r['doomed'] for r in runs], '{}')}  "
                      f"catch-up-timeouts "
                      f"{summary([r['catchup'] for r in runs], '{}')}  "
                      f"lock-aborts "
                      f"{summary([r['lock_aborts'] for r in runs], '{}')}  "
                      f"threads "
                      f"{summary([r['threads'] for r in runs], '{}')}  "
                      f"removes/commit "
                      f"{summary([r['removes'] for r in runs], '{:.2f}')}  "
                      f"propagates/commit "
                      f"{summary([r['propagates'] for r in runs], '{:.2f}')}")
                print(f"         lock-waits/commit {lock_waits_summary(runs)}"
                      f"  collect-scan {collect_scan_summary(runs)}")
            ratios = [f["tps"] / w["tps"]
                      for f, w in zip(per["fwkv"], per["walter"])]
            print(f"  {latency:>3} us FW-KV/Walter "
                  f"{summary(ratios, '{:.2f}')}")


if __name__ == "__main__":
    main()
