"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/report.py                       # all workloads, seeds 1-10
    python3 perfbench/report.py --workloads ex2b-compare --seeds 1-5 --trace 1

Each run is its own `run.py` process, one at a time. For every workload and
metric the table gives the median and quartiles over the seeds, and, for
end-to-end metrics, the spread (q3 - q1) / median next to the metric's bound
in BENCHMARK.json. A spread above a third of its bound is flagged ``WIDE``.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(workload, seed, seconds, trace):
    """One run.py process: (its result line, its wall seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    for line in proc.stdout.splitlines()[:-1]:
        if line.startswith("CHECK FAILED"):
            print(f"  {workload} seed {seed}: {line}")
    return json.loads(proc.stdout.splitlines()[-1]), time.perf_counter() - t0


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        results, walls = zip(*(run_one(workload, seed, args.seconds, args.trace)
                               for seed in args.seeds))
        bad = sum(1 for r in results if not r["correct"])
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"\n{workload}: seeds {args.seeds[0]}-{args.seeds[-1]}, "
              f"{bad} runs not correct, {failed}/{attempted} samples failed, "
              f"run wall time median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        print(f"  {'metric':30} {'unit':10} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                           else (values[0],) * 3)
            line = (f"  {name:30} {first['unit']:10} {med:12.6g} {q1:12.6g} {q3:12.6g}")
            if name in bounds:
                spread = (q3 - q1) / med if med else float("inf")
                flag = "  WIDE" if spread > bounds[name] / 3 else ""
                line += f" {spread:8.4f} {bounds[name]:6.3f}{flag}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
