"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steady.py --workloads fleet_mix --seeds 1-10 [--trace 0]
        [--out perfbench/baseline.json]

For every end-to-end metric it prints the median over the runs and the
inter-quartile distance as a share of the median (the benchmark's
steadiness measure), and flags a spread at or above a third of the
metric's bound in BENCHMARK.json.  ``--out`` writes the medians,
spreads and every run's value, with a host block.  Runs are sequential: one benchmark process at a
time.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import quartile_spread  # noqa: E402


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report: dict = {}
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seed_list(args.seeds):
            result = run_once(workload, seed, bench["run_seconds"], args.trace)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()
            ), file=sys.stderr, flush=True)
        rows = report[workload] = {}
        for name, series in values.items():
            spread = quartile_spread(series)
            rows[name] = {"median": statistics.median(series), "spread": spread, "values": series}
            flag = ""
            if name in bounds and spread >= bounds[name] / 3:
                flag, steady = "  <-- spread >= bound/3", False
            print(f"{workload:18} {name:26} median {statistics.median(series):14.6g}"
                  f"  spread {spread:7.2%}{flag}", flush=True)
    if args.out:
        args.out.write_text(json.dumps({
            "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                     "machine": platform.machine()},
            "run_seconds": bench["run_seconds"],
            "seeds": args.seeds,
            "trace": args.trace,
            "workloads": report,
        }, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
