"""Run-to-run spread of the end-to-end metrics.

    python3 benchmark/spread.py --workload golden --runs 10 [--first-seed 1]

Runs benchmark/run.py once per seed, one run after another, with the run
length from BENCHMARK.json, and prints each run's metrics and, per metric,
the median, the quartiles and the spread: the distance between the first
and third quartiles as a share of the median.  A metric's spread should
stay well inside its bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run benchmark/run.py once and return its result, with the fields of
    its `#` summary line under "summary"."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{proc.returncode}: {proc.stderr}")
    result = json.loads(lines[-1])
    result["summary"] = dict(p.split("=", 1) for p in lines[0][2:].split())
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = one_run(args.workload, seed, spec["run_seconds"], 0)
        runs.append(result)
        print(json.dumps({"seed": seed, "failed": result["failed"],
                          "attempted": result["attempted"],
                          **{k: v["value"] for k, v in result["metrics"].items()}}),
              flush=True)
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share: {sorted(shares)}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(f"{name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {(q3 - q1) / med if med else 0.0:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
