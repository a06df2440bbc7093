"""Parity of traced and untraced runs, and the cost of tracing.

    python3 benchmark/parity.py [--workload golden] [--pairs 3]

For each workload, runs benchmark/run.py in pairs, untraced and traced with
the same seed, alternating which runs first.  Both runs of a pair must
print the same digest of every program output and the same attempted and
failed counts.  The tracing overhead is the median per-round wall time of
the traced runs minus that of the untraced runs.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from spread import ROOT, one_run


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    help="workload to run (default: every workload)")
    ap.add_argument("--pairs", type=int, default=3)
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        walls = {0: [], 1: []}
        for seed in range(1, args.pairs + 1):
            order = (0, 1) if seed % 2 else (1, 0)
            runs = {t: one_run(workload, seed, spec["run_seconds"], t) for t in order}
            for r in runs.values():
                r.update(digest=r["summary"]["digest"], wall_s=float(r["summary"]["wall_s"]),
                         rounds=int(r["summary"]["rounds"]))
            plain, traced = runs[0], runs[1]
            same = (plain["digest"] == traced["digest"] and
                    plain["failed"] * traced["rounds"] == traced["failed"] * plain["rounds"] and
                    plain["attempted"] * traced["rounds"] == traced["attempted"] * plain["rounds"])
            ok &= same
            for t in (0, 1):
                walls[t].append(runs[t]["wall_s"])
            print(f"{workload} seed {seed}: {'same' if same else 'DIFFERENT'} outputs "
                  f"(digest {plain['digest'][:12]}), attempted/failed per round "
                  f"{plain['attempted'] // plain['rounds']}/{plain['failed'] // plain['rounds']}, "
                  f"wall_s untraced {plain['wall_s']:.3f} traced {traced['wall_s']:.3f}",
                  flush=True)
        m0, m1 = statistics.median(walls[0]), statistics.median(walls[1])
        print(f"{workload}: tracing overhead {m1 - m0:+.3f} s per round "
              f"({(m1 - m0) / m0:+.1%} of the untraced median {m0:.3f} s)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
