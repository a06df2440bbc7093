#!/usr/bin/env python3
"""Census of invariant rotational sets by rotation number.

For every reduced rotation number p/q with q up to a bound, list the
rotational sets of the tripling (or doubling) map with one or two vertex
orbits, together with their types.
"""

import argparse
import sys
from fractions import Fraction

from trilam.lamsets import (
    classify_rotational,
    enumerate_rotational,
    format_lamset,
    hold_scan_budget,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, default=3, choices=[2, 3],
                    help="degree of the angle map")
    ap.add_argument("--max-q", type=int, default=5,
                    help="largest rotation-number denominator")
    ap.add_argument("--orbits", type=int, default=2, choices=[1, 2])
    args = ap.parse_args()
    try:  # the largest q scans the most points: hold it before the first scan
        hold_scan_budget(args.d, args.max_q)
    except ValueError as exc:  # a LeafBudgetError
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

    totals = {"A": 0, "B": 0, "D": 0}
    for q in range(2, args.max_q + 1):
        for p in range(1, q):
            rho = Fraction(p, q)
            if rho.denominator != q:
                continue
            sets = enumerate_rotational(args.d, rho, args.orbits)
            print(f"rho = {p}/{q}: {len(sets)} sets")
            for G in sets:
                rep = classify_rotational(G)
                totals[rep.type_tag] += 1
                print(f"  {format_lamset(G)}  type={rep.type_tag} "
                      f"orbits={rep.orbit_count}")
    print("totals: " + " ".join(f"{t}={n}" for t, n in sorted(totals.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
