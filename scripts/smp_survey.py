#!/usr/bin/env python3
"""Survey the simplest-core classification over rotational canonical
laminations.

For every rotational set with rotation-number denominator up to a bound,
build its canonical lamination and run the classifier; tally verdicts by
rotational type.
"""

import argparse
import sys
from collections import Counter
from fractions import Fraction

from trilam.lamination import canonical_of_rotational, classify_smp, hold_leaf_budget
from trilam.lamsets import classify_rotational, enumerate_rotational, format_lamset


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-q", type=int, default=4)
    ap.add_argument("--depth", type=int, default=4)
    ap.add_argument("--orbits", type=int, default=2, choices=[1, 2])
    args = ap.parse_args()

    sets = [(rho, G) for q in range(2, args.max_q + 1) for p in range(1, q)
            for rho in [Fraction(p, q)] if rho.denominator == q
            for G in enumerate_rotational(3, rho, args.orbits)]
    try:  # every set's leaf bound, from its seeds, before the first build
        for _, G in sets:
            hold_leaf_budget(3, len(canonical_of_rotational(G, 0).leaves), args.depth)
    except ValueError as exc:  # a negative depth, or a LeafBudgetError
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    tally = Counter()
    for rho, G in sets:
        rep = classify_rotational(G)
        v = classify_smp(canonical_of_rotational(G, depth=args.depth))
        tally[(rep.type_tag, v.case_tag)] += 1
        print(f"{format_lamset(G)}  rho={rho} type={rep.type_tag} -> {v.case_tag}")
    print()
    for (typ, verdict), n in sorted(tally.items()):
        print(f"type {typ} -> {verdict}: {n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
