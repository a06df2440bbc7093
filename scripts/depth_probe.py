#!/usr/bin/env python3
"""Build, check, write and read back one golden lamination at a given depth.

In one process, builds the named recipe, runs `check_invariance` on it,
formats it with `dumps` and reads the text back with `loads`, timing each
step.  Prints the seconds of each step, the process's peak resident memory
(ru_maxrss) after each, the leaf count, whether the check passed, the
seconds of build, check and dumps together, the sha256 of the written text,
and whether `loads` gave back the same lamination:

    PYTHONPATH=src python3 scripts/depth_probe.py fingap1 --depth 10

The recipes are those of scripts/gap_gallery.py.
"""

import argparse
import hashlib
import resource
import sys
import time

from gap_gallery import GALLERY  # the golden suite, by name
from trilam.lamination import check_invariance, dumps, loads

RECIPES = dict(GALLERY)


def _rss_mb() -> float:
    """The peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("recipe", choices=sorted(RECIPES))
    ap.add_argument("--depth", type=int, default=8)
    args = ap.parse_args()

    t0 = time.perf_counter()
    try:
        L = RECIPES[args.recipe](args.depth)
    except ValueError as exc:  # a negative depth, or a LeafBudgetError
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    t1 = time.perf_counter()
    rss_build = _rss_mb()
    report = check_invariance(L)
    t2 = time.perf_counter()
    rss_check = _rss_mb()
    text = dumps(L)
    t3 = time.perf_counter()
    rss_dumps = _rss_mb()
    M = loads(text)
    t4 = time.perf_counter()
    rss_loads = _rss_mb()
    same = (M.d, M.depth, M.recipe, M.registry_complete, M.leaves) == \
        (L.d, L.depth, L.recipe, L.registry_complete, L.leaves) and \
        [g.serialize() for g in M.gaps] == [g.serialize() for g in L.gaps]

    print(f"recipe: {args.recipe} depth={args.depth}")
    print(f"leaves: {len(L.leaves)}")
    print(f"check_ok: {str(report.ok).lower()}")
    print(f"build_s: {t1 - t0:.3f} rss_mb: {rss_build:.1f}")
    print(f"check_s: {t2 - t1:.3f} rss_mb: {rss_check:.1f}")
    print(f"dumps_s: {t3 - t2:.3f} rss_mb: {rss_dumps:.1f}")
    print(f"total_s: {t3 - t0:.3f}")
    print(f"dumps_sha256: {hashlib.sha256(text.encode()).hexdigest()}")
    print(f"loads_s: {t4 - t3:.3f} rss_mb: {rss_loads:.1f}")
    print(f"loads_equal: {str(same).lower()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
