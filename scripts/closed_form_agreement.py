#!/usr/bin/env python3
"""Sweep the conditional solver against the binary closed form.

For a fair bit observed through a symmetric flip channel the conditional
rate-distortion function is h_b(p) - h_b(D) for D in (0, p].  This script
solves the same problem numerically across a (p, D) grid and reports the
worst disagreement, which should sit far below the 1e-4 acceptance window
of test 5.  Exits 1 when it does not.

    python scripts/closed_form_agreement.py --flip-probs 0.02,0.15,0.25,0.4,0.45 --points 25
"""

import argparse
import sys

import numpy as np

from semrd import binary_conditional_rd
from semrd.nets import doubly_symmetric_joint
from semrd.rd import ba_conditional_target, hamming_distortion

WINDOW_BITS = 1e-4  # test 5's acceptance window


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--flip-probs", default="0.05,0.1,0.2,0.3",
                    help="comma-separated channel flip probabilities")
    ap.add_argument("--points", type=int, default=9,
                    help="number of distortion targets per flip probability")
    args = ap.parse_args(argv)

    d = hamming_distortion(2)
    worst = 0.0
    print("p,target,solver_bits,closed_form_bits,abs_error,iterations")
    for p in (float(tok) for tok in args.flip_probs.split(",")):
        joint = doubly_symmetric_joint(p)
        for target in np.linspace(p / args.points, p, args.points):
            pt = ba_conditional_target(joint, d, float(target))
            want = binary_conditional_rd(p, float(target))
            err = abs(pt.rate - want)
            worst = float(np.maximum(worst, err))  # a NaN error sticks
            print(f"{p:g},{target:.6f},{pt.rate:.9f},{want:.9f},"
                  f"{err:.3e},{pt.iterations}")
    print(f"# worst absolute error: {worst:.3e} bits", file=sys.stderr)
    return 0 if worst <= WINDOW_BITS else 1


if __name__ == "__main__":
    raise SystemExit(main())
