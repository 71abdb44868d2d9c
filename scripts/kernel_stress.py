#!/usr/bin/env python3
"""Stress the rate-distortion kernel and the target search on random sources.

Draws ``--sources`` seeded sources of 2-6 letters, each with a Hamming, a
squared-error or a random distortion matrix (2-6 reconstruction letters,
about 30 % of the entries 0), and solves each at nine slopes from -1000 to
-0.05 with ``ba_point``, each on a fresh engine, then sweeps each source
over the same nine slopes, shallow slope first, on one engine
(``rd_curve``), so every point after the first is warm-started from the one
before.  Then it runs ``--draws`` seeded draws each of a target
(``ba_target``), a conditional target (``ba_conditional_target``) and a
two-variable joint target solve (``ba_joint_multi_target``), with targets
drawn between each coordinate's distortion floor and its zero-rate corner.
Last, it solves each joint draw again three times with its first target
near its floor, a fraction 1e-9, 1e-6 or 1e-3 of the way to its corner,
and its second in the middle of its span.

Prints one CSV row per kind of solve: the points solved, the iterations they
took, the most any one took, the kernel evaluations they made, the most any
one solve made (a sweep is one solve of nine points; each slope search stops
at ``rd._MAX_EVALS`` evaluations, so for one-constraint targets this column
shows the margin), the bad points and the unmet targets.  A point
is bad when its rate or a distortion is NaN or when a kernel evaluation it
made (``_MultiSolver.eval``) returned ``converged=False``; a target is unmet
when the target search returned ``converged=False`` although every
evaluation converged, a fault of the search (it cannot meet a joint target
on a linear segment of the surface), not of the kernel.  Each bad point and
unmet target goes to stderr with the call that reproduces it.  Exits 1 when
any point is bad, or when more targets are unmet than ``--max-unmet``.

    python scripts/kernel_stress.py --sources 600 --draws 150 --max-unmet 3
"""

import argparse
import sys

import numpy as np

from semrd import rd
from semrd.rd import (RdCurve, ba_conditional_target, ba_joint_multi_target, ba_point,
                      ba_target, hamming_distortion, min_distortion, rd_curve,
                      squared_error_distortion, trivial_distortion)

SLOPES = (-1000.0, -300.0, -100.0, -30.0, -10.0, -3.0, -1.0, -0.3, -0.05)
# how close to its floor the first target of a near-floor joint solve sits,
# as a fraction of the way to its zero-rate corner
NEAR_FLOOR = (1e-9, 1e-6, 1e-3)


def _source(rng, k):
    """A source on k letters; Dirichlet(1/2) draws leave some letters rare."""
    p = rng.dirichlet(np.full(k, 0.5))
    return p / p.sum()


def _distortion(rng, kind, k):
    if kind == 0:
        return hamming_distortion(k)
    if kind == 1:
        return squared_error_distortion(k)
    kh = int(rng.integers(2, 7))
    return rng.uniform(0.0, 3.0, size=(k, kh)) * (rng.random((k, kh)) >= 0.3)


def _target(rng, floor, corner):
    return float(floor + rng.uniform(0.05, 0.95) * (corner - floor))


def _sources(sources):
    for seed in range(sources):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 7))
        yield _source(rng, k), _distortion(rng, seed % 3, k)


def _points(sources):
    for p, d in _sources(sources):
        for slope in SLOPES:
            yield (f"ba_point({p.tolist()}, {d.tolist()}, {slope})",
                   lambda p=p, d=d, s=slope: ba_point(p, d, s))


def _sweeps(sources):
    for p, d in _sources(sources):
        yield (f"rd_curve({p.tolist()}, {d.tolist()}, slopes={list(SLOPES[::-1])})",
               lambda p=p, d=d: rd_curve(p, d, slopes=SLOPES[::-1]))


def _targets(draws):
    for seed in range(draws):
        rng = np.random.default_rng(100_000 + seed)
        k = int(rng.integers(2, 7))
        p, d = _source(rng, k), _distortion(rng, seed % 3, k)
        t = _target(rng, min_distortion(p, d), trivial_distortion(p, d))
        yield f"ba_target({p.tolist()}, {d.tolist()}, {t})", lambda p=p, d=d, t=t: ba_target(p, d, t)


def _conditional_targets(draws):
    for seed in range(draws):
        rng = np.random.default_rng(200_000 + seed)
        k, ny = int(rng.integers(2, 7)), int(rng.integers(2, 4))
        joint = _source(rng, k * ny).reshape(k, ny)
        d = _distortion(rng, seed % 3, k)
        py = joint.sum(axis=0)
        states = [(w, joint[:, y] / w) for y, w in enumerate(py) if w > 0]
        floor = sum(w * min_distortion(c, d) for w, c in states)
        corner = sum(w * trivial_distortion(c, d) for w, c in states)
        t = _target(rng, floor, corner)
        yield (f"ba_conditional_target({joint.tolist()}, {d.tolist()}, {t})",
               lambda j=joint, d=d, t=t: ba_conditional_target(j, d, t))


def _joint_source(seed):
    """Joint draw ``seed``: its rng, a two-variable source, the two distortion
    matrices and each coordinate's (floor, corner)."""
    rng = np.random.default_rng(300_000 + seed)
    cards = [int(c) for c in rng.integers(2, 4, size=2)]
    joint = _source(rng, cards[0] * cards[1]).reshape(cards)
    dists = [_distortion(rng, (seed + i) % 3, k) for i, k in enumerate(cards)]
    spans = [(min_distortion(m, d), trivial_distortion(m, d))
             for m, d in zip((joint.sum(axis=1), joint.sum(axis=0)), dists)]
    return rng, joint, dists, spans


def _joint_call(joint, dists, targets):
    return (f"ba_joint_multi_target({joint.tolist()}, {[d.tolist() for d in dists]}, {targets})",
            lambda: ba_joint_multi_target(joint, dists, targets))


def _joint_targets(draws):
    for seed in range(draws):
        rng, joint, dists, spans = _joint_source(seed)
        yield _joint_call(joint, dists, tuple(_target(rng, *span) for span in spans))


def near_floor_joint_target(seed, f):
    """Joint draw ``seed`` with its first target a fraction ``f`` of the way
    from floor to corner, and its second in the middle of its span."""
    _, joint, dists, ((floor, corner), span) = _joint_source(seed)
    return _joint_call(joint, dists, (floor + f * (corner - floor), 0.5 * sum(span)))


def _near_floor_joint_targets(draws):
    for seed in range(draws):
        for f in NEAR_FLOOR:
            yield near_floor_joint_target(seed, f)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sources", type=int, default=600,
                    help="random sources solved at each of the nine slopes, then swept over them")
    ap.add_argument("--draws", type=int, default=150,
                    help="random draws of each kind of target solve")
    ap.add_argument("--max-unmet", type=int, default=None,
                    help="exit 1 when more targets than this are unmet (default: no limit)")
    args = ap.parse_args(argv)

    real_eval = rd._MultiSolver.eval
    failed = []  # one flag per kernel evaluation of the current point: True if unconverged

    def eval_checked(self, slopes):
        out = real_eval(self, slopes)
        failed.append(not out[3])
        return out

    print("kind,points,iterations,max_iterations,evaluations,max_evaluations,bad,unmet")
    total_bad = total_unmet = 0
    rd._MultiSolver.eval = eval_checked
    try:
        for kind, cases in (("point", _points(args.sources)),
                            ("sweep", _sweeps(args.sources)),
                            ("target", _targets(args.draws)),
                            ("conditional_target", _conditional_targets(args.draws)),
                            ("joint_target", _joint_targets(args.draws)),
                            ("near_floor_joint", _near_floor_joint_targets(args.draws))):
            points = iters = most = evals = most_evals = bad = unmet = 0
            for call, solve in cases:
                failed.clear()
                out = solve()
                evals += len(failed)
                most_evals = max(most_evals, len(failed))
                # a sweep point is one evaluation, whose flag it carries
                judged = ([(pt, not pt.converged) for pt in out.points]
                          if isinstance(out, RdCurve) else [(out, any(failed))])
                for pt, fail in judged:
                    points += 1
                    iters += pt.iterations
                    most = max(most, pt.iterations)
                    if np.isnan([pt.rate, *pt.distortions]).any() or fail:
                        bad += 1
                        print(f"# bad: {call} -> {pt}", file=sys.stderr)
                    elif not pt.converged:
                        unmet += 1
                        print(f"# unmet: {call} -> {pt}", file=sys.stderr)
            print(f"{kind},{points},{iters},{most},{evals},{most_evals},{bad},{unmet}")
            total_bad += bad
            total_unmet += unmet
    finally:
        rd._MultiSolver.eval = real_eval
    too_many = args.max_unmet is not None and total_unmet > args.max_unmet
    if too_many:
        print(f"# {total_unmet} unmet targets, more than --max-unmet {args.max_unmet}", file=sys.stderr)
    return 1 if total_bad or too_many else 0


if __name__ == "__main__":
    sys.exit(main())
