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
Then it solves each joint draw again three times with its first target
near its floor, a fraction 1e-9, 1e-6 or 1e-3 of the way to its corner,
and its second in the middle of its span.  Then it runs ``--draws`` seeded
draws each of two additive joint solves, whose rate is the sum of
per-coordinate rates: two independent coordinates (``product_joint``,
summing ``ba_target`` solves) and two coordinates independent given a
side variable (``side_joint``, summing ``ba_conditional_target`` solves,
Lemma 2).  Last, it solves each joint draw at the slope vectors (0, s) and
(s, 0) for s in -3, -1 and -0.3, each on one engine (``_MultiSolver``)
first cold, then again after a solve at (2s, 2s).

Prints one CSV row per kind of solve: the points solved, the iterations they
took, the most any one took, the kernel evaluations they made, the most any
one solve made (a sweep is one solve of nine points; a target search ends
after ``rd._MAX_EVALS`` rounds of Newton steps and the master, so this
column shows how far from that any search came), the bad points, the
unmet targets and the off reports.  A point is bad when its rate or a
distortion is NaN or when a kernel evaluation it made
(``_MultiSolver.eval``, the additive rows' per-coordinate solves
included) returned ``converged=False``; a target is unmet when a target
search returned ``converged=False`` although every evaluation converged, a
fault of the search, not of the kernel; an additive joint report is off
when every search converged but the joint rate is more than ``OFF_TOL``
bits from the sum of its terms.  Each bad point, unmet target and off
report goes to stderr with the call that reproduces it.  A zero-slope
point is also bad when a distortion of its warm solve differs from the cold
one by more than ``rd.DIST_TOL``, or a zero-slope coordinate's distortion
lies over that coordinate's zero-rate corner; its iterations are those of
its three solves.  Exits 1 when any point is bad or off, or when more
targets are unmet than ``--max-unmet``.

    python scripts/kernel_stress.py --sources 600 --draws 150 --max-unmet 0
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
#: A uniform bit with an erase letter: R(D) is linear in D over most of its span.
ERASURE = np.array([[0.0, 8.0, 1.0], [8.0, 0.0, 1.0]])
#: How far (bits) a joint rate may sit from the sum of its per-coordinate rates.
OFF_TOL = 1e-5


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


def _target(rng, floor, corner, margin=0.05):
    return float(floor + rng.uniform(margin, 1.0 - margin) * (corner - floor))


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


def _additive_distortion(rng, k):
    """A distortion matrix for k letters, one of four kinds at even odds:
    Hamming; the erasure matrix scaled by U(0.5, 2) for 2 letters, U(0, 3)
    entries on 3 reconstruction letters for 3; squared error; U(0, 3)
    entries on 2 or 3 reconstruction letters."""
    kind = int(rng.integers(4))
    if kind == 0:
        return hamming_distortion(k)
    if kind == 1:
        return ERASURE * rng.uniform(0.5, 2.0) if k == 2 else rng.uniform(0.0, 3.0, size=(k, 3))
    if kind == 2:
        return squared_error_distortion(k)
    return rng.uniform(0.0, 3.0, size=(k, int(rng.integers(2, 4))))


def product_joint_target(seed):
    """Product draw ``seed``: two independent coordinates of 2 or 3 letters,
    p ~ Dirichlet(1) each, with ``_additive_distortion`` matrices and targets
    between each coordinate's floor and corner.  The thunk returns the joint
    solve and the per-coordinate ``ba_target`` solves, whose rates add up to
    the joint rate."""
    rng = np.random.default_rng(400_000 + seed)
    ks = [int(k) for k in rng.integers(2, 4, size=2)]
    ps = [rng.dirichlet(np.ones(k)) for k in ks]
    dists = [_additive_distortion(rng, k) for k in ks]
    targets = tuple(_target(rng, min_distortion(p, d), trivial_distortion(p, d), 0.02)
                    for p, d in zip(ps, dists))
    joint = np.outer(*ps)
    call, solve = _joint_call(joint, dists, targets)
    return call, lambda: (solve(), [ba_target(p, d, t) for p, d, t in zip(ps, dists, targets)])


def side_joint_target(seed):
    """Side draw ``seed``: a side variable Y of 2 or 3 states, p(y) ~
    Dirichlet(1), and two coordinates independent given Y, each
    p(x_i | y) ~ Dirichlet(0.7) on 2 or 3 letters, with
    ``_additive_distortion`` matrices and targets between each coordinate's
    conditional floor and corner.  The thunk returns the joint solve given
    Y and the per-coordinate ``ba_conditional_target`` solves, whose rates
    add up to the joint rate (Lemma 2)."""
    rng = np.random.default_rng(500_000 + seed)
    ny = int(rng.integers(2, 4))
    py = rng.dirichlet(np.ones(ny))
    ks = [int(k) for k in rng.integers(2, 4, size=2)]
    conds = [rng.dirichlet(np.full(k, 0.7), size=ny) for k in ks]  # p(x_i | y), (ny, k)
    dists = [_additive_distortion(rng, k) for k in ks]
    targets = tuple(_target(rng, sum(w * min_distortion(c, d) for w, c in zip(py, cond)),
                            sum(w * trivial_distortion(c, d) for w, c in zip(py, cond)), 0.02)
                    for cond, d in zip(conds, dists))
    joint = py[:, None, None] * conds[0][:, :, None] * conds[1][:, None, :]  # (y, x1, x2)
    margs = [(py[:, None] * cond).T for cond in conds]  # joint[x_i, y]
    return (f"ba_joint_multi_target({joint.tolist()}, {[d.tolist() for d in dists]}, {targets}, "
            "side=True)",
            lambda: (ba_joint_multi_target(joint, dists, targets, side=True),
                     [ba_conditional_target(m, d, t) for m, d, t in zip(margs, dists, targets)]))


def _zero_slope_point(seed, slopes):
    """Joint draw ``seed`` at ``slopes`` on one engine, solved cold and then
    again after a solve at twice its nonzero slope on both coordinates:
    the cold point, converged when the two solves' distortions agree within
    ``rd.DIST_TOL`` and no zero-slope distortion lies over its coordinate's
    zero-rate corner by more."""
    _, joint, dists, spans = _joint_source(seed)
    solver = rd._solver(joint, dists)
    rate, cold, _, _ = solver.eval(slopes)
    solver.eval((2.0 * min(slopes),) * 2)
    _, warm, _, _ = solver.eval(slopes)
    ok = (np.abs(warm - cold) <= rd.DIST_TOL).all() and all(
        dist <= corner + rd.DIST_TOL for s, dist, (_, corner) in zip(slopes, cold, spans) if s == 0.0)
    return rd.RdPoint(float(rate), tuple(cold.tolist()), slopes, solver.iters, bool(ok))


def _zero_slope_points(draws):
    for seed in range(draws):
        for s in (-3.0, -1.0, -0.3):
            for slopes in ((0.0, s), (s, 0.0)):
                yield (f"_zero_slope_point({seed}, {slopes})",
                       lambda seed=seed, slopes=slopes: _zero_slope_point(seed, slopes))


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

    print("kind,points,iterations,max_iterations,evaluations,max_evaluations,bad,unmet,off")
    total_bad = total_unmet = total_off = 0
    rd._MultiSolver.eval = eval_checked
    try:
        for kind, cases in (("point", _points(args.sources)),
                            ("sweep", _sweeps(args.sources)),
                            ("target", _targets(args.draws)),
                            ("conditional_target", _conditional_targets(args.draws)),
                            ("joint_target", _joint_targets(args.draws)),
                            ("near_floor_joint", _near_floor_joint_targets(args.draws)),
                            ("product_joint", map(product_joint_target, range(args.draws))),
                            ("side_joint", map(side_joint_target, range(args.draws))),
                            ("zero_slope", _zero_slope_points(args.draws))):
            points = iters = most = evals = most_evals = bad = unmet = off = 0
            for call, solve in cases:
                failed.clear()
                out, terms = solve(), []
                if isinstance(out, tuple):  # a joint solve and the terms its rate adds up from
                    out, terms = out
                evals += len(failed)
                most_evals = max(most_evals, len(failed))
                # a sweep point is one evaluation, whose flag it carries; a
                # zero-slope point's own verdict is its convergence
                judged = ([(pt, not pt.converged) for pt in out.points]
                          if isinstance(out, RdCurve) else
                          [(out, any(failed) or (kind == "zero_slope" and not out.converged))])
                for pt, fail in judged:
                    points += 1
                    iters += pt.iterations
                    most = max(most, pt.iterations)
                    if np.isnan([pt.rate, *pt.distortions]).any() or fail:
                        bad += 1
                        print(f"# bad: {call} -> {pt}", file=sys.stderr)
                    elif not (pt.converged and all(t.converged for t in terms)):
                        unmet += 1
                        print(f"# unmet: {call} -> {pt}, terms {terms}", file=sys.stderr)
                    elif terms and abs(pt.rate - sum(t.rate for t in terms)) > OFF_TOL:
                        off += 1
                        print(f"# off: {call} -> {pt}, terms {terms}", file=sys.stderr)
            print(f"{kind},{points},{iters},{most},{evals},{most_evals},{bad},{unmet},{off}")
            total_bad += bad
            total_unmet += unmet
            total_off += off
    finally:
        rd._MultiSolver.eval = real_eval
    too_many = args.max_unmet is not None and total_unmet > args.max_unmet
    if too_many:
        print(f"# {total_unmet} unmet targets, more than --max-unmet {args.max_unmet}", file=sys.stderr)
    return 1 if total_bad or too_many or total_off else 0


if __name__ == "__main__":
    sys.exit(main())
