"""Rate-distortion solvers for discrete sources, alone or with side information.

All rates are in bits.  Every solve here is the same problem: R(D) of a
discrete source over a product reconstruction alphabet, with one distortion
constraint per variable and optionally a side variable known at both ends.
``_MultiSolver`` is the only engine.  The single-variable entry points
(``ba_point``, ``ba_target``) are its one-constraint case without a side
axis, and the conditional ones (``ba_conditional``, ``ba_conditional_target``)
are its one-constraint case with one; each source (each side state's source,
with a side axis) is normalized by its sum before solving.

The workhorse is an alternating-minimization loop at a fixed slope vector
s <= 0: the test channel is tilted as

    Q(xhat | x)  proportional to  q(xhat) * 2^(sum_i s_i * d_i(x_i, xhat_i)),

and the reconstruction marginal q is refreshed from Q until the classic
upper/lower bound bracket on the parametric objective closes below
``GAP_TOL_NATS`` (see ``_ba_slope_core``).  With a side axis, one call of
that loop steps every side state's q together, and each state stops on its
own bracket.  Slopes are the Lagrange multipliers of the distortion
constraints, so a target-distortion solve runs a bracketing secant on each
slope; with side information the same slopes apply to every side state,
which is exactly the optimal distortion allocation across side states.
Every target solve, with one constraint or several, is the same search
(``_target_search``): coordinate sweeps (coordinate ascent on the concave
Lagrange dual), each slope search opening at the point the sweep holds.

A target point is accepted when its distortion is under the target within
``DIST_TOL`` *and* the complementary-slackness defect (-s) * (target - D) is
below a small rate budget — the defect bounds how far the dual value can sit
from the true constrained minimum, and it is the right test at zero-rate
corners and on linear curve segments where D(s) jumps across the target.

The tolerances and iteration caps are the module constants below; only the
multi-constraint entry points take options: ``limit`` (the product
test-channel size guard, also applied to the one-constraint case at its
default) and, for target solves, ``init_slopes``.

Conventions: a 2-d conditional source is passed as ``joint[x, y]`` (side
variable last); a multi-variable source has one axis per variable with an
optional side axis *first*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bn import DEFAULT_SIZE_GUARD
from .errors import InvalidStateError, SizeGuardError
from .info import binary_entropy

#: Stop when the bound bracket is tighter than this (nats).
GAP_TOL_NATS = 1e-9
#: Target-distortion tolerance.
DIST_TOL = 1e-6
#: Per-constraint complementary-slackness budget (bits).
SLACK_TOL = 3e-6
MAX_ITERS = 10_000
_MAX_EVALS = 48


@dataclass(frozen=True)
class RdPoint:
    """One solved point: rate, achieved distortions, and the slopes used."""

    rate: float
    distortions: tuple[float, ...]
    slopes: tuple[float, ...]
    iterations: int
    converged: bool

    @property
    def distortion(self) -> float:
        return self.distortions[0]

    @property
    def slope(self) -> float:
        return self.slopes[0]


@dataclass(frozen=True)
class RdCurve:
    points: tuple[RdPoint, ...]
    monotone: bool
    convex: bool


@dataclass(frozen=True)
class DistortionSpec:
    """Per-variable distortion matrices d_i(x_i, xhat_i)."""

    matrices: tuple[np.ndarray, ...]

    @classmethod
    def hamming(cls, cards: Sequence[int]) -> "DistortionSpec":
        return cls(tuple(hamming_distortion(k) for k in cards))

    @classmethod
    def squared_error(cls, cards: Sequence[int]) -> "DistortionSpec":
        return cls(tuple(squared_error_distortion(k) for k in cards))

    def for_var(self, i: int) -> np.ndarray:
        return self.matrices[i]


def hamming_distortion(k: int) -> np.ndarray:
    return 1.0 - np.eye(k)


def squared_error_distortion(k: int) -> np.ndarray:
    idx = np.arange(k, dtype=float)
    return (idx[:, None] - idx[None, :]) ** 2


def _check_dist(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if not np.isfinite(p).all() or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        raise InvalidStateError(f"not a distribution (sum {p.sum():.12g})")
    return p


def trivial_distortion(p, d) -> float:
    """Best constant-guess distortion min_xhat E d(X, xhat): the zero-rate corner."""
    p = _check_dist(np.asarray(p, float).reshape(-1))
    return float((p @ np.asarray(d, float)).min())


def min_distortion(p, d) -> float:
    """Distortion floor sum_x p(x) min_xhat d(x, xhat); targets below it are infeasible."""
    p = np.asarray(p, float).reshape(-1)
    return float(p @ np.asarray(d, float).min(axis=1))


def _ba_slope_core(p, a, q, max_iters):
    """Alternating minimization at fixed tilts, for a stack of sources at once.

    ``p`` is (states, rows): each side state's source on its support, padded
    with zeros to the widest support; ``a`` is (states, rows, nh): the tilt
    matrices 2^(sum_i s_i * d_i) on those rows, each row shifted by its
    maximum so it keeps an exact 1 and never underflows to an empty row (a
    padding row is all 1, so A q stays positive on it); ``q`` is
    (states, nh), the starting reconstruction marginals.  With c the
    multiplicative update applied to q, each state's parametric objective is
    bracketed by

        F(q) + 1 - max_xhat c(xhat)  <=  min F  <=  F(q) - sum qc ln c,

    and a state stops, and leaves the stack, once its own bracket is tighter
    than ``GAP_TOL_NATS``; the others keep stepping, so one slow state runs
    at single-state cost.  The bracket holds at any interior q, so plain
    update pairs are interleaved with extrapolated (Steffensen-type) steps
    that collapse the slow modes appearing at shallow slopes; a state keeps
    its extrapolated q only when that does not increase its convex potential
    -sum p ln(Aq).  The stacked products work slice by slice, so a state
    without padding rows gets the arithmetic of a solve of it alone (padding
    only regroups its sums).  Returns the final q, the iterations and the
    convergence flag of every state.
    """
    q_out = np.empty_like(q)
    iters = np.zeros(len(q), int)
    conv = np.zeros(len(q), bool)
    live = np.arange(len(q))  # the state in each slot of the stack

    def col(x):
        """One number per state, shaped to scale each state's row (a lone
        state's as a plain float, the cheapest operand to broadcast)."""
        return x[0] if len(x) == 1 else np.array(x)[:, None]

    def step(q, alpha, p, a):
        c = np.vecmat(p / alpha, a)
        qc = q * c
        if np.count_nonzero(qc) == qc.size:  # qc >= 0
            lnc = np.add.reduce(qc * np.log(c), axis=1).tolist()
        else:  # a dead letter: sum each state's positive terms only
            pos = qc > 0
            lnc = [np.add.reduce(qc[k][pos[k]] * np.log(c[k][pos[k]])) for k in range(len(q))]
        cmax = np.maximum.reduce(c, axis=1).tolist()
        done = [(cm - 1.0) - s < GAP_TOL_NATS for cm, s in zip(cmax, lnc)]
        return qc / col(np.add.reduce(qc, axis=1).tolist()), done

    def leave(done, qd, it, live, *stack):
        """Record the states whose gap closed; return the others' rows."""
        done = np.array(done)
        gone = live[done]
        q_out[gone], iters[gone], conv[gone] = qd[done], it, True
        return [x[~done] for x in (live, *stack)]

    alpha = np.matvec(a, q)  # A q of the current q, carried over between cycles
    it = 0
    while it < max_iters:
        q1, done = step(q, alpha, p, a)
        it += 1
        if any(done):
            live, p, a, q, q1 = leave(done, q1, it, live, p, a, q, q1)
            if not len(live):
                break
        q2, done = step(q1, np.matvec(a, q1), p, a)
        it += 1
        if any(done):
            live, p, a, q, q1, q2 = leave(done, q2, it, live, p, a, q, q1, q2)
            if not len(live):
                break
        r = q1 - q
        v = (q2 - q1) - r
        vv = np.vecdot(v, v).tolist()
        ok = [0.0 < x < math.inf for x in vv]
        if any(ok):
            # extrapolate to q - 2 am r + am^2 v with am = -b <= -1
            b = col([max(math.sqrt(y / x), 1.0) if o else 1.0
                     for o, x, y in zip(ok, vv, np.vecdot(r, r).tolist())])
            qa = q + (2.0 * b) * r + (b * b) * v
            np.maximum(qa, 0.0, out=qa)
            tot = np.add.reduce(qa, axis=1).tolist()
            ok = [o and 0.0 < t < math.inf for o, t in zip(ok, tot)]
        if not any(ok):  # no state has an extrapolation to try
            q, alpha = q2, np.matvec(a, q2)
            continue
        if not all(ok):  # these states keep q2: stand it in to stay finite
            np.copyto(qa, q2, where=col([not o for o in ok]))
            tot = [t if o else 1.0 for o, t in zip(ok, tot)]
        qa /= col(tot)
        # keep letters revivable after clipping
        np.maximum(qa, 1e-280 * col(np.maximum.reduce(qa, axis=1).tolist()), out=qa)
        qa /= col(np.add.reduce(qa, axis=1).tolist())
        # keep qa where it does not increase the potential -p.ln(Aq)
        alphas = np.matvec(a, np.concatenate((qa, q2)).reshape(2, *q.shape))
        pa, p2 = np.vecdot(p, np.log(alphas)).tolist()
        take = [o and x >= y for o, x, y in zip(ok, pa, p2)]
        if all(take):
            q, alpha = qa, alphas[0]
        else:
            take = np.array(take)[:, None]
            np.copyto(q2, qa, where=take)
            np.copyto(alphas[1], alphas[0], where=take)
            q, alpha = q2, alphas[1]
    else:
        q_out[live], iters[live] = q, it
    return q_out, iters, conv


def _accept(s: float, dist: float, target: float, dist_tol: float,
            slack_tol: float = SLACK_TOL) -> bool:
    return dist <= target + dist_tol and (-s) * (target - dist) <= slack_tol


def _slope_root(ev: Callable, target: float, dist_tol: float, start, slack_tol: float):
    """Drive the achieved distortion to the target by moving the slope.

    ``ev(s) -> (rate, dist, dvec, iters, conv)`` with distortion
    nondecreasing in s; ``dvec`` is the full distortion vector.  ``start`` is
    a point ``(slope, rate, dist, dvec, conv)`` that ``ev`` has already solved
    exactly (not a timeshared mix), and the search opens there: it doubles
    away from 0 while the distortion is over the target (from slope 0 the
    first step is -1) and halves toward 0 (at most three times, then 0
    itself) while it is under, so slope 0 is solved only when the walk
    reaches it and the start point is not solved again on the way.  The
    bracket is closed by an Illinois secant; when the distortion jumps over
    the target the result timeshares across the bracket, which convexity
    makes exact.

    Returns (rate, dist, dvec, slope, total_iters, converged, exact), where
    ``exact`` is False only for a timeshared mix, which no single solve at the
    returned slope reproduces.
    """
    total = evals = 0
    s, rate, dist, pay, conv = start
    start_at_zero = s == 0.0
    hi = lo = None
    halvings = 0
    while True:
        if _accept(s, dist, target, dist_tol, slack_tol):
            return rate, dist, pay, s, total, conv, True
        if dist > target:
            hi, r_hi, d_hi, pay_hi, c_hi = s, rate, dist, pay, conv
            if lo is not None:
                break
            if -s > 1e18 or evals >= _MAX_EVALS:
                return rate, dist, pay, s, total, False, True  # cannot reach down to target
            s = 2.0 * s if s < 0.0 else -1.0
        else:
            lo, r_lo, d_lo, pay_lo, c_lo = s, rate, dist, pay, conv
            if hi is not None:
                break
            # under the target at a warm slope: walk toward 0 by halving and
            # solve slope 0 itself only once the walk gets there
            halvings += 1
            s = 0.5 * s if halvings <= 3 and s < -2e-3 else 0.0
        rate, dist, pay, it, conv = ev(s)
        total += it
        evals += 1
    if hi == 0.0 and start_at_zero:
        # The held slope-0 point came before the probe solves concentrated the
        # reconstruction marginal; the constraint may now be slack at slope 0
        # exactly, where convergence is clean — preferable to chasing a
        # vanishing slope it can't resolve.
        r0, d0, p0, it, c0 = ev(0.0)
        total += it
        evals += 1
        if _accept(0.0, d0, target, dist_tol, slack_tol):
            return r0, d0, p0, 0.0, total, c0, True
        r_hi, d_hi, pay_hi, c_hi = r0, d0, p0, c0
    f_lo, f_hi = d_lo - target, d_hi - target
    side = 0
    while evals < _MAX_EVALS and hi - lo > 1e-13 * max(1.0, -lo):
        if f_hi > f_lo:
            mid = hi - f_hi * (hi - lo) / (f_hi - f_lo)
            if not lo < mid < hi:
                mid = 0.5 * (lo + hi)
        else:
            mid = 0.5 * (lo + hi)
        rate, dist, pay, it, conv = ev(mid)
        total += it
        evals += 1
        if _accept(mid, dist, target, dist_tol, slack_tol):
            return rate, dist, pay, mid, total, conv, True
        if dist > target:
            hi, r_hi, d_hi, pay_hi, c_hi = mid, rate, dist, pay, conv
            f_hi = dist - target
            if side == 1:
                f_lo *= 0.5
            side = 1
        else:
            lo, r_lo, d_lo, pay_lo, c_lo = mid, rate, dist, pay, conv
            f_lo = dist - target
            if side == -1:
                f_hi *= 0.5
            side = -1
    if d_hi - d_lo > dist_tol:  # distortion jumped: linear segment, timeshare is exact
        lam = (target - d_lo) / (d_hi - d_lo)
        ok = hi - lo <= 1e-13 * max(1.0, -lo)
        return ((1 - lam) * r_lo + lam * r_hi, target, (1 - lam) * pay_lo + lam * pay_hi,
                lo, total, bool(ok and c_lo and c_hi), False)
    return r_lo, d_lo, pay_lo, lo, total, c_lo, True


class _MultiSolver:
    """The rate-distortion engine: m per-variable constraints over the product
    reconstruction alphabet, optionally given a side variable (axis 0 of the
    joint array).  Everything that does not depend on the slopes is worked out
    once here; ``eval`` steps all side states in one kernel call, each
    warm-started from its previous q."""

    def __init__(self, joint, dists, side: bool = False, limit: int = DEFAULT_SIZE_GUARD):
        joint = np.asarray(joint, float)
        if side:
            if joint.ndim < 2:
                raise InvalidStateError("side=True needs a leading side axis")
            ny = joint.shape[0]
            cards = joint.shape[1:]
        else:
            ny = 1
            cards = joint.shape
            joint = joint[None, ...]
        self.m = len(cards)
        if len(dists) != self.m:
            raise InvalidStateError(f"{len(dists)} distortion matrices for {self.m} variables")
        _check_dist(joint.reshape(-1))
        dists = [np.asarray(d, float) for d in dists]
        for k, d in zip(cards, dists):
            if d.ndim != 2 or d.shape[0] != k:
                raise InvalidStateError(f"distortion matrix of shape {d.shape} needs {k} rows, one per state")
            if not (np.isfinite(d).all() and (d >= 0).all()):
                raise InvalidStateError("distortion matrix entries must be finite and >= 0")
        nx = math.prod(cards)
        self.nh = nh = math.prod(d.shape[1] for d in dists)
        if ny * nx * nh > limit:  # eval holds one table per side state at once
            raise SizeGuardError(f"product test-channel table {nx}x{nh} for {ny} side states "
                                 f"exceeds guard {limit}")
        ix = np.unravel_index(np.arange(nx), tuple(cards))
        ih = np.unravel_index(np.arange(nh), tuple(d.shape[1] for d in dists))
        # one all-zero row after the nx source rows: its tilt row is all 1
        self.lifted = np.zeros((self.m, nx + 1, nh))
        for i, d in enumerate(dists):
            self.lifted[i, :nx] = d[ix[i][:, None], ih[i][None, :]]
        flat = joint.reshape(ny, nx)
        py = flat.sum(axis=1)
        ys = np.flatnonzero(py > 0)
        self.weights = py[ys]
        conds = flat[ys] / py[ys, None]
        # each state's support rows in order, padded to the widest support
        # with the all-zero row nx at zero probability
        width = int(np.count_nonzero(conds, axis=1).max())
        order = np.argsort(conds == 0, axis=1, kind="stable")[:, :width]
        self.p = np.take_along_axis(conds, order, axis=1)
        self.rows = np.where(self.p > 0, order, nx)
        self.warm = None
        # per-coordinate zero-rate corner and feasibility floor, aggregated over y
        arr = conds.reshape(-1, *cards)
        corner = np.empty((len(ys), 2, self.m))
        for i, d in enumerate(dists):
            other = tuple(a + 1 for a in range(self.m) if a != i)
            marg = (arr.sum(axis=other) if other else arr)[:, None, :]
            corner[:, 0, i] = np.minimum.reduce(marg @ d, axis=2)[:, 0]
            corner[:, 1, i] = (marg @ d.min(axis=1)[:, None])[:, 0, 0]
        self.trivs, self.floors = _state_sum(self.weights, corner)

    def eval(self, slopes, iters: int | None = None) -> tuple[float, np.ndarray, int, bool]:
        """Solve at a fixed slope vector; returns (rate, D vector, iters, converged).

        One ``_ba_slope_core`` call steps every side state; the rate and the
        distortions are the p(y)-weighted sums over the states, ``iters`` the
        most any state took and ``converged`` whether every state did.
        All-zero slopes give the zero-rate corner exactly, with 0 iterations.
        """
        if not any(slopes):
            return 0.0, self.trivs.copy(), 0, True
        expo = slopes[0] * self.lifted[0]
        for i in range(1, self.m):
            expo = expo + slopes[i] * self.lifted[i]
        a = np.exp2(expo - np.maximum.reduce(expo, axis=1, keepdims=True))[self.rows]
        q = np.full((len(a), self.nh), 1.0 / self.nh)
        if self.warm is not None:
            q0 = self.warm
            tot = np.add.reduce(q0, axis=1, keepdims=True)
            ok = (np.minimum.reduce(q0, axis=1, keepdims=True) >= 0.0) & (tot > 0.0)
            # mild mixing keeps dead letters revivable without perturbing the
            # solution when the optimal face is degenerate
            q = np.where(ok, 0.995 * (q0 / tot) + 0.005 / self.nh, q)
        q, its, conv = _ba_slope_core(self.p, a, q, iters or MAX_ITERS)
        self.warm = q
        channel = a * q[:, None, :] / np.matvec(a, q)[:, :, None]
        qm = np.vecmat(self.p, channel)[:, None, :]
        pos = (channel > 0) & (qm > 0)  # qm can underflow below tiny channel entries
        info = channel * np.log2(np.divide(channel, qm, out=np.ones_like(channel), where=pos))
        rates = np.maximum(np.vecdot(self.p, np.add.reduce(info, axis=2)), 0.0)
        dists = [np.vecdot(self.p, np.add.reduce(channel * lift[self.rows], axis=2))
                 for lift in self.lifted]
        total = _state_sum(self.weights, np.column_stack([rates, *dists]))
        return total[0], total[1:], int(its.max()), bool(conv.all())


def _state_sum(w, x):
    """sum_k w[k] * x[k], added in state order: numpy's pairwise ``sum``
    would group the terms differently from a running sum over the states."""
    return np.add.accumulate(w.reshape((-1,) + (1,) * (x.ndim - 1)) * x, axis=0)[-1]


def _coord_adjust(solver, slopes, i, target, dist_tol, slack_tol, held):
    """Move slope i so its own distortion meets the target, others fixed.

    ``held`` is ``(rate, D vector, converged)`` from an exact solve at the
    current ``slopes``, and the slope search opens there.  Returns (slope,
    rate, own distortion, D vector, iters, converged, exact), where ``exact``
    is False when the point is a timeshared mix.
    """

    def ev(s):
        slopes[i] = s
        rate, dvec, it, conv = solver.eval(slopes)
        return rate, dvec[i], dvec, it, conv

    start = (slopes[i], held[0], held[1][i], held[1], held[2])
    rate, dist_i, dvec, s, it, conv, exact = _slope_root(ev, target, dist_tol, start, slack_tol)
    return s, rate, dist_i, dvec, it, conv, exact


def _target_search(solver: _MultiSolver, targets, init_slopes=None) -> RdPoint:
    """Rate at per-variable distortion targets: the one target search.

    Coordinate sweeps adjust one slope at a time to meet its own target (or
    park it at 0 when the constraint goes slack), holding the others — this is
    coordinate ascent on the concave Lagrange dual, warm-started between
    evaluations.  Each adjustment opens its slope search at the point the
    sweep holds for the current slope vector, so that point is not solved
    again and slope 0 is solved only when the search walks to it; a held
    timeshared mix is first re-solved at the slopes it sits at.  Sweeping
    stops once all constraints check out or the slope vector goes
    quasi-static.  A held exact, converged point is then reported as is;
    otherwise a final solve at the settled slopes with a larger iteration
    budget defines the reported point.
    """
    targets = np.asarray(targets, float)
    if np.any(targets < 0):
        raise InvalidStateError(f"targets must be >= 0, got {targets.tolist()}")
    if targets.shape != (solver.m,):
        raise InvalidStateError(f"{targets.size} targets for {solver.m} variables")
    for i in range(solver.m):
        if targets[i] < solver.floors[i] - 1e-12:
            raise InvalidStateError(
                f"target {targets[i]} for variable {i} below floor {solver.floors[i]:.12g}"
            )
    if np.all(targets >= solver.trivs - 1e-15):
        return RdPoint(0.0, tuple(float(t) for t in solver.trivs), (0.0,) * solver.m, 0, True)
    if init_slopes is not None:
        slopes = np.minimum(np.asarray(init_slopes, float), 0.0)
    else:
        slopes = np.array([0.0 if targets[i] >= solver.trivs[i] - 1e-15 else -1.0
                           for i in range(solver.m)])
    rate, dvec, total_it, conv = solver.eval(slopes)
    exact = True  # (rate, dvec, conv) is a solve at exactly these slopes
    # Coarse sweeps localize the slopes with relaxed windows (cheap, avoids
    # burning iterations deep inside jittery brackets), then a couple of
    # precise sweeps bind each constraint to DIST_TOL from slopes that are
    # already close.
    for sweeps, dtol, stol in ((12, 1e-4, 1e-4), (3, DIST_TOL, SLACK_TOL)):
        for _ in range(sweeps):
            prev = slopes.copy()
            moved = False
            for i in range(solver.m):
                if _accept(slopes[i], dvec[i], targets[i], dtol, stol):
                    continue
                if not exact:
                    rate, dvec, it, conv = solver.eval(slopes)
                    total_it += it
                slopes[i], rate, _, dvec, it, conv, exact = _coord_adjust(
                    solver, slopes, i, float(targets[i]), dtol, stol, (rate, dvec, conv)
                )
                total_it += it
                moved = True
            ok = all(_accept(slopes[i], dvec[i], targets[i], dtol, stol)
                     for i in range(solver.m))
            if ok and not moved:
                break
            # capped inner solves jitter the distortions; once the slopes are
            # quasi-static the sweep has settled as far as it can
            if moved and np.all(np.abs(slopes - prev) <= 1e-6 * np.maximum(1.0, -prev)):
                break
    ok = all(_accept(slopes[i], dvec[i], targets[i], DIST_TOL) for i in range(solver.m))
    if not (exact and conv):
        r2, d2, it, c2 = solver.eval(slopes, iters=4 * MAX_ITERS)
        total_it += it
        ok2 = all(_accept(slopes[i], d2[i], targets[i], DIST_TOL) for i in range(solver.m))
        if ok2 or not ok:
            # the high-budget solve at the settled slopes defines the point,
            # unless only the held one meets the targets (a timeshared point:
            # no single slope does)
            rate, dvec, conv, ok = r2, d2, c2, ok2
    return RdPoint(float(rate), tuple(float(d) for d in dvec), tuple(float(s) for s in slopes),
                   total_it, bool(ok and conv))


def _side_first(joint) -> np.ndarray:
    """A 2-d conditional source ``joint[x, y]`` with its side axis moved first."""
    joint = np.asarray(joint, float)
    if joint.ndim != 2:
        raise InvalidStateError("conditional source must be a 2-d joint[x, y]")
    return joint.T


def _plain_solver(p, d) -> _MultiSolver:
    return _MultiSolver(np.asarray(p, float).reshape(-1), [d])


def _conditional_solver(joint, d) -> _MultiSolver:
    return _MultiSolver(_side_first(joint), [d], side=True)


def _fixed_slope_points(solver: _MultiSolver, grid) -> list[RdPoint]:
    """Points at each slope vector of ``grid``, solved in order on the one
    solver, so each solve is warm-started from the one before it."""
    points = []
    for slopes in grid:
        slopes = tuple(float(s) for s in slopes)
        if any(s > 0 for s in slopes):
            raise InvalidStateError(f"slopes must be <= 0, got {slopes}")
        if len(slopes) != solver.m:
            raise InvalidStateError(f"{len(slopes)} slopes for {solver.m} variables")
        rate, dvec, it, conv = solver.eval(slopes)
        # The zero-rate corner (rate 0, distortions ``trivs``) is feasible at
        # every slope.  Where it is optimal, a warm-started solve can stop up
        # to the gap tolerance above it, so keep whichever of the two has the
        # lower objective R - s.D.
        if rate - float(np.dot(slopes, dvec)) > -float(np.dot(slopes, solver.trivs)):
            rate, dvec = 0.0, solver.trivs
        points.append(RdPoint(float(rate), tuple(float(x) for x in dvec), slopes, it, conv))
    return points


def ba_point(p, d, slope: float) -> RdPoint:
    """One curve point at a fixed slope for a plain source.

    ``slope == 0`` returns the zero-rate corner (best constant guess), the
    limit the iteration approaches but never reaches.
    """
    return _fixed_slope_points(_plain_solver(p, d), [(slope,)])[0]


def ba_target(p, d, target: float) -> RdPoint:
    """R(D) at a target distortion for a plain source."""
    return _target_search(_plain_solver(p, d), [target])


def ba_conditional(joint, d, slope: float) -> RdPoint:
    """One curve point at a fixed slope when the side variable is known at
    both encoder and decoder.  ``joint[x, y]``; rate is sum_y p(y) R_y."""
    return _fixed_slope_points(_conditional_solver(joint, d), [(slope,)])[0]


def ba_conditional_target(joint, d, target: float) -> RdPoint:
    """Conditional R(D) at a target aggregate distortion."""
    return _target_search(_conditional_solver(joint, d), [target])


def ba_joint_multi(joint, dists, slopes, *, side: bool = False,
                   limit: int = DEFAULT_SIZE_GUARD) -> RdPoint:
    """One point on the multi-constraint surface at a fixed slope vector."""
    return _fixed_slope_points(_MultiSolver(joint, dists, side, limit), [slopes])[0]


def ba_joint_multi_target(joint, dists, targets, *, side: bool = False,
                          limit: int = DEFAULT_SIZE_GUARD,
                          init_slopes: Sequence[float] | None = None) -> RdPoint:
    """Joint rate at per-variable distortion targets, by the target search
    that every target solve runs (see ``_target_search``).  ``init_slopes``
    can seed the sweep, e.g. with slopes from per-variable solves."""
    return _target_search(_MultiSolver(joint, dists, side, limit), targets, init_slopes)


# ---------------------------------------------------------------------------
# closed forms for the doubly symmetric binary and jointly Gaussian cases
# ---------------------------------------------------------------------------


def binary_conditional_rd(p: float, target: float) -> float:
    """h_b(p) - h_b(D) for 0 <= D <= p, else 0: the conditional rate-distortion
    function of a binary source seen through a symmetric flip channel p."""
    if not 0.0 <= p <= 0.5:
        raise InvalidStateError(f"flip probability {p} outside [0, 0.5]")
    if target < 0.0:
        raise InvalidStateError(f"target distortion must be >= 0, got {target}")
    if target >= p:
        return 0.0
    return binary_entropy(p) - binary_entropy(target)


def gaussian_conditional_rd(sigma: float, r: float, target: float) -> float:
    """(1/2) log2(sigma^2 (1 - r^2) / D), clamped at 0: conditional
    rate-distortion of a Gaussian with correlation r to the side variable."""
    if sigma <= 0.0:
        raise InvalidStateError(f"sigma must be > 0, got {sigma}")
    if not -1.0 <= r <= 1.0:
        raise InvalidStateError(f"correlation {r} outside [-1, 1]")
    if target <= 0.0:
        raise InvalidStateError(f"target distortion must be > 0, got {target}")
    ceiling = sigma * sigma * (1.0 - r * r)
    if target >= ceiling:
        return 0.0
    return 0.5 * math.log2(ceiling / target)


# ---------------------------------------------------------------------------
# curve sweeps
# ---------------------------------------------------------------------------


def _curve(make_solver, source, d, slopes, targets) -> RdCurve:
    """Solve every grid point, sort by distortion, and flag monotonicity and
    convexity of the result.  A slope grid is solved in the given order on one
    warm-started solver; each target gets a fresh one."""
    if (slopes is None) == (targets is None):
        raise InvalidStateError("provide exactly one of slopes= or targets=")
    if slopes is not None:
        pts = _fixed_slope_points(make_solver(source, d), [(s,) for s in slopes])
    else:
        pts = [_target_search(make_solver(source, d), [t]) for t in targets]
    pts = tuple(sorted(pts, key=lambda pt: pt.distortion))
    monotone = all(
        pts[k + 1].rate <= pts[k].rate + 1e-9 for k in range(len(pts) - 1)
    )
    convex = True
    for k in range(1, len(pts) - 1):
        d0, d2 = pts[k - 1].distortion, pts[k + 1].distortion
        if d2 - d0 < 1e-12:
            continue
        lam = (pts[k].distortion - d0) / (d2 - d0)
        chord = (1 - lam) * pts[k - 1].rate + lam * pts[k + 1].rate
        if pts[k].rate > chord + 5e-6:
            convex = False
    return RdCurve(pts, monotone, convex)


def default_slope_grid(n: int = 25, lo: float = -12.0, hi: float = -0.2) -> tuple[float, ...]:
    """Geometric grid of slopes covering near-lossless to near-zero-rate."""
    return tuple(-np.geomspace(-lo, -hi, n))


def rd_curve(p, d, *, slopes: Sequence[float] | None = None,
             targets: Sequence[float] | None = None) -> RdCurve:
    """Sweep a plain source over a slope grid or a target-distortion list."""
    return _curve(_plain_solver, p, d, slopes, targets)


def rd_curve_conditional(joint, d, *, slopes: Sequence[float] | None = None,
                         targets: Sequence[float] | None = None) -> RdCurve:
    """Sweep a conditional source (side known both ends) the same way."""
    return _curve(_conditional_solver, joint, d, slopes, targets)
