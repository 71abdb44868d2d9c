"""Rate-distortion solvers for discrete sources, alone or with side information.

All rates are in bits.  ``_MultiSolver`` is the one engine: R(D) of a
discrete source over a product reconstruction alphabet, with one distortion
constraint per variable and optionally a side variable known at both ends,
whose states are solved one by one (each state's source normalized by its
sum) and summed with weights p(y).  ``ba_point`` and ``ba_target`` are its
one-constraint case without a side axis, ``ba_conditional`` and
``ba_conditional_target`` its one-constraint case with one.

A solve at a fixed slope vector s <= 0 tilts the test channel as

    Q(xhat | x)  proportional to  q(xhat) * 2^(sum_i s_i * d_i(x_i, xhat_i))

and refines the reconstruction marginal q (``_ba_slope_core``, ``_newton``)
until its bound bracket closes below ``GAP_TOL_NATS``.  Each side state
starts from its q of the engine's previous solve; a state that starts over
opens at the closed-form optimum (``_closed_form_q``) where its tilt is
small and square and every letter is active, else at the uniform q.  A zero
slope reports its optimal face's least distortion (``eval``).  The slopes
are the Lagrange multipliers of the distortion constraints, and every
target solve searches them on the concave Lagrange dual
(``_target_search``): Newton steps on the slope vector (``_slope_newton``),
and where they stall a master LP over the search's solves (``_master``,
Dantzig & Wolfe 1960) whose duals price the next solve.  A solve is
accepted (``_accept``) when each distortion is under its target within
``DIST_TOL`` and each complementary-slackness defect (-s) * |target - D| is
under ``SLACK_TOL``: the defect bounds how far the dual value sits from the
constrained minimum.  Where D(s) jumps across a target, no solve passes and
the master's timeshare is reported.  The README's solver section describes
the method and its measured behaviour.

The tolerances and iteration caps are the module constants below; the
solvers take no options.  Between solves the engine holds its m lifted
distortion tables and one reconstruction marginal per side state, and a solve
builds one state's test channel at a time; ``size_guard()`` still counts
max(m, side states) x nx x nh entries, the lifted tables or all the channels.
Targets must be numbers and slopes finite: a NaN target, an infinite slope
or slopes that overflow the tilt are refused before any solve.

Conventions: the engine takes a source with the side axis first and then
one axis per variable (a source without side information is a single side
state), and a list of one distortion matrix per variable.  The public
multi-variable names take the same layout, with the side axis present only
under ``side=True``.  Only the 2-d conditional wrappers (``ba_conditional``,
``ba_conditional_target``, ``rd_curve_conditional``) take ``joint[x, y]``,
side variable last, and transpose it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bn import _check_size
from .errors import InvalidStateError
from .info import binary_entropy

#: Stop when the bound bracket is tighter than this (nats).
GAP_TOL_NATS = 1e-9
#: Target-distortion tolerance.
DIST_TOL = 1e-6
#: Per-constraint complementary-slackness budget (bits).
SLACK_TOL = 3e-6
MAX_ITERS = 10_000
#: Blahut-Arimoto iterations before a slow state moves to Newton on q.
_NEWTON_AFTER = 30
#: Newton drops shrinking letters under this fraction of the largest.
_NEWTON_FLOOR = 1e-12
#: Newton merges letters whose columns of A agree to this (rows' maxima are 1).
_NEWTON_MERGE = 1e-14
#: Step halvings before a Newton line search gives up.
_SEARCH_HALVINGS = 64
#: Rounds of a target search: a Newton phase, then the master.
_MAX_EVALS = 48
#: Probes of a Newton phase on the slope vector.
_MAX_SWEEPS = 12


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


def hamming_distortion(k: int) -> np.ndarray:
    return 1.0 - np.eye(k)


def squared_error_distortion(k: int) -> np.ndarray:
    idx = np.arange(k, dtype=float)
    return (idx[:, None] - idx[None, :]) ** 2


def _check_source(joint: np.ndarray, cards, dists) -> list[np.ndarray]:
    """Check that ``joint`` is a distribution of one or more variables and that
    ``dists`` holds one finite, nonnegative distortion matrix per variable, of
    one row per state (``cards``) and some columns; returns them as floats."""
    total = joint.sum()  # tested first: an empty source has no minimum
    if not (abs(total - 1.0) <= 1e-9 and joint.min() >= 0.0):  # also a NaN or an inf
        raise InvalidStateError(f"not a distribution (sum {total:.12g})")
    if not cards or len(dists) != len(cards):
        raise InvalidStateError(f"{len(dists)} distortion matrices for {len(cards)} variables; "
                                "a source needs at least one variable")
    dists = [np.asarray(d, float) for d in dists]
    for k, d in zip(cards, dists):
        if d.ndim != 2 or d.shape[0] != k or d.shape[1] == 0:
            raise InvalidStateError(f"distortion matrix of shape {d.shape} needs {k} rows and a column")
        if not (d.min() >= 0.0 and d.max() < math.inf):  # also a NaN
            raise InvalidStateError("distortion matrix entries must be finite and >= 0")
    return dists


def trivial_distortion(p, d) -> float:
    """Best constant-guess distortion min_xhat E d(X, xhat): the zero-rate corner."""
    p = np.asarray(p, float).reshape(-1)
    (d,) = _check_source(p, p.shape, [d])
    return float((p @ d).min())


def min_distortion(p, d) -> float:
    """Distortion floor sum_x p(x) min_xhat d(x, xhat); targets below it are infeasible."""
    p = np.asarray(p, float).reshape(-1)
    (d,) = _check_source(p, p.shape, [d])
    return float(p @ d.min(axis=1))


def _uniform_q_slope(p, d, target: float) -> float:
    """An opening slope for a ``target`` between the floor and the zero-rate
    corner of the source ``p`` under ``d``, in closed form.

    The matrix is read as c times the Hamming one on its excess over each
    row's floor, c the mean excess per off-floor letter, and the slope is
    the one at which the test channel with a uniform reconstruction
    marginal meets the target there: for Hamming distortion on k letters
    log2(D / ((k - 1)(1 - D))), the Shannon lower-bound slope, which is the
    solved slope wherever that bound is tight.  A target at the floor, whose
    root is at -inf, opens at -1100 over the smallest positive excess, where
    every tilt off the floor underflows to 0.
    """
    g = d - d.min(axis=1, keepdims=True)  # excess over each row's floor
    t = target - float(p @ d.min(axis=1))
    if t > 0.0:
        n = g.shape[1]
        unit = float(p @ g.sum(axis=1)) / (n - 1)  # c for c times Hamming
        return math.log2(t / ((n - 1) * (unit - t))) / unit
    return -1100.0 / float(np.min(g, where=g > 0.0, initial=math.inf))


def _closed_form_q(p, a):
    """The kernel's optimum q in closed form where every letter is active
    there, else None.

    With a square tilt A, c = A^T (p / Aq) = 1 on every letter at
    q = A^-1 (p / r), r = A^-T 1: the backward-channel solution behind the
    Shannon lower bound (Berger 1971, 2.5; Blahut 1972), the optimum when
    r > 0 and q > 0.  Only tilts of at most 2 ``_NEWTON_AFTER`` letters are
    inverted, where the O(n^3) inverse costs less than the Blahut-Arimoto
    steps it saves.  None also where A is singular or q is not finite.  An
    inexact q costs the kernel iterations, not its answer: the bracket
    still decides where it stops.
    """
    n = a.shape[1]
    if a.shape[0] != n or n > 2 * _NEWTON_AFTER:
        return None
    with np.errstate(all="ignore"):
        try:
            inv = np.linalg.inv(a)
        except np.linalg.LinAlgError:
            return None
        r = inv.sum(axis=0)
        q = inv @ (p / r)
        tot = q.sum()
        if r.min() > 0.0 and q.min() > 0.0 and tot < math.inf:  # also a NaN
            return q / tot
    return None


def _ba_slope_core(p, a, q):
    """Alternating minimization at fixed tilts for one source.

    ``p`` is (rows,): a side state's source on its support; ``a`` is
    (rows, nh): the tilt matrix 2^(sum_i s_i * d_i) on those rows, each row
    shifted by its maximum so it keeps an exact 1 and never underflows to an
    empty row; ``q`` is (nh,), the starting reconstruction marginal.  With c
    the multiplicative update applied to q, the parametric objective is
    bracketed by

        F(q) + 1 - max_xhat c(xhat)  <=  min F  <=  F(q) - sum qc ln c,

    and the loop stops once the bracket is tighter than ``GAP_TOL_NATS``.
    The bracket holds at any interior q, so plain update pairs alternate
    with extrapolated (Steffensen-type) steps, which collapse the slow modes
    of shallow slopes.  A bracket still open after ``_NEWTON_AFTER``
    iterations hands the state to ``_newton``.  Both kinds of step count
    one iteration under ``MAX_ITERS``.  Returns (q, iters, converged,
    handed): ``handed`` is whether the loop handed the state to Newton.
    """
    it = 0
    while it < min(MAX_ITERS, _NEWTON_AFTER):
        qs = [q]  # q and its two plain updates q1, q2
        for _ in range(2):
            c = (p / (a @ qs[-1])) @ a
            qc = qs[-1] * c
            pos = qc > 0  # a dead letter adds no term
            gap = (np.maximum.reduce(c) - 1.0) - np.add.reduce(qc[pos] * np.log(c[pos]))
            it += 1
            qs.append(qc / np.add.reduce(qc))
            if gap < GAP_TOL_NATS:
                return qs[-1], it, True, False
        q, q1, q2 = qs
        r = q1 - q
        v = (q2 - q1) - r
        vv, rr = float(v @ v), float(r @ r)
        # b * b = rr / vv must stay finite for the step below to be
        if 0.0 < vv < math.inf and rr / vv < math.inf:
            # extrapolate to q - 2 am r + am^2 v with am = -b <= -1
            b = max(math.sqrt(rr / vv), 1.0)
            qa = q + (2.0 * b) * r + (b * b) * v
            # clip at 1e-280 of the largest letter, not at 0: A q stays
            # positive on every row, and the update q c revives a letter
            # from there in a few steps
            np.maximum(qa, 1e-280 * np.maximum.reduce(qa), out=qa)
            tot = np.add.reduce(qa)
            if 0.0 < tot < math.inf:
                q2 = qa / tot
        q = q2
    if it < MAX_ITERS:
        return (*_newton(p, a, q, it), True)
    return q, it, False, False  # capped


def _newton(p, a, q, it):
    """Active-set Newton on q for one state: p (rows,), a (rows, nh).

    At fixed tilts the kernel minimizes F(q) = -sum p ln(Aq) over the
    simplex, whose EM step is the Blahut-Arimoto update q <- q c with
    c = A^T (p / Aq) = -grad F.  Letters whose columns of A round alike to
    ``_NEWTON_MERGE`` (``_column_keys``) are merged: Newton moves their
    total and keeps their ratios.  Where every c <= 1, p / Aq <= 1 on every
    row (each row has an entry 1), so the merge moves no letter's c by more
    than rows * ``_NEWTON_MERGE``, far under the stop tolerance.  Merged
    letters under ``_NEWTON_FLOOR`` of the largest start off the support S.
    Each step joins to S the letter off it that most violates c <= 1 and
    solves

        [H 1; 1^T 0] [d; mu] = [c_S - 1; 0],   H = A_S^T diag(p / (Aq)^2) A_S,

    for a step d with sum d = 0 (a letter joining with d <= 0 is left out),
    capped where the first letter of S reaches 0 and shortened by
    ``_search``.  Where the system gives no finite descent step, or the
    search fails, the state steps along e_k - q toward the vertex of the
    merged letter k of largest c (Lindsay 1983): -dF along it is c_k - 1, at
    least the gap, and it puts k on S.  After a step a letter under the
    floor leaves S when it is shrinking (c < 1) or rounding left it at or
    under 0.  The stop test is the kernel's bracket over every letter,
    unmerged.  Returns (q, it, converged), ``it`` counting on from the given
    count, one per step, up to ``MAX_ITERS``.
    """
    ids = {}  # letters whose columns of A round alike are one merged letter
    group = np.array([ids.setdefault(k, len(ids)) for k in _column_keys(a)])
    g = np.bincount(group, q)  # the merged letters' masses
    share = np.divide(q, g[group], out=1.0 / np.bincount(group)[group], where=g[group] > 0)
    merge = np.zeros((len(q), len(ids)))
    merge[np.arange(len(q)), group] = share
    b = a @ merge  # the merged letters' columns: A q = b g for q = g[group] * share
    # letters the loop left under the floor start off S: on S they would cap
    # the ratio test, or outnumber the rows and leave the KKT system singular
    g[g <= _NEWTON_FLOOR * g.max()] = 0.0
    while True:
        g /= np.add.reduce(g)
        q = g[group] * share
        alpha = a @ q
        cq = (p / alpha) @ a
        qc = q * cq
        pos = qc > 0
        gap = (np.maximum.reduce(cq) - 1.0) - qc[pos] @ np.log(cq[pos])  # the bracket over every letter
        if gap < GAP_TOL_NATS or it >= MAX_ITERS:
            return q, it, bool(gap < GAP_TOL_NATS)
        it += 1
        c = cq @ merge
        on = g > 0
        j = int(np.where(on, -np.inf, c).argmax())
        joined = not on[j] and c[j] > 1.0
        s = on.copy()
        s[j] |= joined
        d = _kkt_step(p, b, alpha, c, s)
        if joined and d is not None and d[np.count_nonzero(s[:j])] <= 0.0:
            s[j] = False
            d = _kkt_step(p, b, alpha, c, s)
        t = _search(p, b, alpha, c, g, s, d) if d is not None else 0.0
        if not t:  # the vertex direction e_k - g toward the letter k of largest c
            k = int(c.argmax())
            s = on.copy()
            s[k] = True
            d = -g[s]
            d[np.count_nonzero(s[:k])] += 1.0
            t = _search(p, b, alpha, c, g, s, d)
        g[s] += t * d
        # a letter that is shrinking, or that rounding left at or under 0,
        # leaves S under the floor; a joined one keeps its first small step
        g[(g <= _NEWTON_FLOOR * np.maximum.reduce(g)) & ((c < 1.0) | (g < 0.0))] = 0.0


def _column_keys(a):
    """One key per letter (column of ``a``), shared by the letters whose
    columns round alike to ``_NEWTON_MERGE``."""
    return [k.tobytes() for k in np.rint(a * (1.0 / _NEWTON_MERGE)).T.copy()]


def _kkt_step(p, a, alpha, c, s):
    """The Newton step on support ``s`` (see ``_newton``), or None when the
    KKT system gives no finite descent direction."""
    kkt = _kkt_matrix(p, a[:, s], alpha)
    rhs = np.zeros(len(kkt))
    rhs[:-1] = c[s] - 1.0
    try:
        d = np.linalg.solve(kkt, rhs)[:-1]
    except np.linalg.LinAlgError:
        return None
    return d if 0.0 < rhs[:-1] @ d < math.inf and np.isfinite(d).all() else None


def _kkt_matrix(p, a, alpha):
    """[H 1; 1^T 0] with H = A^T diag(p / alpha^2) A."""
    n = a.shape[1]
    kkt = np.ones((n + 1, n + 1))
    kkt[:n, :n] = (a.T * (p / (alpha * alpha))) @ a
    kkt[n, n] = 0.0
    return kkt


def _search(p, a, alpha, c, q, s, d):
    """Armijo search of ``_newton`` along d on support s, from the ratio cap
    or 1, whichever is smaller.  Returns the step length, or 0 when
    ``_SEARCH_HALVINGS`` halvings find no sufficient decrease.  The
    decrease is that of F at the normalized point, so a sum of d that
    rounding leaves off 0 does not count as one."""
    neg = d < 0.0
    t = min(float((q[s][neg] / -d[neg]).min()), 1.0) if neg.any() else 1.0
    slope = (c[s] - 1.0) @ d  # -dF along d
    rel = (a[:, s] @ d) / alpha  # A(q + t d) = alpha (1 + t rel)
    tot = d.sum()
    for _ in range(_SEARCH_HALVINGS):
        with np.errstate(divide="ignore", invalid="ignore"):
            drop = p @ np.log1p(t * rel) - math.log1p(t * tot)  # F(q) - F(q + t d)
        if drop >= 1e-4 * t * slope:
            return t
        t *= 0.5
    return 0.0


def _accept(s: float, dist: float, target: float) -> bool:
    return dist <= target + DIST_TOL and (-s) * abs(target - dist) <= SLACK_TOL


class _MultiSolver:
    """The rate-distortion engine: m per-variable constraints over the product
    reconstruction alphabet, given a side variable on axis 0 of the joint
    array (one state of it for a source without side information).
    Everything that does not depend on the slopes is worked out once here;
    ``eval`` solves the side states one after another, each in its own
    kernel call and warm-started from its previous q."""

    def __init__(self, joint, dists):
        joint = np.asarray(joint, float)
        ny, *cards = joint.shape
        self.m = len(cards)
        self.dists = dists = _check_source(joint, cards, dists)
        nx = math.prod(cards)
        letters = [d.shape[1] for d in dists]
        self.nh = nh = math.prod(letters)
        # the m lifted tables, or all side states' channels, though a solve builds one at a time
        k = max(self.m, ny)
        _check_size(k * nx * nh, f"{k}x{nx}x{nh} product test-channel table")
        ix = np.unravel_index(np.arange(nx), tuple(cards))
        ih = np.unravel_index(np.arange(nh), letters)
        # in place, as a list of m tables would double the peak; mode "clip"
        # (every index is in range) skips the buffered copy of mode "raise"
        self.lifted = np.empty((self.m, nx, nh))
        for i, d in enumerate(dists):
            np.take(d[ix[i]], ih[i], axis=1, out=self.lifted[i], mode="clip")
        # d_i(x_i, a) over i's own letters a: lifted[i]'s columns where every other letter is 0
        self.own = [lift[:, :math.prod(letters[i:]):math.prod(letters[i + 1:])]
                    for i, lift in enumerate(self.lifted)]
        flat = joint.reshape(ny, nx)
        py = flat.sum(axis=1)
        ys = (py > 0).nonzero()[0]
        self.weights = py[ys]
        conds = flat[ys] / py[ys, None]
        # each state's support rows; all of them as a slice, which takes views, not copies
        self.rows = [r if len(r) < nx else slice(None) for r in (c.nonzero()[0] for c in conds)]
        self.p = [c[rows] for c, rows in zip(conds, self.rows)]
        self.states = [(None, False)] * len(ys)  # the records of ``eval``
        self.slopes = None  # the last solve's slopes; None after all-zero slopes
        self.held = None  # the last solve's (rate, D vector, converged)
        self.log = []  # every solve's (rate, D vector, slopes, converged)
        self.iters = 0  # the iterations of every solve so far
        # per-coordinate zero-rate corner and feasibility floor, aggregated
        # over y, and the p(y)-weighted marginal of each coordinate
        arr = conds.reshape(-1, *cards)
        corner = np.empty((len(ys), 2, self.m))
        self.margs = []
        for i, d in enumerate(dists):
            marg = arr.sum(axis=tuple(a + 1 for a in range(self.m) if a != i))  # (states, k_i)
            corner[:, 0, i] = (marg @ d).min(axis=1)
            corner[:, 1, i] = marg @ d.min(axis=1)
            self.margs.append(_state_sum(self.weights, marg))
        self.trivs, self.floors = _state_sum(self.weights, corner)

    def _tilt(self, slopes) -> np.ndarray:
        """2^(sum_i s_i d_i) over (x, xhat), each row shifted by its maximum."""
        expo = slopes[0] * self.lifted[0]
        for i in range(1, self.m):
            expo = expo + slopes[i] * self.lifted[i]
        return np.exp2(expo - np.maximum.reduce(expo, axis=1, keepdims=True))

    def eval(self, slopes) -> tuple[float, np.ndarray, int, bool]:
        """Solve at a fixed slope vector; returns (rate, D vector, iters, converged).

        Each side state is its own kernel call on its support rows; the
        rate and the distortions are the p(y)-weighted sums over the states,
        ``iters`` the most any state took and ``converged`` whether every
        state did.  All-zero slopes give the zero-rate corner exactly, with 0
        iterations, and keep the records.  A state starts from its q of the
        previous call, in ``_ba_slope_core``, or in ``_newton`` at iteration
        0 once the loop of any call has handed it there (``handed``), where
        a few steps close a gap next to an optimum Newton reached.  A state
        starts over, outside Newton, on its first call and where its warm q
        leaves a row of A q under 1e-12 (no Armijo search passes from such a
        q, and ``_kkt_matrix`` would divide by that row): from
        ``_closed_form_q``, the optimum itself where every letter is active
        there, else from the uniform q.  The solve keeps (rate, D vector,
        converged) as ``held``, appends it with its slopes to ``log``, adds
        ``iters`` to ``self.iters``, and sets ``slopes`` and a new list
        ``states`` of one record (q, handed) per state, all that a warm start
        reads: ``jacobian`` rebuilds the rest from them, and ``_slope_newton``
        restores them.  At s_i = 0 the tilt ignores xhat_i, so every split of
        q over xhat_i is optimal; D_i is their least,
        sum_xhat min_a sum_x p Q(xhat | x) d_i(x_i, a) (``own``): each xhat
        takes i's best letter given the rest, which costs no rate and moves
        no other D_j.
        """
        self.slopes = None
        if not any(slopes):
            self.held = (0.0, self.trivs.copy(), True)
            self.log.append((0.0, self.held[1], tuple(map(float, slopes)), True))
            return 0.0, self.held[1], 0, True
        tilt = self._tilt(slopes)
        parts, states, iters, converged = [], [], 0, True
        for p, rows, state in zip(self.p, self.rows, self.states):
            a = tilt[rows]
            q, handed = state[:2]
            newton = handed
            low = -1.0 if q is None else q.min()
            # each row of the tilt holds a 1, so A q >= min q: only a q with
            # letters near 0 can leave a row of A q near 0
            if not (low >= 0.0 and q.sum() > 0.0) or (low < 1e-12 and (a @ q).min() < 1e-12):
                q, newton = _closed_form_q(p, a), False
                if q is None:
                    q = np.full(self.nh, 1.0 / self.nh)
            q, its, conv, newly = (*_newton(p, a, q, 0), True) if newton else _ba_slope_core(p, a, q)
            iters, converged = max(iters, its), converged and conv
            alpha = a @ q
            channel = a * q / alpha[:, None]
            states.append((q, handed or newly))
            qm = p @ channel
            pos = (channel > 0) & (qm > 0)  # qm can underflow below tiny channel entries
            info = channel * np.log2(np.divide(channel, qm, out=np.ones(channel.shape), where=pos))
            rate = max(p @ np.add.reduce(info, axis=1), 0.0)
            parts.append([rate, *(p @ np.add.reduce(channel * lift, axis=1) if s
                                  else np.add.reduce(np.minimum.reduce((own[rows].T * p) @ channel))
                                  for s, lift, own in zip(slopes, self.lifted[:, rows], self.own))])
        total = _state_sum(self.weights, np.array(parts))
        self.states, self.slopes = states, tuple(map(float, slopes))
        self.held = (total[0], total[1:], converged)
        self.log.append((total[0], total[1:], self.slopes, converged))
        self.iters += iters
        return total[0], total[1:], iters, converged

    def jacobian(self, act) -> np.ndarray:
        """dD/ds over the coordinates ``act`` (a mask) at the last solve: the
        tilt at ``slopes`` and each state's q give its tilt rows a, A q and
        test channel bit for bit as ``eval`` built them; exact when that solve
        converged.  Raises ``InvalidStateError`` after an all-zero-slope solve.

        For each side state, with Q the test channel a q / (a q) and
        delta_i = d_i - E_Q[d_i | x], the channel at fixed q moves by
        C_ij = ln2 sum_x p sum_xhat Q delta_i delta_j, and q moves on its
        KKT-active support S (q > 0 and c = 1; a letter still dying at a
        zero-rate corner has c < 1 and no say in the optimum) so that c stays
        1 there: the sensitivity system of the optimum (Fiacco 1976) is
        ``_kkt_step``'s matrix [H 1; 1^T 0] with the right-hand sides
        ln2 G, G_ki = sum_x (p / (a q)) a_k delta_i.  Its solution Z gives
        the state's C + G^T Z, and the p(y)-weighted sum is dD/ds, symmetric
        and positive semidefinite.  Letters of S that ``_newton`` would merge,
        as a slope at 0 makes them, would leave the system singular; their
        rows of G agree on the coordinates below 0, so the first stands for
        all.  Raises ``np.linalg.LinAlgError`` where it is singular anyway.
        """
        if self.slopes is None:
            raise InvalidStateError("dD/ds asked after an all-zero-slope solve")
        jac, lifted, tilt = [], self.lifted[act], self._tilt(self.slopes)
        for p, rows, (q, _) in zip(self.p, self.rows, self.states):
            a = tilt[rows]  # as ``eval`` builds them, so bit for bit its channel
            alpha = a @ q
            channel = a * q / alpha[:, None]
            lift = lifted[:, rows]
            delta = lift - np.add.reduce(channel * lift, axis=2)[:, :, None]
            flat = delta.reshape(len(delta), -1)
            cov = (flat * (p[:, None] * channel).reshape(-1)) @ flat.T
            s = ((q > 0.0) & ((p / alpha) @ a > 1.0 - 1e-6)).nonzero()[0]
            first = {}  # one letter per merged letter, as in ``_newton``
            for j, k in zip(s, _column_keys(a[:, s])):
                first.setdefault(k, j)
            s = np.fromiter(first.values(), int, len(first))
            rhs = np.zeros((len(s) + 1, len(delta)))  # G over a row of zeros
            rhs[:-1] = np.einsum("x,xk,ixk->ki", p / alpha, a[:, s], delta[:, :, s])
            z = np.linalg.solve(_kkt_matrix(p, a[:, s], alpha), rhs)[:-1]
            jac.append(math.log(2.0) * (cov + rhs[:-1].T @ z))
        return _state_sum(self.weights, np.array(jac))


def _state_sum(w, x):
    """sum_k w[k] * x[k], added in state order: numpy's pairwise ``sum``
    would group the terms differently from a running sum over the states."""
    return np.add.accumulate(w.reshape((-1,) + (1,) * (x.ndim - 1)) * x, axis=0)[-1]


def _slope_newton(solver: _MultiSolver, targets, slopes):
    """Newton on the slope vector of a target search.

    The Lagrange dual R(s) - s (D(s) - T) is concave in s <= 0, with
    gradient T - D and Hessian -dD/ds (Blahut 1972).  From the engine's last
    solve, ``solver.held`` at ``slopes``, each probe steps
    s <- s + J^-1 (T - D) on the coordinates below 0, J = dD/ds from
    ``_MultiSolver.jacobian``; a slope that the step would push past 0 stops
    halfway to 0, and one it would more than double stops at twice its
    value.  The phase stops once every constraint passes ``_accept``, and
    with several constraints once every coordinate below 0 also meets its
    target within 1e-9, which puts the rate on its dual bound.  It also
    stops, handing its point to the master (``_master``), on an unconverged
    solve, a slope at 0 over its target, a step that is not finite or not
    ascent, a probe that lowers the dual bound (undone: the engine's
    records, slopes and held solve go back to the solve before it), or
    ``_MAX_SWEEPS`` probes.  Returns the slopes of ``solver.held``, the
    point it hands over.
    """
    probes = 0
    while True:
        rate, dvec, conv = solver.held
        act = slopes < 0.0
        gap = targets - dvec
        if (all(_accept(s, d, t) for s, d, t in zip(slopes, dvec, targets))
                and (solver.m == 1 or (np.abs(gap[act]) <= 1e-9).all())):
            break
        if not conv or (gap[~act] < 0.0).any() or probes >= _MAX_SWEEPS:
            break
        try:
            step = np.linalg.solve(solver.jacobian(act), gap[act])
        except np.linalg.LinAlgError:
            break
        if not (np.isfinite(step).all() and 0.0 < gap[act] @ step < math.inf):
            break
        new = slopes[act] + step
        trial = slopes.copy()
        trial[act] = np.where(new < 0.0, np.maximum(new, 2.0 * slopes[act]), 0.5 * slopes[act])
        saved = solver.states, solver.slopes, solver.held
        r, d, _, _ = solver.eval(trial)
        probes += 1
        if r + trial @ (targets - d) < rate + slopes @ gap:  # the dual bound fell
            solver.states, solver.slopes, solver.held = saved
            break
        slopes = trial
    return slopes


def _master(rates, dists, targets):
    """The master LP of a target search (Dantzig & Wolfe 1960): minimise
    sum_k lam_k R_k subject to sum_k lam_k D_k <= T, sum_k lam_k = 1 and
    lam >= 0, over the columns (R_k, D_k), ``dists`` holding one row per
    constraint.  Column 0 must meet every target, as the floor column does.

    A revised simplex from the basis of the slack columns and column 0,
    under Bland's rule: the first column of negative reduced cost enters,
    and of the tied basis columns the first leaves.  Returns (lam, y), the
    columns' weights and the duals: one per row, each <= 0, the slopes that
    price the next column, then that of sum lam = 1.  None where a basis
    solve fails or the pivots run on.
    """
    r, n = dists.shape
    a = np.zeros((r + 1, n + r))
    a[:r, :n], a[r, :n], a[:r, n:] = dists, 1.0, np.eye(r)
    c = np.concatenate([rates, np.zeros(r)])
    b = np.append(targets, 1.0)
    basis = [*range(n, n + r), 0]
    for _ in range(10 * (n + r)):
        try:
            x = np.linalg.solve(a[:, basis], b)
            y = np.linalg.solve(a[:, basis].T, c[basis])
            red = c - y @ a
            red[basis] = 0.0  # a basic column's reduced cost is 0 but for rounding
            enter = np.flatnonzero(red < -1e-12 * (1.0 + np.abs(y) @ np.abs(a)))
            if not enter.size:
                lam = np.zeros(n + r)
                lam[basis] = x
                return lam[:n], y
            d = np.linalg.solve(a[:, basis], a[:, enter[0]])
        except np.linalg.LinAlgError:
            return None
        pos = np.flatnonzero(d > 1e-12)
        if not pos.size:
            return None
        ratio = np.maximum(x[pos], 0.0) / d[pos]
        basis[min(pos[ratio <= ratio.min()], key=basis.__getitem__)] = enter[0]
    return None


def _target_search(solver: _MultiSolver, targets) -> RdPoint:
    """Rate at per-variable distortion targets: the one target search.

    A coordinate whose target lies at or above its zero-rate corner stays at
    slope 0; every other one opens at ``_uniform_q_slope`` of its
    p(y)-weighted marginal and has a row in the master.  From that opening
    solve the search runs rounds of ``_slope_newton`` on the concave
    Lagrange dual.  A round that ends on a converged solve passing
    ``_accept`` on every constraint ends the search with that solve.
    Otherwise ``_master`` timeshares every solve of the engine so far, each
    an achievable point (the mutual information and distortions of the test
    channel it built), with a floor column, rate H(X | Y) at the floors,
    and the zero-rate corner.  Each converged solve at s gives the dual
    bound R - s (D - T) <= R(T), so once the LP's timeshare checks feasible
    and its value is within ``SLACK_TOL`` of the best bound, the search
    reports that timeshare, with the LP's duals as its slopes.  Else the
    next round opens with a solve at those duals, which prices the next
    column.  After ``_MAX_EVALS`` rounds the engine's last solve is
    reported as unconverged.  A report carries the iterations of every
    solve the search made.
    """
    try:
        targets = np.asarray(targets, float)
    except (TypeError, ValueError) as exc:  # a target that is not a number
        raise InvalidStateError(f"targets must be numbers, got {targets!r}") from exc
    if not (targets >= 0).all():  # also a NaN
        raise InvalidStateError(f"targets must be >= 0, got {targets.tolist()}")
    if targets.shape != (solver.m,):
        raise InvalidStateError(f"{targets.size} targets for {solver.m} variables")
    for i in range(solver.m):
        if targets[i] < solver.floors[i] - 1e-12:
            raise InvalidStateError(
                f"target {targets[i]} for variable {i} below floor {solver.floors[i]:.12g}"
            )
    rows = targets < solver.trivs - 1e-15  # under the zero-rate corner
    if not rows.any():
        return RdPoint(0.0, tuple(solver.trivs.tolist()), (0.0,) * solver.m, 0, True)
    slopes = np.array([_uniform_q_slope(solver.margs[i], solver.dists[i], targets[i]) if rows[i]
                       else 0.0 for i in range(solver.m)])
    start = solver.iters
    solver.eval(slopes)
    for _ in range(_MAX_EVALS):
        slopes = _slope_newton(solver, targets, slopes)
        rate, dvec, conv = solver.held
        if conv and all(_accept(s, d, t) for s, d, t in zip(slopes, dvec, targets)):
            return RdPoint(float(rate), tuple(dvec.tolist()), tuple(slopes.tolist()),
                           solver.iters - start, True)
        log = solver.log
        entropy = _state_sum(solver.weights, np.array([-(p @ np.log2(p)) for p in solver.p]))
        rates = np.array([entropy, 0.0, *(r for r, _, _, _ in log)])  # H(X | Y) at the floors
        dists = np.array([solver.floors, solver.trivs, *(d for _, d, _, _ in log)])
        out = _master(rates, dists[:, rows].T, targets[rows])
        if out is None:
            break
        lam, y = out
        slopes[rows] = np.minimum(y[:-1], 0.0)
        share = lam @ dists
        bound = max((r - np.dot(s, d - targets) for r, d, s, c in log if c), default=-math.inf)
        if (lam.min() >= 0.0 and abs(lam.sum() - 1.0) <= 1e-9
                and (share <= targets + DIST_TOL).all() and lam @ rates - bound <= SLACK_TOL):
            return RdPoint(float(lam @ rates), tuple(share.tolist()), tuple(slopes.tolist()),
                           solver.iters - start, True)
        solver.eval(slopes)
    rate, dvec, _ = solver.held
    return RdPoint(float(rate), tuple(dvec.tolist()), tuple(slopes.tolist()),
                   solver.iters - start, False)


def _solver(joint, dists, side: bool = False) -> _MultiSolver:
    """The engine of ``joint``: its leading axis is the side variable with
    ``side`` set, else the whole array is the one side state's source."""
    joint = np.asarray(joint, float)
    if not side:
        return _MultiSolver(joint[None, ...], dists)
    if joint.ndim < 2:
        raise InvalidStateError("side=True needs a leading side axis")
    return _MultiSolver(joint, dists)


def _side_first(joint) -> np.ndarray:
    """A 2-d conditional source ``joint[x, y]`` with its side axis moved first."""
    joint = np.asarray(joint, float)
    if joint.ndim != 2:
        raise InvalidStateError("conditional source must be a 2-d joint[x, y]")
    return joint.T


def _fixed_slope_points(solver: _MultiSolver, grid) -> list[RdPoint]:
    """Points at each slope vector of ``grid``, solved in order on the one
    solver, so each solve is warm-started from the one before it.  Every
    vector is checked before the first solve: one finite slope <= 0 per
    variable, with sum_i |s_i| max d_i finite, so no tilt exponent overflows."""
    grid = [tuple(float(s) for s in slopes) for slopes in grid]
    for slopes in grid:
        if not all(-math.inf < s <= 0 for s in slopes):  # also a NaN
            raise InvalidStateError(f"slopes must be finite and <= 0, got {slopes}")
        if len(slopes) != solver.m:
            raise InvalidStateError(f"{len(slopes)} slopes for {solver.m} variables")
        if sum(-s * float(d.max()) for s, d in zip(slopes, solver.dists)) == math.inf:
            raise InvalidStateError(f"slopes {slopes} overflow the tilt exponents")
    points = []
    for slopes in grid:
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
    """One curve point at a fixed slope for a plain source; slope 0 gives the
    zero-rate corner (best constant guess) exactly."""
    return _fixed_slope_points(_solver(np.ravel(p), [d]), [(slope,)])[0]


def ba_target(p, d, target: float) -> RdPoint:
    """R(D) at a target distortion for a plain source."""
    return _target_search(_solver(np.ravel(p), [d]), [target])


def ba_conditional(joint, d, slope: float) -> RdPoint:
    """One curve point at a fixed slope when the side variable is known at
    both encoder and decoder.  ``joint[x, y]``; rate is sum_y p(y) R_y."""
    return _fixed_slope_points(_solver(_side_first(joint), [d], side=True), [(slope,)])[0]


def ba_conditional_target(joint, d, target: float) -> RdPoint:
    """Conditional R(D) at a target aggregate distortion."""
    return _target_search(_solver(_side_first(joint), [d], side=True), [target])


def ba_joint_multi(joint, dists, slopes, *, side: bool = False) -> RdPoint:
    """One point on the multi-constraint surface at a fixed slope vector."""
    return _fixed_slope_points(_solver(joint, dists, side), [slopes])[0]


def ba_joint_multi_target(joint, dists, targets, *, side: bool = False) -> RdPoint:
    """Joint rate at per-variable distortion targets, by the target search
    that every target solve runs (see ``_target_search``)."""
    return _target_search(_solver(joint, dists, side), targets)


# ---------------------------------------------------------------------------
# closed forms for the doubly symmetric binary and jointly Gaussian cases
# ---------------------------------------------------------------------------


def binary_conditional_rd(p: float, target: float) -> float:
    """h_b(p) - h_b(D) for 0 <= D <= p, else 0: the conditional rate-distortion
    function of a binary source seen through a symmetric flip channel p."""
    if not 0.0 <= p <= 0.5:
        raise InvalidStateError(f"flip probability {p} outside [0, 0.5]")
    if not target >= 0.0:  # also a NaN
        raise InvalidStateError(f"target distortion must be >= 0, got {target}")
    if target >= p:
        return 0.0
    return binary_entropy(p) - binary_entropy(target)


def gaussian_conditional_rd(sigma: float, r: float, target: float) -> float:
    """(1/2) log2(sigma^2 (1 - r^2) / D), clamped at 0: conditional
    rate-distortion of a Gaussian with correlation r to the side variable."""
    if not 0.0 < sigma < math.inf:  # also a NaN
        raise InvalidStateError(f"sigma must be finite and > 0, got {sigma}")
    if not -1.0 <= r <= 1.0:
        raise InvalidStateError(f"correlation {r} outside [-1, 1]")
    if not target > 0.0:  # also a NaN
        raise InvalidStateError(f"target distortion must be > 0, got {target}")
    ceiling = sigma * sigma * (1.0 - r * r)
    if target >= ceiling:
        return 0.0
    return 0.5 * math.log2(ceiling / target)


# ---------------------------------------------------------------------------
# curve sweeps
# ---------------------------------------------------------------------------


def _curve(source, d, side: bool, slopes, targets) -> RdCurve:
    """Solve every grid point of the one-variable ``source`` (side axis first
    with ``side`` set), sort by distortion, and flag monotonicity and
    convexity of the result.  A slope grid is solved in the given order on one
    warm-started solver; each target gets a fresh one."""
    if (slopes is None) == (targets is None):
        raise InvalidStateError("provide exactly one of slopes= or targets=")
    if slopes is not None:
        pts = _fixed_slope_points(_solver(source, [d], side), [(s,) for s in slopes])
    else:
        pts = [_target_search(_solver(source, [d], side), [t]) for t in targets]
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


def default_slope_grid(n: int = 25) -> tuple[float, ...]:
    """Geometric grid of n slopes from -12 (near-lossless) to -0.2 (near-zero-rate)."""
    if n < 0:
        raise InvalidStateError(f"a slope grid needs n >= 0 points, got {n}")
    return tuple(-np.geomspace(12.0, 0.2, n))


def rd_curve(p, d, *, slopes: Sequence[float] | None = None,
             targets: Sequence[float] | None = None) -> RdCurve:
    """Sweep a plain source over a slope grid or a target-distortion list."""
    return _curve(np.ravel(p), d, False, slopes, targets)


def rd_curve_conditional(joint, d, *, slopes: Sequence[float] | None = None,
                         targets: Sequence[float] | None = None) -> RdCurve:
    """Sweep a conditional source (side known both ends) the same way."""
    return _curve(_side_first(joint), d, True, slopes, targets)
