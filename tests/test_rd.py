"""Rate-distortion solvers: single, conditional, and multi-constraint paths."""

import contextlib
import copy
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from semrd import (
    InvalidStateError,
    SizeGuardError,
    ba_conditional,
    ba_conditional_target,
    ba_joint_multi,
    ba_joint_multi_target,
    ba_point,
    ba_target,
    binary_conditional_rd,
    binary_entropy,
    default_slope_grid,
    gaussian_conditional_rd,
    hamming_distortion,
    lemma1_bounds,
    lemma2_check,
    load_bundled,
    marginal_table,
    random_net,
    rd_curve,
    rd_curve_conditional,
    squared_error_distortion,
)
import semrd.bounds as bounds
import semrd.rd as rd
from semrd.cli import run
from semrd.nets import doubly_symmetric_fork, doubly_symmetric_joint
from semrd.rd import min_distortion, trivial_distortion

HAM2 = hamming_distortion(2)
#: Uniform bit with an erase letter: R(D) = c (1 - D) on [~0.031, 1], c ~ 0.994192.
ERASURE = np.array([[0.0, 8.0, 1.0], [8.0, 0.0, 1.0]])


def fork_given_root(p1, p2):
    """Two conditionally independent noisy copies of a fair bit, side axis last."""
    out = np.zeros((4, 2))
    for y in range(2):
        for a in range(2):
            for b in range(2):
                pa = p1 if a != y else 1 - p1
                pb = p2 if b != y else 1 - p2
                out[2 * a + b, y] = 0.5 * pa * pb
    return out


def test_distortion_matrices():
    np.testing.assert_array_equal(HAM2, [[0, 1], [1, 0]])
    np.testing.assert_array_equal(hamming_distortion(3), 1 - np.eye(3))
    np.testing.assert_array_equal(
        squared_error_distortion(3), [[0, 1, 4], [1, 0, 1], [4, 1, 0]]
    )


def test_trivial_and_floor():
    assert trivial_distortion([0.5, 0.5], HAM2) == 0.5
    assert trivial_distortion([0.9, 0.1], HAM2) == pytest.approx(0.1, abs=1e-15)
    assert min_distortion([0.5, 0.5], HAM2) == 0.0
    shifted = np.array([[0.5, 1.0], [1.0, 0.5]])
    assert min_distortion([0.4, 0.6], shifted) == pytest.approx(0.5, abs=1e-15)


def test_ba_point_zero_slope_is_zero_rate_corner():
    pt = ba_point([0.5, 0.5], HAM2, 0.0)
    assert pt.rate == 0.0
    assert pt.distortion == 0.5
    assert pt.slope == 0.0
    assert pt.converged


def test_ba_point_rejects_positive_slope():
    with pytest.raises(InvalidStateError):
        ba_point([0.5, 0.5], HAM2, 0.5)


def test_ba_point_rejects_non_distribution():
    with pytest.raises(InvalidStateError):
        ba_point([0.5, 0.6], HAM2, -1.0)
    with pytest.raises(InvalidStateError):  # every comparison with NaN is False
        ba_point([np.nan, 0.5, 0.5], hamming_distortion(3), -2.0)


@pytest.mark.parametrize("solve", [
    lambda p: trivial_distortion(p, hamming_distortion(3)),
    lambda p: min_distortion(p, hamming_distortion(3)),
    lambda p: ba_target(p, hamming_distortion(3), 0.1),
    lambda p: ba_conditional(np.column_stack([p, p]) / 2, hamming_distortion(3), -1.0),
    lambda p: ba_joint_multi(p, [hamming_distortion(3)], (-1.0,)),
], ids=["trivial_distortion", "min_distortion", "ba_target", "ba_conditional", "ba_joint_multi"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_entry_points_reject_non_finite_sources(solve, bad):
    with pytest.raises(InvalidStateError):
        solve(np.array([bad, 0.5, 0.5]))


@pytest.mark.parametrize("d", [-0.1, math.nan], ids=["negative", "nan"])
def test_binary_conditional_rd_refuses_a_target_under_0(d):
    with pytest.raises(InvalidStateError, match=f"^target distortion must be >= 0, got {d}$"):
        binary_conditional_rd(0.1, d)


def test_ba_target_uniform_binary_reference():
    pt = ba_target([0.5, 0.5], HAM2, 0.1)
    assert pt.converged
    assert pt.distortion <= 0.1 + 1e-6
    assert pt.rate == pytest.approx(1 - binary_entropy(0.1), abs=1e-4)
    assert pt.slope < 0


def test_ba_target_at_trivial_corner():
    pt = ba_target([0.5, 0.5], HAM2, 0.5)
    assert pt.rate == 0.0
    assert pt.converged


def test_ba_target_rejects_infeasible():
    with pytest.raises(InvalidStateError):
        ba_target([0.5, 0.5], HAM2, -0.01)
    shifted = np.array([[0.5, 1.0], [1.0, 0.5]])
    with pytest.raises(InvalidStateError):
        ba_target([0.5, 0.5], shifted, 0.3)


@pytest.mark.parametrize("seed", range(8))
def test_ba_target_meets_the_tight_shannon_lower_bound(seed):
    # for Hamming distortion R(D) = H(p) - h_b(D) - D log2(k - 1) exactly when
    # D <= (k - 1) min p; the search opens at that bound's slope
    rng = np.random.default_rng(seed)
    k = 3 + seed % 2
    p = rng.dirichlet(np.ones(k))
    target = float(rng.uniform(0.05, 0.95)) * (k - 1) * float(p.min())
    pt = ba_target(p, hamming_distortion(k), target)
    want = -float(p @ np.log2(p)) - binary_entropy(target) - target * np.log2(k - 1)
    assert pt.converged
    assert pt.rate == pytest.approx(want, abs=1e-6)


def test_ba_target_first_probe_is_not_capped():
    # opening at slope -1 ran the first probe into the 10,000-iteration cap
    pt = ba_target([0.232, 0.498, 0.27], hamming_distortion(3), 0.031)
    assert pt.converged
    assert pt.iterations <= 1_000


def test_floor_letters_keep_the_extrapolation():
    # here only letters near the 1e-280 clip floor still move after a while,
    # so v.v underflows to 0 and the extrapolation stops; the kernel once ran
    # into the 10,000-iteration cap at rate 0.0 that way, while a plain solve
    # of 1e6 iterations reaches 0.0131788266; Newton on q now closes it
    pt = ba_point([0.232, 0.498, 0.27], hamming_distortion(3), -1.0)
    assert pt.converged
    assert pt.rate == pytest.approx(0.0131788266, abs=1e-9)


@pytest.mark.parametrize("slope", [-1000.0, -300.0, -60.0])
def test_clipped_letters_stay_revivable(slope):
    # an extrapolation clipped at 0 (not at 1e-280 of the largest letter)
    # killed the letter that the rare source letter 0 needs: the rate came
    # back nan at slope -1000 and 0.26937 after 10,000 iterations at the
    # others, as Newton cannot grow a letter back from 0
    p = np.array([0.0001, 0.398, 0.003, 0.3984, 0.0614, 0.139])
    d = np.array([[6.0, 8.9, 5.3, 4.7, 7.5, 4.5], [6.3, 0.0, 7.6, 9.6, 0.0, 0.0],
                  [4.7, 0.0, 4.9, 1.1, 0.3, 3.5], [8.4, 0.0, 1.1, 0.0, 0.0, 0.0],
                  [0.0, 3.0, 4.4, 0.0, 4.1, 5.7], [0.0, 1.0, 0.0, 0.0, 1.5, 0.0]])
    pt = ba_point(p / p.sum(), d, slope)
    assert pt.converged
    assert pt.iterations <= 300
    assert pt.rate == pytest.approx(0.28167906, abs=1e-7)


def test_equal_letters_on_a_flat_face_merge_in_the_newton_phase():
    # letters 2 and 3 have tilts 3.4e-48 and 6.9e-48 in row 0 and 1 in row 1:
    # equal to rounding, so a KKT system that keeps them apart is singular,
    # and Blahut-Arimoto steps alone held the gap at 1.16e-9 nats until the
    # 10,000 cap; merged, Newton closes it
    d = [[0.28988808766969587, 0.0, 1.576734476579448, 1.566724407472144],
         [0.0, 0.15672060439144742, 0.0, 0.0]]
    pt = ba_point([0.3087717144163245, 0.6912282855836756], d, -100.0)
    assert pt.converged
    assert pt.rate == pytest.approx(0.8916492652, abs=1e-8)


def test_a_letter_the_optimum_needs_is_not_lost_at_the_handoff():
    # a handoff after 20 Blahut-Arimoto iterations entered Newton with a
    # needed letter at 5e-43 of the largest, which Newton never grew back:
    # the solve capped at 10,000 iterations
    p = [0.03869090290775831, 0.07712500772121254, 0.0020327004510105, 0.8821513889200187]
    d = [[0.8633341937245766, 0.19262053036428572, 1.0237777870644353, 2.3235961055974177,
          1.6046668980240586],
         [0.0, 2.698918001112441, 1.7895746870394902, 1.4472290091890814, 0.0],
         [0.0, 0.5276022488418133, 1.1839326734775277, 1.1195729756945623, 1.6254198283520398],
         [2.838311544990182, 1.2574177815316165, 0.01355957499551264, 0.0, 0.0]]
    pt = ba_point(p, d, -100.0)
    assert pt.converged
    assert pt.rate == pytest.approx(0.2570029103, abs=1e-8)


def _uniform_start(monkeypatch):
    """Open every cold kernel solve at the uniform q, not at its closed form."""
    monkeypatch.setattr(rd, "_closed_form_q", lambda p, a: None)


def test_slow_blahut_arimoto_point_closes_in_the_newton_phase(monkeypatch):
    # from the uniform q, Blahut-Arimoto steps alone converge sublinearly
    # here (2,131 iterations, extrapolation included); Newton on q takes over
    # after _NEWTON_AFTER iterations and closes the bracket in a few steps
    # (the closed-form start, which every letter's being active allows,
    # closes this solve in one iteration)
    _uniform_start(monkeypatch)
    pt = ba_point([0.2516, 0.4544, 0.2940], hamming_distortion(3), -1.0)
    assert pt.iterations > rd._NEWTON_AFTER
    assert pt.converged
    assert pt.iterations <= 300
    assert pt.rate == pytest.approx(0.0372126420, abs=1e-8)


def test_a_cold_solve_with_every_letter_active_opens_at_its_optimum(monkeypatch):
    # at slope -4 every letter is active, so the backward-channel solution
    # q = A^-1 (p / A^-T 1) is the optimum: D = 2 * 2^-4 / (1 + 2 * 2^-4)
    p, d = [0.2, 0.3, 0.5], hamming_distortion(3)
    pt = ba_point(p, d, -4.0)
    assert pt.converged
    assert pt.iterations == 1
    assert pt.distortion == pytest.approx(1 / 9, rel=0, abs=1e-15)
    _uniform_start(monkeypatch)
    ref = ba_point(p, d, -4.0)
    assert ref.converged and ref.iterations > 1
    assert pt.rate == pytest.approx(ref.rate, rel=0, abs=1e-9)


@pytest.mark.parametrize("p, d, slope", [
    ([0.5, 0.5], ERASURE, -1.0),  # a tilt of 2 rows and 3 letters
    ([0.232, 0.498, 0.27], hamming_distortion(3), -1.0),  # a letter inactive at the optimum
    ([0.2, 0.3, 0.5], hamming_distortion(3), -1e-12),  # a nearly singular tilt
    ([0.0001, 0.398, 0.003, 0.3984, 0.0614, 0.1391],  # A^-T 1 has a -1
     [[6.0, 8.9, 5.3, 4.7, 7.5, 4.5], [6.3, 0.0, 7.6, 9.6, 0.0, 0.0],
      [4.7, 0.0, 4.9, 1.1, 0.3, 3.5], [8.4, 0.0, 1.1, 0.0, 0.0, 0.0],
      [0.0, 3.0, 4.4, 0.0, 4.1, 5.7], [0.0, 1.0, 0.0, 0.0, 1.5, 0.0]], -1000.0),
    ([0.2, 0.3, 0.5], [[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], -1.0),  # singular
], ids=["non-square", "inactive-letter", "slope-1e-12", "slope-1000", "equal-columns"])
def test_a_cold_solve_the_closed_form_refuses_opens_at_the_uniform_q(monkeypatch, p, d, slope):
    starts = []
    real = rd._closed_form_q

    def spy(p, a):
        starts.append(real(p, a))
        return starts[-1]

    monkeypatch.setattr(rd, "_closed_form_q", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        pt = ba_point(p, d, slope)
    assert pt.converged
    assert starts == [None]


@pytest.mark.parametrize("extra, inverses", [(0, 1), (1, 0)], ids=["at-the-rule", "past-it"])
def test_the_closed_form_inverts_tilts_of_at_most_twice_the_newton_handoff(monkeypatch, extra,
                                                                            inverses):
    # the inverse costs O(n^3): past 2 _NEWTON_AFTER letters it could cost
    # more than the Blahut-Arimoto steps it saves, so none is taken there
    n = 2 * rd._NEWTON_AFTER + extra
    calls = []
    real = np.linalg.inv

    def spy(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, "inv", spy)
    p = np.arange(n, 2.0 * n)  # every letter active at slope -8
    pt = ba_point(p / p.sum(), hamming_distortion(n), -8.0)
    assert pt.converged
    assert len(calls) == inverses
    assert (pt.iterations == 1) == bool(inverses)


def test_the_conditional_solver_meets_the_binary_closed_form_to_rounding():
    # every state of a doubly symmetric source opens at its optimum, so on
    # test 5's grid the solver agrees with h_b(p) - h_b(D) to rounding
    d = hamming_distortion(2)
    for p in (0.05, 0.1, 0.2, 0.3):
        joint = doubly_symmetric_joint(p)
        for target in np.linspace(p / 9, p, 9):
            got = ba_conditional_target(joint, d, float(target))
            assert got.converged
            assert got.rate == pytest.approx(binary_conditional_rd(p, float(target)),
                                             rel=0, abs=1e-12)


def _slow_side_source():
    """Four side states over three letters; at slope -1 the second and the
    fourth stay open past the Blahut-Arimoto loop, the others close in it."""
    conds = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [0.9, 0.05, 0.05], [0.232, 0.498, 0.27]])
    return np.array([0.3, 0.4, 0.2, 0.1])[:, None] * conds


@pytest.mark.parametrize("source, side, handed", [
    ([0.232, 0.498, 0.27], False, [True]),
    (_slow_side_source(), True, [False, True, False, True]),
], ids=["plain", "side"])
def test_a_warm_solve_next_to_a_newton_optimum_starts_in_newton(source, side, handed):
    # slow points whose letters are not all active at the optimum, so a cold
    # solve opens at the uniform q and spends _NEWTON_AFTER iterations in
    # the Blahut-Arimoto loop before Newton closes it; the engine starts the
    # states it handed over in Newton on every later solve, a slope away or
    # more, and each such solve lands where a fresh engine's does
    d = [hamming_distortion(3)]
    solver = rd._solver(source, d, side)
    assert solver.eval((-1.0,))[2] > rd._NEWTON_AFTER
    assert [state[1] for state in solver.states] == handed
    for slope in (-1.01, -1.05):
        rate, dvec, iters, conv = solver.eval((slope,))
        fresh = rd._solver(source, d, side).eval((slope,))
        assert conv and fresh[3]
        assert iters < rd._NEWTON_AFTER < fresh[2]
        assert rate == pytest.approx(fresh[0], rel=0, abs=1e-9)
        assert dvec == pytest.approx(fresh[1], rel=0, abs=1e-9)
        # a state that started in Newton stays flagged for the solve after
        assert [state[1] for state in solver.states] == handed


def test_states_that_close_in_the_loop_keep_their_blahut_arimoto_steps(monkeypatch, fork_net):
    # every side state of the fork's Lemma 2 solves closes its gap in the
    # Blahut-Arimoto loop, so no solve starts a state in Newton, and the
    # check takes the iterations it took before solves could start there:
    # one each, as every state opens at its closed-form optimum (18, 9 and 9
    # from the uniform q)
    started, iters = [], []
    real_eval = rd._MultiSolver.eval

    def spy(self, slopes):
        started.append(any(state[1] for state in self.states))
        out = real_eval(self, slopes)
        iters.append(out[2])
        return out

    monkeypatch.setattr(rd._MultiSolver, "eval", spy)
    assert lemma2_check(fork_net, ["Y"], (0.05, 0.05)).converged
    assert not any(started)
    assert iters == [1, 1, 1]


def test_a_dead_letter_sums_only_the_positive_bracket_terms():
    # letter 2's tilt column underflows to 0 on both support rows, so q c has
    # a zero entry and the kernel's bracket sums each state's positive terms
    # (the RuntimeWarning filter would turn a 0 * log 0 into an error)
    pt = ba_point([0.5, 0.5, 0.0], hamming_distortion(3), -1100.0)
    assert pt.converged
    assert pt.rate == pytest.approx(1.0, abs=1e-12)
    assert pt.distortion == pytest.approx(0.0, abs=1e-12)


def test_newton_halves_its_step_and_falls_back_to_a_vertex_step():
    # at this point Newton's Armijo search halves its step, and where the KKT
    # system gives no descent step the state steps toward the vertex of the
    # letter with the largest c instead; the solve still closes its bracket
    p = [0.12590647433037896, 0.8709397310797213, 0.0031537945898995924]
    d = [[1.4897911441747005, 1.314453850865906, 1.4537565119424014, 0.4050227923050034],
         [0.0, 0.0, 2.010560460304304, 1.1968042869225923],
         [1.5740353971071646, 1.1862958695959307, 0.0, 0.6541402672247918]]
    pt = ba_point(p, d, -30.0)
    assert pt.converged
    assert pt.rate == pytest.approx(0.5762337798556905, abs=1e-9)


def test_erasure_targets_timeshare_on_the_linear_segment():
    # D(s) jumps across every target at the one slope -c, so each search
    # brackets the jump and timeshares across it
    got = []
    for target in (0.1, 0.3, 0.7):
        pt = ba_target([0.5, 0.5], ERASURE, target)
        assert pt.converged
        assert pt.distortion == pytest.approx(target, abs=1e-12)
        got.append(pt.rate / (1.0 - target))
    assert max(got) - min(got) <= 1e-6
    assert got[0] == pytest.approx(0.994192, abs=1e-6)


def test_erasure_conditional_target_matches_the_scalar_one():
    # an independent side variable leaves the scalar problem in each state
    scalar = ba_target([0.5, 0.5], ERASURE, 0.3)
    pt = ba_conditional_target(np.full((2, 2), 0.25), ERASURE, 0.3)
    assert pt.converged
    assert pt.rate == pytest.approx(scalar.rate, abs=1e-12)


def _counting_evals(monkeypatch):
    """Patch ``_MultiSolver.eval`` to record (slopes, iterations, converged)
    of each call; returns the record."""
    calls = []
    real_eval = rd._MultiSolver.eval

    def spy(self, slopes):
        out = real_eval(self, slopes)
        calls.append((tuple(slopes), *out[2:]))
        return out

    monkeypatch.setattr(rd._MultiSolver, "eval", spy)
    return calls


@pytest.mark.parametrize("target", [0.1, 0.3, 0.7])
def test_erasure_targets_stop_on_the_dual_certificate(monkeypatch, target):
    # the bracket straddles the jump of D(s) at slope -c; the search stops once
    # the timeshare is within SLACK_TOL of the best supporting line at the
    # target, with half the evaluation budget to spare (39, 34 and 34
    # evaluations when it closed the bracket to a width of 1e-13)
    c = 0.994191716761131  # the root of 2^(1 - c) = 1 + 2^(-8c)
    calls = _counting_evals(monkeypatch)
    pt = ba_target([0.5, 0.5], ERASURE, target)
    assert pt.converged
    assert len(calls) <= rd._MAX_EVALS // 2
    assert c * (1 - target) - 1e-9 <= pt.rate <= c * (1 - target) + rd.SLACK_TOL


def test_a_conditional_target_on_a_linear_face_keeps_evaluations_to_spare(monkeypatch):
    # a kernel_stress draw (conditional target 86, seed 200,086) whose search
    # brackets a jump of D(s) at slope -1.3864; closing that bracket to a width
    # of 1e-13 took 39 of the 48 evaluations, and 47 once warm states stayed
    # in Newton
    joint = [[0.4950649200431483, 0.03307947820860563],
             [0.22261836363453563, 0.24923723811371046]]
    d = [[0.0, 1.537078598223288, 0.37307592370374487, 2.5502900649558824,
          1.0376620811684363, 1.5295765625641746],
         [2.899764498310967, 0.6206540644515156, 1.0705174857771722, 0.3128859506847417,
          1.1700209620971052, 0.20940044717299588]]
    calls = _counting_evals(monkeypatch)
    pt = ba_conditional_target(joint, d, 0.33868576817479557)
    assert pt.converged
    assert len(calls) <= rd._MAX_EVALS // 2


@pytest.mark.parametrize("targets", [(0.3, 0.2), (0.5, 0.5), (0.9, 0.1)])
def test_erasure_product_kernel_evaluations_close_fast(monkeypatch, targets):
    # a warm state on a flat face that needs a letter off its support, where
    # the KKT system with that letter is singular: a vertex step adds the
    # letter (a Blahut-Arimoto fallback left it out and ran (0.9, 0.1) to the
    # 10,000 cap, and (0.5, 0.5) to 671 iterations)
    calls = _counting_evals(monkeypatch)
    ba_joint_multi_target(np.full((2, 2), 0.25), [ERASURE, ERASURE], targets)
    assert calls
    assert all(conv and its <= 100 for _, its, conv in calls)


def test_squared_error_target_hits_its_window():
    # the opening slope is exact only for multiples of the Hamming matrix;
    # the search still lands in the window from it on squared error
    p = np.array([0.1, 0.4, 0.3, 0.2])
    d = squared_error_distortion(4)
    for frac in (0.05, 0.3, 0.8):
        target = frac * trivial_distortion(p, d)
        pt = ba_target(p, d, target)
        assert pt.converged
        assert pt.distortion <= target + 1e-6
        assert (-pt.slope) * (target - pt.distortion) <= 3e-6


@pytest.mark.parametrize("p, d", [
    ([0.5, 0.5], HAM2),
    ([0.2, 0.3, 0.5], squared_error_distortion(3)),
    ([0.5, 0.5], ERASURE),
    ([0.1, 0.2, 0.7], np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 3.0], [3.0, 3.0, 1.0]])),
], ids=["hamming", "squared", "erasure", "shifted"])
def test_a_target_at_the_floor_lands_in_one_evaluation(monkeypatch, p, d):
    # the floor's root is at -inf; the search opens at -1100 over the
    # smallest positive excess, where every tilt off the floor underflows,
    # and the reconstruction is lossless
    calls = _counting_evals(monkeypatch)
    pt = ba_target(p, d, min_distortion(p, d))
    excess = d - d.min(axis=1, keepdims=True)
    assert [slopes for slopes, _, _ in calls] == [(-1100.0 / excess[excess > 0].min(),)]
    assert pt.converged
    assert pt.rate == pytest.approx(-float(np.dot(p, np.log2(p))), abs=1e-9)


def test_a_conditional_target_at_the_floor_lands_in_one_evaluation(monkeypatch):
    joint = np.array([[0.3, 0.1], [0.05, 0.2], [0.15, 0.2]])
    calls = _counting_evals(monkeypatch)
    pt = ba_conditional_target(joint, squared_error_distortion(3), 0.0)
    assert [slopes for slopes, _, _ in calls] == [(-1100.0,)]
    assert pt.converged
    cond = -float(np.sum(joint * np.log2(joint / joint.sum(axis=0))))  # H(X | Y)
    assert cond == pytest.approx(1.4086950, abs=1e-7)
    assert pt.rate == pytest.approx(cond, abs=1e-9)


def test_ba_target_monotone_in_target():
    rates = [ba_target([0.5, 0.5], HAM2, t).rate for t in (0.05, 0.1, 0.2, 0.4)]
    assert all(a > b - 1e-9 for a, b in zip(rates, rates[1:]))


def test_ba_target_is_deterministic():
    p = [0.2, 0.5, 0.3]
    a = ba_target(p, hamming_distortion(3), 0.15)
    b = ba_target(p, hamming_distortion(3), 0.15)
    assert a == b


@pytest.mark.parametrize("seed", range(6))
def test_scalar_and_conditional_targets_run_the_joint_search(seed):
    rng = np.random.default_rng(seed)
    k = 2 + seed % 3
    d = hamming_distortion(k)
    p = rng.dirichlet(np.ones(k))
    t = float(rng.uniform(0.2, 0.9)) * trivial_distortion(p, d)
    assert ba_target(p, d, t) == ba_joint_multi_target(p, [d], [t])
    joint = rng.dirichlet(np.ones(2 * k)).reshape(k, 2)  # joint[x, y]
    t = float(rng.uniform(0.2, 0.9)) * float((joint.T @ d).min(axis=1).sum())
    assert ba_conditional_target(joint, d, t) == ba_joint_multi_target(joint.T, [d], [t], side=True)


def test_rd_curve_shape_flags():
    curve = rd_curve([0.5, 0.5], HAM2, slopes=default_slope_grid())
    assert len(curve.points) == 25
    assert curve.monotone and curve.convex
    assert all(pt.converged for pt in curve.points)
    dists = [pt.distortion for pt in curve.points]
    assert all(a <= b + 1e-12 for a, b in zip(dists, dists[1:]))


def test_rd_curve_targets_form():
    curve = rd_curve([0.3, 0.7], HAM2, targets=[0.05, 0.1, 0.2])
    assert len(curve.points) == 3
    assert curve.monotone and curve.convex
    for pt, t in zip(curve.points, (0.05, 0.1, 0.2)):
        assert pt.distortion <= t + 1e-6


def test_rd_curve_needs_exactly_one_grid():
    with pytest.raises(InvalidStateError):
        rd_curve([0.5, 0.5], HAM2)
    with pytest.raises(InvalidStateError):
        rd_curve([0.5, 0.5], HAM2, slopes=[-1.0], targets=[0.1])


def test_conditional_matches_binary_closed_form():
    for p in (0.1, 0.2, 0.3):
        joint = doubly_symmetric_joint(p)
        for target in (0.05, 0.5 * p, p):
            pt = ba_conditional_target(joint, HAM2, target)
            want = binary_conditional_rd(p, target)
            assert pt.rate == pytest.approx(want, abs=1e-4)
            assert pt.converged


def test_conditional_independent_side_collapses():
    px = np.array([0.3, 0.7])
    joint = np.outer(px, [0.6, 0.4])  # joint[x, y] with X independent of Y
    a = ba_conditional_target(joint, HAM2, 0.12)
    b = ba_target(px, HAM2, 0.12)
    assert a.rate == pytest.approx(b.rate, abs=2e-6)


def test_conditional_zero_slope():
    pt = ba_conditional(doubly_symmetric_joint(0.2), HAM2, 0.0)
    assert pt.rate == 0.0
    assert pt.distortion == pytest.approx(0.2, abs=1e-12)


def test_conditional_requires_2d():
    with pytest.raises(InvalidStateError):
        ba_conditional(np.full(4, 0.25), HAM2, -1.0)


def test_rd_curve_conditional_targets():
    curve = rd_curve_conditional(doubly_symmetric_joint(0.3), HAM2, targets=[0.05, 0.15, 0.3])
    assert curve.monotone and curve.convex
    assert curve.points[-1].rate == pytest.approx(0.0, abs=1e-9)


def test_binary_closed_form_values():
    assert binary_conditional_rd(0.1, 0.05) == pytest.approx(
        0.18259863647332497, abs=1e-14
    )
    assert binary_conditional_rd(0.1, 0.1) == 0.0
    assert binary_conditional_rd(0.1, 0.4) == 0.0
    with pytest.raises(InvalidStateError):
        binary_conditional_rd(0.7, 0.1)


def test_gaussian_closed_form_values():
    assert gaussian_conditional_rd(1.0, 0.0, 0.25) == 1.0
    assert gaussian_conditional_rd(1.0, 0.0, 1.0) == 0.0
    assert gaussian_conditional_rd(2.0, 0.5, 3.0) == 0.0
    assert gaussian_conditional_rd(2.0, 0.5, 4.0) == 0.0
    assert gaussian_conditional_rd(1.0, 0.6, 0.04) == pytest.approx(2.0, abs=1e-12)
    assert gaussian_conditional_rd(1.0, 0.6, 0.16) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InvalidStateError):
        gaussian_conditional_rd(0.0, 0.0, 0.1)
    with pytest.raises(InvalidStateError):
        gaussian_conditional_rd(1.0, 1.5, 0.1)
    with pytest.raises(InvalidStateError):
        gaussian_conditional_rd(1.0, 0.0, 0.0)


def test_multi_independent_pair_splits():
    pj = np.full((2, 2), 0.25)
    pt = ba_joint_multi_target(pj, [HAM2, HAM2], (0.05, 0.1))
    want = (1 - binary_entropy(0.05)) + (1 - binary_entropy(0.1))
    assert pt.converged
    assert pt.rate == pytest.approx(want, abs=2e-4)
    assert pt.distortions[0] <= 0.05 + 1e-6
    assert pt.distortions[1] <= 0.1 + 1e-6


def test_multi_zero_rate_corner_is_exact():
    pj = np.full((2, 2), 0.25)
    pt = ba_joint_multi_target(pj, [HAM2, HAM2], (0.6, 0.55))
    assert pt == ba_joint_multi_target(pj, [HAM2, HAM2], (0.6, 0.55))
    assert pt.rate == 0.0
    assert pt.slopes == (0.0, 0.0)
    assert pt.distortions == (0.5, 0.5)


def test_a_zero_slope_reports_the_least_distortion_of_its_face():
    # at s_1 = 0 the tilt ignores xhat_1, so every split of q over it is
    # optimal; the engine reports each xhat's best X1 letter given xhat_2,
    # whatever solve came before (the warm start's own point read 0.5 cold
    # and 0.308 after (-1, -2))
    net = load_bundled("fork")
    ids = [net.id_of("X1"), net.id_of("X2")]
    arr = marginal_table(net, ids).probs.reshape([net.card(v) for v in ids])
    cold = ba_joint_multi(arr, [HAM2, HAM2], (0.0, -2.0))
    _, warm = rd._fixed_slope_points(rd._solver(arr, [HAM2, HAM2]), [(-1.0, -2.0), (0.0, -2.0)])
    for pt in (cold, warm):
        assert pt.rate == pytest.approx(0.27807190511, abs=1e-9)
        np.testing.assert_allclose(pt.distortions, (0.308, 0.2), rtol=0.0, atol=1e-9)


def test_multi_with_side_axis_matches_closed_form():
    p1, p2 = 0.1, 0.2
    joint = fork_given_root(p1, p2).T.reshape(2, 2, 2)  # (y, x1, x2)
    pt = ba_joint_multi_target(joint, [HAM2, HAM2], (0.05, 0.05), side=True)
    want = (binary_entropy(p1) - binary_entropy(0.05)) + (
        binary_entropy(p2) - binary_entropy(0.05)
    )
    assert pt.converged
    assert pt.rate == pytest.approx(want, abs=2e-4)


def test_multi_argument_validation():
    pj = np.full((2, 2), 0.25)
    with pytest.raises(InvalidStateError):
        ba_joint_multi_target(pj, [HAM2], (0.1, 0.1))
    with pytest.raises(InvalidStateError):
        ba_joint_multi_target(pj, [HAM2, HAM2], (0.1,))
    shifted = np.array([[0.5, 1.0], [1.0, 0.5]])
    with pytest.raises(InvalidStateError):
        ba_joint_multi_target(pj, [shifted, HAM2], (0.2, 0.1))
    with pytest.raises(InvalidStateError):
        ba_joint_multi(pj, [HAM2, HAM2], (0.5, -1.0))
    with pytest.raises(InvalidStateError):  # side=True on a source without a side axis
        ba_joint_multi([0.5, 0.5], [HAM2], (-1.0,), side=True)
    with pytest.raises(InvalidStateError):  # one slope for two variables
        ba_joint_multi(pj, [HAM2, HAM2], (-1.0,))
    with pytest.raises(InvalidStateError, match="numbers"):  # a target that is not a number
        ba_joint_multi_target(pj, [HAM2, HAM2], ["a", 0.1])


@pytest.mark.parametrize("solve", [
    lambda: ba_point([0.5, 0.5], hamming_distortion(3), -1.0),
    lambda: ba_target([0.2, 0.3, 0.5], HAM2, 0.1),
    lambda: ba_conditional(np.full((2, 2), 0.25), hamming_distortion(3), -1.0),
    lambda: ba_conditional_target(np.full((3, 2), 1 / 6), HAM2, 0.1),
    lambda: ba_point([0.5, 0.5], [[0.0, np.nan], [1.0, 0.0]], -1.0),
    lambda: ba_point([0.5, 0.5], [[0.0, np.inf], [1.0, 0.0]], -1.0),
    lambda: ba_target([0.5, 0.5], [[0.0, -1.0], [1.0, 0.0]], 0.1),
    lambda: ba_joint_multi_target(np.full((2, 2), 0.25), [HAM2, [[0.0, -1.0], [1.0, 0.0]]], (0.1, 0.1)),
    lambda: trivial_distortion([0.2, 0.3, 0.5], HAM2),
    lambda: min_distortion([0.2, 0.3, 0.5], HAM2),
    lambda: trivial_distortion([0.5, 0.5], [[0.0, np.nan], [1.0, 0.0]]),
    lambda: min_distortion([0.5, 0.5], [[0.0, np.nan], [1.0, 0.0]]),
    lambda: trivial_distortion([0.5, 0.5], np.zeros((2, 0))),
    lambda: min_distortion([0.5, 0.5], np.zeros((2, 0))),
    lambda: ba_point([0.5, 0.5], np.zeros((2, 0)), -1.0),
    lambda: ba_target([0.5, 0.5], np.zeros((2, 0)), 0.1),
    lambda: ba_conditional_target(np.full((2, 2), 0.25), np.zeros((2, 0)), 0.1),
    lambda: ba_joint_multi(np.full((2, 2), 0.25), [HAM2, np.zeros((2, 0))], (-1.0, -1.0)),
    lambda: ba_joint_multi_target(np.ones(()), [], []),
    lambda: ba_target([], HAM2, 0.1),
], ids=["ba_point", "ba_target", "ba_conditional", "ba_conditional_target",
        "nan-entry", "inf-entry", "negative-entry", "negative-entry-joint",
        "trivial_distortion", "min_distortion", "trivial_distortion-nan-entry",
        "min_distortion-nan-entry", "trivial_distortion-no-column", "min_distortion-no-column",
        "ba_point-no-column", "ba_target-no-column", "ba_conditional_target-no-column",
        "ba_joint_multi-no-column", "no-variables", "empty-source"])
def test_distortion_rows_must_match_cardinality(solve):
    with pytest.raises(InvalidStateError):
        solve()


def _side_evals_as_separate_solves(joint, d):
    """Evaluate a side solver at slopes -1, -2 and -0.5 in turn (warm-started
    after the first), check each evaluation against the p(y)-weighted
    separate solves of its states, and yield (slopes, iters, converged, the
    separate solves' iterations)."""
    py = joint.sum(axis=1)
    side = rd._MultiSolver(joint, d)
    # the slow solves move by more than 1e-12 when p(x|y) moves by an ulp,
    # so solve the rows exactly as the side solver normalizes them
    alone = [(w, rd._solver(row / w, d)) for row, w in zip(joint, py) if w > 0]
    for slopes in [(-1.0,), (-2.0,), (-0.5,)]:
        rate, dvec, iters, conv = side.eval(slopes)
        parts = [(w, s.eval(slopes)) for w, s in alone]
        assert rate == pytest.approx(sum(w * p[0] for w, p in parts), rel=0, abs=1e-12)
        assert dvec == pytest.approx(sum(w * p[1] for w, p in parts), rel=0, abs=1e-12)
        assert iters == max(p[2] for _, p in parts)
        assert conv == all(p[3] for _, p in parts)
        yield slopes, iters, conv, [p[2] for _, p in parts]


def test_side_states_step_together_as_separate_solves(monkeypatch):
    """A side solve is the p(y)-weighted sum of separate solves of its
    states: each state keeps its own stop, in the Blahut-Arimoto phase and
    in the Newton phase after it."""
    # a zero-probability source letter in the first state; at slope -1 about
    # a thousand Blahut-Arimoto iterations in the second and the fourth, a
    # few in the third
    joint = _slow_side_source()
    # the subject is each phase, not where one hands over to the other, so
    # the handoff is held at 100: a budget of 100 caps the two slow states at
    # slope -1 in the Blahut-Arimoto phase, next to converged ones; at the
    # default budget they close their brackets in the Newton phase
    monkeypatch.setattr(rd, "_NEWTON_AFTER", 100)
    default = rd.MAX_ITERS
    for budget in (100, default):
        monkeypatch.setattr(rd, "MAX_ITERS", budget)
        for slopes, iters, conv, part_iters in _side_evals_as_separate_solves(
                joint, [hamming_distortion(3)]):
            if slopes == (-1.0,):
                assert iters >= 10 * min(part_iters)
                assert conv == (budget == default)
                assert iters > rd._NEWTON_AFTER or budget != default


def test_side_states_of_different_supports_solve_as_separate_solves():
    # supports of one, two and three letters, and a state of probability 0,
    # which the side solve drops
    conds = np.array([[1.0, 0.0, 0.0], [0.2, 0.3, 0.5], [0.0, 0.4, 0.6], [0.0, 0.0, 0.0]])
    joint = np.array([0.3, 0.4, 0.3, 0.0])[:, None] * conds
    assert len(list(_side_evals_as_separate_solves(joint, [hamming_distortion(3)]))) == 3


def test_size_guard_counts_every_side_state(monkeypatch):
    # the guard bounds the test-channel tables of all side states together,
    # though eval holds one state's table at a time
    joint = np.full((4, 2), 1 / 8)  # 4 side states, 2 letters, 2 reconstructions
    monkeypatch.setenv("SEMRD_SIZE_GUARD", "16")
    assert ba_joint_multi(joint, [HAM2], (-1.0,), side=True).converged
    monkeypatch.setenv("SEMRD_SIZE_GUARD", "15")
    with pytest.raises(SizeGuardError):
        ba_joint_multi(joint, [HAM2], (-1.0,), side=True)


def test_size_guard_counts_the_lifted_distortion_tables(monkeypatch):
    # six fair bits: 64 x 64 test-channel entries for the one side state, but
    # one 64 x 64 lifted distortion table per variable
    joint = np.full((2,) * 6, 1 / 64)
    monkeypatch.setenv("SEMRD_SIZE_GUARD", str(6 * 4096))
    assert ba_joint_multi(joint, [HAM2] * 6, (-1.0,) * 6).converged
    monkeypatch.setenv("SEMRD_SIZE_GUARD", "4096")
    with pytest.raises(SizeGuardError,
                       match=r"^6x64x64 product test-channel table exceeds guard 4096$"):
        ba_joint_multi(joint, [HAM2] * 6, (-1.0,) * 6)


def test_engine_memory_stays_within_the_tables_it_counts(monkeypatch):
    # six bits under Hamming given 32 side states, each missing one row, under
    # the guard max(m, ny) nx nh = 131,072 entries that the engine admits.  In
    # entries, with U = m nx nh (the lifted tables) and T = nx nh (one tilt):
    # - held: the lifted tables (U), and each state's rows, p and q (3 ny nx);
    # - the widest step, ``jacobian``, allocates lifted[act] (U) and the tilt
    #   with its exponent, sum and shift (4T), then per state its rows of
    #   lifted[act], their product with the channel, delta, delta's flat copy,
    #   the covariance product, one BLAS operand copy and delta's columns on
    #   the support (7U), and a, A q's quotient, the channel, p channel and
    #   a's columns on the support (5T);
    # the build (U and its list of m tables) and ``eval`` (the tilt, a state's
    # rows of the lifted tables and their product with its channel) allocate
    # less.  Records that also kept each state's tilt rows and channel (2 ny
    # rows nh more, twice over while a solve replaced them) would not fit
    m, ny = 6, 32
    nx = nh = 2 ** m
    monkeypatch.setenv("SEMRD_SIZE_GUARD", str(max(m, ny) * nx * nh))
    joint = np.random.default_rng(0).random((ny, nx)) + 0.1
    joint[np.arange(ny), np.arange(ny) % nx] = 0.0
    joint = (joint / joint.sum()).reshape((ny,) + (2,) * m)
    u, t = m * nx * nh, nx * nh
    budget = 8 * (u + 3 * ny * nx + u + 4 * t + 7 * u + 5 * t)
    s = np.linspace(-3.0, -1.0, m)
    tracemalloc.start()
    try:
        solver = rd._MultiSolver(joint, [HAM2] * m)
        solver.eval(s)
        solver.eval(1.1 * s)
        solver.jacobian(s < 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget, (peak, budget)


def test_the_engine_build_holds_its_lifted_tables_and_little_more():
    # seven bits given 4 side states: more variables than side states, so the
    # m lifted tables (U) are what the build allocates; a list of the m
    # tables copied into one array peaked at 2 U, and ``take`` into each
    # table in its buffered mode at U plus a table
    m, ny = 7, 4
    nx = nh = 2 ** m
    joint = np.random.default_rng(0).random((ny,) + (2,) * m)
    u, t = m * nx * nh, nx * nh
    tracemalloc.start()
    try:
        solver = rd._MultiSolver(joint / joint.sum(), [HAM2] * m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (u + t // 2), (peak, 8 * u)
    bits = np.arange(nx)[:, None] >> np.arange(m - 1, -1, -1) & 1  # variable i's letter in x
    np.testing.assert_array_equal(solver.lifted, [HAM2[b[:, None], b[None, :]] for b in bits.T])


def test_multi_fixed_slopes_point():
    pj = np.full((2, 2), 0.25)
    pt = ba_joint_multi(pj, [HAM2, HAM2], (-2.0, -1.0))
    assert pt.converged
    assert pt.slopes == (-2.0, -1.0)
    # independent coordinates: each solves its own slope-(s) problem
    one = ba_point([0.5, 0.5], HAM2, -2.0)
    two = ba_point([0.5, 0.5], HAM2, -1.0)
    assert pt.rate == pytest.approx(one.rate + two.rate, abs=1e-6)
    assert pt.distortions[0] == pytest.approx(one.distortion, abs=1e-7)
    assert pt.distortions[1] == pytest.approx(two.distortion, abs=1e-7)


def test_rd_point_fields_are_plain_floats():
    pt = ba_joint_multi(np.full((2, 2), 0.25), [HAM2, HAM2], (-2.0, -1.0))
    for x in (pt.rate, *pt.distortions, *pt.slopes):
        assert type(x) is float


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    k=st.integers(min_value=2, max_value=4),
)
def test_target_hit_within_window(seed, k):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(k))
    d = hamming_distortion(k)
    triv = trivial_distortion(p, d)
    target = float(rng.uniform(0.02, max(triv, 0.021)))
    pt = ba_target(p, d, target)
    assert pt.converged
    assert 0.0 <= pt.rate <= np.log2(k) + 1e-9
    # either the constraint binds within tolerance or it is slack at zero cost
    assert pt.distortion <= target + 1e-6
    if pt.distortion < target - 1e-6:
        assert (-pt.slope) * (target - pt.distortion) <= 3.1e-6


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
@example(seed=52)  # warm-started points at the zero-rate corner once broke monotonicity
def test_curve_convex_for_random_sources(seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(3))
    curve = rd_curve(p, hamming_distortion(3), slopes=default_slope_grid(n=12))
    assert curve.monotone and curve.convex


def test_curve_slope_grid_matches_cold_points():
    # the slope form solves its grid on one warm-started solver; every point
    # must still be the fixed-slope optimum a cold solve finds
    rng = np.random.default_rng(3)
    p = rng.dirichlet(np.ones(3))
    joint = doubly_symmetric_joint(0.1)
    grid = default_slope_grid(n=9)
    for curve, cold in ((rd_curve(p, hamming_distortion(3), slopes=grid),
                         lambda s: ba_point(p, hamming_distortion(3), s)),
                        (rd_curve_conditional(joint, HAM2, slopes=grid),
                         lambda s: ba_conditional(joint, HAM2, s))):
        for pt in curve.points:
            ref = cold(pt.slope)
            assert pt.converged and ref.converged
            obj = pt.rate - pt.slope * pt.distortion
            assert obj == pytest.approx(ref.rate - ref.slope * ref.distortion, abs=1e-8)


@pytest.mark.parametrize("p, d", [
    ([0.005151209655463038, 0.14017013661718242, 0.21726655557757685, 1.724767443492744e-07,
      0.6374119256730334], squared_error_distortion(5)),
    ([0.13297041476319094, 0.8586601864379951, 0.00836927359820993, 1.2520060402770306e-07],
     hamming_distortion(4)),
], ids=["squared-error", "hamming"])
def test_a_shallow_first_sweep_keeps_the_rare_letters_its_steep_points_need(p, d):
    # solved shallow slope first, a state that started in Newton dropped the
    # letter of a rare source letter while the slope made it shrink, and
    # could not grow it back once the slope needed it: the -100 point capped
    # at 10,000 iterations, under the rate of the -30 point
    for pt in rd_curve(p, d, slopes=[-0.05, -0.3, -1, -3, -10, -30, -100]).points:
        ref = ba_point(p, d, pt.slope)
        assert pt.converged and ref.converged
        obj = pt.rate - pt.slope * pt.distortion
        assert obj == pytest.approx(ref.rate - ref.slope * ref.distortion, rel=0, abs=1e-8)


def test_joint_target_never_resolves_a_held_point(monkeypatch):
    calls = []
    real_eval = rd._MultiSolver.eval

    def spy(self, slopes):
        calls.append(tuple(float(s) for s in slopes))
        return real_eval(self, slopes)

    monkeypatch.setattr(rd._MultiSolver, "eval", spy)
    net = load_bundled("scene")
    arr = marginal_table(net, list(range(net.m))).probs.reshape(net.cards)
    dists = [hamming_distortion(k) for k in net.cards]
    pt = ba_joint_multi_target(arr, dists, (0.16, 0.163, 0.067, 0.103))
    assert pt.converged
    # no slope vector is solved twice, consecutively or otherwise
    assert len(set(calls)) == len(calls)
    # a slope-0 probe moves one slope to 0 while another stays nonzero; the
    # search used to open every coordinate adjustment with one (30 here)
    probes = sum(any(x != 0 and y == 0 for x, y in zip(a, b)) and any(b)
                 for a, b in zip(calls, calls[1:]))
    assert probes < 30


def test_lemma2_joint_solves_open_at_the_lower_bound_slope(monkeypatch):
    # both coordinates of the joint solve and each block's open at the
    # Shannon lower-bound slope, exact for these binary sources (35 at -1)
    calls = []
    real_eval = rd._MultiSolver.eval

    def spy(self, slopes):
        calls.append(slopes)
        return real_eval(self, slopes)

    monkeypatch.setattr(rd._MultiSolver, "eval", spy)
    rep = lemma2_check(doubly_symmetric_fork(0.1, 0.1), ["Y"], (0.05, 0.05))
    assert rep.converged
    assert abs(rep.delta) <= 2e-4
    assert len(calls) < 10


def test_scene_sweep_rows_all_converge():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["rd", "scene", "--sweep", "25"]) == 0
    rows = out.getvalue().strip().split("\n")[1:]
    assert len(rows) == 25
    assert all(row.endswith(",true") for row in rows)  # three capped rows before warm starts


@pytest.mark.parametrize("name, n", [("fork", 25), ("chain", 5)])
def test_warm_sweep_takes_no_more_iterations_than_cold_solves(monkeypatch, name, n):
    # a warm start mixed with too much of the uniform distribution revives
    # dead letters that must decay back before the gap closes: with 0.5 %
    # uniform these sweeps took 293 and 51 iterations warm, 199 and 37 cold;
    # the cold reference solves open at the uniform q, the start that mix
    # was about (at their closed form, chain takes 17 cold)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["rd-cond", name, "--side", "Y", "--sweep", str(n)]) == 0
    _uniform_start(monkeypatch)
    rows = [row.split(",") for row in out.getvalue().strip().split("\n")[1:]]
    net = load_bundled(name)
    side = net.id_of("Y")
    rest = [v for v in range(net.m) if v != side]
    cards = (net.card(side),) + tuple(net.card(v) for v in rest)
    arr = marginal_table(net, [side] + rest).probs.reshape(cards)
    dists = [hamming_distortion(net.card(v)) for v in rest]
    warm = cold = 0
    for row in rows:
        slopes, iters = (float(row[0]), float(row[1])), int(row[-2])
        ref = ba_joint_multi(arr, dists, slopes, side=True)
        assert row[-1] == "true" and ref.converged
        obj = float(row[2]) - sum(s * float(d) for s, d in zip(slopes, row[3:5]))
        assert obj == pytest.approx(ref.rate - float(np.dot(slopes, ref.distortions)), abs=1e-8)
        warm += iters
        cold += ref.iterations
    assert len(rows) == n
    assert warm <= cold


def test_scene_joint_target_search_opens_near_the_root(monkeypatch):
    # the joint search takes Newton steps on the slope vector: 30 evaluations
    # with coordinate sweeps alone, 17 now that each slope search opens on dD/ds
    calls = []
    real_eval = rd._MultiSolver.eval

    def spy(self, slopes):
        if self.m == 4:  # the joint solve, not the per-variable ones
            calls.append(slopes)
        return real_eval(self, slopes)

    monkeypatch.setattr(rd._MultiSolver, "eval", spy)
    rep = lemma1_bounds(load_bundled("scene"), (0.16, 0.163, 0.067, 0.103))
    assert rep.converged
    assert rep.lower - 2e-4 <= rep.joint <= rep.upper + 2e-4
    assert len(calls) <= 8


def _scene_source(side=None):
    """The bundled scene net as a joint array, given ``side`` if named."""
    net = load_bundled("scene")
    ids = [net.id_of(side)] if side else []
    rest = [v for v in range(net.m) if v not in ids]
    cards = tuple(net.card(v) for v in ids + rest)
    arr = marginal_table(net, ids + rest).probs.reshape(cards)
    return arr, [hamming_distortion(net.card(v)) for v in rest]


@pytest.mark.parametrize("side, slopes", [
    (None, (-3.0, -2.5, -4.0, -3.5)),
    (None, (-1.0, -0.7, -2.0, -1.5)),
    ("light", (-3.0, -2.5, -2.0)),
], ids=["scene-steep", "scene-shallow", "scene-given-light"])
def test_slope_jacobian_matches_central_differences(monkeypatch, side, slopes):
    # dD/ds from the sensitivity system of the kernel's optimum, against
    # central differences of solves closed far below the default gap
    monkeypatch.setattr(rd, "GAP_TOL_NATS", 1e-14)
    arr, dists = _scene_source(side)
    solver = rd._solver(arr, dists, side is not None)
    s = np.array(slopes)
    assert solver.eval(s)[3]
    jac = solver.jacobian(s < 0)
    h = 1e-5
    ref = np.empty_like(jac)
    for j in range(len(s)):
        e = np.zeros(len(s))
        e[j] = h
        ref[:, j] = (solver.eval(s + e)[1] - solver.eval(s - e)[1]) / (2 * h)
    assert np.abs(jac - ref).max() <= 1e-8 * np.abs(ref).max()
    assert np.abs(jac - jac.T).max() <= 1e-15
    assert np.linalg.eigvalsh(jac).min() > 0.0


def test_slope_jacobian_reuses_the_last_solve_only_at_its_slopes():
    # the engine keeps one (q, handed) record per side state; dD/ds rebuilds
    # the tilt rows, A q and channels from those q's at the held slopes, and
    # equals a rebuild from the source at them, bit for bit, also after a
    # later solve at other slopes; after an all-zero-slope solve, which keeps
    # no slopes of its own, it raises
    arr, dists = _scene_source("light")
    solver = rd._MultiSolver(arr, dists)
    for s in (np.array([-3.0, -2.5, -2.0]), np.array([-1.0, -4.0, -0.5])):
        assert solver.eval(s)[3]
        assert all(len(state) == 2 for state in solver.states)
        _, _, states = _reference_eval(arr, dists, True, s, [q for q, _ in solver.states])
        np.testing.assert_array_equal(solver.jacobian(s < 0), _reference_jacobian(states, s < 0))
    solver.eval(np.zeros(3))
    with pytest.raises(InvalidStateError):
        solver.jacobian(s < 0)


def _reference_lifted(dists, cards):
    """d_i(x_i, xhat_i) over the flat product alphabets, one table per variable."""
    m, nh = len(dists), [d.shape[1] for d in dists]
    tables = []
    for i, d in enumerate(dists):
        shape = [1] * (2 * m)
        shape[i], shape[m + i] = cards[i], nh[i]
        tables.append(np.broadcast_to(d.reshape(shape), (*cards, *nh)).reshape(math.prod(cards), -1))
    return np.array(tables)


def _reference_eval(joint, dists, side, slopes, qs):
    """The rate and D vector of a solve at ``slopes`` whose side states end at
    the reconstruction marginals ``qs``, rebuilt state by state from the
    source: the tilt from the lifted tables, each state's rows of them, its
    test channel, rate and per-coordinate distortions.  Returns (rate, D
    vector, one (p(y), p, q, a, A q, channel, lifted rows) per state)."""
    joint = np.asarray(joint, float)
    joint = joint if side else joint[None]
    lifted = _reference_lifted(dists, joint.shape[1:])
    expo = slopes[0] * lifted[0]
    for s, lift in zip(slopes[1:], lifted[1:]):
        expo = expo + s * lift
    tilt = np.exp2(expo - expo.max(axis=1, keepdims=True))
    total, states = None, []
    for row in joint.reshape(len(joint), -1):
        w = row.sum()
        if not w > 0:
            continue
        cond = row / w
        rows = np.flatnonzero(cond)
        p, q, a = cond[rows], qs[len(states)], tilt[rows]
        alpha = a @ q
        channel = a * q / alpha[:, None]
        qm = p @ channel
        pos = (channel > 0) & (qm > 0)
        info = channel * np.log2(np.divide(channel, qm, out=np.ones_like(channel), where=pos))
        part = np.array([max(p @ np.add.reduce(info, axis=1), 0.0),
                         *(p @ np.add.reduce(channel * lift[rows], axis=1) for lift in lifted)])
        total = w * part if total is None else total + w * part
        states.append((w, p, q, a, alpha, channel, lifted[:, rows]))
    return total[0], total[1:], states


def _reference_jacobian(states, act):
    """dD/ds over the mask ``act`` from ``_reference_eval``'s states, by the
    sensitivity system of ``_MultiSolver.jacobian``."""
    total = None
    for w, p, q, a, alpha, channel, lifts in states:
        lift = lifts[act]
        delta = lift - np.add.reduce(channel * lift, axis=2)[:, :, None]
        flat = delta.reshape(len(delta), -1)
        cov = (flat * (p[:, None] * channel).reshape(-1)) @ flat.T
        s = np.flatnonzero((q > 0.0) & ((p / alpha) @ a > 1.0 - 1e-6))
        first = {}
        for j, k in zip(s, rd._column_keys(a[:, s])):
            first.setdefault(k, j)
        s = np.fromiter(first.values(), int, len(first))
        grad = np.einsum("x,xk,ixk->ki", p / alpha, a[:, s], delta[:, :, s])
        rhs = np.vstack([grad, np.zeros(len(delta))])
        z = np.linalg.solve(rd._kkt_matrix(p, a[:, s], alpha), rhs)[:-1]
        part = w * (math.log(2.0) * (cov + grad.T @ z))
        total = part if total is None else total + part
    return total


def _random_engine_source(rng, side, zero_state):
    """A source of one or two variables of 2 or 3 letters, about a fifth of
    its cells 0, with 2 or 3 side states when ``side`` (the first of them of
    zero weight when ``zero_state``), and one Hamming or U(0, 3) distortion
    matrix of 2 or 3 columns per variable."""
    cards = tuple(int(k) for k in rng.integers(2, 4, size=int(rng.integers(1, 3))))
    shape = ((int(rng.integers(2, 4)),) if side else ()) + cards
    joint = rng.dirichlet(np.ones(math.prod(shape))).reshape(shape)
    joint *= rng.random(shape) < 0.8
    if zero_state:
        joint[0] = 0.0
    joint.reshape(-1)[int(rng.integers(joint.size // 2, joint.size))] += 0.1  # never all 0
    dists = [hamming_distortion(k) if rng.random() < 0.5
             else rng.uniform(0.0, 3.0, (k, int(rng.integers(2, 4)))) for k in cards]
    return joint / joint.sum(), dists


@pytest.mark.parametrize("seed", range(30))
def test_engine_solve_and_jacobian_equal_the_reference_bit_for_bit(seed):
    # each solve's rate and D vector, and dD/ds over every mask at it, equal
    # a rebuild from the source at the q's the solve ended at, to the bit
    rng = np.random.default_rng(7000 + seed)
    side = seed % 3 != 0
    joint, dists = _random_engine_source(rng, side, zero_state=side and seed % 3 == 1)
    solver = rd._solver(joint, dists, side)
    masks = [np.array(mask) for mask in ([True], [True, True], [True, False], [False, True])
             if len(mask) == solver.m]
    for _ in range(3):  # the first cold, the others warm-started
        slopes = rng.uniform(-4.0, -0.3, size=solver.m)
        rate, dvec, _, _ = solver.eval(slopes)
        want_rate, want_dvec, states = _reference_eval(joint, dists, side, slopes,
                                                       [q for q, *_ in solver.states])
        assert rate == want_rate
        np.testing.assert_array_equal(dvec, want_dvec)
        for mask in masks:
            np.testing.assert_array_equal(solver.jacobian(mask), _reference_jacobian(states, mask))


def test_slope_jacobian_is_zero_at_a_zero_rate_corner():
    # given Y each state sits at its zero-rate corner, where letters still
    # dying (q > 0, c < 1) must not count as support: counted, they made
    # dD/ds about 0.06 where it is 0
    joint = np.moveaxis(fork_given_root(0.1, 0.1).reshape(2, 2, 2), 2, 0)
    solver = rd._MultiSolver(joint, [HAM2, HAM2])
    s = np.array([-3.0, -2.5])
    assert solver.eval(s)[3]
    assert np.abs(solver.jacobian(s < 0)).max() <= 1e-8


def _test7_grid(seed, g):
    """Acceptance test 7's grid g on net 1000 + seed: (net, targets)."""
    rng = np.random.default_rng(1000 + seed)
    net = random_net(1000 + seed, int(rng.integers(2, 5)), max_card=3)
    for _ in range(g + 1):
        targets = tuple(float(t) for t in rng.uniform(0.03, 0.45, size=net.m))
    return net, targets


@pytest.mark.parametrize("solve", [
    lambda: ba_joint_multi_target(
        [[0.09038997973911726, 0.045761647655521126], [0.795357697498223, 0.06849067510713862]],
        [HAM2, HAM2], (0.12679148356311762, 0.09927632069576907)),
    lambda: lemma1_bounds(*_test7_grid(4, 1)),
], ids=["kernel-stress-joint-24", "test7-grid-4-1"])
def test_an_undone_slope_newton_probe_restores_the_records(monkeypatch, solve):
    # each solve's Newton phase on the slopes ends on a probe that lowers the
    # dual bound; undoing it puts back the records, slopes and held point of
    # the solve before it, so the slope search that follows opens on that
    # exact solve, and dD/ds, rebuilt from the restored records, equals the
    # dD/ds the phase took there before the probe
    undone, before, jacs = [], [], []
    real_eval, real_jacobian = rd._MultiSolver.eval, rd._MultiSolver.jacobian
    real_newton = rd._slope_newton

    def eval_spy(self, slopes):
        before.append((copy.deepcopy(self.states), self.slopes, self.held,
                       tuple(map(float, slopes))))
        return real_eval(self, slopes)

    def jacobian_spy(self, act):
        jacs.append((self.slopes, act, real_jacobian(self, act)))
        return jacs[-1][2]

    def newton_spy(solver, targets, slopes):
        before.clear()
        out = real_newton(solver, targets, slopes)
        if before and before[-1][3] != tuple(map(float, out)):  # the last probe was undone
            slopes_at, act, jac = jacs[-1]  # the phase's last dD/ds, taken before the probe
            assert slopes_at == solver.slopes
            np.testing.assert_array_equal(real_jacobian(solver, act), jac)
            undone.append((before[-1][:3], (solver.states, solver.slopes, solver.held)))
        return out

    monkeypatch.setattr(rd._MultiSolver, "eval", eval_spy)
    monkeypatch.setattr(rd._MultiSolver, "jacobian", jacobian_spy)
    monkeypatch.setattr(rd, "_slope_newton", newton_spy)
    assert solve().converged
    assert undone
    for (states, slopes, held), (got_states, got_slopes, got_held) in undone:
        assert slopes is not None and got_slopes == slopes
        assert got_held is held
        for state, got in zip(states, got_states, strict=True):
            for x, y in zip(state, got, strict=True):
                np.testing.assert_array_equal(x, y)


def test_a_newton_search_along_an_ascent_direction_gives_up():
    # at q = (1/2, 1/2) on an identity tilt with p = (0.8, 0.2), moving mass
    # to the second letter raises F = -sum p ln(Aq): -dF along d is -1.2, and
    # no halving of the step finds a sufficient decrease
    p, a, q = np.array([0.8, 0.2]), np.eye(2), np.array([0.5, 0.5])
    alpha = a @ q
    c = (p / alpha) @ a
    assert rd._search(p, a, alpha, c, q, np.array([True, True]), np.array([-1.0, 1.0])) == 0.0


def test_curve_flags_a_point_above_its_chord(monkeypatch):
    # rates 1, 0.9, 0 at distortions 0, 0.5, 1: the middle point sits 0.4
    # bits above the chord of its neighbours, and the rates still fall
    rates = {0.0: 1.0, 0.5: 0.9, 1.0: 0.0}
    monkeypatch.setattr(rd, "_target_search",
                        lambda solver, t: rd.RdPoint(rates[t[0]], (t[0],), (-1.0,), 0, True))
    curve = rd_curve([0.5, 0.5], HAM2, targets=[0.0, 0.5, 1.0])
    assert [pt.rate for pt in curve.points] == [1.0, 0.9, 0.0]
    assert curve.monotone and not curve.convex


@pytest.mark.parametrize("target", [0.1, 0.3, 0.5])
def test_a_slope_search_opens_with_a_newton_step_on_the_exact_derivative(monkeypatch, target):
    # the second probe is s0 + (T - D0) / J, J = dD/ds at the first probe
    # from the kernel's KKT system, clamped to [2 s0, s0 / 2]; searches that
    # opened by doubling or halving probed -5.157, -3.458 and -0.642 second
    p, d = [0.2, 0.3, 0.5], squared_error_distortion(3)
    calls = _counting_evals(monkeypatch)
    assert ba_target(p, d, target).converged
    (s0,), (s1,) = calls[0][0], calls[1][0]
    solver = rd._solver(p, [d])
    s = np.array([s0])
    d0 = float(solver.eval(s)[1][0])
    jac = float(solver.jacobian(s < 0)[0, 0])
    assert s1 == s0 + min(max((target - d0) / jac, s0), -0.5 * s0)


@pytest.mark.parametrize("seeded", [True, False], ids=["seeded", "unseeded"])
def test_scene_joint_target_takes_newton_steps_to_its_dual_bound(monkeypatch, seeded):
    # coordinate sweeps took 30 evaluations seeded with the lower-term slopes
    # (as Lemma 1 seeds it) and 33 unseeded, and stopped up to 6e-8 bits
    # off the dual bound
    targets = (0.16, 0.163, 0.067, 0.103)
    calls = _counting_evals(monkeypatch)
    if seeded:
        points = []

        def joint_spy(*args, **kwargs):
            points.append(ba_joint_multi_target(*args, **kwargs))
            return points[-1]

        monkeypatch.setattr(bounds, "ba_joint_multi_target", joint_spy)
        lemma1_bounds(load_bundled("scene"), targets)
        (pt,) = points
    else:
        pt = ba_joint_multi_target(*_scene_source(), targets)
    assert pt.converged
    assert sum(len(slopes) == 4 for slopes, _, _ in calls) <= 8
    # the report is an exact solve at pt.slopes: its rate against its dual bound
    assert abs(np.dot(pt.slopes, np.subtract(pt.distortions, targets))) <= 1e-8


@pytest.mark.parametrize("joint, dists, targets, rate", [
    ([[0.04701532028942354, 0.01179891892648705, 0.07664510536776532],
      [0.07535007202206864, 0.009834836200500552, 0.12230953186313302],
      [0.5922482165239288, 0.026056781554423664, 0.03874121725226937]],
     [hamming_distortion(3), squared_error_distortion(3)],
     (0.3147497499420555, 0.53705578245957), 0.2172082),
    ([[0.008527824844234562, 0.6954309056931505], [0.2905491115837664, 0.005492157878848569]],
     [[[2.73404778384878, 1.0445394295731374, 0.5784837431559073, 0.5663462425424974,
        0.04918808272664277, 2.5569131992473557],
       [0.3647433765907241, 2.7608756627826, 1.6615812094315578, 2.4900203561208127,
        2.108327695275976, 0.0]], HAM2],
     (0.27192124690011976, 0.11341293557980289), 0.3846012),
], ids=["draw-132", "draw-134"])
def test_kernel_stress_joints_meet_their_targets_on_the_dual_bound(joint, dists, targets, rate):
    # two kernel_stress joint draws that coordinate sweeps left unmet at
    # 0.2173174 and 0.3842051 bits; a second Newton phase on the slopes,
    # after the first sweep, lands each on its dual bound, within 1e-5 bits
    # of the rate that column generation certifies
    pt = ba_joint_multi_target(np.array(joint), dists, targets)
    assert pt.converged
    assert abs(np.dot(pt.slopes, np.subtract(pt.distortions, targets))) <= 1e-8
    assert pt.rate == pytest.approx(rate, abs=1e-5)


@pytest.mark.parametrize("targets, rate", [
    ((0.3, 0.2), 1.4912876), ((0.5, 0.5), 0.9941917), ((0.9, 0.1), 0.9941917)])
def test_erasure_product_reports_the_sum_of_the_scalar_rates(targets, rate):
    # each coordinate's target lies on the linear segment R(D) = c (1 - D),
    # where D(s) jumps at the one slope -c: no single solve meets a joint
    # target, and the master timeshares solves from both sides of the jump
    # (coordinate sweeps reported 1.5907, 0.96224 and 0.96224, unconverged)
    pt = ba_joint_multi_target(np.full((2, 2), 0.25), [ERASURE, ERASURE], targets)
    assert pt.converged
    assert pt.rate == pytest.approx(rate, abs=1e-6)


def test_a_coordinate_whose_floor_is_its_corner_has_no_row_in_the_master():
    # a product source (kernel_stress product draw 1222): a scaled erasure
    # coordinate on its linear segment, and one whose floor equals its
    # zero-rate corner, targeted there.  Every solve puts the second
    # coordinate at that one distortion, so its row would repeat the
    # convexity row and leave the master's bases near singular: with it the
    # search reported 0.8640 bits, unconverged
    ps = [np.array([0.31711050042420735, 0.6828894995757926]),
          np.array([0.031048398553965725, 0.9689516014460342])]
    dists = [ERASURE * 1.0860587375011856,
             np.array([[0.7178952855880654, 0.6850831126058567],
                       [2.5446518395734694, 1.9899492311010705]])]
    targets = (0.5577167061820152, min_distortion(ps[1], dists[1]))
    assert targets[1] == pytest.approx(trivial_distortion(ps[1], dists[1]), abs=1e-15)
    pt = ba_joint_multi_target(np.outer(*ps), dists, targets)
    assert pt.converged
    scalar = sum(ba_target(p, d, t).rate for p, d, t in zip(ps, dists, targets))
    assert pt.rate == pytest.approx(scalar, abs=1e-5)


def test_the_master_timeshares_the_hull_points_around_its_target():
    # (D, R) columns (0, 1) (the floor), (1, 0) (the corner), (0.4, 0.3) and
    # (0.7, 0.1): at D = 0.5 the lower hull is the chord of the inner two,
    # weighted 2/3 and 1/3, whose slope -2/3 is the dual of the row
    lam, y = rd._master(np.array([1.0, 0.0, 0.3, 0.1]), np.array([[0.0, 1.0, 0.4, 0.7]]),
                        np.array([0.5]))
    np.testing.assert_allclose(lam, [0.0, 0.0, 2 / 3, 1 / 3], atol=1e-12)
    np.testing.assert_allclose(y, [-2 / 3, 0.3 + 0.4 * 2 / 3], atol=1e-12)


def test_accept_bounds_the_slack_on_both_sides_of_the_target():
    # a point over its target within DIST_TOL sits up to (-s)(D - T) bits
    # under R(T), so that slack is held to SLACK_TOL as the one under it is
    assert rd._accept(-1.0, 0.5 + 1e-6, 0.5)
    assert not rd._accept(-10.0, 0.5 + 1e-6, 0.5)
    assert not rd._accept(-10.0, 0.5 - 1e-6, 0.5)
    assert rd._accept(0.0, 0.4, 0.5)


def _master_only(monkeypatch):
    """Skip the Newton phases of target searches."""
    monkeypatch.setattr(rd, "_slope_newton", lambda solver, targets, slopes: slopes)


def test_a_slope_at_zero_over_its_target_hands_over_at_once(monkeypatch):
    # X1's target is its conditional zero-rate corner, so its slope opens at
    # 0, where the joint solve puts D_1 over the target: the phase hands the
    # opening point to the master, which returns what it returns alone
    net = doubly_symmetric_fork(0.05, 0.1)
    calls = _counting_evals(monkeypatch)
    got = lemma2_check(net, ["Y"], (0.05, 0.05))
    n = len(calls)
    _master_only(monkeypatch)
    assert got == lemma2_check(net, ["Y"], (0.05, 0.05))
    assert len(calls) == 2 * n
