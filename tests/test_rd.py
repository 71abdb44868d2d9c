"""Rate-distortion solvers: single, conditional, and multi-constraint paths."""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from semrd import (
    DistortionSpec,
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
    load_bundled,
    marginal_table,
    rd_curve,
    rd_curve_conditional,
    squared_error_distortion,
)
import semrd.rd as rd
from semrd.cli import run
from semrd.nets import doubly_symmetric_joint
from semrd.rd import min_distortion, trivial_distortion

HAM2 = hamming_distortion(2)


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


def test_distortion_spec_per_variable():
    spec = DistortionSpec.hamming((2, 3))
    np.testing.assert_array_equal(spec.for_var(0), HAM2)
    np.testing.assert_array_equal(spec.for_var(1), hamming_distortion(3))
    sq = DistortionSpec.squared_error((3,))
    np.testing.assert_array_equal(sq.for_var(0), squared_error_distortion(3))


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
    lambda p: ba_target(p, hamming_distortion(3), 0.1),
    lambda p: ba_conditional(np.column_stack([p, p]) / 2, hamming_distortion(3), -1.0),
    lambda p: ba_joint_multi(p, [hamming_distortion(3)], (-1.0,)),
], ids=["trivial_distortion", "ba_target", "ba_conditional", "ba_joint_multi"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_entry_points_reject_non_finite_sources(solve, bad):
    with pytest.raises(InvalidStateError):
        solve(np.array([bad, 0.5, 0.5]))


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


@pytest.mark.parametrize("solve", [
    lambda: ba_point([0.5, 0.5], hamming_distortion(3), -1.0),
    lambda: ba_target([0.2, 0.3, 0.5], HAM2, 0.1),
    lambda: ba_conditional(np.full((2, 2), 0.25), hamming_distortion(3), -1.0),
    lambda: ba_conditional_target(np.full((3, 2), 1 / 6), HAM2, 0.1),
    lambda: ba_point([0.5, 0.5], [[0.0, np.nan], [1.0, 0.0]], -1.0),
    lambda: ba_point([0.5, 0.5], [[0.0, np.inf], [1.0, 0.0]], -1.0),
    lambda: ba_target([0.5, 0.5], [[0.0, -1.0], [1.0, 0.0]], 0.1),
    lambda: ba_joint_multi_target(np.full((2, 2), 0.25), [HAM2, [[0.0, -1.0], [1.0, 0.0]]], (0.1, 0.1)),
], ids=["ba_point", "ba_target", "ba_conditional", "ba_conditional_target",
        "nan-entry", "inf-entry", "negative-entry", "negative-entry-joint"])
def test_distortion_rows_must_match_cardinality(solve):
    with pytest.raises(InvalidStateError):
        solve()


def test_side_states_step_together_as_separate_solves():
    """One kernel call steps every side state, and each keeps its own stop."""
    d = [hamming_distortion(3)]
    conds = np.array([
        [0.5, 0.5, 0.0],  # a zero-probability source letter
        [0.2, 0.3, 0.5],  # thousands of iterations at slope -1
        [0.9, 0.05, 0.05],  # a few
        [0.232, 0.498, 0.27],  # the iteration cap at slope -1
    ])
    joint = np.array([0.3, 0.4, 0.2, 0.1])[:, None] * conds
    py = joint.sum(axis=1)
    side = rd._MultiSolver(joint, d, side=True)
    # the slow solves move by more than 1e-12 when p(x|y) moves by an ulp, so
    # solve the rows exactly as the side solver normalizes them
    alone = [rd._MultiSolver(row / w, d) for row, w in zip(joint, py)]
    for slopes in [(-1.0,), (-2.0,), (-0.5,)]:  # warm-started after the first
        rate, dvec, iters, conv = side.eval(slopes)
        parts = [s.eval(slopes) for s in alone]
        assert rate == pytest.approx(sum(w * p[0] for w, p in zip(py, parts)), rel=0, abs=1e-12)
        assert dvec == pytest.approx(sum(w * p[1] for w, p in zip(py, parts)), rel=0, abs=1e-12)
        assert iters == max(p[2] for p in parts)
        assert conv == all(p[3] for p in parts)
        if slopes == (-1.0,):
            assert iters >= 10 * min(p[2] for p in parts)
            assert not conv


def test_size_guard_counts_every_side_state():
    # the solver steps the test channels of all side states at once
    joint = np.full((4, 2), 1 / 8)  # 4 side states, 2 letters, 2 reconstructions
    assert ba_joint_multi(joint, [HAM2], (-1.0,), side=True, limit=16).converged
    with pytest.raises(SizeGuardError):
        ba_joint_multi(joint, [HAM2], (-1.0,), side=True, limit=15)


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


def test_joint_target_never_resolves_a_held_point(monkeypatch):
    calls = []
    real_eval = rd._MultiSolver.eval

    def spy(self, slopes, iters=None):
        if iters is None:  # the default-budget sweep solves, not the final one
            calls.append(tuple(float(s) for s in slopes))
        return real_eval(self, slopes, iters)

    monkeypatch.setattr(rd._MultiSolver, "eval", spy)
    net = load_bundled("scene")
    arr = marginal_table(net, list(range(net.m))).probs.reshape(net.cards)
    dists = DistortionSpec.hamming(net.cards).matrices
    pt = ba_joint_multi_target(arr, dists, (0.16, 0.163, 0.067, 0.103))
    assert pt.converged
    # no slope vector is solved twice, consecutively or otherwise
    assert len(set(calls)) == len(calls)
    # a slope-0 probe moves one slope to 0 while another stays nonzero; the
    # search used to open every coordinate adjustment with one (30 here)
    probes = sum(any(x != 0 and y == 0 for x, y in zip(a, b)) and any(b)
                 for a, b in zip(calls, calls[1:]))
    assert probes < 30


def test_scene_sweep_rows_all_converge():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["rd", "scene", "--sweep", "25"]) == 0
    rows = out.getvalue().strip().split("\n")[1:]
    assert len(rows) == 25
    assert all(row.endswith(",true") for row in rows)  # three capped rows before warm starts
