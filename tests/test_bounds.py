"""Sandwich bounds around the joint rate and side-information decomposition."""

import contextlib
import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import semrd.bounds
import semrd.cli
import semrd.info
from semrd import (
    DistortionSpec,
    InvalidStateError,
    SizeGuardError,
    binary_entropy,
    lemma1_bounds,
    lemma2_check,
    make_net,
    marginal_table,
    random_net,
)
from semrd.info import parent_marginals, redundancy_gap
from semrd.nets import doubly_symmetric_fork
from semrd.bounds import _side_first_array
from semrd.rd import ba_conditional_target, ba_joint_multi_target, hamming_distortion

TWO_SIDED_RATE = 0.36519727294664994  # 2 * (h_b(0.1) - h_b(0.05))


def test_bounds_fork_asymmetric_targets(fork_net):
    rep = lemma1_bounds(fork_net, (0.1, 0.05, 0.2))
    assert rep.converged
    assert rep.targets == (0.1, 0.05, 0.2)
    assert rep.lower - 2e-4 <= rep.joint <= rep.upper + 2e-4
    assert rep.slack_lower == pytest.approx(rep.joint - rep.lower, abs=1e-12)
    assert rep.slack_upper == pytest.approx(rep.upper - rep.joint, abs=1e-12)
    assert sum(rep.lower_terms) == pytest.approx(rep.lower, abs=1e-12)
    assert sum(rep.upper_terms) == pytest.approx(rep.upper, abs=1e-12)
    # dependence strictly separates the three quantities on this net
    assert rep.joint > rep.lower + 0.01
    assert rep.upper > rep.joint + 0.5


def test_bounds_collapse_for_independent_variables():
    net = make_net(
        [("A", 2), ("B", 2)],
        [("A", [], [[0.5, 0.5]]), ("B", [], [[0.5, 0.5]])],
    )
    rep = lemma1_bounds(net, (0.1, 0.1))
    assert rep.converged
    assert rep.joint == pytest.approx(rep.lower, abs=2e-4)
    assert rep.joint == pytest.approx(rep.upper, abs=2e-4)
    assert rep.joint == pytest.approx(2 * (1 - binary_entropy(0.1)), abs=2e-4)


def test_bounds_copies_pin_joint_to_lower():
    # all three variables are literal copies of one fair bit
    net = doubly_symmetric_fork(0.0, 0.0)
    rep = lemma1_bounds(net, (0.1, 0.1, 0.1))
    assert rep.converged
    one = 1 - binary_entropy(0.1)
    assert rep.lower == pytest.approx(one, abs=2e-4)
    assert rep.joint == pytest.approx(one, abs=2e-4)
    assert rep.upper == pytest.approx(3 * one, abs=6e-4)


def test_bounds_target_length_checked(fork_net):
    with pytest.raises(InvalidStateError):
        lemma1_bounds(fork_net, (0.1, 0.1))


def test_bounds_with_squared_error(scene_net):
    spec = DistortionSpec.squared_error(scene_net.cards)
    rep = lemma1_bounds(scene_net, (0.2, 0.3, 0.2, 0.2), dspec=spec)
    if rep.converged:
        assert rep.lower - 2e-4 <= rep.joint <= rep.upper + 2e-4


def test_decomposition_fork_reference(fork_net):
    rep = lemma2_check(fork_net, ["Y"], (0.05, 0.05))
    assert rep.converged
    assert rep.partition.side == (0,)
    assert rep.partition.blocks == ((1,), (2,))
    assert rep.joint_conditional == pytest.approx(TWO_SIDED_RATE, abs=2e-4)
    assert rep.subset_sum == pytest.approx(TWO_SIDED_RATE, abs=2e-4)
    assert abs(rep.delta) <= 2e-4
    assert len(rep.block_rates) == 2
    assert sum(rep.block_rates) == pytest.approx(rep.subset_sum, abs=1e-12)


def test_decomposition_chain_reference(chain_net):
    rep = lemma2_check(chain_net, ["Y"], (0.05, 0.05))
    assert rep.converged
    assert rep.partition.blocks == ((0,), (2,))
    assert rep.joint_conditional == pytest.approx(TWO_SIDED_RATE, abs=2e-4)
    assert abs(rep.delta) <= 2e-4


def test_decomposition_asymmetric_noise():
    net = doubly_symmetric_fork(0.1, 0.2)
    rep = lemma2_check(net, ["Y"], (0.05, 0.05))
    want = (binary_entropy(0.1) - binary_entropy(0.05)) + (
        binary_entropy(0.2) - binary_entropy(0.05)
    )
    assert rep.converged
    assert rep.joint_conditional == pytest.approx(want, abs=2e-4)
    assert abs(rep.delta) <= 2e-4


def test_decomposition_single_block_when_side_does_not_split(chain_net):
    # revealing an end of the chain leaves the other two variables coupled
    rep = lemma2_check(chain_net, ["X1"], (0.1, 0.1))
    assert rep.partition.blocks == ((1, 2),)
    assert len(rep.block_rates) == 1
    assert abs(rep.delta) <= 2e-4


def test_decomposition_rejects_unknown_side(fork_net):
    with pytest.raises(InvalidStateError):
        lemma2_check(fork_net, ["nope"], (0.05, 0.05))


def test_decomposition_refuses_a_side_set_of_every_variable(fork_net):
    with pytest.raises(InvalidStateError, match="^no non-side variables"):
        lemma2_check(fork_net, ["Y", "X1", "X2"], ())


def test_sources_are_cut_from_one_table(monkeypatch, scene_net):
    calls = []

    def counted(net, ids, *args, **kwargs):
        calls.append(tuple(ids))
        return marginal_table(net, ids, *args, **kwargs)

    for mod in (semrd.bounds, semrd.info, semrd.cli):
        monkeypatch.setattr(mod, "marginal_table", counted)
    lemma1_bounds(scene_net, (0.16, 0.163, 0.067, 0.103))
    assert calls == [(0, 1, 2, 3)]  # the joint; every other source comes from the pass
    calls.clear()
    lemma2_check(doubly_symmetric_fork(0.1, 0.1), ["Y"], (0.05, 0.05))
    assert calls == [(0, 1, 2)]  # side + rest; the blocks are summed out of it
    calls.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert semrd.cli.run(["entropy", "scene"]) == 0
    assert calls == []


def test_bounds_refuse_a_net_over_the_guard_before_any_solve(monkeypatch, scene_net):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the size guard")

    for name in ("ba_target", "ba_conditional_target", "ba_joint_multi_target"):
        monkeypatch.setattr(semrd.bounds, name, no_solve)
    monkeypatch.setenv("SEMRD_SIZE_GUARD", "10")
    with pytest.raises(SizeGuardError):
        lemma1_bounds(scene_net, (0.1, 0.1, 0.1, 0.1))


@pytest.mark.parametrize("name, targets", [
    ("fork", (0.1, 0.05, 0.2)),
    ("chain", (0.1, 0.05, 0.2)),
    ("scene", (0.16, 0.163, 0.067, 0.103)),
])
def test_lemma1_joint_rate_is_the_joint_solve_of_the_source(request, name, targets):
    # R(D_1..D_m) depends on the source alone: the sandwich's middle term is
    # the joint target solve on the cut, not one seeded by the outer terms
    net = request.getfixturevalue(f"{name}_net")
    joint = _side_first_array(net, [], range(net.m))[0]
    dists = [hamming_distortion(k) for k in net.cards]
    assert lemma1_bounds(net, targets).joint == ba_joint_multi_target(joint, dists, targets).rate


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5_000))
def test_sandwich_holds_on_random_nets(seed):
    rng = np.random.default_rng(seed)
    net = random_net(seed, int(rng.integers(2, 4)), max_card=3)
    targets = tuple(float(t) for t in rng.uniform(0.05, 0.4, size=net.m))
    rep = lemma1_bounds(net, targets)
    if rep.converged:
        assert rep.lower - 2e-4 <= rep.joint <= rep.upper + 2e-4


def _test7_grid(index):
    """Net and targets of grid ``index`` of acceptance test 7 (5 grids per net)."""
    seed, g = divmod(index, 5)
    rng = np.random.default_rng(1000 + seed)
    net = random_net(1000 + seed, int(rng.integers(2, 5)), max_card=3)
    for _ in range(g + 1):
        targets = tuple(float(t) for t in rng.uniform(0.03, 0.45, size=net.m))
    return net, targets


def test_precise_sweeps_converge_on_former_test7_skips():
    # these grids ran out of precise sweeps when that phase had 3 of them
    for index in (8, 10, 21, 87, 90, 155, 183):
        net, targets = _test7_grid(index)
        rep = lemma1_bounds(net, targets)
        assert rep.converged, index
        assert rep.lower - 2e-4 <= rep.joint <= rep.upper + 2e-4, index


def shannon_lower_bound(joint, targets, side=False):
    """(H(X | Y) - sum_i [h(D_i) + D_i log2(k_i - 1)], tight) at Hamming
    targets D_i for the source ``joint`` (with a leading side axis Y when
    ``side``): the Shannon lower bound on its rate, and whether the bound is
    the rate itself, which holds exactly when the backward channel
    (K_1(D_1) x ... x K_m(D_m))^-1 p(. | y) is >= 0 for every side state y,
    K_i(D) the k_i-ary symmetric channel with error D."""
    joint = np.asarray(joint, float)
    joint = joint if side else joint[None]
    bound, tight = 0.0, True
    for py in joint:
        w = py.sum()
        if w == 0.0:
            continue
        back = py / w
        for axis, (k, t) in enumerate(zip(py.shape, targets)):
            inv = np.linalg.inv((1.0 - t - t / (k - 1)) * np.eye(k) + t / (k - 1))
            back = np.moveaxis(np.tensordot(inv, back, axes=(1, axis)), 0, axis)
        tight = tight and back.min() >= 0.0
        nz = py[py > 0] / w
        bound -= w * float(nz @ np.log2(nz))
    bound -= sum(binary_entropy(t) + t * math.log2(k - 1) for k, t in zip(joint.shape[1:], targets))
    return bound, tight


def _oracle_draws():
    """300 random nets (2-4 variables, cardinality <= 3) with Hamming targets
    from U(0.005, 0.08): low distortion, where the bound is often tight."""
    for seed in range(300):
        rng = np.random.default_rng(7000 + seed)
        net = random_net(7000 + seed, int(rng.integers(2, 5)), max_card=3)
        targets = tuple(float(t) for t in rng.uniform(0.005, 0.08, size=net.m))
        yield net, targets, marginal_table(net, list(range(net.m))).probs.reshape(net.cards)


def test_joint_solve_meets_the_tight_shannon_lower_bound():
    tight = 0
    for net, targets, arr in _oracle_draws():
        bound, exact = shannon_lower_bound(arr, targets)
        if not exact:
            continue
        tight += 1
        pt = ba_joint_multi_target(arr, DistortionSpec.hamming(net.cards).matrices, targets)
        assert pt.converged, targets
        assert abs(pt.rate - bound) <= 1e-6, targets
    print(f"Shannon lower bound: {tight} of 300 joint draws tight")
    assert tight >= 50


def test_lemma1_terms_meet_the_tight_shannon_lower_bound():
    # with H(X) = sum_i H(X_i | Parent(X_i)), the lower sum is the joint bound
    # once every family is tight, and upper - joint is the redundancy gap once
    # every marginal is tight too
    tight = gaps = 0
    for net, targets, arr in _oracle_draws():
        bound, exact = shannon_lower_bound(arr, targets)
        fams = list(zip(net.cpts, parent_marginals(net), targets))
        if not (exact and all(shannon_lower_bound(p_pa[:, None] * cpt.table, [t], side=True)[1]
                              for cpt, p_pa, t in fams)):
            continue
        tight += 1
        rep = lemma1_bounds(net, targets)
        assert rep.converged, targets
        assert abs(rep.lower - bound) <= 1e-6, targets
        assert abs(rep.joint - bound) <= 1e-6, targets
        if all(shannon_lower_bound(p_pa @ cpt.table, [t])[1] for cpt, p_pa, t in fams):
            gaps += 1
            assert abs(rep.slack_upper - redundancy_gap(net)) <= 1e-6, targets
    print(f"Shannon lower bound: {tight} of 300 Lemma 1 draws tight in the joint and every "
          f"family, {gaps} in every marginal too")
    assert gaps >= 50


def test_side_axis_solves_meet_the_tight_shannon_lower_bound():
    # given a side variable Y the bound is H(X | Y) - sum_i [h(D_i) +
    # D_i log2(k_i - 1)], tight where every side state's backward channel is
    # >= 0: on the first 100 oracle draws, each family's conditional solve
    # (side: the parent configuration) and each Lemma 2 rate, the joint
    # conditional and every block's, with variable (draw number mod m) as
    # the side variable
    conds = rates = 0
    for k, (net, targets, _) in enumerate(itertools.islice(_oracle_draws(), 100)):
        for cpt, p_pa, t in zip(net.cpts, parent_marginals(net), targets):
            src = p_pa[:, None] * cpt.table  # (parent configuration, x)
            bound, exact = shannon_lower_bound(src, [t], side=True)
            if cpt.parents and exact:
                conds += 1
                pt = ba_conditional_target(src.T, hamming_distortion(cpt.table.shape[1]), t)
                assert pt.converged, targets
                assert abs(pt.rate - bound) <= 1e-6, targets
        side = k % net.m
        rest = [v for v in range(net.m) if v != side]
        rep = lemma2_check(net, [side], [targets[v] for v in rest])
        for block, rate in [(rest, rep.joint_conditional), *zip(rep.partition.blocks, rep.block_rates)]:
            bound, exact = shannon_lower_bound(_side_first_array(net, [side], block),
                                               [targets[v] for v in block], side=True)
            if exact:
                rates += 1
                assert rep.converged, targets
                assert abs(rate - bound) <= 1e-6, targets
    print(f"Shannon lower bound given a side variable: {conds} conditional solves and "
          f"{rates} Lemma 2 rates tight on 100 draws")
    assert conds >= 50 and rates >= 50
