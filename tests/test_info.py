"""Entropy accounting: factorized totals, oracle agreement, redundancy identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import semrd.info
from semrd import (
    binary_chain,
    binary_entropy,
    build_factorized_codebooks,
    conditional_mutual_information,
    entropy_bits,
    enumerate_joint,
    expected_length,
    joint_entropy_bruteforce,
    joint_entropy_factorized,
    make_net,
    marginal_entropy,
    marginal_table,
    node_conditional_entropy,
    random_net,
    redundancy_gap,
)
from semrd.info import parent_marginals

H_FORK = 1.9379911871785623
FORK_GAP = 1.0620088128214377


def test_entropy_bits_basics():
    assert entropy_bits([0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)
    assert entropy_bits([1.0, 0.0]) == 0.0
    assert entropy_bits([0.25] * 4) == pytest.approx(2.0, abs=1e-12)


def test_binary_entropy_reference_values():
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.1) == pytest.approx(0.46899559358928116, abs=1e-15)
    assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-15)
    assert binary_entropy(0.3) == pytest.approx(binary_entropy(0.7), abs=1e-15)


def test_fork_entropy_and_gap(fork_net):
    assert joint_entropy_factorized(fork_net) == pytest.approx(H_FORK, abs=1e-12)
    table = enumerate_joint(fork_net)
    assert joint_entropy_bruteforce(table) == pytest.approx(H_FORK, abs=1e-12)
    assert redundancy_gap(fork_net) == pytest.approx(FORK_GAP, abs=1e-12)


def test_fork_node_terms(fork_net):
    # root carries one full bit; each leaf term is the average row entropy
    assert node_conditional_entropy(fork_net, 0) == pytest.approx(1.0, abs=1e-15)
    assert node_conditional_entropy(fork_net, 1) == pytest.approx(
        binary_entropy(0.1), abs=1e-15
    )
    assert marginal_entropy(fork_net, 1) == pytest.approx(1.0, abs=1e-12)
    total = sum(node_conditional_entropy(fork_net, i) for i in range(fork_net.m))
    assert total == pytest.approx(H_FORK, abs=1e-12)


# X -> Y, X -> Z, Y -> Z: Z's parents {X, Y} are read off Y's family table
TRIANGLE = make_net(
    [("X", 2), ("Y", 3), ("Z", 2)],
    [("X", [], [[0.3, 0.7]]),
     ("Y", ["X"], [[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]]),
     ("Z", ["X", "Y"], [[0.9, 0.1], [0.4, 0.6], [0.5, 0.5],
                        [0.2, 0.8], [0.7, 0.3], [0.1, 0.9]])],
)
# X -> Z <- Y with X and Y roots: no family holds {X, Y}, so Z falls back
V_STRUCTURE = make_net(
    [("X", 2), ("Y", 2), ("Z", 2)],
    [("X", [], [[0.3, 0.7]]),
     ("Y", [], [[0.6, 0.4]]),
     ("Z", ["X", "Y"], [[0.9, 0.1], [0.4, 0.6], [0.5, 0.5], [0.2, 0.8]])],
)


def test_parent_marginals_equal_per_node_elimination(fork_net, chain_net, scene_net):
    nets = [fork_net, chain_net, scene_net, binary_chain(50), TRIANGLE, V_STRUCTURE]
    nets += [random_net(seed, 30 + seed, max_card=3, max_parents=2) for seed in range(20)]
    for net in nets:
        got = parent_marginals(net)
        assert len(got) == net.m
        for i in range(net.m):
            pa = net.parents(i)
            want = marginal_table(net, pa).probs if pa else np.ones(1)
            assert np.array_equal(got[i], want), (net.names, i)
        assert joint_entropy_factorized(net) == sum(
            node_conditional_entropy(net, i) for i in range(net.m))


def test_one_pass_calls_marginal_table_only_for_fallback_parent_sets(monkeypatch):
    calls = []

    def counted(net, ids, *args, **kwargs):
        calls.append(tuple(ids))
        return marginal_table(net, ids, *args, **kwargs)

    monkeypatch.setattr(semrd.info, "marginal_table", counted)
    for net, want in ((binary_chain(300), []), (TRIANGLE, []), (V_STRUCTURE, [(0, 1)])):
        fcb = build_factorized_codebooks(net)
        for fn in (joint_entropy_factorized, lambda n: expected_length(fcb, n)):
            calls.clear()
            fn(net)
            assert calls == want


def test_gap_equals_sum_of_parent_informations(fork_net, chain_net, scene_net):
    for net in (fork_net, chain_net, scene_net):
        table = enumerate_joint(net)
        acc = 0.0
        for i in range(net.m):
            parents = net.parents(i)
            if parents:
                acc += conditional_mutual_information(table, [i], list(parents))
        assert redundancy_gap(net) == pytest.approx(acc, abs=1e-9)


def test_gap_zero_for_fully_independent_net():
    net = random_net(5, 4, max_card=3, max_parents=0)
    assert all(net.parents(i) == () for i in range(net.m))
    assert redundancy_gap(net) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    n_vars=st.integers(min_value=1, max_value=6),
    max_card=st.integers(min_value=2, max_value=3),
)
def test_factorized_matches_bruteforce(seed, n_vars, max_card):
    net = random_net(seed, n_vars, max_card=max_card)
    h_fact = joint_entropy_factorized(net)
    h_brute = joint_entropy_bruteforce(enumerate_joint(net))
    assert abs(h_fact - h_brute) <= 1e-9
    assert 0.0 <= h_fact <= sum(math.log2(c) for c in net.cards) + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    n_vars=st.integers(min_value=2, max_value=6),
)
def test_gap_nonnegative(seed, n_vars):
    net = random_net(seed, n_vars, max_card=3)
    assert redundancy_gap(net) >= -1e-9


def test_cmi_chain_screening(chain_net):
    # X1 -> Y -> X2: ends are dependent marginally, independent given the middle
    table = enumerate_joint(chain_net)
    x1, y, x2 = (chain_net.id_of(n) for n in ("X1", "Y", "X2"))
    assert conditional_mutual_information(table, [x1], [x2]) > 0.1
    assert conditional_mutual_information(table, [x1], [x2], [y]) == pytest.approx(
        0.0, abs=1e-12
    )


def test_cmi_matches_entropy_identity(fork_net):
    # I(X1;Y) = H(X1) + H(Y) - H(X1,Y) on the fork
    table = enumerate_joint(fork_net)
    got = conditional_mutual_information(table, [1], [0])
    want = (
        marginal_entropy(fork_net, 1)
        + marginal_entropy(fork_net, 0)
        - (1.0 + binary_entropy(0.1))
    )
    assert got == pytest.approx(want, abs=1e-12)


def test_cmi_symmetry_and_nonnegativity(scene_net):
    table = enumerate_joint(scene_net)
    ab = conditional_mutual_information(table, [0], [1], [2])
    ba = conditional_mutual_information(table, [1], [0], [2])
    assert ab == pytest.approx(ba, abs=1e-12)
    assert ab >= 0.0
