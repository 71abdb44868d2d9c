"""Entropy accounting: factorized totals, oracle agreement, redundancy identities."""

import contextlib
import io
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import semrd.bounds
import semrd.cli
import semrd.info
from semrd import (
    InvalidStateError,
    binary_chain,
    binary_entropy,
    build_factorized_codebooks,
    conditional_mutual_information,
    conditional_partition,
    entropy_bits,
    enumerate_joint,
    expected_length,
    joint_entropy_bruteforce,
    joint_entropy_factorized,
    lemma1_bounds,
    lemma2_check,
    make_net,
    marginal_entropy,
    marginal_table,
    node_conditional_entropy,
    random_net,
    redundancy_gap,
    save_net,
)
from semrd.info import marginal_entropy_sum, parent_marginals

H_FORK = 1.9379911871785623
FORK_GAP = 1.0620088128214377


def test_entropy_bits_basics():
    assert entropy_bits([0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)
    assert entropy_bits([1.0, 0.0]) == 0.0
    assert entropy_bits([0.25] * 4) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("call, message", [
    (lambda table: binary_entropy(1.5), "binary entropy argument 1.5 outside [0, 1]"),
    (lambda table: binary_entropy(math.nan), "binary entropy argument nan outside [0, 1]"),
    (lambda table: conditional_mutual_information(table, [0], [0]),
     "variable groups must be disjoint, got [[0], [0], []]"),
    (lambda table: conditional_mutual_information(table, [0], [5]),
     "variable 5 not in table scope (0, 1, 2)"),
], ids=["entropy-over-1", "entropy-nan", "cmi-overlapping-groups", "cmi-outside-scope"])
def test_refusals_name_their_cause(fork_net, call, message):
    with pytest.raises(InvalidStateError, match=f"^{re.escape(message)}$"):
        call(enumerate_joint(fork_net))


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
    # single parents of up to 5 states: the flat one-parent step
    nets += [random_net(seed, 40, max_card=5, max_parents=1) for seed in range(20)]
    for net in nets:
        got = parent_marginals(net)
        assert len(got) == net.m
        for i in range(net.m):
            pa = net.parents(i)
            want = marginal_table(net, pa).probs if pa else np.ones(1)
            assert np.array_equal(got[i], want), (net.names, i)
        assert joint_entropy_factorized(net) == sum(
            node_conditional_entropy(net, i) for i in range(net.m))


def test_row_entropies_equal_entropy_bits_row_by_row(fork_net, chain_net, scene_net):
    nets = [fork_net, chain_net, scene_net, binary_chain(180, 0.37)]
    nets += [random_net(seed, 40, max_card=4, max_parents=3) for seed in range(10)]
    for net in nets:
        per_row = [np.array([entropy_bits(row) for row in cpt.table]) for cpt in net.cpts]
        assert semrd.info.conditional_entropies(net) == [
            float(p_pa @ h) for p_pa, h in zip(parent_marginals(net), per_row)]
        for i, cpt in enumerate(net.cpts):
            p_pa = marginal_table(net, cpt.parents).probs if cpt.parents else np.ones(1)
            assert node_conditional_entropy(net, i) == float(p_pa @ per_row[i])


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


def test_redundancy_gap_and_entropy_command_run_one_pass_per_sum(monkeypatch, tmp_path):
    # each parent set that falls back to marginal_table is eliminated once
    # for sum_i H(X_i) and once for the conditional entropies, not per node
    calls = []

    def counted(net, ids, *args, **kwargs):
        calls.append(tuple(ids))
        return marginal_table(net, ids, *args, **kwargs)

    monkeypatch.setattr(semrd.info, "marginal_table", counted)
    redundancy_gap(V_STRUCTURE)
    assert calls == [(0, 1)] * 2
    calls.clear()
    path = tmp_path / "v.json"
    save_net(V_STRUCTURE, path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert semrd.cli.run(["entropy", str(path)]) == 0
    assert calls == [(0, 1)] * 2


def test_lemma_sources_equal_their_own_elimination(monkeypatch, fork_net, chain_net, scene_net):
    # record the source of every solve and answer it with a stub point
    seen = {name: [] for name in ("ba_target", "ba_conditional_target", "ba_joint_multi_target")}
    for name, log in seen.items():
        monkeypatch.setattr(semrd.bounds, name, lambda src, *a, log=log, **k: log.append(
            np.asarray(src)) or SimpleNamespace(rate=0.0, slope=-1.0, converged=True))
    nets = [fork_net, chain_net, scene_net, TRIANGLE, V_STRUCTURE]
    nets += [random_net(seed, 6, max_card=3, max_parents=2) for seed in range(5)]
    for net in nets:
        for log in seen.values():
            log.clear()
        lemma1_bounds(net, [0.1] * net.m)
        assert np.array_equal(seen["ba_joint_multi_target"][0],
                              marginal_table(net, range(net.m)).probs.reshape(net.cards))
        assert len(seen["ba_target"]) == net.m
        for i, src in enumerate(seen["ba_target"]):
            np.testing.assert_allclose(src, marginal_table(net, [i]).probs, rtol=0, atol=1e-15)
        children = [i for i in range(net.m) if net.parents(i)]
        assert len(seen["ba_conditional_target"]) == len(children)
        for i, src in zip(children, seen["ba_conditional_target"]):
            fam = marginal_table(net, [*net.parents(i), i]).probs.reshape(-1, net.card(i)).T
            assert src.shape == fam.shape
            np.testing.assert_allclose(src, fam, rtol=0, atol=1e-15)
        for side in range(net.m):
            blocks = conditional_partition(net, [side]).blocks
            seen["ba_joint_multi_target"].clear()
            lemma2_check(net, [side], [0.1] * (net.m - 1))
            assert len(seen["ba_joint_multi_target"]) == 1 + len(blocks)
            for block, src in zip(blocks, seen["ba_joint_multi_target"][1:]):
                want = marginal_table(net, [side, *block]).probs
                assert src.shape == tuple(net.card(v) for v in (side, *block))
                np.testing.assert_allclose(src.reshape(-1), want, rtol=0, atol=1e-15)


def test_marginal_entropy_sum_equals_per_node_elimination(fork_net, chain_net, scene_net):
    nets = [fork_net, chain_net, scene_net, binary_chain(50), TRIANGLE, V_STRUCTURE]
    nets += [random_net(seed, 12, max_card=3, max_parents=2) for seed in range(10)]
    for net in nets:
        want = sum(marginal_entropy(net, i) for i in range(net.m))
        assert marginal_entropy_sum(net) == pytest.approx(want, abs=1e-12)


def test_gap_equals_sum_of_parent_informations(fork_net, chain_net, scene_net):
    for net in (fork_net, chain_net, scene_net):
        table = enumerate_joint(net)
        acc = 0.0
        for i in range(net.m):
            parents = net.parents(i)
            if parents:
                acc += conditional_mutual_information(table, [i], list(parents))
        assert redundancy_gap(net) == pytest.approx(acc, abs=1e-9)


def test_redundancy_gap_builds_no_joint_table():
    # 2^30 joint states, over the default guard: the gap needs only the
    # per-node marginals, 29 links of I(X_i; X_i-1) = 1 - h_b(0.3) each
    net = binary_chain(30)
    assert net.joint_states() > semrd.DEFAULT_SIZE_GUARD
    assert redundancy_gap(net) == pytest.approx(29 * (1 - binary_entropy(0.3)), abs=1e-12)
    assert redundancy_gap(net) == pytest.approx(3.4426, abs=1e-4)


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
