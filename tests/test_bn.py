"""Network construction, validation, indexing, marginals, sampling, and I/O."""

import dataclasses
import hashlib
import importlib
import inspect
import json
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import semrd
from semrd import bn, errors
from semrd import (
    SchemaError,
    SizeGuardError,
    build_factorized_codebooks,
    conditional_mutual_information,
    conditional_partition,
    encode,
    enumerate_joint,
    joint_probability,
    load_bundled,
    make_net,
    marginal_table,
    random_net,
    sample,
    save_net,
    validate,
)
from semrd.bn import (
    BayesNet,
    Cpt,
    Variable,
    ancestral_closure,
    config_index,
    net_from_dict,
    row_layout,
    size_guard,
)
from semrd.nets import BUNDLED, bundled_path

TYPED_ERRORS = tuple(v for v in vars(errors).values()
                     if isinstance(v, type) and issubclass(v, Exception))


def test_fork_structure(fork_net):
    assert fork_net.names == ("Y", "X1", "X2")
    assert fork_net.cards == (2, 2, 2)
    assert fork_net.m == 3
    assert fork_net.joint_states() == 8
    assert fork_net.max_in_degree() == 1
    assert fork_net.order == (0, 1, 2)
    assert fork_net.parents(1) == (0,)
    assert fork_net.parents(0) == ()


def test_fork_joint_probability(fork_net):
    # 0.5 * 0.9 * 0.9 for the all-zeros configuration
    assert joint_probability(fork_net, (0, 0, 0)) == pytest.approx(0.405, abs=1e-15)
    total = sum(
        joint_probability(fork_net, (y, a, b))
        for y in range(2)
        for a in range(2)
        for b in range(2)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("assignment, message", [
    ([1, 0.5, 0], "state 0.5 of variable 'X1' is not an integer"),
    ([0.5, 0, 0], "state 0.5 of variable 'Y' is not an integer"),
    ([np.nan, 0, 0], "state nan of variable 'Y' is not an integer"),
    (["a", 0, 0], "state 'a' of variable 'Y' is not an integer"),
    ([0, 0, 2], r"state 2 out of range for variable 'X2' \(cardinality 2\)"),
    ([0, 0], "2 states for 3 variables"),
    (5, "5 is not a vector of 3 states"),
    (np.array([np.nan, 0, 0]), "state nan of variable 'Y' is not an integer"),
])
def test_joint_probability_refuses_states_that_are_not_state_indices(fork_net, assignment, message):
    # ``encode``'s rule too, with the sample's number in front: an integral
    # float is a state; a fraction, a NaN or a string is not
    with pytest.raises(errors.InvalidStateError, match=rf"^{message}$"):
        joint_probability(fork_net, assignment)
    fcb = build_factorized_codebooks(fork_net)
    with pytest.raises(errors.InvalidStateError, match=rf"^sample 0: {message}$"):
        encode(fcb, [assignment])


def test_joint_probability_takes_integral_floats(fork_net):
    want = joint_probability(fork_net, [1, 0, 1])
    assert joint_probability(fork_net, [1.0, 0, np.float64(1)]) == want


def test_validate_bundled_nets(fork_net, chain_net, scene_net):
    for net in (fork_net, chain_net, scene_net):
        report = validate(net)
        assert report.ok
        assert report.violations == []
        assert str(report) == "ok"


def test_validate_reports_cycle():
    # construction is permissive; the report carries the problem
    net = make_net(
        [("A", 2), ("B", 2)],
        [("A", ["B"], [[0.5, 0.5], [0.5, 0.5]]),
         ("B", ["A"], [[0.5, 0.5], [0.5, 0.5]])],
    )
    report = validate(net)
    assert not report.ok
    assert any("cycle" in v for v in report.violations)
    # a 3-cycle A -> B -> C -> A with a tail C -> D below it and a root T
    # above it; the walk starts from D, the smallest id off the topological order
    half = [[0.5, 0.5]]
    net = make_net(
        [("D", 2), ("A", 2), ("B", 2), ("C", 2), ("T", 2)],
        [("D", ["C"], half * 2), ("A", ["C", "T"], half * 4), ("B", ["A"], half * 2),
         ("C", ["B"], half * 2), ("T", [], half)],
    )
    cycles = [v for v in validate(net).violations if v.startswith("cycle")]
    assert cycles == ["cycle: 1 -> 2 -> 3 -> 1"]


def test_validate_lists_only_the_cycle_when_a_parent_is_declared_after_its_child():
    # A <-> B is a cycle; C lists its parent D after itself, off the cycle,
    # which the derived order places first
    half = [[0.5, 0.5]]
    net = make_net(
        [("A", 2), ("B", 2), ("C", 2), ("D", 2)],
        [("A", ["B"], half * 2), ("B", ["A"], half * 2), ("C", ["D"], half * 2), ("D", [], half)],
    )
    assert validate(net).violations == ["cycle: 1 -> 0 -> 1"]


def test_a_net_is_its_variables_and_cpts_and_its_order_is_derived(chain_net):
    # a variable's id and a CPT's child are positions; the order is no input
    assert [f.name for f in dataclasses.fields(Variable)] == ["name", "cardinality"]
    assert [f.name for f in dataclasses.fields(Cpt)] == ["parents", "table"]
    assert BayesNet(chain_net.variables, chain_net.cpts).order == chain_net.order == (0, 1, 2)
    with pytest.raises(TypeError):
        BayesNet(chain_net.variables, chain_net.cpts, (0, 1, 2))
    with pytest.raises(ValueError):
        dataclasses.replace(chain_net, order=(2, 1, 0))


def test_a_replaced_net_orders_and_samples_by_its_own_cpts():
    # the chain reversed, X1 <- Y <- X2: an order kept from the chain drew X1
    # before Y and Y before X2, so the flips went unseen (0.824 and 0.503)
    flip, half = np.array([[0.9, 0.1], [0.1, 0.9]]), np.array([[0.5, 0.5]])
    net = dataclasses.replace(load_bundled("chain"),
                              cpts=(Cpt((1,), flip), Cpt((2,), flip), Cpt((), half)))
    assert net.order == (2, 1, 0)
    assert validate(net).ok
    x = sample(net, 20000, 0)
    assert np.mean(x[:, 0] == x[:, 1]) == pytest.approx(0.9, abs=0.01)
    assert np.mean(x[:, 1] == x[:, 2]) == pytest.approx(0.9, abs=0.01)


@pytest.mark.parametrize("rows, report", [
    ([0.5, 0.5], "'A': table shape (2,) != (1, 2)"),
    ([[0.3, 0.3]], "'A': row sum 0.6 != 1 at parent config 0"),
], ids=["flat-rows", "row-sum"])
def test_validate_reports_read(rows, report):
    # make_net takes rows as given: a flat list is no one-row matrix
    assert str(validate(make_net([("A", 2)], [("A", [], rows)]))) == report


@pytest.mark.parametrize("variables, cpts, report", [
    ((Variable("A", 2), Variable("B", 2)), (Cpt((), np.array([[0.5, 0.5]])),),
     "expected 2 cpts, got 1"),
    ((Variable("A", 2),), (Cpt((5,), np.full((2, 2), 0.5)),), "'A': parent id 5 out of range"),
    ((Variable("A", 2),), (Cpt((-1,), np.full((2, 2), 0.5)),), "'A': parent id -1 out of range"),
], ids=["cpt-count", "parent-5", "parent-minus-1"])
def test_validate_reports_a_directly_built_net(variables, cpts, report):
    assert str(validate(BayesNet(variables, cpts))) == report


def _reference_kahn(cpts, m):
    """Kahn's walk on a sorted ready list: pop its head, re-sort after each step."""
    children, indeg = {i: [] for i in range(m)}, [0] * m
    for child, c in enumerate(cpts):
        for p in c.parents:
            children[p].append(child)
            indeg[child] += 1
    ready, out = sorted(i for i in range(m) if indeg[i] == 0), []
    while ready:
        v = ready.pop(0)
        out.append(v)
        for w in sorted(children[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
        ready.sort()
    return out


def test_kahn_matches_a_sorted_list_walk_on_shuffled_nets():
    # 40 variables declared in a random order, up to 3 parents each from
    # earlier in a hidden topological order; every fourth net gains one
    # edge that may close a cycle, whose ids the walk leaves out
    rng = np.random.default_rng(40)
    for t in range(300):
        topo, parents = rng.permutation(40).tolist(), [[] for _ in range(40)]
        for j, v in enumerate(topo):
            k = int(rng.integers(0, min(j, 3) + 1))
            parents[v] = [topo[int(a)] for a in rng.choice(j, size=k, replace=False)] if k else []
        if t % 4 == 0:
            a, b = sorted(rng.choice(40, size=2, replace=False).tolist())
            parents[topo[a]].append(topo[b])
        cpts = [Cpt(tuple(pa), np.full((2 ** len(pa), 2), 0.5)) for pa in parents]
        assert bn._kahn(cpts, 40) == _reference_kahn(cpts, 40)


def _load_text(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    return semrd.load_net(path)


@pytest.mark.parametrize("call, error, message", [
    (lambda net, tmp: sample(net, -1, 0), errors.InvalidStateError,
     "sample count must be >= 0, got -1"),
    (lambda net, tmp: marginal_table(net, []), errors.InvalidStateError,
     "ids must be a non-empty set of distinct variables, got []"),
    (lambda net, tmp: marginal_table(net, [0, 0]), errors.InvalidStateError,
     "ids must be a non-empty set of distinct variables, got [0, 0]"),
    (lambda net, tmp: net.id_of(99), errors.InvalidStateError, "no variable with id 99"),
    (lambda net, tmp: net_from_dict([]), SchemaError, "network document must be a JSON object"),
    (lambda net, tmp: _load_text(tmp, "{not json"), SchemaError,
     "bad.json: invalid JSON at line 1 col 2: Expecting property name enclosed in double quotes"),
    (lambda net, tmp: enumerate_joint(make_net([("A", 2)], [("A", [], [[0.3, 0.3]])])),
     SchemaError, "joint table sums to 0.6, not 1; network is inconsistent"),
    (lambda net, tmp: net_from_dict(_one_var_doc(rows=[0.5, 0.5])), SchemaError,
     "cpts[0].rows must be a matrix"),
], ids=["sample-negative", "marginal-empty", "marginal-repeated", "id-out-of-range",
        "document-not-object", "invalid-json", "joint-sum", "rows-not-a-matrix"])
def test_refusals_name_their_cause(fork_net, tmp_path, call, error, message):
    with pytest.raises(error, match=re.escape(message) + "$"):
        call(fork_net, tmp_path)


def test_validate_reports_non_finite_cpt_entries():
    net = make_net([("A", 2)], [("A", [], [[float("nan"), 0.5]])])
    assert validate(net).violations == ["'A': non-finite probability entries"]


def _one_var_doc(**cpt):
    return {"variables": [{"name": "A", "cardinality": 2}], "edges": [],
            "cpts": [{"child": "A", "parents": [], "rows": [[0.5, 0.5]], **cpt}]}


@pytest.mark.parametrize("doc", [
    {**_one_var_doc(), "variables": 3},
    {**_one_var_doc(), "edges": 5},
    {**_one_var_doc(), "cpts": 7},
    _one_var_doc(parents=0),
    {**_one_var_doc(), "variables": [{"name": "A", "cardinality": None}]},
    {**_one_var_doc(), "variables": [{"name": "A", "cardinality": 2.5}]},
    _one_var_doc(child=["A"]),
    _one_var_doc(rows=[[{}, 0.5]]),
    _one_var_doc(rows=[[None, 1.0]]),
    _one_var_doc(rows=[[1e308, 1e308]]),
    _one_var_doc(rows=[[float("inf"), float("-inf")]]),
    {**_one_var_doc(parents=["A"], rows=[[0.5, 0.5]] * 2), "edges": [["A", "A"]]},
    {"variables": [{"name": "A", "cardinality": 2}, {"name": "B", "cardinality": 2}],
     "edges": [["A", "B"]],
     "cpts": [{"child": "A", "parents": [], "rows": [[0.5, 0.5]]},
              {"child": "B", "parents": ["A", "A"], "rows": [[0.5, 0.5]] * 4}]},
], ids=["variables", "edges", "cpts", "parents", "cardinality", "fractional-cardinality",
        "child", "rows", "null-entry", "overflowing-row-sum", "inf-minus-inf-row-sum",
        "own-parent", "duplicate-parents"])
def test_net_from_dict_rejects_malformed_fields(doc):
    with pytest.raises(SchemaError):
        net_from_dict(doc)


def test_a_net_without_variables_is_refused(tmp_path):
    # it once passed, and entropy and encode then failed with untyped errors
    doc = {"variables": [], "edges": [], "cpts": []}
    assert validate(make_net([], [])).violations == ["network has no variables"]
    with pytest.raises(SchemaError, match="no variables"):
        net_from_dict(doc)
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="no variables"):
        semrd.load_net(path)


def test_load_net_rejects_deeply_nested_json(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(SchemaError, match="nested too deeply"):
        semrd.load_net(path)


def test_net_from_dict_rejects_cycle():
    half = [[0.5, 0.5], [0.5, 0.5]]
    doc = {"variables": [{"name": "A", "cardinality": 2}, {"name": "B", "cardinality": 2}],
           "edges": [["B", "A"], ["A", "B"]],
           "cpts": [{"child": "A", "parents": ["B"], "rows": half},
                    {"child": "B", "parents": ["A"], "rows": half}]}
    with pytest.raises(SchemaError, match="cycle"):
        net_from_dict(doc)


def test_load_net_renormalizes_rows_within_1e_9(tmp_path):
    path = tmp_path / "near.json"
    path.write_text(json.dumps(_one_var_doc(rows=[[0.5, 0.5 + 5e-10]])))
    net = semrd.load_net(path)
    assert validate(net).ok
    assert abs(net.cpts[0].table.sum() - 1.0) <= 1e-12


def test_load_net_rejects_row_off_by_2e_9_naming_the_file(tmp_path):
    path = tmp_path / "off.json"
    path.write_text(json.dumps(_one_var_doc(rows=[[0.5, 0.5 + 2e-9]])))
    with pytest.raises(SchemaError, match="row sum") as info:
        semrd.load_net(path)
    assert str(path) in str(info.value)


@st.composite
def mutated_net_docs(draw):
    """A bundled net's JSON document with one to three hostile edits: a key
    or list entry dropped, a value swapped for one of another type, or a list
    truncated, each at a random depth."""
    doc = json.loads(bundled_path(draw(st.sampled_from(BUNDLED))).read_text())
    hostile = st.sampled_from([None, True, 0, -1, 2.5, 10**30, float("nan"), float("inf"),
                               "", "Y", [], [[]], ["Y"], [0.5, 0.5], {}, {"name": "Y"}])
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while node:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
                continue
            action = draw(st.sampled_from(["drop", "swap", "truncate"]))
            if action == "drop":
                del node[key]
            elif action == "truncate" and isinstance(child, list) and child:
                node[key] = child[:draw(st.integers(0, len(child) - 1))]
            else:
                node[key] = draw(hostile)
            break
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=mutated_net_docs())
def test_hostile_net_documents_raise_typed_errors(doc):
    try:
        net = net_from_dict(doc)
    except TYPED_ERRORS:
        return
    validate(net)  # reports, never raises


def test_import_does_not_load_networkx():
    src = str(Path(semrd.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import semrd; print(sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert "semrd.bn" in out.stdout
    assert "'networkx'" not in out.stdout


def test_make_net_rejects_unknown_parent():
    with pytest.raises(SchemaError):
        make_net([("A", 2)], [("A", ["Z"], [[0.5, 0.5], [0.5, 0.5]])])


def test_make_net_copies_the_rows_it_is_given():
    a = np.full((1, 2), 0.5)
    net = make_net([("A", 2)], [("A", [], a)])
    assert a.flags.writeable
    assert not net.cpts[0].table.flags.writeable
    a[0] = [0.9, 0.1]
    assert net.cpts[0].table.tolist() == [[0.5, 0.5]]


@pytest.mark.parametrize("variables, cpts", [
    ([("A", 2)], [("A", [], [[0.5, 0.5]]), ("A", [], [[0.9, 0.1]])]),
    ([("A", 2), ("B", 2)], [("A", [], [[0.5, 0.5]])]),
    ([("A", 2.7)], [("A", [], [[0.5, 0.5]])]),
    ([("A", "2")], [("A", [], [[0.5, 0.5]])]),
], ids=["duplicate-cpt", "missing-cpt", "fractional-cardinality", "string-cardinality"])
def test_make_net_rejects_what_net_from_dict_rejects(variables, cpts):
    # one builder holds every rule, so a net built in code passes the same checks
    with pytest.raises(SchemaError):
        make_net(variables, cpts)


def test_make_net_reads_an_integral_float_cardinality():
    assert make_net([("A", 2.0)], [("A", [], [[0.5, 0.5]])]).cards == (2,)


def test_an_edge_naming_an_unknown_variable_is_a_schema_error():
    doc = _one_var_doc()
    for edge in (["A", "Z"], [["A"], "A"]):
        with pytest.raises(SchemaError, match="unknown variable"):
            net_from_dict({**doc, "edges": [edge]})


def test_a_wrong_edge_is_named_alone():
    # a 1,000-variable chain whose last edge skips a link: the message names
    # that edge and the side it is missing from, not both edge sets
    doc = semrd.nets.binary_chain(1000).to_dict()
    doc["edges"][-1] = ["X997", "X999"]
    with pytest.raises(SchemaError) as info:
        net_from_dict(doc)
    message = str(info.value)
    assert message == ("edges disagree with cpt parent lists: "
                       "['X997', 'X999'] is not in the cpt parent lists")
    assert len(message) < 200
    del doc["edges"][-1]
    with pytest.raises(SchemaError, match=r": \['X998', 'X999'\] is not in edges$"):
        net_from_dict(doc)


def test_make_net_rejects_duplicate_names():
    with pytest.raises(SchemaError):
        make_net([("A", 2), ("A", 2)], [("A", [], [[0.5, 0.5]])])


def test_validate_reports_bad_row_shape():
    net = make_net([("A", 3)], [("A", [], [[0.5, 0.5]])])
    report = validate(net)
    assert any("shape" in v for v in report.violations)


def test_validate_reports_negative_probability():
    net = make_net([("A", 2)], [("A", [], [[1.2, -0.2]])])
    report = validate(net)
    assert any("negative" in v for v in report.violations)


def test_validate_reports_row_not_summing_to_one():
    net = make_net([("A", 2)], [("A", [], [[0.6, 0.6]])])
    report = validate(net)
    assert any("row sum" in v for v in report.violations)


def test_config_index_last_parent_fastest():
    cards = (2, 3, 2)
    assert config_index((0, 0, 0), cards) == 0
    assert config_index((0, 0, 1), cards) == 1
    assert config_index((0, 1, 0), cards) == 2
    assert config_index((1, 2, 1), cards) == 11


@given(
    cards=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=5),
    data=st.data(),
)
def test_config_index_matches_c_order_ravel(cards, data):
    states = [data.draw(st.integers(min_value=0, max_value=c - 1)) for c in cards]
    assert config_index(states, cards) == int(np.ravel_multi_index(states, cards))


def test_enumerate_joint_fork(fork_net):
    table = enumerate_joint(fork_net)
    assert table.scope == (0, 1, 2)
    assert table.cards == (2, 2, 2)
    assert table.probs.sum() == pytest.approx(1.0, abs=1e-12)
    arr = table.as_array()
    assert arr.shape == (2, 2, 2)
    assert arr[0, 0, 0] == pytest.approx(0.405, abs=1e-15)
    # the flat vector is the C-order flattening of the axis-ordered array
    np.testing.assert_allclose(arr.ravel(), table.probs)


def test_marginal_table_orders_match_request(fork_net):
    mt = marginal_table(fork_net, (2, 0))
    assert mt.scope == (2, 0)
    assert mt.cards == (2, 2)
    arr = enumerate_joint(fork_net).as_array()
    expect = arr.sum(axis=1).T  # sum out X1, then transpose (Y, X2) -> (X2, Y)
    np.testing.assert_allclose(mt.as_array(), expect, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_vars=st.integers(min_value=1, max_value=5),
    max_card=st.integers(min_value=2, max_value=3),
)
def test_marginal_consistent_with_bruteforce(seed, n_vars, max_card):
    net = random_net(seed, n_vars, max_card=max_card)
    table = enumerate_joint(net)
    arr = table.as_array()
    for i in range(net.m):
        mt = marginal_table(net, (i,))
        keep = table.scope.index(i)
        axes = tuple(ax for ax in range(net.m) if ax != keep)
        np.testing.assert_allclose(mt.probs, arr.sum(axis=axes), atol=1e-11)


def test_ancestral_closure_chain(chain_net):
    # X1 -> Y -> X2
    x2 = chain_net.id_of("X2")
    assert ancestral_closure(chain_net, [x2]) == {0, 1, 2}
    x1 = chain_net.id_of("X1")
    assert ancestral_closure(chain_net, [x1]) == {x1}


def test_conditional_partition_fork(fork_net):
    part = conditional_partition(fork_net, [fork_net.id_of("Y")])
    assert part.side == (0,)
    assert part.blocks == ((1,), (2,))


def test_conditional_partition_chain(chain_net):
    given_y = conditional_partition(chain_net, [chain_net.id_of("Y")])
    assert given_y.blocks == ((chain_net.id_of("X1"),), (chain_net.id_of("X2"),))
    given_x1 = conditional_partition(chain_net, [chain_net.id_of("X1")])
    # Y and X2 stay coupled when only X1 is revealed
    assert given_x1.blocks == ((chain_net.id_of("Y"), chain_net.id_of("X2")),)


def test_numpy_integer_ids_resolve_as_int_ids(fork_net, scene_net):
    assert fork_net.id_of(np.int64(2)) == 2 and type(fork_net.id_of(np.int32(1))) is int
    with pytest.raises(errors.InvalidStateError, match="no variable with id 3$"):
        fork_net.id_of(np.int64(3))
    for ids in ([0, 1], [2, 0]):
        want = marginal_table(scene_net, ids)
        got = marginal_table(scene_net, np.array(ids))
        assert got.scope == want.scope
        np.testing.assert_array_equal(got.probs, want.probs)
    assert conditional_partition(scene_net, np.array([1, 2])) == conditional_partition(scene_net, [1, 2])


@pytest.mark.parametrize("side, blocks", [
    (["scene"], ((1, 3), (2,))),
    (["sky"], ((0, 2), (3,))),
    (["grass"], ((0, 1, 3),)),
    (["light"], ((0, 1, 2),)),
    (["sky", "grass"], ((0,), (3,))),
])
def test_conditional_partition_scene(scene_net, side, blocks):
    part = conditional_partition(scene_net, side)
    assert part.side == tuple(sorted(scene_net.id_of(v) for v in side))
    assert part.blocks == blocks


def test_conditional_partition_blocks_are_independent_given_side():
    rng = np.random.default_rng(8)
    for seed in range(40):
        net = random_net(seed, int(rng.integers(2, 7)), max_card=3, max_parents=3)
        side = [int(v) for v in np.flatnonzero(rng.random(net.m) < 0.3)]
        part = conditional_partition(net, side)
        members = [v for b in part.blocks for v in b]
        assert sorted(members) == [v for v in range(net.m) if v not in side]
        table = enumerate_joint(net)
        for k, a in enumerate(part.blocks):
            for b in part.blocks[k + 1:]:
                assert conditional_mutual_information(table, a, b, side) <= 1e-9


def test_sample_deterministic_and_in_range(fork_net):
    a = sample(fork_net, 200, seed=3)
    b = sample(fork_net, 200, seed=3)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (200, 3)
    assert a.min() >= 0 and a.max() <= 1
    c = sample(fork_net, 200, seed=4)
    assert not np.array_equal(a, c)


def test_sample_refuses_a_table_over_the_size_guard(fork_net):
    # 2^40 samples of 3 variables: refused before the (n, m) table is allocated
    with pytest.raises(SizeGuardError, match=r"^1099511627776 samples: 1099511627776x3 table "
                                             r"exceeds guard 16777216$"):
        sample(fork_net, 2**40, seed=0)
    assert sample(fork_net, 0, seed=0).shape == (0, 3)


def test_sample_obeys_the_size_guard_setting(monkeypatch, fork_net):
    monkeypatch.setenv("SEMRD_SIZE_GUARD", "4")
    with pytest.raises(SizeGuardError, match=r"^3 samples: 3x3 table exceeds guard 4$"):
        sample(fork_net, 3, 0)
    assert sample(fork_net, 1, 0).shape == (1, 3)


def test_sample_frequencies_track_joint(fork_net):
    draws = sample(fork_net, 50_000, seed=11)
    zero = np.all(draws == 0, axis=1).mean()
    assert zero == pytest.approx(0.405, abs=0.01)


def _net_with_zeros(seed, max_card=6, max_parents=3):
    """A random net whose CPT rows hold zeros, whose ids are not a topological
    order and whose parents are listed out of id order."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 9))
    cards = rng.integers(2, max_card + 1, size=m).tolist()
    ids = rng.permutation(m).tolist()  # a topological order
    cpts = []
    for k, i in enumerate(ids):
        pa = rng.permutation(ids[:k])[:int(rng.integers(0, min(k, max_parents) + 1))].tolist()
        n_cfg = int(np.prod([cards[p] for p in pa]))
        rows = rng.dirichlet(np.ones(cards[i]), size=n_cfg) * (rng.random((n_cfg, cards[i])) < 0.6)
        rows[~rows.any(axis=1), int(rng.integers(cards[i]))] = 1.0
        cpts.append((f"V{i}", [f"V{p}" for p in pa], (rows / rows.sum(axis=1, keepdims=True)).tolist()))
    return make_net([(f"V{i}", c) for i, c in enumerate(cards)], cpts)


def _reference_sample(net, n, seed):
    """Ancestral sampling with one 2-d compare per variable: its row's
    cumulative CPT entries against the uniforms, clipped to k - 1."""
    rng = np.random.default_rng(seed)
    out = np.zeros((n, net.m), dtype=np.int64)
    for i in net.order:
        c = net.cpts[i]
        cfg = config_index([out[:, p] for p in c.parents], [net.card(p) for p in c.parents])
        cum = np.cumsum(c.table, axis=1)[cfg]
        u = rng.random(n)
        out[:, i] = np.minimum((u[:, None] >= cum).sum(axis=1), net.card(i) - 1)
    return out


ALL_ROOTS = make_net([("A", 3), ("B", 2), ("C", 4)],
                     [("A", [], [[0.2, 0.3, 0.5]]), ("B", [], [[0.5, 0.5]]),
                      ("C", [], [[0.25, 0.0, 0.5, 0.25]])])
ONE_VARIABLE = make_net([("A", 5)], [("A", [], [[0.1, 0.2, 0.0, 0.3, 0.4]])])


def test_sample_equals_the_per_node_reference(fork_net, chain_net, scene_net):
    nets = [fork_net, chain_net, scene_net, ALL_ROOTS, ONE_VARIABLE]
    nets += [_net_with_zeros(seed) for seed in range(40)]
    for seed, net in enumerate(nets):
        for n in (0, 1, 333):
            got = sample(net, n, seed)
            assert got.dtype == np.int64 and got.flags.c_contiguous
            np.testing.assert_array_equal(got, _reference_sample(net, n, seed))


def test_row_layout_indexes_every_cpt_row_as_config_index():
    nets = [ALL_ROOTS, ONE_VARIABLE]
    nets += [random_net(seed, 12, max_card=5, max_parents=3) for seed in range(20)]
    nets += [_net_with_zeros(seed, max_card=5) for seed in range(20)]
    rng = np.random.default_rng(0)
    for net in nets:
        pa, w = row_layout(net)
        assert pa.shape == w.shape == (net.m, net.max_in_degree())
        x = rng.integers(0, net.cards, size=(300, net.m))
        rows = (x[:, pa] * w).sum(-1)
        for i, c in enumerate(net.cpts):
            want = config_index([x[:, p] for p in c.parents], [net.card(p) for p in c.parents])
            np.testing.assert_array_equal(rows[:, i], np.broadcast_to(want, len(x)))
    assert row_layout(ALL_ROOTS)[0].shape == (3, 0)


def test_size_guard_blocks_large_enumeration(monkeypatch):
    big = semrd.nets.binary_chain(20)
    monkeypatch.setenv("SEMRD_SIZE_GUARD", str(2**16))
    with pytest.raises(SizeGuardError):
        enumerate_joint(big)
    # the factorized view never materializes the joint, so this stays cheap
    assert semrd.joint_entropy_factorized(big) > 0


def test_marginal_table_refuses_more_axes_than_einsum_labels():
    # only cardinality-1 variables, which validate rejects, or a guard over
    # 2^52 let one elimination step hold more than 52 axes
    roots = [(f"R{k}", 1) for k in range(60)]
    net = make_net(roots + [("X", 2)],
                   [(name, [], [[1.0]]) for name, _ in roots]
                   + [("X", [name for name, _ in roots], [[0.5, 0.5]])])
    assert not validate(net).ok
    with pytest.raises(SizeGuardError, match="52"):
        marginal_table(net, ["X"])


def test_size_guard_limits(monkeypatch):
    monkeypatch.delenv("SEMRD_SIZE_GUARD", raising=False)
    assert size_guard() == semrd.DEFAULT_SIZE_GUARD
    monkeypatch.setenv("SEMRD_SIZE_GUARD", "1024")
    assert size_guard() == 1024
    monkeypatch.setenv("SEMRD_SIZE_GUARD", str(2**40))
    with pytest.raises(SizeGuardError):
        size_guard()
    monkeypatch.setenv("SEMRD_SIZE_GUARD", "0")
    with pytest.raises(SizeGuardError):
        size_guard()


def _functions(obj):
    """Every function defined in a module or class, methods of its classes too."""
    for value in vars(obj).values():
        value = getattr(value, "__func__", value)  # a staticmethod or classmethod
        if inspect.isfunction(value):
            yield value
        elif inspect.isclass(value) and value.__module__ == obj.__name__:
            yield from _functions(value)


def test_no_function_takes_a_limit():
    # the size guard is one setting, read by ``size_guard``, not a parameter
    modules = [importlib.import_module(f"semrd.{m.name}") for m in pkgutil.iter_modules(semrd.__path__)]
    assert len(modules) >= 8
    for mod in modules:
        for fn in _functions(mod):
            assert "limit" not in inspect.signature(fn).parameters, fn.__qualname__


def test_save_load_round_trip(tmp_path, scene_net):
    path = tmp_path / "scene_copy.json"
    save_net(scene_net, path, description="round trip copy")
    again = semrd.load_net(path)
    assert again.names == scene_net.names
    assert again.cards == scene_net.cards
    assert again.digest() == scene_net.digest()
    payload = json.loads(path.read_text())
    assert payload["description"] == "round trip copy"


def test_digest_distinguishes_nets(fork_net, chain_net):
    assert len(fork_net.digest()) == 16
    assert fork_net.digest() != chain_net.digest()


def test_digest_is_computed_once_and_follows_the_cpts(chain_net):
    fresh = hashlib.sha256(chain_net.canonical_bytes()).digest()[:16]
    assert chain_net.digest() == fresh
    assert chain_net.digest() is chain_net.digest()
    cpts = list(chain_net.cpts)
    cpts[1] = Cpt(cpts[1].parents, cpts[1].table[::-1].copy())
    other = dataclasses.replace(chain_net, cpts=tuple(cpts))
    assert other.digest() == hashlib.sha256(other.canonical_bytes()).digest()[:16]
    assert other.digest() != chain_net.digest()


def test_load_bundled_unknown_name():
    with pytest.raises(KeyError):
        load_bundled("missing")


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_net_is_valid_and_seed_stable(seed):
    net = random_net(seed, 4, max_card=3)
    assert validate(net).ok
    again = random_net(seed, 4, max_card=3)
    assert net.digest() == again.digest()


def _reference_canonical_bytes(net):
    """The canonical serialization built entry by entry, each CPT entry
    through ``float``."""
    doc = {
        "variables": [{"name": v.name, "cardinality": v.cardinality} for v in net.variables],
        "edges": [[net.variables[p].name, net.variables[i].name]
                  for i, c in enumerate(net.cpts) for p in c.parents],
        "cpts": [{"child": net.variables[i].name,
                  "parents": [net.variables[p].name for p in c.parents],
                  "rows": [[float(x) for x in row] for row in c.table]}
                 for i, c in enumerate(net.cpts)],
    }
    return doc, json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def test_canonical_bytes_equal_the_per_entry_reference(tmp_path, fork_net, chain_net, scene_net):
    nets = [fork_net, chain_net, scene_net]
    nets += [random_net(seed, 8, max_card=4, max_parents=3) for seed in range(20)]
    for k, net in enumerate(nets):
        doc, want = _reference_canonical_bytes(net)
        assert net.canonical_bytes() == want
        assert net.digest() == hashlib.sha256(want).digest()[:16]
        path = tmp_path / f"net{k}.json"
        save_net(net, path)
        assert path.read_text() == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("build", [
    lambda p: semrd.nets.binary_chain(3, p),
    lambda p: semrd.nets.binary_chain(1, p),
    lambda p: semrd.nets.doubly_symmetric_fork(p, 0.1),
    lambda p: semrd.nets.doubly_symmetric_fork(0.1, p),
    lambda p: semrd.nets.doubly_symmetric_chain(p, 0.1),
    lambda p: semrd.nets.doubly_symmetric_chain(0.1, p),
    lambda p: semrd.nets.doubly_symmetric_joint(p),
], ids=["binary_chain", "binary_chain-one-bit", "fork-first", "fork-second", "chain-first",
        "chain-second", "doubly_symmetric_joint"])
@pytest.mark.parametrize("p", [2.0, -0.1, float("nan"), float("inf")], ids=["2", "-0.1", "nan", "inf"])
def test_flip_probabilities_outside_the_unit_interval_are_refused(build, p):
    with pytest.raises(errors.InvalidStateError, match="flip probability"):
        build(p)


def test_flip_probabilities_at_the_ends_build_valid_nets():
    for p in (0.0, 1.0):
        for net in (semrd.nets.binary_chain(3, p), semrd.nets.doubly_symmetric_fork(p, 1.0 - p),
                    semrd.nets.doubly_symmetric_chain(p, p)):
            assert validate(net).ok
        assert semrd.nets.doubly_symmetric_joint(p).sum() == 1.0


@pytest.mark.parametrize("m", [0, -3])
def test_binary_chain_needs_at_least_one_bit(m):
    with pytest.raises(errors.InvalidStateError, match="m >= 1"):
        semrd.nets.binary_chain(m)
