"""Prefix-code construction, stream round-trips, and codebook cost accounting."""

import dataclasses
import hashlib
import heapq
import re
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import semrd
from semrd import (
    CorruptStreamError,
    InvalidStateError,
    SizeGuardError,
    UncodableSampleError,
    WrongCodebookError,
    build_factorized_codebooks,
    build_joint_huffman,
    complexity_report,
    decode,
    encode,
    entropy_bits,
    enumerate_joint,
    expected_length,
    huffman_code,
    joint_entropy_factorized,
    load_bundled,
    random_net,
    sample,
)
from semrd.bn import config_index
from semrd.info import parent_marginals
from semrd.nets import binary_chain


def probs(seed, k):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(k))
    return p / p.sum()


def test_huffman_fixed_example():
    code = huffman_code([0.4, 0.3, 0.2, 0.1])
    assert code.codewords == {0: "0", 1: "10", 3: "110", 2: "111"}
    assert code.expected_length([0.4, 0.3, 0.2, 0.1]) == pytest.approx(1.9, abs=1e-12)
    assert code.kraft_sum() == Fraction(1)


def test_huffman_single_support_row_uses_empty_word():
    assert huffman_code([1.0, 0.0]).codewords == {0: ""}
    assert huffman_code([1.0]).codewords == {0: ""}


def test_huffman_is_deterministic():
    p = probs(7, 9)
    a = huffman_code(p)
    b = huffman_code(p)
    assert a.codewords == b.codewords
    assert list(a.codewords.items()) == list(b.codewords.items())


def _reference_huffman(p):
    """``huffman_code`` with its heap built from numpy's support indices."""
    p = np.asarray(p, dtype=float)
    support = np.flatnonzero(p > 0)
    if support.size == 1:
        return {int(support[0]): ""}
    heap = [(float(p[s]), int(s), int(s)) for s in support]
    heapq.heapify(heap)
    while len(heap) > 1:
        w0, m0, t0 = heapq.heappop(heap)
        w1, m1, t1 = heapq.heappop(heap)
        heapq.heappush(heap, (w0 + w1, min(m0, m1), (t0, t1)))
    codewords, stack = {}, [(heap[0][2], "")]
    while stack:
        node, prefix = stack.pop()
        if isinstance(node, int):
            codewords[node] = prefix
        else:
            stack.extend([(node[0], prefix + "0"), (node[1], prefix + "1")])
    return codewords


def test_huffman_matches_the_reference_on_rows_with_zeros_and_ties():
    rng = np.random.default_rng(17)
    for _ in range(800):
        k = int(rng.integers(1, 12))
        p = rng.dirichlet(np.ones(k)) * (rng.random(k) < 0.7)
        if rng.random() < 0.3:
            p = np.round(p, 1)  # equal weights: ties broken by the smallest symbol
        if not p.any():
            p[int(rng.integers(k))] = 1.0
        want = _reference_huffman(p)
        assert list(huffman_code(p).codewords.items()) == list(want.items())
        assert list(huffman_code(list(p)).codewords.items()) == list(want.items())


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_huffman_refuses_non_finite_weights(bad, fork_net):
    # a NaN weight once dropped its symbol and +inf got a codeword
    with pytest.raises(InvalidStateError, match="finite"):
        huffman_code([bad, 1.0])
    jt = enumerate_joint(fork_net)
    w = jt.probs.copy()
    w[0] = bad
    with pytest.raises(InvalidStateError, match="finite"):
        build_joint_huffman(dataclasses.replace(jt, probs=w))


@pytest.mark.parametrize("call, error, message", [
    (lambda net, jt: huffman_code([0.0, 0.0]), InvalidStateError, "distribution has empty support"),
    (lambda net, jt: build_joint_huffman(jt), SizeGuardError, "joint alphabet 8 exceeds guard 4"),
    (lambda net, jt: expected_length(object(), net), InvalidStateError,
     "cannot compute expected length for object"),
], ids=["empty-support", "joint-over-guard", "unknown-code"])
def test_refusals_name_their_cause(fork_net, monkeypatch, call, error, message):
    jt = enumerate_joint(fork_net)  # built under the default guard
    monkeypatch.setenv("SEMRD_SIZE_GUARD", "4")
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(fork_net, jt)


def test_huffman_uniform_eight():
    code = huffman_code([0.125] * 8)
    assert sorted(code.length(s) for s in range(8)) == [3] * 8


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    k=st.integers(min_value=1, max_value=24),
)
def test_huffman_kraft_and_length_window(seed, k):
    p = probs(seed, k)
    code = huffman_code(p)
    assert code.kraft_sum() == Fraction(1)
    h = entropy_bits(p)
    e = expected_length(code, p)
    assert h - 1e-9 <= e < h + 1.0


def test_huffman_beats_no_shorter_code_on_small_support():
    # exhaustive check against every prefix-free length profile for 3 symbols
    p = [0.5, 0.3, 0.2]
    e = expected_length(huffman_code(p), p)
    assert e == pytest.approx(1.5, abs=1e-12)  # lengths 1, 2, 2 are optimal here


def test_prefix_property_random_rows():
    p = probs(3, 12)
    words = list(huffman_code(p).codewords.values())
    for i, w in enumerate(words):
        for j, u in enumerate(words):
            if i != j:
                assert not u.startswith(w)


def test_factorized_codebook_fork(fork_net):
    fcb = build_factorized_codebooks(fork_net)
    # one code for the root, two per child (one per parent state); the two
    # child rows are distinct distributions so nothing is shared
    assert fcb.n_codes() == 5
    assert fcb.entries_touched == 10
    assert expected_length(fcb, fork_net) == pytest.approx(3.0, abs=1e-12)


def test_joint_huffman_fork(fork_net):
    table = enumerate_joint(fork_net)
    code = build_joint_huffman(table)
    e = expected_length(code, table)
    assert e == pytest.approx(2.04, abs=1e-12)
    h = joint_entropy_factorized(fork_net)
    assert h - 1e-9 <= e < h + 1.0


def test_round_trip_bundled(fork_net, chain_net, scene_net):
    for net in (fork_net, chain_net, scene_net):
        fcb = build_factorized_codebooks(net)
        draws = sample(net, 500, seed=21)
        stream = encode(fcb, draws)
        assert stream.n == 500
        np.testing.assert_array_equal(decode(fcb, stream), draws)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_vars=st.integers(min_value=1, max_value=5),
    n=st.integers(min_value=0, max_value=64),
)
def test_round_trip_random_nets(seed, n_vars, n):
    net = random_net(seed, n_vars, max_card=3)
    fcb = build_factorized_codebooks(net)
    draws = sample(net, n, seed=seed + 1)
    out = decode(fcb, encode(fcb, draws))
    np.testing.assert_array_equal(out, draws)


def test_stream_bytes_round_trip(fork_net):
    fcb = build_factorized_codebooks(fork_net)
    stream = encode(fcb, sample(fork_net, 64, seed=2))
    blob = stream.to_bytes()
    assert blob[:4] == b"BNHC"
    again = semrd.Bitstream.from_bytes(blob)
    assert again.n == stream.n
    assert again.digest == stream.digest
    assert again.payload == stream.payload


def test_encode_rejects_out_of_range_state(fork_net):
    fcb = build_factorized_codebooks(fork_net)
    with pytest.raises(InvalidStateError):
        encode(fcb, [[0, 0, 5]])


@pytest.mark.parametrize("bad, shown", [
    (np.nan, "nan"), (np.inf, "inf"), (0.5, "0.5"), (-1.5, "-1.5"), ("a", "'a'"),
    ("1", "'1'"), (None, "None"),
])
def test_encode_rejects_non_integer_states(fork_net, bad, shown):
    fcb = build_factorized_codebooks(fork_net)
    message = rf"^sample 1: state {re.escape(shown)} of 'X2' is not an integer$"
    with pytest.raises(InvalidStateError, match=message):
        encode(fcb, [[0, 0, 0], [0, 0, bad], [0, 0, 7]])
    if isinstance(bad, float):  # the same through the float-array path
        with pytest.raises(InvalidStateError, match=message):
            encode(fcb, np.array([[0, 0, 0], [0, 0, bad], [0, 0, 7]]))


@pytest.mark.parametrize("samples", [[0, 1, 0], np.array([0, 1, 0])], ids=["list", "ndarray"])
def test_encode_refuses_a_single_vector_as_the_samples(fork_net, samples):
    # each entry is read as a sample, and a scalar is no vector of states
    fcb = build_factorized_codebooks(fork_net)
    with pytest.raises(InvalidStateError, match=r"^sample 0 is not a vector of 3 states$"):
        encode(fcb, samples)


def test_encode_first_bad_sample_wins_over_a_later_non_integer(fork_net):
    fcb = build_factorized_codebooks(fork_net)
    with pytest.raises(InvalidStateError, match=r"^sample 0: state 7 out of range for 'X2'$"):
        encode(fcb, np.array([[0, 0, 7], [0, 0, np.nan]]))


def test_encode_accepts_integral_floats(fork_net):
    fcb = build_factorized_codebooks(fork_net)
    rows = [[0, 1, 1], [1, 0, 0]]
    blob = encode(fcb, rows).to_bytes()
    assert encode(fcb, np.array(rows, dtype=float)).to_bytes() == blob
    assert encode(fcb, [[0, 1.0, 1], [1, 0, 0.0]]).to_bytes() == blob
    assert encode(fcb, np.array(rows, dtype=object)).to_bytes() == blob


def test_encode_rejects_zero_probability_state():
    net = semrd.make_net(
        [("A", 2), ("B", 2)],
        [("A", [], [[1.0, 0.0]]),
         ("B", ["A"], [[0.5, 0.5], [0.5, 0.5]])],
    )
    fcb = build_factorized_codebooks(net)
    with pytest.raises(UncodableSampleError):
        encode(fcb, [[1, 0]])


def test_expected_length_refuses_a_source_state_without_a_codeword():
    # the code has no codeword for state 2, which B emits with weight 0.8
    with pytest.raises(UncodableSampleError, match=r"^symbol 2 has probability 0.8 but no codeword$"):
        expected_length(huffman_code([0.5, 0.5, 0.0]), [0.1, 0.1, 0.8])
    a = semrd.make_net([("X", 3)], [("X", [], [[0.5, 0.5, 0.0]])])
    b = semrd.make_net([("X", 3)], [("X", [], [[0.1, 0.1, 0.8]])])
    with pytest.raises(UncodableSampleError, match=r"^symbol 2 has probability 0.8 but no codeword$"):
        expected_length(build_factorized_codebooks(a), b)
    # a parent configuration of weight 0 is not priced, so its gaps do not count
    gated = _gated_net()
    assert expected_length(build_factorized_codebooks(gated), gated) == pytest.approx(
        1.0 + 0.5 * 1.0, abs=1e-15)
    # nor a mismatched source's row under a configuration of weight 0: Y = 1 under X = 1
    x = ("X", [], [[1.0, 0.0]])
    a = semrd.make_net([("X", 2), ("Y", 2)], [x, ("Y", ["X"], [[0.5, 0.5], [1.0, 0.0]])])
    b = semrd.make_net([("X", 2), ("Y", 2)], [x, ("Y", ["X"], [[0.5, 0.5], [0.0, 1.0]])])
    assert expected_length(build_factorized_codebooks(a), b) == 1.0


def _gated_net():
    # B lists its parent A after itself, so samples are coded in the order
    # (A, B): A's state 2 and B's state 1 under A = 1 have no codeword
    return semrd.make_net(
        [("B", 2), ("A", 3)],
        [("B", ["A"], [[0.5, 0.5], [1.0, 0.0], [0.3, 0.7]]),
         ("A", [], [[0.5, 0.5, 0.0]])],
    )


def test_encode_reports_the_first_bad_sample():
    fcb = build_factorized_codebooks(_gated_net())
    rows = [[0, 0], [1, 0], [0, 1], [1, 1], [0, 0], [0, 7], [1, 2]]
    with pytest.raises(UncodableSampleError,
                       match=r"^sample 3: state 1 of 'B' has zero probability under parent config 1$"):
        encode(fcb, rows)
    with pytest.raises(InvalidStateError, match=r"^sample 1: state 7 out of range for 'A'$"):
        encode(fcb, [[0, 0], [0, 7], [1, 1]])


def test_encode_length_and_range_errors_win_within_a_sample():
    fcb = build_factorized_codebooks(_gated_net())
    # A = 2 is uncodable and comes first in the order, but B = 5 is out of range
    with pytest.raises(InvalidStateError, match=r"^sample 0: state 5 out of range for 'B'$"):
        encode(fcb, [[5, 2]])
    with pytest.raises(InvalidStateError, match=r"^sample 1 has 3 entries, expected 2$"):
        encode(fcb, [[0, 0], [1, 2, 0]])


def test_encode_rejects_ragged_rows(fork_net):
    fcb = build_factorized_codebooks(fork_net)
    with pytest.raises(InvalidStateError, match=r"^sample 1 has 2 entries, expected 3$"):
        encode(fcb, [[0, 0, 0], [0, 0], [1, 1, 1]])


def test_encode_accepts_generators_and_empty_input(scene_net):
    fcb = build_factorized_codebooks(scene_net)
    draws = sample(scene_net, 300, seed=8)
    blob = encode(fcb, draws).to_bytes()
    assert encode(fcb, (tuple(int(s) for s in row) for row in draws)).to_bytes() == blob
    assert encode(fcb, draws.tolist()).to_bytes() == blob
    for empty in ([], iter(()), np.zeros((0, scene_net.m), dtype=np.int64)):
        stream = encode(fcb, empty)
        assert (stream.n, stream.payload) == (0, b"")
        assert decode(fcb, stream).shape == (0, scene_net.m)


# SHA-256 of encode(...).to_bytes(); these streams must never change
GOLDEN_STREAMS = {
    "fork": "e1093235fd52bdc860e82967441aa67fa51854adf2c64f44cb798e65dc748a1d",
    "chain": "0ff579b66c9905504b21bcb979c445b8d54b95115a3b02174c12fa4acecf222f",
    "scene": "f46b5716b2cd2b960b318005a6e345209f9b95c92557fc6981fd8666c1934a76",
    "random40": "6169925b1fa82b08837dae4d7f0d54422d0d271f201a5d7d3da902d4cdd848f2",
    "chain120": "e268d6f6cd694722aa122396eb576c5b2b95348b16d5d199fce3b67dacdfd342",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_STREAMS))
def test_stream_bytes_are_pinned(name):
    if name == "random40":
        net, n, seed = random_net(40, 40, max_card=4, max_parents=3), 2_000, 41
    elif name == "chain120":  # 239 codes, 3 distinct
        net, n, seed = binary_chain(120, 0.2), 600, 21
    else:
        net, n, seed = load_bundled(name), 5_000, 21
    fcb = build_factorized_codebooks(net)
    draws = sample(net, n, seed=seed)
    stream = encode(fcb, draws)
    assert hashlib.sha256(stream.to_bytes()).hexdigest() == GOLDEN_STREAMS[name]
    np.testing.assert_array_equal(decode(fcb, stream), draws)


def test_round_trip_codewords_longer_than_64_bits():
    # dyadic weights 2^-1 .. 2^-69, 2^-69 give codeword lengths 1 .. 69, 69
    weights = [2.0 ** -(s + 1) for s in range(69)] + [2.0 ** -69]
    net = semrd.make_net(
        [("Y", 2), ("X", 70)],
        [("X", [], [weights]), ("Y", ["X"], [[0.25, 0.75]] * 70)],
    )
    fcb = build_factorized_codebooks(net)
    assert max(len(w) for w in fcb.codes[1][0].codewords.values()) == 69
    rows = np.array([[y, x] for x in range(70) for y in (0, 1)] * 3, dtype=np.int64)
    stream = encode(fcb, rows)
    assert 8 * len(stream.payload) >= 6 * sum(fcb.codes[1][0].length(x) for x in range(70))
    np.testing.assert_array_equal(decode(fcb, stream), rows)


def test_round_trip_across_many_blocks(fork_net, scene_net):
    # 60,003 and 80,004 symbols: several 2^14-symbol blocks, the last one short
    for net, n in ((fork_net, 20_001), (scene_net, 20_001)):
        fcb = build_factorized_codebooks(net)
        draws = sample(net, n, seed=13)
        stream = encode(fcb, draws)
        assert encode(fcb, draws.tolist()).payload == stream.payload
        np.testing.assert_array_equal(decode(fcb, stream), draws)


def test_decodes_with_one_codebook_build_its_trie_once(scene_net):
    fcb = build_factorized_codebooks(scene_net)
    streams = [encode(fcb, sample(scene_net, 700, seed=s)) for s in (5, 6)]
    outs = [decode(fcb, streams[0])]
    trie = fcb.__dict__["trie"]  # the cached property's value
    outs.append(decode(fcb, streams[1]))
    assert fcb.__dict__["trie"] is trie
    for stream, out, s in zip(streams, outs, (5, 6)):
        np.testing.assert_array_equal(out, sample(scene_net, 700, seed=s))
        assert encode(fcb, out).to_bytes() == stream.to_bytes()


# A's row recurs twice in B's CPT, and C's first two rows are equal
_EQUAL_ROWS = semrd.make_net(
    [("A", 3), ("B", 3), ("C", 2)],
    [("A", [], [[0.5, 0.3, 0.2]]),
     ("B", ["A"], [[0.5, 0.3, 0.2], [0.2, 0.3, 0.5], [0.5, 0.3, 0.2]]),
     ("C", ["B"], [[0.4, 0.6], [0.4, 0.6], [1.0, 0.0]])],
)


def _unshared_twin(net):
    """A codebook of one ``huffman_code`` call per CPT row: no code is shared."""
    codes = tuple(tuple(huffman_code(row) for row in cpt.table) for cpt in net.cpts)
    return semrd.FactorizedCodebook(net, codes, sum(cpt.table.size for cpt in net.cpts))


def _distinct_codes(fcb):
    return len({id(code) for per_var in fcb.codes for code in per_var})


def test_equal_rows_share_one_code_and_code_as_unshared_ones():
    for net, n, distinct, nodes in ((binary_chain(120, 0.2), 600, 3, (10, 718)),
                                    (_EQUAL_ROWS, 2_000, 4, (15, 28))):
        fcb, twin = build_factorized_codebooks(net), _unshared_twin(net)
        assert (_distinct_codes(fcb), _distinct_codes(twin)) == (distinct, twin.n_codes())
        assert [c.codewords for per in fcb.codes for c in per] == [
            c.codewords for per in twin.codes for c in per]
        assert (fcb.n_codes(), fcb.entries_touched) == (twin.n_codes(), twin.entries_touched)
        report = complexity_report(net)
        assert (report.factorized_codes_built, report.factorized_entries_touched) == (
            twin.n_codes(), twin.entries_touched)
        assert (len(fcb.trie[0]), len(twin.trie[0])) == nodes
        assert expected_length(fcb, net) == expected_length(twin, net)
        draws = sample(net, n, seed=8)
        stream = encode(fcb, draws)
        assert stream.to_bytes() == encode(twin, draws).to_bytes()
        for book in (fcb, twin):
            np.testing.assert_array_equal(decode(book, stream), draws)
    codes = build_factorized_codebooks(_EQUAL_ROWS).codes
    assert codes[0][0] is codes[1][0] is codes[1][2] and codes[2][0] is codes[2][1]


def test_shared_codes_refuse_damaged_streams_as_unshared_ones():
    # the per-variable shortest and longest codewords bound the header count,
    # the truncation and the trailing-bits checks
    want = {
        "chain": ["header claims 6000 samples of >= 120 bits; payload has 72000 bits",
                  "header claims 600 samples of >= 120 bits; payload has 71992 bits",
                  "8 unread bits after 600 samples"],
        "equal rows": ["header claims 6000 samples of >= 2 bits; payload has 2208 bits",
                       "stream truncated inside sample 597",
                       "8 unread bits after 600 samples"],
    }
    for name, net in (("chain", binary_chain(120, 0.2)), ("equal rows", _EQUAL_ROWS)):
        fcb, twin = build_factorized_codebooks(net), _unshared_twin(net)
        stream = encode(fcb, sample(net, 600, seed=21))
        damaged = [semrd.Bitstream(10 * stream.n, stream.digest, stream.payload),
                   semrd.Bitstream(stream.n, stream.digest, stream.payload[:-1]),
                   semrd.Bitstream(stream.n, stream.digest, stream.payload + bytes(1))]
        for bad, message in zip(damaged, want[name]):
            assert _outcome(decode, twin, bad) == (CorruptStreamError, message)
            assert _assert_decodes_as_reference(fcb, bad) == (CorruptStreamError, message)


def test_decode_rejects_other_nets_stream(fork_net, chain_net):
    stream = encode(build_factorized_codebooks(fork_net), sample(fork_net, 10, seed=5))
    with pytest.raises(WrongCodebookError):
        decode(build_factorized_codebooks(chain_net), stream)


def test_expected_length_rejects_a_net_of_other_structure(fork_net, chain_net, scene_net):
    fcb = build_factorized_codebooks(fork_net)
    for net in (chain_net, scene_net):  # other parent sets; other cardinalities
        with pytest.raises(WrongCodebookError):
            expected_length(fcb, net)
    # same structure, other CPTs: the cost of coding the chain with a mismatched code
    mismatched = expected_length(build_factorized_codebooks(binary_chain(6, 0.1)), binary_chain(6, 0.4))
    assert mismatched == pytest.approx(6.0, abs=1e-12)


def test_expected_length_equals_the_per_row_sum(fork_net, chain_net, scene_net):
    nets = [fork_net, chain_net, scene_net, _gated_net(), binary_chain(180, 0.3)]
    nets += [random_net(seed, 30, max_card=5, max_parents=3) for seed in range(10)]
    for net in nets:
        fcb = build_factorized_codebooks(net)
        want = sum(float(w) * code.expected_length(row)
                   for per_var, cpt, p_pa in zip(fcb.codes, net.cpts, parent_marginals(net))
                   for code, row, w in zip(per_var, cpt.table, p_pa) if w > 0)
        assert expected_length(fcb, net) == pytest.approx(want, rel=1e-12, abs=0)


def test_all_roots_and_one_variable_nets_round_trip():
    nets = [
        semrd.make_net([("A", 3), ("B", 2), ("C", 4)],
                       [("A", [], [[0.2, 0.3, 0.5]]), ("B", [], [[0.5, 0.5]]),
                        ("C", [], [[0.25, 0.0, 0.5, 0.25]])]),
        semrd.make_net([("A", 5)], [("A", [], [[0.1, 0.2, 0.0, 0.3, 0.4]])]),
        semrd.make_net([("A", 3)], [("A", [], [[0.0, 1.0, 0.0]])]),  # zero-length codeword
    ]
    for net in nets:
        fcb = build_factorized_codebooks(net)
        for n in (0, 1, 5_000):
            draws = sample(net, n, seed=n)
            stream = encode(fcb, draws)
            assert encode(fcb, draws.tolist()).payload == stream.payload
            np.testing.assert_array_equal(decode(fcb, stream), draws)


def test_decode_rejects_truncated_payload(fork_net):
    fcb = build_factorized_codebooks(fork_net)
    stream = encode(fcb, sample(fork_net, 200, seed=5))
    cut = semrd.Bitstream(stream.n, stream.digest, stream.payload[:-1])
    # a 30-byte stream whose header claims 2^36 samples
    huge = semrd.Bitstream(2**36, stream.digest, stream.payload[:1])
    for bad in (cut, huge):
        with pytest.raises(CorruptStreamError):
            decode(fcb, bad)


def test_from_bytes_rejects_bad_magic():
    with pytest.raises(CorruptStreamError):
        semrd.Bitstream.from_bytes(b"oops" + bytes(24))


@cache
def _bundled_codebook(name):
    return build_factorized_codebooks(load_bundled(name))


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(["fork", "scene"]),
    n=st.integers(min_value=0, max_value=40),
    seed=st.integers(min_value=0, max_value=1_000),
    flips=st.lists(st.integers(min_value=0, max_value=2**20), max_size=3),
    cut=st.none() | st.integers(min_value=0, max_value=2**20),
)
def test_damaged_streams_raise_typed_errors(name, n, seed, flips, cut):
    fcb = _bundled_codebook(name)
    blob = bytearray(encode(fcb, sample(fcb.net, n, seed=seed)).to_bytes())
    for bit in flips:
        blob[(bit // 8) % len(blob)] ^= 1 << (bit % 8)
    if cut is not None:
        blob = blob[:cut % len(blob)]
    try:
        out = decode(fcb, semrd.Bitstream.from_bytes(bytes(blob)))
    except (CorruptStreamError, WrongCodebookError):
        return
    assert out.shape[1] == fcb.net.m


def test_deterministic_net_encodes_to_zero_bits(monkeypatch):
    net = semrd.make_net(
        [("A", 2), ("B", 2)],
        [("A", [], [[1.0, 0.0]]),
         ("B", ["A"], [[1.0, 0.0], [0.0, 1.0]])],
    )
    fcb = build_factorized_codebooks(net)
    stream = encode(fcb, [[0, 0]] * 50)
    assert stream.payload == b""
    np.testing.assert_array_equal(decode(fcb, stream), np.zeros((50, 2), dtype=int))
    # with no bits per sample the payload cannot bound the header count
    with pytest.raises(SizeGuardError):
        decode(fcb, semrd.Bitstream(2**40, stream.digest, b""))
    # that table is held to the guard in force: 50 samples x 2 variables
    monkeypatch.setenv("SEMRD_SIZE_GUARD", "100")
    assert decode(fcb, stream).shape == (50, 2)
    monkeypatch.setenv("SEMRD_SIZE_GUARD", "99")
    with pytest.raises(SizeGuardError, match=r"50x2 table exceeds guard 99$"):
        decode(fcb, stream)


def test_complexity_report_fork(fork_net):
    rep = complexity_report(fork_net)
    assert rep.n_variables == 3
    assert rep.max_cardinality == 2
    assert rep.max_in_degree == 1
    assert rep.joint_states == 8
    assert rep.factorized_code_bound == 6
    assert rep.factorized_entry_bound == 12
    assert rep.factorized_codes_built == 5
    assert rep.factorized_entries_touched == 10


def test_complexity_report_skips_oversized_joint(monkeypatch):
    net = binary_chain(20)
    monkeypatch.setenv("SEMRD_SIZE_GUARD", str(2**16))
    rep = complexity_report(net)
    assert rep.joint_states == 2**20
    assert rep.factorized_entries_touched <= 20 * 2 * 2
    assert rep.joint_build_seconds is None
    assert "guard" in rep.joint_note


def _reference_decode(fcb, stream):
    """The decoder as an oracle: one sample at a time, each codeword found by
    growing a word bit by bit until it is one of the code's codewords."""
    net = fcb.net
    if stream.digest != net.digest():
        raise WrongCodebookError(
            f"stream digest {stream.digest.hex()} != codebook digest {net.digest().hex()}")
    bits = "".join(f"{b:08b}" for b in stream.payload)
    min_bits = sum(min(len(w) for code in per_var for w in code.codewords.values())
                   for per_var in fcb.codes)
    if stream.n * min_bits > len(bits):
        raise CorruptStreamError(f"header claims {stream.n} samples of >= {min_bits} bits; "
                                 f"payload has {len(bits)} bits")
    if min_bits == 0 and stream.n * net.m > semrd.size_guard():
        raise SizeGuardError("zero-bit samples over the guard")
    out, pos = np.zeros((stream.n, net.m), dtype=np.int64), 0
    for t in range(stream.n):
        for i in net.order:
            pa = net.cpts[i].parents
            cfg = config_index(out[t, list(pa)], [net.card(p) for p in pa])
            words = fcb.codes[i][cfg].codewords
            symbol_of, word = {w: s for s, w in words.items()}, ""
            while word not in symbol_of:
                if not any(w.startswith(word) for w in words.values()):
                    raise CorruptStreamError(f"invalid codeword bits in sample {t}")
                if pos + len(word) == len(bits):
                    raise CorruptStreamError(f"stream truncated inside sample {t}")
                word += bits[pos + len(word)]
            out[t, i], pos = symbol_of[word], pos + len(word)
    if len(bits) - pos >= 8:
        raise CorruptStreamError(f"{len(bits) - pos} unread bits after {stream.n} samples")
    return out


def _outcome(decoder, fcb, stream):
    try:
        out = decoder(fcb, stream)
    except (CorruptStreamError, WrongCodebookError, SizeGuardError) as exc:
        return type(exc), str(exc)
    return out.shape, out.tolist()


def _assert_decodes_as_reference(fcb, stream):
    expected = _outcome(_reference_decode, fcb, stream)
    assert _outcome(decode, fcb, stream) == expected
    return expected


@st.composite
def mixed_nets(draw):
    """Small nets mixing fixed-length variables (binary, full support),
    variable-length ones (cardinality 3, or a row with a zero) and
    zero-length codewords (deterministic rows); or an all-fixed chain."""
    m, chain = draw(st.integers(1, 6)), draw(st.booleans())
    cards, cpts = [], []
    for i in range(m):
        cards.append(2 if chain else draw(st.sampled_from([2, 2, 3])))
        if chain:
            pa = [i - 1] if i else []
        else:
            pa = draw(st.lists(st.integers(0, i - 1), max_size=2, unique=True)) if i else []
        full = chain or draw(st.booleans())
        weight = st.integers(1 if full else 0, 3)
        row = st.lists(weight, min_size=cards[i], max_size=cards[i]).filter(any)
        rows = draw(st.lists(row, min_size=int(np.prod([cards[p] for p in pa])),
                             max_size=int(np.prod([cards[p] for p in pa]))))
        cpts.append((f"V{i}", [f"V{p}" for p in pa], [[w / sum(r) for w in r] for r in rows]))
    return semrd.make_net([(f"V{i}", c) for i, c in enumerate(cards)], cpts)


def _is_fixed_length(codes):
    lengths = {len(w) for code in codes for w in code.codewords.values()}
    return len(lengths) == 1 and all(code.kraft_sum() == 1 for code in codes)


def test_fixed_length_parent_of_a_variable_length_child():
    # A is fixed-length, B and C are not (B has a zero-length codeword), and
    # every variable of a binary chain is fixed-length
    net = semrd.make_net(
        [("A", 2), ("B", 3), ("C", 2)],
        [("A", [], [[0.3, 0.7]]),
         ("B", ["A"], [[0.5, 0.25, 0.25], [0.0, 1.0, 0.0]]),
         ("C", ["B"], [[0.4, 0.6], [0.5, 0.5], [1.0, 0.0]])],
    )
    fcb = build_factorized_codebooks(net)
    assert [_is_fixed_length(codes) for codes in fcb.codes] == [True, False, False]
    assert fcb.codes[1][1].codewords == {1: ""}
    chain = build_factorized_codebooks(binary_chain(5))
    assert all(_is_fixed_length(codes) for codes in chain.codes)
    draws = sample(net, 300, seed=3)
    assert _assert_decodes_as_reference(fcb, encode(fcb, draws)) == (draws.shape, draws.tolist())


@settings(max_examples=150, deadline=None)
@given(net=mixed_nets(), n=st.integers(0, 40), seed=st.integers(0, 1_000))
def test_decode_matches_the_reference_on_mixed_nets(net, n, seed):
    fcb = build_factorized_codebooks(net)
    draws = sample(net, n, seed=seed)
    assert _assert_decodes_as_reference(fcb, encode(fcb, draws)) == (draws.shape, draws.tolist())


_MIXED = semrd.make_net(
    [("A", 3), ("B", 2), ("C", 2), ("D", 3)],
    [("A", [], [[0.5, 0.25, 0.25]]),
     ("B", ["A"], [[0.3, 0.7], [0.6, 0.4], [1.0, 0.0]]),
     ("C", ["B"], [[0.2, 0.8], [0.5, 0.5]]),
     ("D", ["C"], [[0.2, 0.3, 0.5], [0.0, 0.5, 0.5]])],
)


# _MIXED's codebook with A's code made incomplete: no word 111
_INCOMPLETE = semrd.FactorizedCodebook(
    _MIXED, ((semrd.PrefixCode({0: "0", 1: "10", 2: "110"}),),
             *build_factorized_codebooks(_MIXED).codes[1:]), 0)


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(["fork", "chain", "scene", "mixed", "incomplete"]),
    n=st.integers(min_value=0, max_value=40),
    seed=st.integers(min_value=0, max_value=1_000),
    flips=st.lists(st.integers(min_value=0, max_value=2**20), max_size=3),
    cut=st.none() | st.integers(min_value=0, max_value=2**20),
    claimed=st.integers(min_value=-2, max_value=2),
)
def test_damaged_streams_decode_as_the_reference(name, n, seed, flips, cut, claimed):
    fcb = {"mixed": build_factorized_codebooks(_MIXED), "incomplete": _INCOMPLETE}.get(name)
    fcb = fcb or _bundled_codebook(name)
    stream = encode(fcb, sample(fcb.net, n, seed=seed))
    payload = bytearray(stream.payload)
    for bit in flips:
        if payload:
            payload[(bit // 8) % len(payload)] ^= 1 << (bit % 8)
    if cut is not None:
        payload = payload[:cut % (len(payload) + 1)]
    damaged = semrd.Bitstream(max(0, n + claimed), stream.digest, bytes(payload))
    _assert_decodes_as_reference(fcb, damaged)


def test_cut_inside_a_trailing_fixed_length_run():
    # A's codewords are 0, 10, 11; B and C always take one bit and are stepped
    # over when the sample starts are found.  Samples of 3, 3, then 4 bits: a
    # cut after 24 bits leaves sample 6 with A's two bits and neither B nor C
    net = semrd.make_net(
        [("A", 3), ("B", 2), ("C", 2)],
        [("A", [], [[0.5, 0.25, 0.25]]),
         ("B", ["A"], [[0.5, 0.5]] * 3),
         ("C", ["B"], [[0.5, 0.5]] * 2)],
    )
    fcb = build_factorized_codebooks(net)
    assert fcb.codes[0][0].codewords == {0: "0", 1: "10", 2: "11"}
    stream = encode(fcb, [[0, 0, 0]] * 2 + [[1, 0, 0]] * 6)
    assert len(stream.payload) == 4
    cut = semrd.Bitstream(stream.n, stream.digest, stream.payload[:3])
    assert _assert_decodes_as_reference(fcb, cut) == (
        CorruptStreamError, "stream truncated inside sample 6")


def test_incomplete_hand_built_codes_raise_invalid_bits():
    # C's code has no word 1x, A's none for 11; a missing child read as index
    # -1 would land on the last trie node, a leaf, and decode on silently
    net = semrd.make_net([("C", 2), ("A", 3)],
                         [("C", [], [[0.5, 0.5]]), ("A", [], [[0.5, 0.3, 0.2]])])
    fcb = semrd.FactorizedCodebook(
        net, ((semrd.PrefixCode({0: "00", 1: "01"}),), (semrd.PrefixCode({0: "0", 1: "10"}),)), 0)
    good = encode(fcb, [[0, 1], [1, 0]])
    assert _assert_decodes_as_reference(fcb, good) == ((2, 2), [[0, 1], [1, 0]])
    cases = [
        (1, [0b11000000], "invalid codeword bits in sample 0"),  # C = 1x
        (2, [0b00100111], "invalid codeword bits in sample 1"),  # A = 11
        # samples of 4, 4, 4 and 3 bits, then C = 1 on the payload's last bit
        (5, [0b00100010, 0b00100001], "invalid codeword bits in sample 4"),
        (5, [0b00100010, 0b00100000], "stream truncated inside sample 4"),
    ]
    for n, payload, message in cases:
        bad = semrd.Bitstream(n, good.digest, bytes(payload))
        assert _assert_decodes_as_reference(fcb, bad) == (CorruptStreamError, message)


@pytest.mark.parametrize("words", [{0: "0", 1: "01", 2: "1"}, {1: "01", 0: "0", 2: "1"}])
def test_hand_built_code_with_a_prefix_matches_the_shorter_word(words):
    net = semrd.make_net([("A", 3)], [("A", [], [[0.5, 0.3, 0.2]])])
    fcb = semrd.FactorizedCodebook(net, ((semrd.PrefixCode(words),),), 0)
    stream = semrd.Bitstream(3, net.digest(), bytes([0b01100000]))  # 0 1 1
    assert _assert_decodes_as_reference(fcb, stream) == ((3, 1), [[0], [2], [2]])


def test_all_fixed_length_net_with_a_short_payload():
    # every sample of an all-fixed-length net takes the same bits, so a short
    # payload fails the header count check, as it did before
    net = binary_chain(5, 0.2)
    fcb = build_factorized_codebooks(net)
    stream = encode(fcb, sample(net, 16, seed=4))
    assert len(stream.payload) == 10
    short = semrd.Bitstream(stream.n, stream.digest, stream.payload[:-1])
    assert _assert_decodes_as_reference(fcb, short) == (
        CorruptStreamError, "header claims 16 samples of >= 5 bits; payload has 72 bits")
