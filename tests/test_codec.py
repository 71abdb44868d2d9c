"""Prefix-code construction, stream round-trips, and codebook cost accounting."""

import hashlib
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
}


@pytest.mark.parametrize("name", sorted(GOLDEN_STREAMS))
def test_stream_bytes_are_pinned(name):
    if name == "random40":
        net, n, seed = random_net(40, 40, max_card=4, max_parents=3), 2_000, 41
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


def test_deterministic_net_encodes_to_zero_bits():
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


def test_complexity_report_skips_oversized_joint():
    net = binary_chain(20)
    rep = complexity_report(net, limit=2**16)
    assert rep.joint_states == 2**20
    assert rep.factorized_entries_touched <= 20 * 2 * 2
    assert rep.joint_build_seconds is None
    assert "guard" in rep.joint_note
