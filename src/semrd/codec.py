"""Lossless coding for network sources.

Two routes are provided on purpose:

* a *factorized* codebook with one Huffman code per (variable, parent
  configuration), built straight from the CPT rows — the table work is
  bounded by m * k^L * k entries instead of the k^m-sized joint alphabet;
* a single Huffman code over the dense joint alphabet, the oracle used to
  measure what factorization gives up (at most one bit per variable).

Huffman construction is fully deterministic: ties on weight are broken by the
smallest symbol contained in a subtree, the lower-(weight, symbol) node
becomes the left child, and the left edge is labeled 0.  A conditional
distribution whose support is a single state gets a zero-length codeword, so
deterministic variables cost nothing on the wire.

Streams are framed as: 4-byte magic, 1-byte version, 8-byte big-endian count,
16-byte network digest, then payload bits MSB-first, zero-padded to a byte.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .bn import (
    DEFAULT_SIZE_GUARD,
    BayesNet,
    JointTable,
    enumerate_joint,
    marginal_table,
)
from .errors import (
    CorruptStreamError,
    InvalidStateError,
    SizeGuardError,
    UncodableSampleError,
    WrongCodebookError,
)

MAGIC = b"BNHC"
VERSION = 1
_HEADER_LEN = 4 + 1 + 8 + 16


@dataclass(frozen=True)
class PrefixCode:
    """Prefix-free binary code over the support of one distribution."""

    codewords: Mapping[int, str]

    def length(self, symbol: int) -> int:
        return len(self.codewords[symbol])

    def kraft_sum(self) -> Fraction:
        """Exact sum of 2^-len over codewords (1 for a complete code)."""
        return sum((Fraction(1, 2 ** len(w)) for w in self.codewords.values()), Fraction(0))

    def expected_length(self, p: Sequence[float]) -> float:
        p = np.asarray(p, dtype=float)
        return float(sum(p[s] * len(w) for s, w in self.codewords.items()))

    def decode_tree(self):
        """Nested [zero-branch, one-branch] lists with int leaves; a bare int
        for the zero-bit single-symbol code."""
        items = list(self.codewords.items())
        if len(items) == 1 and items[0][1] == "":
            return items[0][0]
        root: list = [None, None]
        for sym, word in items:
            node = root
            for bit in word[:-1]:
                k = int(bit)
                if node[k] is None:
                    node[k] = [None, None]
                node = node[k]
            node[int(word[-1])] = sym
        return root


def huffman_code(p: Sequence[float]) -> PrefixCode:
    """Optimal prefix code for ``p`` with deterministic tie-breaking.

    Symbols with zero probability get no codeword; a single-symbol support
    yields the empty codeword.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0 or np.any(p < 0):
        raise InvalidStateError("huffman_code needs a 1-d nonnegative weight vector")
    support = np.flatnonzero(p > 0)
    if support.size == 0:
        raise InvalidStateError("distribution has empty support")
    if support.size == 1:
        return PrefixCode({int(support[0]): ""})
    # heap entries: (weight, smallest contained symbol, subtree)
    heap: list[tuple[float, int, object]] = [(float(p[s]), int(s), int(s)) for s in support]
    heapq.heapify(heap)
    while len(heap) > 1:
        w0, m0, t0 = heapq.heappop(heap)
        w1, m1, t1 = heapq.heappop(heap)
        heapq.heappush(heap, (w0 + w1, min(m0, m1), (t0, t1)))
    codewords: dict[int, str] = {}
    stack = [(heap[0][2], "")]
    while stack:
        node, prefix = stack.pop()
        if isinstance(node, int):
            codewords[node] = prefix
        else:
            stack.append((node[0], prefix + "0"))
            stack.append((node[1], prefix + "1"))
    return PrefixCode(codewords)


@dataclass(frozen=True)
class FactorizedCodebook:
    """One PrefixCode per (variable, parent configuration)."""

    net: BayesNet
    codes: tuple[tuple[PrefixCode, ...], ...]
    entries_touched: int

    def n_codes(self) -> int:
        return sum(len(per) for per in self.codes)


def build_factorized_codebooks(net: BayesNet) -> FactorizedCodebook:
    """Build conditional Huffman codes from the CPT rows.

    Touches exactly sum_i (parent configs of i) * card(i) table entries,
    which is at most m * k^L * k — independent of the joint alphabet.
    """
    codes = []
    touched = 0
    for i in range(net.m):
        rows = net.cpts[i].table
        codes.append(tuple(huffman_code(row) for row in rows))
        touched += rows.size
    return FactorizedCodebook(net, tuple(codes), touched)


def build_joint_huffman(table: JointTable, limit: int = DEFAULT_SIZE_GUARD) -> PrefixCode:
    """Single Huffman code over the dense joint alphabet (oracle route)."""
    if table.probs.size > limit:
        raise SizeGuardError(f"joint alphabet {table.probs.size} exceeds guard {limit}")
    return huffman_code(table.probs)


@dataclass(frozen=True)
class Bitstream:
    """Framed payload binding the coded bits to the generating network."""

    n: int
    digest: bytes
    payload: bytes

    def to_bytes(self) -> bytes:
        return MAGIC + bytes([VERSION]) + self.n.to_bytes(8, "big") + self.digest + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "Bitstream":
        if len(data) < _HEADER_LEN:
            raise CorruptStreamError(f"stream shorter than header ({len(data)} bytes)")
        if data[:4] != MAGIC:
            raise CorruptStreamError(f"bad magic {data[:4]!r}")
        if data[4] != VERSION:
            raise CorruptStreamError(f"unsupported version {data[4]}")
        n = int.from_bytes(data[5:13], "big")
        return cls(n, data[13:29], data[29:])


def _parent_config_column(net: BayesNet, i: int, states: Sequence[int]) -> int:
    cfg = 0
    for p in net.cpts[i].parents:
        cfg = cfg * net.card(p) + int(states[p])
    return cfg


def encode(fcb: FactorizedCodebook, samples: Iterable[Sequence[int]]) -> Bitstream:
    """Code state vectors with the factorized codebook.

    Raises an uncodable-sample error when a vector hits a zero-probability
    state (no codeword exists for it), and an invalid-state error on
    out-of-range entries.
    """
    net = fcb.net
    parts: list[str] = []
    n = 0
    for vec in samples:
        if len(vec) != net.m:
            raise InvalidStateError(f"sample {n} has {len(vec)} entries, expected {net.m}")
        for i in net.order:
            s = int(vec[i])
            if not 0 <= s < net.card(i):
                raise InvalidStateError(
                    f"sample {n}: state {s} out of range for {net.variables[i].name!r}"
                )
        for i in net.order:
            cfg = _parent_config_column(net, i, vec)
            word = fcb.codes[i][cfg].codewords.get(int(vec[i]))
            if word is None:
                raise UncodableSampleError(
                    f"sample {n}: state {int(vec[i])} of {net.variables[i].name!r} has zero "
                    f"probability under parent config {cfg}"
                )
            parts.append(word)
        n += 1
    bits = "".join(parts)
    if bits:
        arr = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
        payload = np.packbits(arr).tobytes()
    else:
        payload = b""
    return Bitstream(n, net.digest(), payload)


def decode(fcb: FactorizedCodebook, stream: Bitstream) -> np.ndarray:
    """Invert ``encode``; returns an (n, m) int array.

    Raises a wrong-codebook error if the stream was produced for a different
    network, and a corrupt-stream error on truncation or trailing data.
    """
    net = fcb.net
    if stream.digest != net.digest():
        raise WrongCodebookError(
            f"stream digest {stream.digest.hex()} != codebook digest {net.digest().hex()}"
        )
    bits = np.unpackbits(np.frombuffer(stream.payload, dtype=np.uint8))
    # every sample spends at least the shortest codeword of each variable, so a
    # header count the payload cannot hold is refused before allocating for it
    min_bits = sum(min(len(w) for code in per_var for w in code.codewords.values())
                   for per_var in fcb.codes)
    if stream.n * min_bits > bits.size:
        raise CorruptStreamError(
            f"header claims {stream.n} samples of >= {min_bits} bits; payload has {bits.size} bits"
        )
    # a net whose every variable can code to zero bits admits any count, so
    # the output table itself is held to the size guard
    if min_bits == 0 and stream.n * net.m > DEFAULT_SIZE_GUARD:
        raise SizeGuardError(
            f"header claims {stream.n} zero-bit samples: {stream.n}x{net.m} table "
            f"exceeds guard {DEFAULT_SIZE_GUARD}"
        )
    trees = [[code.decode_tree() for code in per_var] for per_var in fcb.codes]
    out = np.zeros((stream.n, net.m), dtype=np.int64)
    pos = 0
    total = bits.size
    for t in range(stream.n):
        for i in net.order:
            cfg = _parent_config_column(net, i, out[t])
            node = trees[i][cfg]
            while not isinstance(node, int):
                if pos >= total:
                    raise CorruptStreamError(f"stream truncated inside sample {t}")
                node = node[bits[pos]]
                pos += 1
                if node is None:
                    raise CorruptStreamError(f"invalid codeword bits in sample {t}")
            out[t, i] = node
    if total - pos >= 8:
        raise CorruptStreamError(f"{total - pos} unread bits after {stream.n} samples")
    return out


def expected_length(code, source) -> float:
    """Expected bits per state vector.

    * (FactorizedCodebook, BayesNet): sum_i sum_pa p(pa) E[len_i | pa],
      which lands in [H, H + m).
    * (PrefixCode, JointTable): sum_s p(s) len(s), which lands in [H, H + 1).
    """
    if isinstance(code, FactorizedCodebook):
        net = source if isinstance(source, BayesNet) else code.net
        total = 0.0
        for i in range(net.m):
            cpt = net.cpts[i]
            if cpt.parents:
                p_pa = marginal_table(net, cpt.parents).probs
            else:
                p_pa = np.ones(1)
            for cfg, row in enumerate(cpt.table):
                w = float(p_pa[cfg])
                if w > 0:
                    total += w * code.codes[i][cfg].expected_length(row)
        return total
    if isinstance(code, PrefixCode):
        probs = source.probs if isinstance(source, JointTable) else np.asarray(source, float)
        return code.expected_length(probs)
    raise InvalidStateError(f"cannot compute expected length for {type(code).__name__}")


@dataclass(frozen=True)
class ComplexityReport:
    """Side-by-side cost of the joint and factorized routes."""

    n_variables: int
    max_cardinality: int
    max_in_degree: int
    joint_states: int
    factorized_code_bound: int   # m * k^L conditional codes
    factorized_entry_bound: int  # m * k^L * k table entries
    factorized_codes_built: int
    factorized_entries_touched: int
    factorized_build_seconds: float
    joint_build_seconds: float | None
    joint_note: str
    # the built objects, so callers can use them without building them again
    factorized_codebook: FactorizedCodebook = field(repr=False, compare=False)
    joint_table: JointTable | None = field(repr=False, compare=False)
    joint_code: PrefixCode | None = field(repr=False, compare=False)


def complexity_report(net: BayesNet, limit: int = DEFAULT_SIZE_GUARD) -> ComplexityReport:
    """Build both codebooks (joint only when under the guard), account the work,
    and hand the built codebooks back with the report."""
    k = max(net.cards)
    big_l = net.max_in_degree()
    t0 = time.perf_counter()
    fcb = build_factorized_codebooks(net)
    t_fac = time.perf_counter() - t0
    n_joint = net.joint_states()
    jt = jcode = t_joint = None
    note = ""
    if n_joint <= limit:
        t0 = time.perf_counter()
        jt = enumerate_joint(net, limit=limit)
        jcode = build_joint_huffman(jt, limit=limit)
        t_joint = time.perf_counter() - t0
    else:
        note = f"skipped: joint alphabet {n_joint} exceeds size guard {limit}"
    return ComplexityReport(
        n_variables=net.m,
        max_cardinality=k,
        max_in_degree=big_l,
        joint_states=n_joint,
        factorized_code_bound=net.m * k**big_l,
        factorized_entry_bound=net.m * k**big_l * k,
        factorized_codes_built=fcb.n_codes(),
        factorized_entries_touched=fcb.entries_touched,
        factorized_build_seconds=t_fac,
        joint_build_seconds=t_joint,
        joint_note=note,
        factorized_codebook=fcb,
        joint_table=jt,
        joint_code=jcode,
    )
