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
``encode`` gathers codewords from offset and length tables 2^14 symbols at a
time and packs the bits once; ``decode`` looks each codeword up by its bits.
"""

from __future__ import annotations

import heapq
import operator
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Iterable, Mapping, Sequence

import numpy as np

from .bn import (
    DEFAULT_SIZE_GUARD,
    BayesNet,
    JointTable,
    config_index,
    enumerate_joint,
    marginal_table,  # noqa: F401  no longer called here; bench/tracing.py wraps the name
)
from .errors import (
    CorruptStreamError,
    InvalidStateError,
    SizeGuardError,
    UncodableSampleError,
    WrongCodebookError,
)
from .info import parent_marginals

MAGIC = b"BNHC"
VERSION = 1
_HEADER_LEN = 4 + 1 + 8 + 16
_BLOCK = 2**14  # symbols per encode block and per decode flush


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


def _state(v) -> int | None:
    """``v`` as a state index, or None when it is not an integer (a NaN, an
    infinity, a fractional float, a string, ...); integral floats count."""
    if isinstance(v, (float, np.floating, np.bool_)):
        return int(v) if float(v).is_integer() else None
    if isinstance(v, (str, bytes)):
        return None
    try:
        return operator.index(v)
    except TypeError:
        return None


def _reject(fcb: FactorizedCodebook, n0: int, rows) -> None:
    """Raise the error of the first bad sample in ``rows``, numbered from ``n0``."""
    net = fcb.net
    for n, vec in enumerate(rows, n0):
        if len(vec) != net.m:
            raise InvalidStateError(f"sample {n} has {len(vec)} entries, expected {net.m}")
        states = [0] * net.m
        for i in net.order:
            s = states[i] = _state(vec[i])
            name = net.variables[i].name
            if s is None:
                v = vec[i].item() if isinstance(vec[i], np.generic) else vec[i]
                raise InvalidStateError(f"sample {n}: state {v!r} of {name!r} is not an integer")
            if not 0 <= s < net.card(i):
                raise InvalidStateError(f"sample {n}: state {s} out of range for {name!r}")
        for i in net.order:
            pa, s = net.cpts[i].parents, states[i]
            cfg = config_index([states[p] for p in pa], [net.card(p) for p in pa])
            if s not in fcb.codes[i][cfg].codewords:
                raise UncodableSampleError(f"sample {n}: state {s} of {net.variables[i].name!r} "
                                           f"has zero probability under parent config {cfg}")


def encode(fcb: FactorizedCodebook, samples: Iterable[Sequence[int]]) -> Bitstream:
    """Code state vectors with the factorized codebook.

    Raises an uncodable-sample error when a vector hits a zero-probability
    state (no codeword exists for it), and an invalid-state error on
    out-of-range or non-integer entries (integral floats such as 1.0 are
    states); the error names the first bad sample.
    """
    net = fcb.net
    # flat table over (variable, parent config, state): the codeword's offset
    # into one pool of all codeword bits, and its length (-1: no codeword)
    words = [code.codewords.get(s) for i, per_var in enumerate(fcb.codes)
             for code in per_var for s in range(net.card(i))]
    lengths = np.array([-1 if w is None else len(w) for w in words], dtype=np.int64)
    offsets = np.cumsum(np.maximum(lengths, 0)) - np.maximum(lengths, 0)
    pool = np.frombuffer("".join(w for w in words if w).encode("ascii"), dtype=np.uint8) - ord("0")
    base = np.cumsum([0] + [len(per_var) * net.card(i) for i, per_var in enumerate(fcb.codes)])
    per_block = max(1, _BLOCK // net.m)
    if isinstance(samples, np.ndarray) and samples.ndim == 2:
        blocks = (samples[t:t + per_block] for t in range(0, len(samples), per_block))
    else:
        it = iter(samples)
        blocks = iter(lambda: list(islice(it, per_block)), [])
    chunks, n = [pool[:0]], 0
    for block in blocks:
        try:
            x = np.asarray(block)
        except (TypeError, ValueError, OverflowError):  # ragged rows
            _reject(fcb, n, block)
            raise
        if x.shape != (len(block), net.m):
            _reject(fcb, n, block)
        if x.dtype.kind not in "biu" and not (
                x.dtype.kind == "f" and np.all((x >= 0) & (x < net.cards) & (x == np.floor(x)))):
            _reject(fcb, n, block)  # returns on an object array of valid states
        x = x.astype(np.int64, copy=False)
        if np.any((x < 0) | (x >= net.cards)):
            _reject(fcb, n, block)
        idx = np.empty((len(x), net.m), dtype=np.int64)  # columns in coding order
        for j, i in enumerate(net.order):
            cfg = 0
            for p in net.cpts[i].parents:
                cfg = cfg * net.card(p) + x[:, p]
            idx[:, j] = base[i] + cfg * net.card(i) + x[:, i]
        size = lengths[idx].ravel()
        if np.any(size < 0):
            _reject(fcb, n, block)
        ends = np.cumsum(size)
        chunks.append(pool[np.repeat(offsets[idx].ravel() + size - ends, size) + np.arange(ends[-1])])
        n += len(x)
    return Bitstream(n, net.digest(), np.packbits(np.concatenate(chunks)).tobytes())


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
    bits = np.unpackbits(np.frombuffer(stream.payload, dtype=np.uint8)).tobytes()
    # per (variable, parent config): codeword bits -> symbol, and lengths shortest first
    plan = [(i, [(p, net.card(p)) for p in net.cpts[i].parents],
             [({bytes(map(int, w)): s for s, w in code.codewords.items()}.get,
               sorted({len(w) for w in code.codewords.values()})) for code in fcb.codes[i]])
            for i in net.order]
    # every sample spends at least the shortest codeword of each variable, so a
    # header count the payload cannot hold is refused before allocating for it
    min_bits = sum(min(sizes[0] for _, sizes in tables) for _, _, tables in plan)
    if stream.n * min_bits > len(bits):
        raise CorruptStreamError(
            f"header claims {stream.n} samples of >= {min_bits} bits; payload has {len(bits)} bits"
        )
    # a net whose every variable can code to zero bits admits any count, so
    # the output table itself is held to the size guard
    if min_bits == 0 and stream.n * net.m > DEFAULT_SIZE_GUARD:
        raise SizeGuardError(
            f"header claims {stream.n} zero-bit samples: {stream.n}x{net.m} table "
            f"exceeds guard {DEFAULT_SIZE_GUARD}"
        )
    out = np.empty((stream.n, net.m), dtype=np.int64)
    rows, pos = [], 0  # rows: decoded rows back to back, flushed every _BLOCK symbols
    for t in range(stream.n):
        row = [0] * net.m
        for i, pa, tables in plan:
            cfg = 0
            for p, c in pa:
                cfg = cfg * c + row[p]
            get, sizes = tables[cfg]
            for size in sizes:
                end = pos + size
                sym = get(bits[pos:end])
                if sym is not None:
                    break
            else:  # no codeword starts here: truncated if the bits run out inside one
                if any(w.startswith(bits[pos:pos + sizes[-1]]) for w in get.__self__):
                    raise CorruptStreamError(f"stream truncated inside sample {t}")
                raise CorruptStreamError(f"invalid codeword bits in sample {t}")
            pos = end
            row[i] = sym
        rows += row
        if len(rows) >= _BLOCK or t == stream.n - 1:
            out.reshape(-1)[(t + 1) * net.m - len(rows):(t + 1) * net.m] = rows
            rows = []
    if len(bits) - pos >= 8:
        raise CorruptStreamError(f"{len(bits) - pos} unread bits after {stream.n} samples")
    return out


def expected_length(code, source) -> float:
    """Expected bits per state vector.

    * (FactorizedCodebook, BayesNet): sum_i sum_pa p(pa) E[len_i | pa],
      which lands in [H, H + m); a net with other CPTs prices a mismatched
      code, one with other cardinalities or parents is a wrong codebook.
    * (PrefixCode, JointTable): sum_s p(s) len(s), which lands in [H, H + 1).
    """
    if isinstance(code, FactorizedCodebook):
        net = source if isinstance(source, BayesNet) else code.net
        if (net.cards, [c.parents for c in net.cpts]) != (
                code.net.cards, [c.parents for c in code.net.cpts]):
            raise WrongCodebookError("network structure differs from the codebook's")
        total = 0.0
        for codes, cpt, p_pa in zip(code.codes, net.cpts, parent_marginals(net)):
            for cfg, row in enumerate(cpt.table):
                w = float(p_pa[cfg])
                if w > 0:
                    total += w * codes[cfg].expected_length(row)
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
