"""Lossless coding for network sources.

Two routes are provided on purpose:

* a *factorized* codebook with one Huffman code per (variable, parent
  configuration), built from its net's CPT rows alone — the table work is
  bounded by m * k^L * k entries instead of the k^m-sized joint alphabet.
  Every code is complete; equal rows share one code object, built once;
* a single Huffman code over the dense joint alphabet, the oracle used to
  measure what factorization gives up (at most one bit per variable).

Huffman construction is fully deterministic: ties on weight are broken by the
smallest symbol contained in a subtree, the lower-(weight, symbol) node
becomes the left child, and the left edge is labeled 0.  A conditional
distribution whose support is a single state gets a zero-length codeword, so
deterministic variables cost nothing on the wire.

Streams are framed as: 4-byte magic, 1-byte version, 8-byte big-endian count,
16-byte network digest, then payload bits MSB-first, zero-padded to a byte.
``encode`` finds the codes of 2^14 symbols at a time in one numpy step over
``row_layout``, gathers their codewords from the codebook's flat table and
packs the bits once.  ``decode`` walks one binary trie over all the codes,
one subtrie per distinct code: pass 1 finds where each sample starts,
decoding in Python only the variables whose codeword lengths vary and their
ancestors; pass 2 decodes each variable for all samples in one numpy walk.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .bn import (
    BayesNet,
    JointTable,
    _check_size,
    _check_states,
    config_index,
    enumerate_joint,
    marginal_table,  # noqa: F401  no longer called here; bench/tracing.py wraps the name
    row_layout,
    size_guard,
)
from .errors import (
    CorruptStreamError,
    InvalidStateError,
    UncodableSampleError,
    WrongCodebookError,
)
from .info import parent_marginals

if TYPE_CHECKING:
    from fractions import Fraction

MAGIC = b"BNHC"
VERSION = 1
_HEADER_LEN = 4 + 1 + 8 + 16
_BLOCK = 2**14  # symbols per encode block


@dataclass(frozen=True)
class PrefixCode:
    """Prefix-free binary code over the support of one distribution."""

    codewords: Mapping[int, str]

    def length(self, symbol: int) -> int:
        return len(self.codewords[symbol])

    def kraft_sum(self) -> Fraction:
        """Exact sum of 2^-len over codewords (1 for a complete code)."""
        from fractions import Fraction  # here, not at the top: only checks call this

        return sum((Fraction(1, 2 ** len(w)) for w in self.codewords.values()), Fraction(0))

    def expected_length(self, p: Sequence[float]) -> float:
        p = np.asarray(p, dtype=float)
        if len(self.codewords) < p.size:  # a symbol p emits may lack a codeword
            for s in np.flatnonzero(p > 0):
                if int(s) not in self.codewords:
                    raise UncodableSampleError(f"symbol {s} has probability {p[s]:.12g} but no codeword")
        return float(sum(p[s] * len(w) for s, w in self.codewords.items()))


def huffman_code(p: Sequence[float]) -> PrefixCode:
    """Optimal prefix code for ``p`` with deterministic tie-breaking.

    Symbols with zero probability get no codeword; a single-symbol support
    yields the empty codeword.
    """
    p = np.asarray(p, dtype=float)
    weights = p.tolist() if p.ndim == 1 else []
    if not weights or not all(0.0 <= w < math.inf for w in weights):  # also a NaN
        raise InvalidStateError("huffman_code needs a 1-d finite nonnegative weight vector")
    # heap entries: (weight, smallest contained symbol, subtree)
    heap: list[tuple[float, int, object]] = [(w, s, s) for s, w in enumerate(weights) if w > 0]
    if not heap:
        raise InvalidStateError("distribution has empty support")
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
    """One Huffman code per (variable, parent configuration), built from the
    net's CPT rows: sum_i (parent configs of i) * card(i) table entries, at
    most m * k^L * k, independent of the joint alphabet.  Equal rows share one
    code object, built once per codebook."""

    net: BayesNet
    codes: tuple[tuple[PrefixCode, ...], ...] = field(init=False)

    def __post_init__(self) -> None:
        memo: dict[bytes, PrefixCode] = {}

        def code(row: np.ndarray) -> PrefixCode:
            key = row.tobytes()
            if key not in memo:
                memo[key] = huffman_code(row)
            return memo[key]

        object.__setattr__(self, "codes", tuple(tuple(map(code, c.table)) for c in self.net.cpts))

    @property
    def entries_touched(self) -> int:
        return sum(c.table.size for c in self.net.cpts)

    def n_codes(self) -> int:
        return sum(len(per) for per in self.codes)

    @cached_property
    def _distinct(self) -> tuple[np.ndarray, ...]:
        """``table``'s offsets, lengths and pool over the distinct codes (by
        identity, in first-use order), and the distinct index of each code."""
        k = max(self.net.cards, default=1)
        flat = [code for per_var in self.codes for code in per_var]
        distinct = {id(code): code for code in flat}  # in first-use order
        slot = {key: d for d, key in enumerate(distinct)}
        which = [slot[id(code)] for code in flat]
        words = [code.codewords.get(s) for code in distinct.values() for s in range(k)]
        lengths = np.array([-1 if w is None else len(w) for w in words], dtype=np.int64).reshape(-1, k)
        size = np.maximum(lengths, 0)
        pool = np.frombuffer("".join(filter(None, words)).encode("ascii"), dtype=np.uint8) - ord("0")
        return np.cumsum(size).reshape(size.shape) - size, lengths, pool, np.array(which)

    @cached_property
    def table(self) -> tuple[np.ndarray, ...]:
        """Codeword offsets into ``pool`` and lengths (-1: none), (codes, k) for
        the widest cardinality k; the pool of all codeword bits; and each
        variable's first code.  Codes are in (variable, parent config) order;
        equal code objects share their pool bits."""
        offsets, lengths, pool, which = self._distinct
        first = np.cumsum([0] + [len(per_var) for per_var in self.codes])
        return offsets[which], lengths[which], pool, first

    @cached_property
    def trie(self) -> tuple[np.ndarray, ...]:
        """All codes as one binary trie: node arrays kid (the two children),
        sym and depth, and the root of each code in ``encode``'s order.  Node 0
        is a dead node (sym -2) that no walk reaches, since every Huffman code
        is complete; inner nodes have sym -1; a leaf is its own child.  Each
        distinct code gets one subtrie, its nodes in one run that starts at its
        root."""
        offsets, lengths, pool, which = self._distinct
        kid, sym, depth, roots, bits = [[0, 0]], [-2], [0], [], pool.tolist()
        for offs, lens in zip(offsets.tolist(), lengths.tolist()):
            roots.append(len(kid))
            kid.append([0, 0]), sym.append(-1), depth.append(0)
            for s in (s for s, n in enumerate(lens) if n >= 0):
                v = roots[-1]
                for b in bits[offs[s]:offs[s] + lens[s]]:
                    if not kid[v][b]:
                        kid[v][b] = len(kid)
                        kid.append([0, 0]), sym.append(-1), depth.append(depth[v] + 1)
                    v = kid[v][b]
                sym[v], kid[v] = s, [v, v]
        return np.array(kid), np.array(sym), np.array(depth), np.array(roots)[which]


def build_factorized_codebooks(net: BayesNet) -> FactorizedCodebook:
    """The factorized codebook of ``net``: ``FactorizedCodebook(net)``."""
    return FactorizedCodebook(net)


def build_joint_huffman(table: JointTable) -> PrefixCode:
    """Single Huffman code over the dense joint alphabet (oracle route)."""
    _check_size(table.probs.size, f"joint alphabet {table.probs.size}")
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


def _reject(fcb: FactorizedCodebook, n0: int, rows) -> None:
    """Raise the error of the first bad sample in ``rows``, numbered from ``n0``:
    ``_check_states``'s, else its first state without a codeword in coding order."""
    net, (_, lengths, _, first) = fcb.net, fcb.table
    for n, vec in enumerate(rows, n0):
        try:
            states = _check_states(net, vec)
        except InvalidStateError as e:
            raise InvalidStateError(f"sample {n}: {e}") from None
        for i in net.order:
            pa, s = net.cpts[i].parents, states[i]
            cfg = config_index([states[p] for p in pa], [net.card(p) for p in pa])
            if lengths[first[i] + cfg, s] < 0:
                raise UncodableSampleError(f"sample {n}: state {s} of {net.variables[i].name!r} "
                                           f"has zero probability under parent config {cfg}")


def encode(fcb: FactorizedCodebook, samples: Iterable[Sequence[int]]) -> Bitstream:
    """Code state vectors with the factorized codebook.

    Raises an uncodable-sample error when a vector hits a zero-probability
    state (no codeword exists for it), and an invalid-state error on
    out-of-range or non-integer entries (integral floats such as 1.0 are
    states), with ``joint_probability``'s message after ``sample n: ``, for
    the first bad sample; ``samples`` that are no iterable are invalid too.
    """
    net, (pa, w) = fcb.net, row_layout(fcb.net)
    offsets, lengths, pool, first = fcb.table
    cards, order, k = np.array(net.cards), np.array(net.order), lengths.shape[1]
    # in coding order: a symbol's table entry is k * (first code + CPT row) + state
    pa, w, first = pa[order], w[order] * k, first[order] * k
    per_block = max(1, _BLOCK // net.m)
    if isinstance(samples, np.ndarray) and samples.ndim == 2:
        blocks = (samples[t:t + per_block] for t in range(0, len(samples), per_block))
    else:
        try:
            it = iter(samples)
        except TypeError:  # a scalar, a 0-d array or None
            raise InvalidStateError(f"{samples!r} is not an iterable of state vectors") from None
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
                x.dtype.kind == "f" and np.all((x >= 0) & (x < cards) & (x == np.floor(x)))):
            _reject(fcb, n, block)  # returns on an object array of valid states
        x = x.astype(np.int64, copy=False)
        if ((x < 0) | (x >= cards)).any():
            _reject(fcb, n, block)
        idx = (first + np.einsum("nml,ml->nm", x[:, pa], w) + x[:, order]).ravel()
        size = lengths.ravel()[idx]
        if (size < 0).any():
            _reject(fcb, n, block)
        ends = np.cumsum(size)
        chunks.append(pool[np.repeat(offsets.ravel()[idx] + size - ends, size) + np.arange(ends[-1])])
        n += len(x)
    return Bitstream(n, net.digest(), np.packbits(np.concatenate(chunks)).tobytes())


def decode(fcb: FactorizedCodebook, stream: Bitstream) -> np.ndarray:
    """Invert ``encode``; returns an (n, m) int array.

    Raises a wrong-codebook error if the stream was produced for a different
    network, a corrupt-stream error on truncation or trailing data, and a
    size-guard error when the (n, m) output is over the guard.
    """
    net = fcb.net
    if stream.digest != net.digest():
        raise WrongCodebookError(
            f"stream digest {stream.digest.hex()} != codebook digest {net.digest().hex()}"
        )
    kid, sym, depth, roots = fcb.trie
    _, lengths, _, base = fcb.table
    # per variable, over its codes: the shortest and the longest codeword; a
    # variable whose codewords all have one length is fixed-length
    lo = np.minimum.reduceat(np.where(lengths >= 0, lengths, 2**62).min(axis=1), base[:-1])
    hi = np.maximum.reduceat(lengths.max(axis=1), base[:-1])
    fixed = lo == hi
    lo, hi = lo.tolist(), hi.tolist()
    # every sample spends at least the shortest codeword of each variable, so a
    # header count the payload cannot hold is refused before allocating for it
    min_bits, nbits = sum(lo), 8 * len(stream.payload)
    if stream.n * min_bits > nbits:
        raise CorruptStreamError(
            f"header claims {stream.n} samples of >= {min_bits} bits; payload has {nbits} bits"
        )
    # the (n, m) output, whatever the codeword lengths: zero-bit nets admit any n
    _check_size(stream.n * net.m, f"{stream.n} samples: {stream.n}x{net.m} table")
    # zero bits past the payload, one sample's worth, let walks run on unchecked
    pad = bytes(sum(hi) // 8 + 1)
    bits = np.unpackbits(np.frombuffer(stream.payload + pad, dtype=np.uint8)).tobytes()
    # pass 1 finds where each sample starts and every error, at its sample.  A
    # fixed-length variable is stepped over unless one decoded here needs it
    need = (~fixed).tolist()
    for i in reversed(net.order):
        for p in net.cpts[i].parents:
            need[p] = need[p] or need[i]
    steps, skip = [], 0
    for i in net.order:
        if need[i]:
            pa = [(p, net.card(p)) for p in net.cpts[i].parents]
            steps.append((skip, i, pa, roots[base[i]:base[i + 1]].tolist()))
            skip = 0
        else:
            skip += lo[i]
    if steps:
        kids, syms, row, pos = kid.tolist(), sym.tolist(), [0] * net.m, 0
        starts = np.empty(stream.n, dtype=np.int64)
        for t in range(stream.n):
            starts[t] = pos
            for run, i, pa, tops in steps:
                pos += run
                cfg = 0
                for p, c in pa:
                    cfg = cfg * c + row[p]
                v = tops[cfg]
                while syms[v] == -1:
                    v = kids[v][bits[pos]]
                    pos += 1
                row[i] = syms[v]
            pos += skip
            if pos > nbits:
                raise CorruptStreamError(f"stream truncated inside sample {t}")
    else:
        starts, pos = np.arange(stream.n, dtype=np.int64) * skip, stream.n * skip
    if nbits - pos >= 8:
        raise CorruptStreamError(f"{nbits - pos} unread bits after {stream.n} samples")
    # pass 2 decodes one variable of every sample at a time, one trie depth per step
    bits, pos, kid = np.frombuffer(bits, dtype=np.uint8), starts, kid.ravel()
    out = np.empty((stream.n, net.m), dtype=np.int64)
    for i in net.order:
        pa = net.cpts[i].parents
        v = roots[base[i] + config_index([out[:, p] for p in pa], [net.card(p) for p in pa])]
        for d in range(hi[i]):
            v = kid[2 * v + bits[pos + d]]
        out[:, i] = sym[v]
        pos = pos + depth[v]
    return out


def expected_length(code, source) -> float:
    """Expected bits per state vector.

    * (FactorizedCodebook, BayesNet): sum_i sum_pa p(pa) E[len_i | pa],
      which lands in [H, H + m); a net with other CPTs prices a mismatched
      code, one with other cardinalities or parents is a wrong codebook.
    * (PrefixCode, JointTable): sum_s p(s) len(s), which lands in [H, H + 1).

    A state the source emits without a codeword is an uncodable sample.
    """
    if isinstance(code, FactorizedCodebook):
        net = source if isinstance(source, BayesNet) else code.net
        if (net.cards, [c.parents for c in net.cpts]) != (
                code.net.cards, [c.parents for c in code.net.cpts]):
            raise WrongCodebookError("network structure differs from the codebook's")
        _, lengths, _, first = code.table
        probs = np.zeros(lengths.shape)  # the CPT rows, in the codes' order
        for i, cpt in enumerate(net.cpts):
            probs[first[i]:first[i + 1], :net.card(i)] = cpt.table
        w = np.concatenate(parent_marginals(net))
        row, s = np.nonzero((lengths < 0) & (probs > 0) & (w[:, None] > 0))
        if row.size:  # a parent configuration of weight 0 is not priced
            raise UncodableSampleError(f"symbol {s[0]} has probability {probs[row[0], s[0]]:.12g} "
                                       f"but no codeword")
        return float(w @ (probs * lengths).sum(axis=1))
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


def complexity_report(net: BayesNet) -> ComplexityReport:
    """Build both codebooks (joint only when under the guard), account the work,
    and hand the built codebooks back with the report."""
    k = max(net.cards)
    big_l = net.max_in_degree()
    t0 = time.perf_counter()
    fcb = build_factorized_codebooks(net)
    t_fac = time.perf_counter() - t0
    n_joint, guard = net.joint_states(), size_guard()
    jt = jcode = t_joint = None
    note = ""
    if n_joint <= guard:
        t0 = time.perf_counter()
        jt = enumerate_joint(net)
        jcode = build_joint_huffman(jt)
        t_joint = time.perf_counter() - t0
    else:
        note = f"skipped: joint alphabet {n_joint} exceeds size guard {guard}"
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
