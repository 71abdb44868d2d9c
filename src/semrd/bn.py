"""Discrete Bayesian-network sources.

A network is a list of categorical variables and one conditional probability
table (CPT) per variable.  A variable's id is its position in the list, and
the CPT at position i is the one for variable i.  The topological order, in
which parents precede children, is derived from the parent lists when the
network is built; it is never an input.  Parent configurations are indexed in
mixed-radix order with the *last listed parent varying fastest*, i.e. the
row for parent states (s_1, .., s_L) with cardinalities (c_1, .., c_L) is

    row = ((s_1 * c_2 + s_2) * c_3 + s_3) * ...

Joint assignments use the same convention over variable ids, so a dense joint
table laid out this way is exactly a C-order ``numpy`` array with one axis per
variable.

Networks are immutable once built; all randomness is injected through explicit
seeds, so every function here is safe to call from multiple threads.
"""

from __future__ import annotations

import heapq
import json
import math
import operator
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidStateError, SchemaError, SizeGuardError

#: Default cap on dense table sizes (number of float entries).
DEFAULT_SIZE_GUARD = 2**24

#: Hard ceiling for ``SEMRD_SIZE_GUARD``.
MAX_SIZE_GUARD = 2**28

_ROW_SUM_TOL = 1e-12
_LOAD_RENORM_TOL = 1e-9


@dataclass(frozen=True)
class Variable:
    name: str
    cardinality: int


@dataclass(frozen=True)
class Cpt:
    """Conditional distribution of one variable given its parents; the
    variable is the one at the CPT's position in ``BayesNet.cpts``.

    ``table`` has shape (n_parent_configs, cardinality); each row is the
    distribution of the child for one parent configuration.
    """

    parents: tuple[int, ...]
    table: np.ndarray

    def __post_init__(self):
        self.table.setflags(write=False)


@dataclass(frozen=True)
class BayesNet:
    """Variables and their CPTs.  ``order`` is derived at construction: the
    ids in Kahn order, or in declaration order when the parents form a cycle
    (``validate`` reports it)."""

    variables: tuple[Variable, ...]
    cpts: tuple[Cpt, ...]
    order: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        m = len(self.variables)
        order = _kahn(self.cpts, m)
        object.__setattr__(self, "order", tuple(order) if len(order) == m else tuple(range(m)))

    @property
    def m(self) -> int:
        return len(self.variables)

    @property
    def cards(self) -> tuple[int, ...]:
        return tuple(v.cardinality for v in self.variables)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def card(self, i: int) -> int:
        return self.variables[i].cardinality

    def parents(self, i: int) -> tuple[int, ...]:
        return self.cpts[i].parents

    def max_in_degree(self) -> int:
        return max((len(c.parents) for c in self.cpts), default=0)

    def joint_states(self) -> int:
        return math.prod(self.cards)

    def id_of(self, name_or_id: str | int) -> int:
        """Resolve a variable name to its id, or check an id and pass it
        through as an ``int``: an id is anything ``operator.index`` takes (a
        numpy integer too), and anything else is looked up as a name."""
        if not isinstance(name_or_id, str) and hasattr(type(name_or_id), "__index__"):
            i = operator.index(name_or_id)
            if not 0 <= i < self.m:
                raise InvalidStateError(f"no variable with id {i}")
            return i
        for i, v in enumerate(self.variables):
            if v.name == name_or_id:
                return i
        raise InvalidStateError(f"no variable named {name_or_id!r}")

    def to_dict(self) -> dict:
        """Canonical dict form matching the JSON file schema."""
        return {
            "variables": [
                {"name": v.name, "cardinality": v.cardinality} for v in self.variables
            ],
            "edges": [
                [self.variables[p].name, self.variables[i].name]
                for i, c in enumerate(self.cpts)
                for p in c.parents
            ],
            "cpts": [
                {
                    "child": self.variables[i].name,
                    "parents": [self.variables[p].name for p in c.parents],
                    "rows": c.table.astype(float, copy=False).tolist(),
                }
                for i, c in enumerate(self.cpts)
            ],
        }

    def canonical_bytes(self) -> bytes:
        """Deterministic serialization used for digests."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")).encode()

    def digest(self) -> bytes:
        """16-byte truncated SHA-256 of the canonical serialization."""
        return self._digest

    @cached_property
    def _digest(self) -> bytes:
        # computed once: the dataclass is frozen and its CPT tables are read-only
        import hashlib  # here, not at the top: most commands never digest a net

        return hashlib.sha256(self.canonical_bytes()).digest()[:16]


@dataclass(frozen=True)
class JointTable:
    """Dense probability table over an ordered subset of variables.

    ``probs`` is flat, indexed in mixed-radix order over ``scope`` with the
    last scope variable varying fastest; ``as_array`` restores one axis per
    scope variable.
    """

    scope: tuple[int, ...]
    cards: tuple[int, ...]
    probs: np.ndarray

    def __post_init__(self):
        self.probs.setflags(write=False)

    def as_array(self) -> np.ndarray:
        return self.probs.reshape(self.cards)


@dataclass(frozen=True)
class Partition:
    """Disjoint blocks of variable ids, conditionally independent given a side set."""

    side: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(self.violations)


def config_index(states: Sequence, cards: Sequence[int]):
    """Mixed-radix index of a parent configuration (last parent fastest); with
    one integer column per parent, the indices of many configurations."""
    idx = 0
    for s, c in zip(states, cards):
        idx = idx * c + s
    return idx


def row_layout(net: BayesNet) -> tuple[np.ndarray, np.ndarray]:
    """Every variable's parent ids padded to the widest family, (m, L), and
    their mixed-radix weights, 0 on padding: ``(x[:, pa] * w).sum(-1)`` is
    the CPT row of every variable in each state vector of an (n, m) ``x``."""
    width = net.max_in_degree()
    pa = np.array([c.parents + (-1,) * (width - len(c.parents)) for c in net.cpts],
                  dtype=np.int64).reshape(net.m, width)
    card = np.array(net.cards + (1,))[pa]  # padding: id -1, cardinality 1
    w = np.cumprod(card[:, ::-1], axis=1)[:, ::-1] // card  # product of the later cards
    return np.maximum(pa, 0), w * (pa >= 0)


def make_net(
    variables: Sequence[tuple[str, int]],
    cpts: Sequence[tuple[str, Sequence[str], Sequence[Sequence[float]]]],
) -> BayesNet:
    """Build a network from (name, cardinality) pairs and (child, parents, rows) CPTs.

    A cardinality is an integer or an integral float; every variable needs
    exactly one CPT, and every name a CPT gives must be a declared variable.
    Rows are taken as given; ``validate`` reports a table of the wrong shape.
    """
    vs = []
    for i, (name, card) in enumerate(variables):
        if isinstance(card, float) and card.is_integer():
            card = int(card)
        if not isinstance(card, (int, np.integer)):
            raise SchemaError(f"variables[{i}].cardinality must be an integer, got {card!r}")
        vs.append(Variable(name, int(card)))
    by_name = {v.name: i for i, v in enumerate(vs)}
    if len(by_name) != len(vs):
        raise SchemaError("variable names must be unique")
    cpt_map: dict[int, Cpt] = {}
    for child, parents, rows in cpts:
        for name in (child, *parents):
            if not isinstance(name, str) or name not in by_name:
                raise SchemaError(f"cpt references unknown variable {name!r}")
        cid = by_name[child]
        if cid in cpt_map:
            raise SchemaError(f"duplicate cpt for variable {child!r}")
        table = np.array(rows, dtype=float)  # a copy: the net freezes its tables
        cpt_map[cid] = Cpt(tuple(by_name[p] for p in parents), table)
    for i, v in enumerate(vs):
        if i not in cpt_map:
            raise SchemaError(f"missing cpt for variable {v.name!r}")
    return BayesNet(tuple(vs), tuple(cpt_map[i] for i in range(len(vs))))


def _kahn(cpts: Sequence[Cpt], m: int) -> list[int]:
    """Ids in Kahn order, smallest ready id first; the ids it leaves out are on
    a cycle or downstream of one."""
    children: dict[int, list[int]] = {i: [] for i in range(m)}
    indeg = [0] * m
    for child, c in enumerate(cpts[:m]):
        for p in c.parents:
            if 0 <= p < m:
                children[p].append(child)
                indeg[child] += 1
    ready = [i for i in range(m) if indeg[i] == 0]  # ascending, so a heap
    out: list[int] = []
    while ready:
        v = heapq.heappop(ready)
        out.append(v)
        for w in children[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    return out


def validate(net: BayesNet) -> ValidationReport:
    """Check what a caller supplies, never raising: at least one variable,
    cardinalities >= 2, one CPT per variable, distinct in-range parent ids,
    table shapes, finite non-negative entries, unit row sums, no cycle."""
    rep = ValidationReport()
    m = len(net.variables)
    if not m:
        rep.violations.append("network has no variables")
    for v in net.variables:
        if v.cardinality < 2:
            rep.violations.append(f"variable {v.name!r} has cardinality {v.cardinality} < 2")
    if len(net.cpts) != m:
        rep.violations.append(f"expected {m} cpts, got {len(net.cpts)}")
        return rep
    for i, c in enumerate(net.cpts):
        name = net.variables[i].name
        if len(set(c.parents)) != len(c.parents):
            rep.violations.append(f"{name!r}: duplicate parents {c.parents}")
        bad_parent = False
        for p in c.parents:
            if not 0 <= p < m:
                rep.violations.append(f"{name!r}: parent id {p} out of range")
                bad_parent = True
            elif p == i:
                rep.violations.append(f"{name!r}: variable is its own parent")
                bad_parent = True
        if bad_parent:
            continue
        n_cfg = 1
        for p in c.parents:
            n_cfg *= net.variables[p].cardinality
        if c.table.shape != (n_cfg, net.variables[i].cardinality):
            rep.violations.append(
                f"{name!r}: table shape {c.table.shape} != ({n_cfg}, {net.variables[i].cardinality})"
            )
            continue
        if not np.all(np.isfinite(c.table)):
            rep.violations.append(f"{name!r}: non-finite probability entries")
        if np.any(c.table < 0):
            rep.violations.append(f"{name!r}: negative probability entries")
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN sums never match 1
            sums = c.table.sum(axis=1)
        for cfg in np.flatnonzero(np.abs(sums - 1.0) > _ROW_SUM_TOL):
            rep.violations.append(f"{name!r}: row sum {sums[cfg]:.12g} != 1 at parent config {cfg}")
    left = set(range(m)).difference(_kahn(net.cpts, m))
    if left:
        # every unplaced vertex has an unplaced parent: climb until one repeats
        up = {i: p for i, c in enumerate(net.cpts) for p in c.parents if p in left}
        seen: dict[int, int] = {}
        v = min(left)
        while v not in seen:
            seen[v] = len(seen)
            v = up[v]
        cyc = [u for u in seen if seen[u] >= seen[v]][::-1]  # parent -> child order
        rep.violations.append("cycle: " + " -> ".join(map(str, cyc + cyc[:1])))
    return rep


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


def _check_states(net: BayesNet, assignment: Sequence[int]) -> list[int]:
    """The assignment's states as ints; raises ``InvalidStateError`` on an
    assignment that is no vector of one state per variable, a state that is
    not an integer (see ``_state``) or one out of range."""
    try:
        k = len(assignment)
    except TypeError:  # a scalar or None
        raise InvalidStateError(
            f"assignment {assignment!r} is not a vector of {net.m} states") from None
    if k != net.m:
        raise InvalidStateError(f"assignment length {k} != {net.m} variables")
    states = [_state(v) for v in assignment]
    for i, (v, s) in enumerate(zip(assignment, states)):
        name = net.variables[i].name
        if s is None:
            raise InvalidStateError(f"state {v!r} of variable {name!r} is not an integer")
        if not 0 <= s < net.card(i):
            raise InvalidStateError(
                f"state {s} out of range for variable {name!r} (cardinality {net.card(i)})"
            )
    return states


def joint_probability(net: BayesNet, assignment: Sequence[int]) -> float:
    """Probability of a full assignment: product of CPT entries along the order."""
    states = _check_states(net, assignment)
    p = 1.0
    for i in net.order:
        c = net.cpts[i]
        cfg = config_index([states[q] for q in c.parents], [net.card(q) for q in c.parents])
        p *= c.table[cfg, states[i]]
    return p


def ancestral_closure(net: BayesNet, ids: Iterable[int]) -> set[int]:
    seen = set()
    stack = list(ids)
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(net.cpts[v].parents)
    return seen


def size_guard() -> int:
    """The cap on dense table sizes, read at each call: ``SEMRD_SIZE_GUARD``
    when it is set, else ``DEFAULT_SIZE_GUARD``.  A set value that is not an
    integer in [1, ``MAX_SIZE_GUARD``] raises a size-guard error.  Every check
    that refuses an allocation takes its bound from here."""
    value = os.environ.get("SEMRD_SIZE_GUARD")
    if value is None:
        return DEFAULT_SIZE_GUARD
    try:
        guard = int(value)
    except ValueError:  # also past int's digit limit
        guard = 0
    if not 1 <= guard <= MAX_SIZE_GUARD:
        raise SizeGuardError(f"SEMRD_SIZE_GUARD={value!r} is not an integer in [1, {MAX_SIZE_GUARD}]")
    return guard


def marginal_table(net: BayesNet, ids: Sequence[int]) -> JointTable:
    """Exact marginal distribution over ``ids`` (in the requested order).

    Variable elimination over the ancestral closure: each CPT, in topological
    order, goes into a running table through one ``np.einsum`` contraction
    that also sums out every variable no later CPT mentions (the requested
    ids stay to the end), so chains and trees stay small even when the full
    joint would not fit.  Each product, the table times the CPT before the
    sum, is held under ``size_guard()`` entries and under einsum's 52 axis
    labels.
    """
    ids = [net.id_of(i) for i in ids]
    if len(set(ids)) != len(ids) or not ids:
        raise InvalidStateError(f"ids must be a non-empty set of distinct variables, got {ids}")
    guard = size_guard()
    needed = ancestral_closure(net, ids)
    order_s = [v for v in net.order if v in needed]
    last = {v: k for k, v in enumerate(order_s)}  # the last step that mentions v
    for pos, v in enumerate(order_s):
        last.update(dict.fromkeys(net.cpts[v].parents, pos))
    last.update(dict.fromkeys(ids, len(order_s)))
    active: list[int] = []  # the variable on each axis of ``table``
    table = np.ones(())
    for pos, v in enumerate(order_s):
        step, size = active + [v], table.size * net.card(v)
        if size > guard:
            raise SizeGuardError(f"intermediate table over {len(step)} variables has {size} "
                                 f"entries (> guard {guard})")
        if len(step) > 52:
            raise SizeGuardError(f"intermediate table over {len(step)} variables has more "
                                 f"axes than einsum's 52 labels")
        pa = net.cpts[v].parents
        arr = net.cpts[v].table.reshape([net.card(p) for p in pa] + [net.card(v)])
        out = [k for k, u in enumerate(step) if last[u] > pos]
        table = np.einsum(table, list(range(len(active))),
                          arr, [active.index(p) for p in pa] + [len(active)], out)
        active = [step[k] for k in out]
    table = np.ascontiguousarray(table.transpose([active.index(i) for i in ids]))
    return JointTable(tuple(ids), tuple(net.card(i) for i in ids), table.reshape(-1))


def enumerate_joint(net: BayesNet) -> JointTable:
    """Dense joint table over all variables in id order.

    Raises a size-guard error before allocating anything when the state space
    exceeds ``size_guard()``; the returned table sums to 1 within 1e-9.
    """
    n, guard = net.joint_states(), size_guard()
    if n > guard:
        raise SizeGuardError(f"joint state space {n} exceeds guard {guard}")
    jt = marginal_table(net, list(range(net.m)))
    total = float(jt.probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise SchemaError(f"joint table sums to {total:.12g}, not 1; network is inconsistent")
    return jt


def sample(net: BayesNet, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` ancestral samples; deterministic for a fixed seed.

    A state counts the first k - 1 cumulative entries of its CPT row that a
    fresh uniform reaches, one 1-d compare each.  Returns an (n, m) int array
    in id order; an n x m table over the guard is refused before allocation.
    """
    if n < 0:
        raise InvalidStateError(f"sample count must be >= 0, got {n}")
    guard = size_guard()
    if n * net.m > guard:
        raise SizeGuardError(f"{n} samples: {n}x{net.m} table exceeds guard {guard}")
    rng = np.random.default_rng(seed)
    out = np.zeros((n, net.m), dtype=np.int64)
    for i in net.order:
        c = net.cpts[i]
        cfg = config_index([out[:, p] for p in c.parents], [net.card(p) for p in c.parents])
        u, cum, x = rng.random(n), c.table[:, 0], out[:, i]
        for j in range(1, net.card(i)):  # cum: column j - 1 of the cumulative CPT
            x += u >= cum[cfg]
            cum = cum + c.table[:, j]
    return out


def conditional_partition(net: BayesNet, side: Sequence[int]) -> Partition:
    """Finest grouping of the remaining variables that is conditionally
    independent given ``side``.

    Takes connected components of the moral graph minus the side set: each
    CPT family is a moral clique, so joining the non-side members of every
    family gives them.  Moralization of the full graph is a supergraph of the
    moralization of any ancestral subgraph, so separation here implies
    d-separation and blocks really are conditionally independent.  Blocks are
    sorted by smallest member id; members ascend within a block.
    """
    side_ids = {net.id_of(s) for s in side}
    root = list(range(net.m))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    for i, c in enumerate(net.cpts):
        family = [v for v in (i, *c.parents) if v not in side_ids]
        for v in family[1:]:
            root[find(v)] = find(family[0])
    blocks: dict[int, list[int]] = {}
    for v in range(net.m):
        if v not in side_ids:
            blocks.setdefault(find(v), []).append(v)
    return Partition(tuple(sorted(side_ids)), tuple(sorted(tuple(b) for b in blocks.values())))


# ---------------------------------------------------------------------------
# JSON file format
# ---------------------------------------------------------------------------
#
# {
#   "description": "optional free text",
#   "variables": [{"name": "Y", "cardinality": 2}, ...],
#   "edges":     [["Y", "X1"], ["Y", "X2"]],
#   "cpts":      [{"child": "Y", "parents": [], "rows": [[0.5, 0.5]]}, ...]
# }
#
# Variable ids are positions in the "variables" list.  "edges" must agree
# with the parent lists in "cpts"; rows off by <= 1e-9 are renormalized at
# load, anything worse is left for ``validate`` to reject.


def _list(value, where: str) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise SchemaError(f"{where} must be a list, got {type(value).__name__}")
    return value


def net_from_dict(doc: dict) -> BayesNet:
    """Parse a network document and build it with ``make_net``; raises
    ``SchemaError`` on a schema error or on ``validate``'s first violation."""
    if not isinstance(doc, dict):
        raise SchemaError("network document must be a JSON object")
    for key in ("variables", "edges", "cpts"):
        if key not in doc:
            raise SchemaError(f"missing top-level key {key!r}")
    variables = []
    for k, v in enumerate(_list(doc["variables"], "variables")):
        if not isinstance(v, dict) or "name" not in v or "cardinality" not in v:
            raise SchemaError(f"variables[{k}] must have 'name' and 'cardinality'")
        variables.append((str(v["name"]), v["cardinality"]))
    cpts = []
    for k, c in enumerate(_list(doc["cpts"], "cpts")):
        if not isinstance(c, dict) or not {"child", "parents", "rows"} <= set(c):
            raise SchemaError(f"cpts[{k}] must have 'child', 'parents', 'rows'")
        try:
            table = np.array(c["rows"], dtype=float)
        except (TypeError, ValueError) as e:
            raise SchemaError(f"cpts[{k}].rows is ragged or non-numeric: {e}") from None
        if table.ndim != 2:
            raise SchemaError(f"cpts[{k}].rows must be a matrix")
        with np.errstate(over="ignore", invalid="ignore"):
            sums = table.sum(axis=1)
        near = np.abs(sums - 1.0) <= _LOAD_RENORM_TOL
        table[near] /= sums[near, None]
        cpts.append((c["child"], _list(c["parents"], f"cpts[{k}].parents"), table))
    net = make_net(variables, cpts)

    names, declared = net.names, set()
    for k, e in enumerate(_list(doc["edges"], "edges")):
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise SchemaError(f"edges[{k}] must be a [parent, child] pair")
        for name in e:
            if not isinstance(name, str) or name not in names:
                raise SchemaError(f"edges[{k}] references unknown variable {name!r}")
        declared.add(tuple(e))
    implied = {(names[p], names[i]) for i, c in enumerate(net.cpts) for p in c.parents}
    if declared != implied:
        raise SchemaError(
            f"edges disagree with cpt parent lists: declared {sorted(declared)}, "
            f"implied {sorted(implied)}"
        )
    rep = validate(net)
    if not rep.ok:
        raise SchemaError(rep.violations[0])
    return net


def load_net(path) -> BayesNet:
    """Load a network from a JSON file; schema errors name the file and the offending key."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise SchemaError(f"{path}: invalid JSON at line {e.lineno} col {e.colno}: {e.msg}") from None
        except RecursionError:
            raise SchemaError(f"{path}: JSON nested too deeply") from None
    try:
        return net_from_dict(doc)
    except SchemaError as e:
        raise SchemaError(f"{path}: {e}") from None


def save_net(net: BayesNet, path, description: str | None = None) -> None:
    doc = net.to_dict()
    if description:
        doc = {"description": description, **doc}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
