"""Entropy and mutual-information measures for network sources, in bits.

The joint entropy of a network factorizes over the structure,

    H(X_1..X_m) = sum_i H(X_i | Parent(X_i)),

which is what makes these quantities computable without materializing the
joint table.  ``joint_entropy_bruteforce`` is the deliberately independent
dense-table route used to cross-check the factorized one.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .bn import BayesNet, JointTable, marginal_table
from .errors import InvalidStateError


def _plogp(p) -> np.ndarray:
    """p * log2(p) entrywise, with 0*log2(0) = 0."""
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0)


def entropy_bits(p) -> float:
    """Shannon entropy of a distribution (any shape), with 0*log2(0) = 0."""
    return float(-_plogp(p).sum())


def binary_entropy(p: float) -> float:
    """h_b(p) = -p*log2(p) - (1-p)*log2(1-p)."""
    if not 0.0 <= p <= 1.0:
        raise InvalidStateError(f"binary entropy argument {p} outside [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p))


def node_conditional_entropy(net: BayesNet, i: int) -> float:
    """H(X_i | Parent(X_i)) = sum_pa p(pa) H(row_pa)."""
    cpt = net.cpts[net.id_of(i)]
    p_pa = marginal_table(net, cpt.parents).probs if cpt.parents else np.ones(1)
    return float(p_pa @ -_plogp(cpt.table).sum(axis=1))


def parent_marginals(net: BayesNet) -> list[np.ndarray]:
    """p(Parent(X_i)) for each node i, flat in CPT row order ([1.0] for roots).

    One walk over ``net.order``: when the family of i's last parent u holds
    Parent(X_i) (no other parent's family can), it is summed out of
    p(Parent(u)) * CPT_u by one einsum, else ``marginal_table`` computes it.
    A single parent u takes the einsum straight on the flat CPT rows.
    """
    rank = {v: k for k, v in enumerate(net.order)}
    out = [np.ones(1)] * net.m
    for i in net.order:
        pa = net.cpts[i].parents
        if not pa:
            continue
        if len(pa) == 1:
            out[i] = np.einsum(out[pa[0]], [0], net.cpts[pa[0]].table, [0, 1], [1])
            continue
        u = max(pa, key=rank.__getitem__)
        fam = (*net.cpts[u].parents, u)
        if set(pa) <= set(fam):
            cpt, k = net.cpts[u].table.reshape([net.card(v) for v in fam]), list(range(len(fam)))
            p = np.einsum(out[u].reshape(cpt.shape[:-1]), k[:-1], cpt, k, list(map(fam.index, pa)))
        else:
            p = marginal_table(net, pa).probs
        out[i] = p.reshape(-1)
    return out


def conditional_entropies(net: BayesNet) -> list[float]:
    """H(X_i | Parent(X_i)) for every node in id order, from one ``_plogp`` over
    all CPTs and one ``parent_marginals`` pass."""
    ent = -_plogp(np.concatenate([c.table.ravel() for c in net.cpts]))
    ends = np.cumsum([c.table.size for c in net.cpts])[:-1]
    return [float(p_pa @ e.reshape(c.table.shape).sum(axis=1))
            for c, p_pa, e in zip(net.cpts, parent_marginals(net), np.split(ent, ends))]


def joint_entropy_factorized(net: BayesNet) -> float:
    """Joint entropy via the factorization; never touches the joint table."""
    return sum(conditional_entropies(net))


def joint_entropy_bruteforce(table: JointTable) -> float:
    """Joint entropy from a dense table; oracle route for cross-checks."""
    return entropy_bits(table.probs)


def marginal_entropy(net: BayesNet, i: int) -> float:
    """H(X_i) of the single-variable marginal."""
    return entropy_bits(marginal_table(net, [net.id_of(i)]).probs)


def marginal_entropy_sum(net: BayesNet) -> float:
    """sum_i H(X_i), with p(X_i) = p(Parent(X_i)) @ CPT_i from one
    ``parent_marginals`` pass."""
    return sum(entropy_bits(p_pa @ cpt.table) for cpt, p_pa in zip(net.cpts, parent_marginals(net)))


def redundancy_gap(net: BayesNet) -> float:
    """sum_i H(X_i) - H(X_1..X_m): the rate saved by coding jointly.

    Equals the total correlation sum_i I(X_i; Parent(X_i)); nonnegative up to
    float noise.  Both sums come from ``parent_marginals`` passes, so no
    joint table is built and no joint state-space guard applies.
    """
    return marginal_entropy_sum(net) - joint_entropy_factorized(net)


def _subset_entropy(arr: np.ndarray, axes_keep: Sequence[int]) -> float:
    other = tuple(a for a in range(arr.ndim) if a not in axes_keep)
    return entropy_bits(arr.sum(axis=other) if other else arr)


def conditional_mutual_information(
    table: JointTable,
    a: Sequence[int],
    b: Sequence[int],
    c: Sequence[int] = (),
) -> float:
    """I(A; B | C) in bits from a dense table whose scope covers A, B, C.

    Computed as H(AC) + H(BC) - H(C) - H(ABC), as is: float cancellation can
    leave the value a few ulps under 0.
    """
    pos = {v: k for k, v in enumerate(table.scope)}
    groups = [list(a), list(b), list(c)]
    flat = [v for g in groups for v in g]
    if len(set(flat)) != len(flat):
        raise InvalidStateError(f"variable groups must be disjoint, got {groups}")
    for v in flat:
        if v not in pos:
            raise InvalidStateError(f"variable {v} not in table scope {table.scope}")
    ax = [[pos[v] for v in g] for g in groups]
    arr = table.as_array()
    return (
        _subset_entropy(arr, ax[0] + ax[2])
        + _subset_entropy(arr, ax[1] + ax[2])
        - _subset_entropy(arr, ax[2])
        - _subset_entropy(arr, ax[0] + ax[1] + ax[2])
    )
