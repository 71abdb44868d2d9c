"""Structural bounds on the joint rate-distortion function of a network source.

Two results are checked numerically:

* a sandwich on the joint rate at per-variable targets,

      sum_i R_{X_i}(D_i)  >=  R(D_1..D_m)  >=  sum_i R_{X_i | Parent(X_i)}(D_i),

  where the upper route codes marginals independently and the lower route
  conditions each variable on its parents;

* a decomposition: when a side variable splits the remaining variables into
  conditionally independent blocks, the joint conditional rate equals the sum
  of per-block conditional rates, so the blocks may be compressed separately
  without loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bn import DEFAULT_SIZE_GUARD, BayesNet, Partition, conditional_partition, marginal_table
from .errors import InvalidStateError
from .rd import (
    DistortionSpec,
    ba_conditional_target,
    ba_joint_multi_target,
    ba_target,
)


@dataclass(frozen=True)
class BoundReport:
    """Sandwich evaluation at one target vector."""

    targets: tuple[float, ...]
    lower: float
    joint: float
    upper: float
    lower_terms: tuple[float, ...]
    upper_terms: tuple[float, ...]
    slack_lower: float  # joint - lower, >= -tol when everything converged
    slack_upper: float  # upper - joint, >= -tol likewise
    converged: bool


@dataclass(frozen=True)
class DecompositionReport:
    """Joint-vs-blockwise conditional rates given a side set."""

    partition: Partition
    targets: tuple[float, ...]
    joint_conditional: float
    block_rates: tuple[float, ...]
    subset_sum: float
    delta: float  # joint_conditional - subset_sum, ~0 when blocks decompose
    converged: bool


def _side_first_array(net: BayesNet, side: Sequence[int], targets_vars: Sequence[int],
                      limit: int) -> np.ndarray:
    """p(y, x_1..x_b) with the side set flattened into the leading axis."""
    scope = list(side) + list(targets_vars)
    jt = marginal_table(net, scope, limit=limit)
    n_side = int(np.prod([net.card(s) for s in side])) if side else 1
    shape = (n_side,) + tuple(net.card(v) for v in targets_vars)
    return jt.probs.reshape(shape)


def lemma1_bounds(net: BayesNet, targets: Sequence[float],
                  dspec: DistortionSpec | None = None, *,
                  limit: int = DEFAULT_SIZE_GUARD) -> BoundReport:
    """Evaluate the sandwich at one per-variable target vector.

    Hamming distortion per variable unless ``dspec`` says otherwise.
    """
    targets = tuple(float(t) for t in targets)
    if len(targets) != net.m:
        raise InvalidStateError(f"{len(targets)} targets for {net.m} variables")
    if dspec is None:
        dspec = DistortionSpec.hamming(net.cards)
    lower_terms: list[float] = []
    upper_terms: list[float] = []
    seed_slopes: list[float] = []
    conv = True
    for i in range(net.m):
        d = dspec.for_var(i)
        marg = marginal_table(net, [i], limit=limit).probs
        up = ba_target(marg, d, targets[i])
        upper_terms.append(up.rate)
        conv = conv and up.converged
        parents = net.parents(i)
        if not parents:
            lower_terms.append(up.rate)
            seed_slopes.append(up.slope)
        else:
            jt = marginal_table(net, list(parents) + [i], limit=limit)
            n_cfg = int(np.prod([net.card(p) for p in parents]))
            joint_xy = jt.probs.reshape(n_cfg, net.card(i)).T  # (x, parent config)
            lo = ba_conditional_target(joint_xy, d, targets[i])
            lower_terms.append(lo.rate)
            seed_slopes.append(lo.slope)
            conv = conv and lo.converged
    joint_arr = marginal_table(net, list(range(net.m)), limit=limit).probs.reshape(net.cards)
    jp = ba_joint_multi_target(joint_arr, [dspec.for_var(i) for i in range(net.m)],
                               targets, limit=limit,
                               init_slopes=seed_slopes)
    conv = conv and jp.converged
    lower = float(sum(lower_terms))
    upper = float(sum(upper_terms))
    return BoundReport(
        targets=targets,
        lower=lower,
        joint=jp.rate,
        upper=upper,
        lower_terms=tuple(lower_terms),
        upper_terms=tuple(upper_terms),
        slack_lower=jp.rate - lower,
        slack_upper=upper - jp.rate,
        converged=conv,
    )


def lemma2_check(net: BayesNet, side: Sequence[int | str], targets: Sequence[float],
                 dspec: DistortionSpec | None = None, *,
                 limit: int = DEFAULT_SIZE_GUARD) -> DecompositionReport:
    """Compare the joint conditional rate against the per-block sum.

    ``targets`` aligns with the non-side variables in ascending id order.
    Both sides are solved at the same per-variable targets; when the blocks
    really are conditionally independent given the side set the difference is
    solver noise only.
    """
    part = conditional_partition(net, side)
    rest = [v for v in range(net.m) if v not in part.side]
    targets = tuple(float(t) for t in targets)
    if len(targets) != len(rest):
        raise InvalidStateError(f"{len(targets)} targets for {len(rest)} non-side variables")
    if dspec is None:
        dspec = DistortionSpec.hamming(net.cards)
    by_var = dict(zip(rest, targets))

    arr = _side_first_array(net, part.side, rest, limit)
    jp = ba_joint_multi_target(arr, [dspec.for_var(v) for v in rest],
                               [by_var[v] for v in rest],
                               side=True, limit=limit)
    conv = jp.converged
    block_rates: list[float] = []
    for block in part.blocks:
        barr = _side_first_array(net, part.side, list(block), limit)
        bp = ba_joint_multi_target(barr, [dspec.for_var(v) for v in block],
                                   [by_var[v] for v in block],
                                   side=True, limit=limit)
        block_rates.append(bp.rate)
        conv = conv and bp.converged
    subset_sum = float(sum(block_rates))
    return DecompositionReport(
        partition=part,
        targets=targets,
        joint_conditional=jp.rate,
        block_rates=tuple(block_rates),
        subset_sum=subset_sum,
        delta=jp.rate - subset_sum,
        converged=conv,
    )
