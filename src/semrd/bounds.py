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

from .bn import BayesNet, Partition, conditional_partition, marginal_table
from .errors import InvalidStateError
from .info import parent_marginals
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


def _side_first_array(net: BayesNet, side: Sequence[int], targets_vars: Sequence[int]) -> np.ndarray:
    """p(y, x_1..x_b) with the side set flattened into the leading axis.

    The one cut of a rate-distortion source out of a network: the Lemma 1
    joint, the Lemma 2 side + rest table and the CLI's ``rd``/``rd-cond``.
    """
    jt = marginal_table(net, [*side, *targets_vars])
    return jt.probs.reshape(-1, *(net.card(v) for v in targets_vars))


def lemma1_bounds(net: BayesNet, targets: Sequence[float],
                  dspec: DistortionSpec | None = None) -> BoundReport:
    """Evaluate the sandwich at one per-variable target vector.

    Hamming distortion per variable unless ``dspec`` says otherwise.
    """
    targets = tuple(float(t) for t in targets)
    if len(targets) != net.m:
        raise InvalidStateError(f"{len(targets)} targets for {net.m} variables")
    if dspec is None:
        dspec = DistortionSpec.hamming(net.cards)
    # the joint first: a net over the guard is refused before any solve, and
    # every source below is a marginal of it, so none is larger
    joint_arr = _side_first_array(net, [], range(net.m))[0]
    terms = []  # (upper point, lower point) per variable
    for i, (cpt, p_pa) in enumerate(zip(net.cpts, parent_marginals(net))):
        d = dspec.for_var(i)
        up = ba_target(p_pa @ cpt.table, d, targets[i])  # p(x_i)
        lo = up if not cpt.parents else ba_conditional_target(
            (p_pa[:, None] * cpt.table).T, d, targets[i])  # p(x_i, parent config)
        terms.append((up, lo))
    jp = ba_joint_multi_target(joint_arr, [dspec.for_var(i) for i in range(net.m)], targets)
    upper_terms = tuple(up.rate for up, _ in terms)
    lower_terms = tuple(lo.rate for _, lo in terms)
    lower = float(sum(lower_terms))
    upper = float(sum(upper_terms))
    return BoundReport(
        targets=targets,
        lower=lower,
        joint=jp.rate,
        upper=upper,
        lower_terms=lower_terms,
        upper_terms=upper_terms,
        slack_lower=jp.rate - lower,
        slack_upper=upper - jp.rate,
        converged=jp.converged and all(pt.converged for pair in terms for pt in pair),
    )


def lemma2_check(net: BayesNet, side: Sequence[int | str], targets: Sequence[float],
                 dspec: DistortionSpec | None = None) -> DecompositionReport:
    """Compare the joint conditional rate against the per-block sum.

    ``targets`` aligns with the non-side variables in ascending id order.
    Both sides are solved at the same per-variable targets; when the blocks
    really are conditionally independent given the side set the difference is
    solver noise only.
    """
    part = conditional_partition(net, side)
    rest = [v for v in range(net.m) if v not in part.side]
    if not rest:
        raise InvalidStateError("no non-side variables: the side set holds every variable")
    targets = tuple(float(t) for t in targets)
    if len(targets) != len(rest):
        raise InvalidStateError(f"{len(targets)} targets for {len(rest)} non-side variables")
    if dspec is None:
        dspec = DistortionSpec.hamming(net.cards)
    by_var = dict(zip(rest, targets))

    arr = _side_first_array(net, part.side, rest)
    jp = ba_joint_multi_target(arr, [dspec.for_var(v) for v in rest],
                               [by_var[v] for v in rest], side=True)
    conv = jp.converged
    block_rates: list[float] = []
    for block in part.blocks:
        # p(side, block): sum the other blocks' axes out of the one cut table
        barr = arr.sum(axis=tuple(1 + k for k, v in enumerate(rest) if v not in block))
        bp = ba_joint_multi_target(barr, [dspec.for_var(v) for v in block],
                                   [by_var[v] for v in block], side=True)
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
