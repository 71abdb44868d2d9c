"""Ready-made networks: bundled examples, symmetric binary families, random nets.

The two symmetric families mirror the classic fork and chain over a binary
side variable.  In both, every pairwise joint with the middle variable is the
doubly symmetric matrix

    p(x, y) = [[(1-p)/2, p/2], [p/2, (1-p)/2]]

whose conditional given y is a symmetric flip channel, so the conditional
rate-distortion function has the closed form h_b(p) - h_b(D).
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from .bn import BayesNet, load_net, make_net

BUNDLED = ("fork", "chain", "scene")


def bsc_rows(p: float) -> list[list[float]]:
    """Symmetric flip channel as CPT rows."""
    return [[1.0 - p, p], [p, 1.0 - p]]


def doubly_symmetric_joint(p: float) -> np.ndarray:
    """2x2 joint of a uniform bit observed through a symmetric flip channel."""
    return np.array([[(1.0 - p) / 2.0, p / 2.0], [p / 2.0, (1.0 - p) / 2.0]])


def doubly_symmetric_fork(p1: float, p2: float) -> BayesNet:
    """Y -> X1, Y -> X2 with uniform root and flip probabilities p1, p2."""
    return make_net(
        [("Y", 2), ("X1", 2), ("X2", 2)],
        [
            ("Y", [], [[0.5, 0.5]]),
            ("X1", ["Y"], bsc_rows(p1)),
            ("X2", ["Y"], bsc_rows(p2)),
        ],
    )


def doubly_symmetric_chain(p1: float, p2: float) -> BayesNet:
    """X1 -> Y -> X2 with uniform head and flip probabilities p1, p2."""
    return make_net(
        [("X1", 2), ("Y", 2), ("X2", 2)],
        [
            ("X1", [], [[0.5, 0.5]]),
            ("Y", ["X1"], bsc_rows(p1)),
            ("X2", ["Y"], bsc_rows(p2)),
        ],
    )


def binary_chain(m: int, p: float = 0.3) -> BayesNet:
    """Markov chain of m bits, each flipping the previous with probability p."""
    variables = [(f"X{i}", 2) for i in range(m)]
    cpts = [("X0", [], [[0.5, 0.5]])]
    cpts += [(f"X{i}", [f"X{i - 1}"], bsc_rows(p)) for i in range(1, m)]
    return make_net(variables, cpts)


def random_net(seed: int, n_vars: int, max_card: int = 2, max_parents: int = 2) -> BayesNet:
    """Random structure + flat Dirichlet(1) CPT rows; deterministic per seed.

    Parents are drawn among lower-id variables, so ids are already a
    topological order.
    """
    rng = np.random.default_rng(seed)
    cards = rng.integers(2, max_card + 1, size=n_vars)
    variables = [(f"V{i}", int(cards[i])) for i in range(n_vars)]
    cpts = []
    for i in range(n_vars):
        n_par = int(rng.integers(0, min(i, max_parents) + 1))
        parents = sorted(rng.choice(i, size=n_par, replace=False).tolist()) if n_par else []
        n_cfg = int(np.prod([cards[p] for p in parents])) if parents else 1
        rows = rng.dirichlet(np.ones(int(cards[i])), size=n_cfg)
        rows /= rows.sum(axis=1, keepdims=True)
        cpts.append((f"V{i}", [f"V{p}" for p in parents], rows.tolist()))
    return make_net(variables, cpts)


def bundled_path(name: str):
    """Filesystem path of a bundled example network."""
    if name not in BUNDLED:
        raise KeyError(f"no bundled network {name!r}; available: {', '.join(BUNDLED)}")
    return resources.files("semrd.data") / f"{name}.json"


def load_bundled(name: str) -> BayesNet:
    return load_net(bundled_path(name))
