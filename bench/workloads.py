"""Op lists for the three workloads, and the output check of every op.

An op list is fixed by (workload, seed, seconds): the same arguments give
the same ops in the same order.  List lengths scale with ``seconds`` so that
one pass over the list takes about that long on a 2-vCPU machine at the seed
code's speed; op kinds are shuffled together so that no kind runs in a block.

Each op is a ``run`` callable, timed by the caller, and a ``check`` callable
run afterwards outside the timed region.  ``check`` returns None when the
output is correct and a message otherwise.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import semrd.bn as bn
import semrd.bounds as bounds
import semrd.cli as cli
import semrd.codec as codec
import semrd.info as info
from semrd.nets import (
    binary_chain,
    doubly_symmetric_chain,
    doubly_symmetric_fork,
    load_bundled,
    random_net,
)

WORKLOADS = ("bounds", "lossless", "cli")

# Test 7 and test 8 windows.
SANDWICH_TOL = 2e-4
DECOMPOSITION_TOL = 2e-4
# Test 1 oracle tolerance, and the joint size up to which the brute-force
# entropy is computed (outside the timed region, once per net).
ENTROPY_TOL = 1e-9
ORACLE_STATES = 2**16
# One pass over an op list is sized for this many seconds at the counts
# below, on a 2-vCPU VM in a slow spell (about 2/3 of that in a fast one).
BASE_SECONDS = 25.0


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def _count(base: float, seconds: float) -> int:
    return math.ceil(base * seconds / BASE_SECONDS)


def _sizes(lo: float, hi: float, n: int) -> list[int]:
    """n sizes spread evenly over [lo, hi].

    Sizes are the same on every seed, which draws only the content (CPT
    rows, structures, samples).  Cost per op grows steeply with size, so
    drawing sizes per seed would move the median and tail op from seed to
    seed even on identical code.
    """
    return [round(lo + (hi - lo) * (k + 0.5) / n) for k in range(n)]


# ---------------------------------------------------------------------------
# bounds: Lemma 1 grids and Lemma 2 checks
# ---------------------------------------------------------------------------


def test7_pool(n: int):
    """The first ``n`` grids of acceptance test 7, grid 0 of every net first.

    Test 7 draws 50 nets (seeds 1000-1049, 2-4 variables, cardinality <= 3)
    and 5 target vectors on [0.03, 0.45] per net.  Grid cost spans 10 ms to
    several seconds, so a pool drawn afresh for every seed would make the
    cost of a pass swing by a third from seed to seed; this pool is the same
    on every seed, which only reorders it.
    """
    nets, rngs = [], []
    for j in range(50):
        rng = np.random.default_rng(1000 + j)
        nets.append(random_net(1000 + j, int(rng.integers(2, 5)), max_card=3))
        rngs.append(rng)
    pool = []
    for _ in range(5):
        for net, rng in zip(nets, rngs):
            pool.append((net, tuple(float(t) for t in rng.uniform(0.03, 0.45, size=net.m))))
    return pool[:n]


def _grid_op(group, net, targets) -> Op:
    def run():
        return bounds.lemma1_bounds(net, targets)

    def check(rep):
        if rep.converged and not rep.lower - SANDWICH_TOL <= rep.joint <= rep.upper + SANDWICH_TOL:
            return (f"{group} grid {targets}: joint {rep.joint:.6f} outside "
                    f"[{rep.lower:.6f}, {rep.upper:.6f}]")
        return None

    return Op(f"lemma1_bounds:{group}", run, check)


def _lemma2_op(shape, p1, p2) -> Op:
    net = shape(p1, p2)

    def run():
        return bounds.lemma2_check(net, ["Y"], (0.05, 0.05))

    def check(rep):
        if abs(rep.delta) > DECOMPOSITION_TOL:
            return f"{shape.__name__}({p1:.4f}, {p2:.4f}): delta {rep.delta:.3e}"
        return None

    return Op("lemma2_check", run, check)


# The tail rung: a scene grid that converges in about 0.6 s on a 2-vCPU VM,
# run TAIL_RUNG times per pass.  Only three test 7 grids of the pool cost
# more, so the tail op (10 ops beyond it) is the eighth of the rung: an
# order statistic of identical ops rather than whichever test 7 grid lands
# there, whose neighbours lie only 10 % apart in cost.
TAIL_TARGETS = (0.16, 0.163, 0.067, 0.103)
TAIL_RUNG = 12
# Flip probabilities of the Lemma 2 checks in test 8, on both shapes.  With
# seeded ones the median op's cost moved with the seed (spread 0.11 over
# ten runs).
TEST8_FLIPS = (0.05, 0.1, 0.2, 0.3)
# The median rung: test 8's reference check, fork (0.1, 0.1), about 30 ms,
# run MEDIAN_RUNG more times per pass.  The 32 checks of test 8 cost 1-80 ms
# with no two alike, so on their own the median op was whichever check
# landed there (spread 0.10 over five runs); with the rung it is an order
# statistic of identical ops, about the eleventh of the rung.
MEDIAN_RUNG = 16


def bounds_ops(seed: int, seconds: float) -> list[Op]:
    """Test 7 grids, the tail rung, cheap seeded grids, test 8 and the median rung.

    The test 7 pool, the scene rung, the Lemma 2 checks of test 8 and the
    median rung are the same on every seed, so the tail op, the median op
    and the pass cost move only with the code and the machine; the seed
    draws the order and the targets of the fork and chain grids (1-25 ms).
    """
    rng = np.random.default_rng(seed)
    ops = [_grid_op("test7", net, t) for net, t in test7_pool(_count(20, seconds))]
    scene = load_bundled("scene")
    ops += [_grid_op("scene", scene, TAIL_TARGETS) for _ in range(_count(TAIL_RUNG, seconds))]
    for k in range(_count(20, seconds)):
        name = ("fork", "chain")[k % 2]
        ops.append(_grid_op(name, load_bundled(name),
                            tuple(float(t) for t in rng.uniform(0.03, 0.45, 3))))
    test8 = [(shape, p1, p2) for p1 in TEST8_FLIPS for p2 in TEST8_FLIPS
             for shape in (doubly_symmetric_fork, doubly_symmetric_chain)]
    ops += [_lemma2_op(*args) for args in test8[:_count(len(test8), seconds)]]
    ops += [_lemma2_op(doubly_symmetric_fork, 0.1, 0.1)
            for _ in range(_count(MEDIAN_RUNG, seconds))]
    rng.shuffle(ops)
    return ops


def bounds_warmup() -> None:
    bounds.lemma1_bounds(load_bundled("fork"), (0.1, 0.05, 0.2))
    bounds.lemma2_check(doubly_symmetric_fork(0.1, 0.1), ["Y"], (0.05, 0.05))


# ---------------------------------------------------------------------------
# lossless: entropy, codebooks, expected length, sampling, encode, decode
# ---------------------------------------------------------------------------


def _lossless_op(kind, net, n, sample_seed, oracle: dict) -> Op:
    def run():
        h = info.joint_entropy_factorized(net)
        fcb = codec.build_factorized_codebooks(net)
        el = codec.expected_length(fcb, net)
        x = bn.sample(net, n, sample_seed)
        y = codec.decode(fcb, codec.encode(fcb, x))
        return h, el, x, y

    def check(out):
        h, el, x, y = out
        if not np.array_equal(x, y):
            return f"{kind} m={net.m}: decode(encode(x)) != x"
        if not h - ENTROPY_TOL <= el < h + net.m:
            return f"{kind} m={net.m}: E[len] {el:.6f} outside [H, H + m) with H={h:.6f}"
        if net.joint_states() <= ORACLE_STATES:
            key = net.digest()
            if key not in oracle:
                oracle[key] = info.joint_entropy_bruteforce(bn.enumerate_joint(net))
            if abs(h - oracle[key]) > ENTROPY_TOL:
                return f"{kind} m={net.m}: factorized H {h!r} != brute force {oracle[key]!r}"
        return None

    return Op(kind, run, check)


# Chain rungs: (length, chains per pass).  Per-op latency on a shared 2-vCPU
# host swings by a third within seconds, so the median and the tail op are
# placed inside a rung of identical-size chains, where they are order
# statistics of many equal ops rather than one op's latency: the median
# falls in the middle of the 120 rung (14 codec-only ops below it, 18 chains
# of 180 above), and the tail op (10 ops beyond it) is the eighth cheapest
# 180 chain.  A 180 chain costs about twice a 120 chain, which costs twice
# the dearest codec-only op.  Chains stay under about 0.6 s each: host
# speed is measured between ops, and in longer ops it changes unseen (with
# 220-node chains of 0.9 s, the tail op spread 0.12 over five runs).
CHAIN_RUNGS = ((120, 18), (180, 18))
CHAIN_SAMPLES = 600


def lossless_ops(seed: int, seconds: float) -> list[Op]:
    """Long chains load the structure layer, many samples load the codec.

    ``marginal_table`` rebuilds the ancestral closure per node, so entropy
    and expected length cost grows with the square of chain length; encode
    and decode cost one Python step per symbol.  Chain ops carry both kinds
    of work; bundled and wide nets carry only codec work.  Each half takes
    between a third and two thirds of a pass.  Sizes are the same on every
    seed, which draws the content (flip probabilities, structures, CPT rows,
    samples).
    """
    rng = np.random.default_rng(seed)
    oracle: dict = {}
    ops = []
    for m, count in CHAIN_RUNGS:
        for _ in range(_count(count, seconds)):
            net = binary_chain(m, float(rng.uniform(0.05, 0.45)))
            ops.append(_lossless_op("chain", net, CHAIN_SAMPLES, int(rng.integers(2**31)), oracle))
    bundled = [load_bundled(name) for name in ("fork", "chain", "scene")]
    for k, n in enumerate(_sizes(6_000, 14_000, _count(7, seconds))):
        ops.append(_lossless_op("bundled", bundled[k % 3], n, int(rng.integers(2**31)), oracle))
    for m in _sizes(30, 70, _count(7, seconds)):
        net = random_net(int(rng.integers(2**31)), m, max_card=3, max_parents=2)
        ops.append(_lossless_op("wide", net, 1_500, int(rng.integers(2**31)), oracle))
    rng.shuffle(ops)
    return ops


def lossless_warmup() -> None:
    _lossless_op("warmup", load_bundled("fork"), 1_000, 0, {}).run()


# ---------------------------------------------------------------------------
# cli: one `python -m semrd.cli` child at a time
# ---------------------------------------------------------------------------


def _cli_commands(rng, workdir: str) -> tuple[list[list[str]], ...]:
    """The README's command list on the bundled nets, with seeded numbers.

    Returns (light, sweeps).  Light commands cost 0.45-0.7 s, most of it
    interpreter start and import; seeded targets go only to commands on
    ``fork`` and ``chain``, whose cost does not depend on them.  The sweeps
    are the four slope sweeps on ``scene``, dearest first: 1.6-2.3 s for
    the first two, 1.1-1.6 s and 0.9-1.3 s for the last two.
    """
    def u(lo, hi, n=1):
        return ",".join(f"{v:.4f}" for v in rng.uniform(lo, hi, n))

    samples = os.path.join(workdir, "draws.csv")
    stream = os.path.join(workdir, "draws.bnhc")
    light = [
        ["encode", "fork", samples, "-o", os.path.join(workdir, "out.bnhc")],
        ["decode", "fork", stream],
        ["verify", "fork"],
        ["entropy", "scene"],
        ["sample", "scene", "-n", str(int(rng.integers(1000, 3000))),
         "--seed", str(int(rng.integers(2**31)))],
        ["codec-report", "scene"],
        ["rd", "fork", "--vars", "X1", "--targets", u(0.03, 0.3)],
        ["rd", "scene", "--vars", "sky,grass", f"--slopes={u(-4.0, -0.5, 2)}"],
        ["rd-cond", "fork", "--side", "Y", "--targets", u(0.03, 0.2, 2)],
        ["rd-closed-form", "binary", u(0.1, 0.4), u(0.01, 0.1)],
        ["bounds", "fork", "--targets", u(0.03, 0.45, 3)],
        ["lemma2", "chain", "--side", "Y", "--targets", u(0.03, 0.2, 2)],
    ]
    sweeps = [
        ["rd", "scene", "--sweep", "25"],
        ["rd-cond", "scene", "--side", "light", "--sweep", "25"],
        ["rd-cond", "scene", "--side", "scene", "--sweep", "25"],
        ["rd-cond", "scene", "--side", "grass", "--sweep", "25"],
    ]
    return light, sweeps


def cli_prepare(workdir: str, seed: int) -> None:
    """Write the samples file and the stream that encode and decode read."""
    net = load_bundled("fork")
    draws = bn.sample(net, 2_000, seed)
    with open(os.path.join(workdir, "draws.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(",".join(str(s) for s in row) for row in draws) + "\n")
    stream = codec.encode(codec.build_factorized_codebooks(net), draws)
    with open(os.path.join(workdir, "draws.bnhc"), "wb") as fh:
        fh.write(stream.to_bytes())


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(bn.__file__)))
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], workdir: str, env: dict) -> tuple[int, bytes]:
    proc = subprocess.run([sys.executable, "-m", "semrd.cli", *argv], cwd=workdir, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout


def run_in_process(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.run(list(argv))
    return rc, out.getvalue().encode()


def _cli_op(argv, runner, seen: dict) -> Op:
    key = tuple(argv)
    out_file = argv[argv.index("-o") + 1] if "-o" in argv else None

    def check(out):
        rc, stdout = out
        if rc != 0:
            return f"{' '.join(argv)}: exit code {rc}"
        if out_file is not None:
            with open(out_file, "rb") as fh:
                stdout += fh.read()
        if seen.setdefault(key, stdout) != stdout:
            return f"{' '.join(argv)}: output differs from the previous run"
        return None

    return Op(argv[0], lambda: runner(argv), check)


def cli_ops(seed: int, seconds: float, workdir: str, in_process: bool = False) -> list[Op]:
    """Every command at least twice, so that every run checks byte-identical output.

    Only the repeats scale with ``seconds``.  At the full size every command
    runs twice and the cheapest sweep six times more: 14 sweeps sit above
    every light command, and the tail op (10 ops beyond it) falls in the
    middle of the eight runs of the cheapest sweep rather than at the edge
    of a cluster of different commands.
    """
    rng = np.random.default_rng(seed)
    light, sweeps = _cli_commands(rng, workdir)
    if in_process:
        runner = run_in_process
    else:
        env = child_env()

        def runner(argv):
            return run_child(argv, workdir, env)

    seen: dict = {}
    argvs = ((light + sweeps) * max(2, _count(2, seconds))
             + sweeps[-1:] * max(2, _count(6, seconds)))
    ops = [_cli_op(argv, runner, seen) for argv in argvs]
    rng.shuffle(ops)
    return ops


def cli_warmup(workdir: str) -> None:
    rc, _ = run_child(["rd-closed-form", "binary", "0.1", "0.05"], workdir, child_env())
    if rc != 0:
        raise RuntimeError(f"semrd.cli warm-up exited with {rc}")
