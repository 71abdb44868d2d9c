"""End-to-end acceptance checks.

Each test here covers one headline guarantee of the package, in order:

1. factorized joint entropy matches brute-force enumeration on 200 random nets
2. the redundancy gap is nonnegative and decomposes into per-edge informations
3. the codec round-trips bulk samples with expected lengths in the stated windows
4. codebook construction cost scales with the factorization, not the joint
5. the conditional solver reproduces the binary closed form on a grid
6. the quadratic-source closed form hits its reference points exactly
7. the joint rate sits inside the sandwich bounds on random nets
8. two-sided side information splits the joint rate across independent blocks
9. every CLI subcommand prints byte-identical output on repeated runs

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.
"""

import contextlib
import io
import time

import numpy as np
import pytest

import semrd
from semrd import (
    binary_conditional_rd,
    binary_entropy,
    build_factorized_codebooks,
    build_joint_huffman,
    conditional_mutual_information,
    decode,
    encode,
    enumerate_joint,
    expected_length,
    gaussian_conditional_rd,
    joint_entropy_bruteforce,
    joint_entropy_factorized,
    lemma1_bounds,
    lemma2_check,
    load_bundled,
    random_net,
    redundancy_gap,
    sample,
)
from semrd.cli import run
from semrd.errors import SizeGuardError
from semrd.nets import (
    binary_chain,
    doubly_symmetric_chain,
    doubly_symmetric_fork,
    doubly_symmetric_joint,
)
from semrd.rd import ba_conditional_target, hamming_distortion


def _random_net_pool():
    """200 networks: even seeds binary up to 12 nodes, odd seeds ternary up to 8."""
    nets = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        if seed % 2 == 0:
            nets.append(random_net(seed, int(rng.integers(2, 13)), max_card=2))
        else:
            nets.append(random_net(seed, int(rng.integers(2, 9)), max_card=3))
    return nets


def test_1_factorized_entropy_matches_bruteforce_on_200_random_nets():
    t0 = time.perf_counter()
    worst = 0.0
    for net in _random_net_pool():
        h_fact = joint_entropy_factorized(net)
        h_brute = joint_entropy_bruteforce(enumerate_joint(net))
        worst = max(worst, abs(h_fact - h_brute))
        assert abs(h_fact - h_brute) <= 1e-9
    elapsed = time.perf_counter() - t0
    print(f"entropy oracle: worst gap {worst:.3e} bits over 200 nets, {elapsed:.2f}s")
    assert elapsed < 30.0


def test_2_redundancy_gap_nonnegative_and_decomposes():
    for net in _random_net_pool():
        gap = redundancy_gap(net)
        assert gap >= -1e-9
        table = enumerate_joint(net)
        acc = 0.0
        for i in range(net.m):
            parents = net.parents(i)
            if parents:
                acc += conditional_mutual_information(table, [i], list(parents))
        assert abs(gap - acc) <= 1e-9
    print("redundancy gap: nonnegative and equal to the per-edge information sum")


def test_3_codec_round_trip_and_length_windows():
    for name in ("fork", "chain", "scene"):
        net = load_bundled(name)
        t0 = time.perf_counter()
        fcb = build_factorized_codebooks(net)
        draws = sample(net, 100_000, seed=17)
        restored = decode(fcb, encode(fcb, draws))
        np.testing.assert_array_equal(restored, draws)
        h = joint_entropy_factorized(net)
        fact_len = expected_length(fcb, net)
        table = enumerate_joint(net)
        joint_len = expected_length(build_joint_huffman(table), table)
        assert h - 1e-9 <= fact_len < h + net.m
        assert h - 1e-9 <= joint_len < h + 1.0
        assert joint_len <= fact_len + 1e-9
        elapsed = time.perf_counter() - t0
        print(f"{name}: H={h:.4f}, E[len] factorized={fact_len:.4f}, "
              f"joint={joint_len:.4f}, {elapsed:.2f}s")
        assert elapsed < 10.0


def test_4_codebook_cost_scales_with_factorization(monkeypatch):
    net = binary_chain(20)
    t0 = time.perf_counter()
    fcb = build_factorized_codebooks(net)
    build_seconds = time.perf_counter() - t0
    assert fcb.entries_touched <= 20 * 2 * 2
    assert net.joint_states() == 2**20
    assert build_seconds < 0.050
    monkeypatch.setenv("SEMRD_SIZE_GUARD", str(2**16))
    with pytest.raises(SizeGuardError):
        enumerate_joint(net)
    print(f"20-node chain: {fcb.entries_touched} entries touched "
          f"(joint would need {net.joint_states()}), build {build_seconds * 1e3:.2f}ms")


def test_5_conditional_solver_matches_binary_closed_form():
    d = hamming_distortion(2)
    t0 = time.perf_counter()
    worst = 0.0
    for p in (0.05, 0.1, 0.2, 0.3):
        joint = doubly_symmetric_joint(p)
        for target in np.linspace(p / 9, p, 9):
            got = ba_conditional_target(joint, d, float(target)).rate
            want = binary_conditional_rd(p, float(target))
            worst = max(worst, abs(got - want))
            assert abs(got - want) <= 1e-4
    elapsed = time.perf_counter() - t0
    print(f"closed-form grid: worst error {worst:.3e} bits, {elapsed:.2f}s")
    assert elapsed < 5.0


def test_6_gaussian_closed_form_reference_points():
    assert gaussian_conditional_rd(1.0, 0.0, 0.25) == 1.0
    assert gaussian_conditional_rd(1.0, 0.0, 1.0) == 0.0
    for sigma, r in ((1.0, 0.0), (2.0, 0.5), (0.7, -0.9)):
        ceiling = sigma**2 * (1 - r**2)
        assert gaussian_conditional_rd(sigma, r, ceiling) == 0.0
        assert gaussian_conditional_rd(sigma, r, 2 * ceiling) == 0.0
    print("quadratic closed form: reference points exact")


def test_7_sandwich_bounds_on_random_nets():
    t0 = time.perf_counter()
    checked, skipped = 0, []
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        net = random_net(1000 + seed, int(rng.integers(2, 5)), max_card=3)
        for g in range(5):
            targets = tuple(float(t) for t in rng.uniform(0.03, 0.45, size=net.m))
            rep = lemma1_bounds(net, targets)
            if not rep.converged:
                skipped.append(5 * seed + g)  # grids numbered in test order from 0
                continue
            checked += 1
            assert rep.lower - 2e-4 <= rep.joint <= rep.upper + 2e-4, (seed, targets)
    elapsed = time.perf_counter() - t0
    print(f"sandwich: {checked} converged grids inside bounds, "
          f"{len(skipped)} skipped (grids {skipped}), {elapsed:.1f}s")
    assert checked >= 200  # the solver should converge on the vast majority
    assert elapsed < 300.0


def test_8_two_sided_decomposition_splits_the_rate():
    worst = 0.0
    for shape in (doubly_symmetric_fork, doubly_symmetric_chain):
        for p1 in (0.05, 0.1, 0.2, 0.3):
            for p2 in (0.05, 0.1, 0.2, 0.3):
                net = shape(p1, p2)
                rep = lemma2_check(net, ["Y"], (0.05, 0.05))
                worst = max(worst, abs(rep.delta))
                assert abs(rep.delta) <= 2e-4, (shape.__name__, p1, p2)
                if p1 == p2 == 0.1:
                    assert rep.joint_conditional == pytest.approx(0.36520, abs=2e-4)
    print(f"decomposition: worst block-sum mismatch {worst:.3e} bits")


def test_9_cli_output_is_byte_identical_across_runs(tmp_path):
    samples = tmp_path / "draws.csv"
    stream = tmp_path / "draws.bnhc"

    def invoke(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = run(list(argv))
        assert rc == 0, argv
        return out.getvalue().encode()

    samples.write_bytes(invoke(["sample", "fork", "-n", "64", "--seed", "5"]))
    invoke(["encode", "fork", str(samples), "-o", str(stream)])
    first_stream = stream.read_bytes()

    argvs = [
        ["verify", "fork"], ["verify", "chain"], ["verify", "scene"],
        ["entropy", "fork"], ["entropy", "chain"], ["entropy", "scene"],
        ["sample", "scene", "-n", "50", "--seed", "12"],
        ["encode", "fork", str(samples), "-o", str(stream)],
        ["decode", "fork", str(stream)],
        ["codec-report", "fork"], ["codec-report", "scene"],
        ["rd", "fork", "--vars", "X1", "--targets", "0.1"],
        ["rd", "scene", "--vars", "sky,grass", "--slopes=-2,-1"],
        ["rd", "chain", "--vars", "X1,X2", "--sweep", "5"],
        ["rd-cond", "fork", "--side", "Y", "--targets", "0.05,0.05"],
        ["rd-cond", "chain", "--side", "Y", "--sweep", "5"],
        ["rd-closed-form", "binary", "0.1", "0.05"],
        ["rd-closed-form", "gaussian", "1.0", "0.0", "0.25"],
        ["bounds", "fork", "--targets", "0.1,0.05,0.2"],
        ["lemma2", "fork", "--side", "Y", "--targets", "0.05,0.05"],
        ["lemma2", "chain", "--side", "Y", "--targets", "0.1,0.2"],
    ]
    for argv in argvs:
        assert invoke(argv) == invoke(argv), argv
    assert stream.read_bytes() == first_stream
    print(f"determinism: {len(argvs)} subcommand invocations byte-stable")
