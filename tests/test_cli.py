"""Command-line interface: outputs, exit codes, determinism, file round-trips."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import semrd
import semrd.cli
from semrd.cli import run


def invoke(argv, env=None, monkeypatch=None):
    if env and monkeypatch:
        for k, v in env.items():
            monkeypatch.setenv(k, v)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = run(list(argv))
        except SystemExit as exc:  # argparse-level usage errors
            rc = int(exc.code or 0)
    return rc, out.getvalue(), err.getvalue()


def test_verify_bundled_nets_pass():
    for name in ("fork", "chain", "scene"):
        rc, out, _ = invoke(["verify", name])
        assert rc == 0
        assert all(line.endswith(",ok") for line in out.strip().splitlines())
        assert out.startswith("check,structure,ok")


def test_verify_reports_broken_net(tmp_path):
    bad = {"variables": [{"name": "A", "cardinality": 2}],
           "edges": [],
           "cpts": [{"child": "A", "parents": [], "rows": [[0.6, 0.6]]}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    rc, out, err = invoke(["verify", str(path)])
    assert rc == 1
    assert "row sum" in out + err


def test_verify_rejects_non_finite_probabilities(tmp_path):
    doc = {"variables": [{"name": "A", "cardinality": 2}],
           "edges": [],
           "cpts": [{"child": "A", "parents": [], "rows": [[float("nan"), 0.5]]}]}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))  # written as the JSON token NaN
    with pytest.raises(semrd.SchemaError, match="non-finite"):
        semrd.load_net(path)
    for cmd in ("verify", "entropy"):
        rc, out, err = invoke([cmd, str(path)])
        assert rc == 1
        assert out == ""
        assert "non-finite" in err


def test_verify_refuses_a_net_without_variables(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"variables": [], "edges": [], "cpts": []}))
    rc, out, err = invoke(["verify", str(path)])
    assert rc == 1
    assert out == ""
    assert "no variables" in err


def test_entropy_fork_exact_output():
    rc, out, _ = invoke(["entropy", "fork"])
    assert rc == 0
    assert out == (
        "section,key,value_bits\n"
        "node,Y,1\n"
        "node,X1,0.468995593589\n"
        "node,X2,0.468995593589\n"
        "summary,joint_entropy,1.93799118718\n"
        "summary,marginal_entropy_sum,3\n"
        "summary,redundancy_gap,1.06200881282\n"
    )


def test_entropy_accepts_path(tmp_path, scene_net):
    path = tmp_path / "scene.json"
    semrd.save_net(scene_net, path)
    rc, out, _ = invoke(["entropy", str(path)])
    assert rc == 0
    assert "summary,joint_entropy," in out


def test_sample_deterministic_given_seed():
    rc, a, _ = invoke(["sample", "fork", "-n", "50", "--seed", "9"])
    rc2, b, _ = invoke(["sample", "fork", "-n", "50", "--seed", "9"])
    assert rc == rc2 == 0
    assert a == b
    rows = a.strip().splitlines()
    assert len(rows) == 50
    assert all(len(r.split(",")) == 3 for r in rows)
    _, c, _ = invoke(["sample", "fork", "-n", "50", "--seed", "10"])
    assert c != a


def test_encode_decode_round_trip(tmp_path):
    samples = tmp_path / "draws.csv"
    stream = tmp_path / "draws.bnhc"
    rc, out, _ = invoke(["sample", "chain", "-n", "200", "--seed", "4"])
    samples.write_text(out)
    rc, _, _ = invoke(["encode", "chain", str(samples), "-o", str(stream)])
    assert rc == 0
    assert stream.read_bytes()[:4] == b"BNHC"
    rc, decoded, _ = invoke(["decode", "chain", str(stream)])
    assert rc == 0
    assert decoded == out


def test_decode_wrong_net_fails(tmp_path):
    samples = tmp_path / "draws.csv"
    stream = tmp_path / "draws.bnhc"
    _, out, _ = invoke(["sample", "fork", "-n", "20", "--seed", "1"])
    samples.write_text(out)
    invoke(["encode", "fork", str(samples), "-o", str(stream)])
    rc, _, err = invoke(["decode", "chain", str(stream)])
    assert rc == 1
    assert "codebook" in err.lower() or "digest" in err.lower()


def test_sample_refuses_huge_counts():
    rc, out, err = invoke(["sample", "fork", "-n", "1099511627776"])
    assert rc == 1
    assert out == ""
    assert err.startswith("semrd: ")
    assert "guard" in err


def test_decode_rejects_header_count_beyond_payload(tmp_path):
    stream = tmp_path / "huge.bnhc"
    stream.write_bytes(semrd.Bitstream(2**36, semrd.load_bundled("fork").digest(), b"\x00").to_bytes())
    rc, out, err = invoke(["decode", "fork", str(stream)])
    assert rc == 1
    assert out == ""
    assert err.startswith("semrd: ")


def test_codec_report_stdout_is_deterministic():
    rc, a, err_a = invoke(["codec-report", "fork"])
    rc2, b, _ = invoke(["codec-report", "fork"])
    assert rc == rc2 == 0
    assert a == b  # timing noise goes to stderr, not stdout
    assert "joint_entropy_bits,1.93799118718" in a
    assert "factorized_expected_length_bits,3" in a
    assert "joint_expected_length_bits,2.04" in a
    assert err_a.startswith("timings:")


def test_rd_targets_output():
    rc, out, _ = invoke(["rd", "fork", "--vars", "X1", "--targets", "0.1"])
    assert rc == 0
    header, row = out.strip().splitlines()
    assert header == "slope_X1,rate_bits,distortion_X1,iterations,converged"
    fields = row.split(",")
    assert float(fields[1]) == pytest.approx(1 - semrd.binary_entropy(0.1), abs=1e-4)
    assert float(fields[2]) <= 0.1 + 1e-6
    assert fields[4] == "true"


def test_rd_slopes_output():
    rc, out, _ = invoke(["rd", "fork", "--vars", "X1", "--slopes=-2"])
    assert rc == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[0] == "-2"


def test_rd_sweep_row_count():
    rc, out, _ = invoke(["rd", "fork", "--vars", "X1,X2", "--sweep", "7"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert lines[0].startswith("slope_X1,slope_X2,rate_bits,")


def test_rd_cond_matches_two_sided_reference():
    rc, out, _ = invoke(
        ["rd-cond", "fork", "--side", "Y", "--targets", "0.05,0.05"]
    )
    assert rc == 0
    row = out.strip().splitlines()[1].split(",")
    rate = float(row[2])
    assert rate == pytest.approx(0.36519727294664994, abs=2e-4)


def test_rd_closed_form_binary():
    rc, out, _ = invoke(["rd-closed-form", "binary", "0.1", "0.05"])
    assert rc == 0
    assert out == "0.182599\n"


def test_rd_closed_form_gaussian():
    rc, out, _ = invoke(["rd-closed-form", "gaussian", "1.0", "0.0", "0.25"])
    assert rc == 0
    assert out == "1.000000\n"


@pytest.mark.parametrize("argv, message", [
    (["rd-closed-form", "binary", "0.2"], "binary needs 2 parameters"),
    (["rd-closed-form", "gaussian", "1", "0.5"], "gaussian needs 3 parameters"),
], ids=["binary", "gaussian"])
def test_rd_closed_form_refuses_a_parameter_count(argv, message):
    rc, out, err = invoke(argv)
    assert (rc, out, err) == (2, "", f"semrd: {message}\n")


def test_encode_names_the_line_of_a_short_sample(tmp_path):
    # line 2 is blank and skipped; line 3 has two of fork's three states
    samples = tmp_path / "draws.csv"
    samples.write_text("0,1,0\n\n0,1\n")
    rc, out, err = invoke(["encode", "fork", str(samples), "-o", str(tmp_path / "draws.bnhc")])
    assert (rc, out, err) == (1, "", "semrd: line 3: expected 3 states, got 2\n")


def test_bounds_subcommand(tmp_path):
    out_path = tmp_path / "bounds.csv"
    rc, out, _ = invoke(
        ["bounds", "fork", "--targets", "0.1,0.05,0.2", "-o", str(out_path)]
    )
    assert rc == 0
    text = out_path.read_text()
    header, row = text.strip().splitlines()
    assert header.startswith("target_Y,target_X1,target_X2,lower_bits,joint_bits,upper_bits")
    vals = row.split(",")
    lower, joint, upper = map(float, vals[3:6])
    assert lower - 2e-4 <= joint <= upper + 2e-4
    assert vals[-1] == "true"


@pytest.mark.parametrize("argv", [
    ["fork", "--targets", "0.1,0.05,0.2"],
    ["chain", "--targets", "0.1,0.05,0.2"],
    ["scene", "--targets", "0.16,0.163,0.067,0.103"],
], ids=["fork", "chain", "scene"])
def test_bounds_prints_the_joint_rate_that_rd_prints(argv):
    rc, bounds_out, _ = invoke(["bounds", *argv])
    assert rc == 0
    rc, rd_out, _ = invoke(["rd", *argv])
    assert rc == 0

    def column(out, name):
        header, row = out.strip().splitlines()
        return row.split(",")[header.split(",").index(name)]

    assert column(bounds_out, "joint_bits") == column(rd_out, "rate_bits")


def test_lemma2_subcommand():
    rc, out, _ = invoke(["lemma2", "fork", "--side", "Y", "--targets", "0.05,0.05"])
    assert rc == 0
    header, row = out.strip().splitlines()
    assert header == "blocks,joint_conditional_bits,subset_sum_bits,delta,converged"
    fields = row.split(",")
    assert abs(float(fields[3])) <= 2e-4
    assert fields[4] == "true"


def test_unknown_subcommand_is_usage_error():
    rc, _, _ = invoke(["frobnicate"])
    assert rc == 2


def test_target_count_mismatch_is_usage_error():
    rc, _, err = invoke(["rd", "fork", "--vars", "X1", "--targets", "0.1,0.2"])
    assert rc == 2
    assert "targets" in err


@pytest.mark.parametrize("argv", [
    ["rd", "fork", "--vars", "X1", "--targets", "0.1"],
    ["bounds", "fork", "--targets", "0.3,0.2,0.2"],
], ids=["rd", "bounds"])
def test_squared_error_on_binary_variables_is_hamming(argv):
    # on two letters (x - xhat)^2 is the Hamming distortion
    rc, out, _ = invoke(argv)
    assert rc == 0
    assert invoke(argv + ["--distortion", "squared"]) == (0, out, "")


def test_unparseable_target_is_runtime_error():
    rc, _, err = invoke(["rd", "fork", "--vars", "X1", "--targets", "zz"])
    assert rc == 1
    assert "zz" in err


def test_bad_size_guard_env(monkeypatch):
    monkeypatch.setenv("SEMRD_SIZE_GUARD", "not-a-number")
    rc, _, err = invoke(["entropy", "fork"])
    assert rc == 2
    assert "SEMRD_SIZE_GUARD" in err


def test_size_guard_env_blocks_joint_work(monkeypatch):
    # entropy only needs per-node tables and still works under a tiny guard,
    # but the joint solve behind `bounds` is refused
    monkeypatch.setenv("SEMRD_SIZE_GUARD", "4")
    rc, _, _ = invoke(["entropy", "fork"])
    assert rc == 0
    rc, _, err = invoke(["bounds", "fork", "--targets", "0.1,0.1,0.1"])
    assert rc == 1
    assert "guard" in err.lower()
    # the brute-force oracle and the joint code's cost are skipped, not failed
    rc, out, _ = invoke(["verify", "fork"])
    assert rc == 0
    assert "check,entropy-oracle,skipped: joint space over guard\n" in out
    rc, out, _ = invoke(["codec-report", "fork"])
    assert rc == 0
    assert "joint_note,skipped: joint alphabet 8 exceeds size guard 4\n" in out


@pytest.mark.parametrize("command", ["rd", "rd-cond"])
def test_slope_sweeps_obey_the_size_guard(monkeypatch, command):
    # an N x k slope table is held to the guard as ``sample``'s n x m table is
    side = ["--side", "Y"] if command == "rd-cond" else []
    argv = [command, "fork", *side, "--vars", "X1", "--sweep"]
    monkeypatch.setenv("SEMRD_SIZE_GUARD", "16")
    rc, out, err = invoke(argv + ["40"])
    assert (rc, out) == (1, "")
    assert "40x1 slope table exceeds guard 16" in err
    rc, out, _ = invoke(argv + ["16"])
    assert rc == 0
    assert len(out.strip().splitlines()) == 1 + 16


def test_entropy_prints_the_marginal_rows_under_any_guard(monkeypatch):
    # both rows come from the per-node marginals: no joint table is built
    _, full, _ = invoke(["entropy", "fork"])
    monkeypatch.setenv("SEMRD_SIZE_GUARD", "4")
    rc, out, _ = invoke(["entropy", "fork"])
    assert rc == 0 and out == full
    assert "summary,marginal_entropy_sum," in out and "summary,redundancy_gap," in out


def test_sample_command_obeys_the_size_guard(monkeypatch):
    monkeypatch.setenv("SEMRD_SIZE_GUARD", "4")
    rc, out, err = invoke(["sample", "fork", "-n", "3"])
    assert (rc, out) == (1, "")
    assert "3x3 table exceeds guard 4" in err


@pytest.mark.parametrize("value", ["x", "0", str(2**29)])
def test_a_bad_size_guard_fails_library_calls_and_is_a_usage_error(monkeypatch, fork_net, value):
    monkeypatch.setenv("SEMRD_SIZE_GUARD", value)
    with pytest.raises(semrd.SizeGuardError, match="SEMRD_SIZE_GUARD"):
        semrd.marginal_table(fork_net, [0])
    with pytest.raises(semrd.SizeGuardError, match="SEMRD_SIZE_GUARD"):
        semrd.sample(fork_net, 1, 0)
    rc, out, err = invoke(["entropy", "fork"])
    assert (rc, out) == (2, "")
    assert "SEMRD_SIZE_GUARD" in err


_NAN, _HAM2 = float("nan"), semrd.hamming_distortion(2)


@pytest.mark.parametrize("call, code", [
    (lambda: semrd.ba_target([0.5, 0.5], _HAM2, _NAN), None),
    (lambda: semrd.ba_point([0.5, 0.5], _HAM2, _NAN), None),
    (lambda: semrd.gaussian_conditional_rd(1.0, 0.0, _NAN), None),
    (["rd", "fork", "--vars", "X1", "--targets", "nan"], 1),
    (["rd", "fork", "--vars", "X1", "--slopes=-inf"], 1),
    (lambda: semrd.ba_point([0.5, 0.5], [[2, 3], [3, 2]], -1e308), None),
    (["rd", "fork", "--slopes=-1e308,-1e308,-1e308"], 1),
    (lambda: semrd.rd_curve([0.5, 0.5], _HAM2, slopes=[-1.0, -2.0, -math.inf]), None),
    (["bounds", "fork", "--targets", "nan,0.1,0.1"], 1),
    (["rd-closed-form", "gaussian", "1", "0", "nan"], 1),
    (["rd-closed-form", "gaussian", "nan", "0", "0.1"], 1),
    (["rd-closed-form", "gaussian", "inf", "0", "0.1"], 1),
    (["rd", "fork", "--vars", "X1", "--sweep", "-3"], 2),
    (["sample", "fork", "-n", "-3"], 2),
    (lambda: semrd.default_slope_grid(-3), None),
    (["rd-cond", "fork", "--side", ",", "--targets", "0.1"], 2),
    (["lemma2", "fork", "--side", ",", "--targets", "0.1"], 2),
    (["rd-cond", "fork", "--side", "Y", "--vars", "Y,X1", "--targets", "0.1,0.1"], 2),
    (["rd", "fork", "--slopes=-1,-1"], 2),
], ids=["ba_target-nan", "ba_point-nan", "gaussian-target-nan",
        "rd-targets-nan", "rd-slopes-inf", "ba_point-slope-overflow",
        "rd-slopes-overflow", "rd_curve-last-slope-inf", "bounds-targets-nan", "closed-form-target-nan",
        "closed-form-sigma-nan", "closed-form-sigma-inf", "rd-sweep-negative",
        "sample-count-negative", "slope-grid-negative", "rd-cond-side-empty",
        "lemma2-side-empty", "rd-cond-vars-in-side", "rd-slope-count"])
def test_non_finite_numbers_fail_before_any_solve(monkeypatch, call, code):
    # a NaN distortion is neither over nor under its target, so a slope
    # search would probe slope 0 forever; a NaN or infinite slope, or finite
    # slopes whose sum_i |s_i| max d_i overflows the tilt, would run the
    # kernel to its iteration cap and return nan; a negative count is a
    # usage error, as a bad option value is, and so are an empty side set and
    # a variable named both in --vars and in --side
    def no_solve(self, slopes):
        raise AssertionError(f"solved at slopes {slopes}")

    monkeypatch.setattr(semrd.rd._MultiSolver, "eval", no_solve)
    if code is None:
        with pytest.raises(semrd.InvalidStateError):
            call()
    else:
        rc, out, err = invoke(call)
        assert (rc, out) == (code, "")
        assert err.startswith("semrd: ")


def test_all_subcommands_byte_stable(tmp_path):
    samples = tmp_path / "s.csv"
    stream = tmp_path / "s.bnhc"
    _, out, _ = invoke(["sample", "fork", "-n", "40", "--seed", "3"])
    samples.write_text(out)
    invoke(["encode", "fork", str(samples), "-o", str(stream)])
    argvs = [
        ["verify", "scene"],
        ["entropy", "scene"],
        ["sample", "scene", "-n", "25", "--seed", "0"],
        ["decode", "fork", str(stream)],
        ["codec-report", "chain"],
        ["rd", "scene", "--vars", "sky", "--targets", "0.2"],
        ["rd", "fork", "--vars", "X1,X2", "--slopes=-1,-2"],
        ["rd-cond", "chain", "--side", "Y", "--targets", "0.1,0.1"],
        ["rd-closed-form", "binary", "0.2", "0.1"],
        ["bounds", "chain", "--targets", "0.1,0.05,0.2"],
        ["lemma2", "chain", "--side", "Y", "--targets", "0.05,0.1"],
    ]
    for argv in argvs:
        rc1, out1, _ = invoke(argv)
        rc2, out2, _ = invoke(argv)
        assert rc1 == rc2 == 0, argv
        assert out1 == out2, argv


_LOADED = """
import contextlib, io, sys
from semrd.cli import run
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    rc = run(sys.argv[1:])
print(rc, *sorted(sys.modules))
"""
_HEAVY = {"semrd.rd", "semrd.codec", "semrd.bounds"}


@pytest.mark.parametrize("argv, absent", [
    (["entropy", "fork"], _HEAVY | {"hashlib", "fractions"}),
    (["verify", "fork"], _HEAVY | {"hashlib", "fractions"}),
    # numpy.random, which sampling needs, imports hashlib itself
    (["sample", "fork", "-n", "5"], _HEAVY | {"fractions"}),
    (["codec-report", "fork"], {"semrd.rd", "semrd.bounds"}),
    (["rd", "fork", "--vars", "X1", "--targets", "0.1"], {"semrd.codec"}),
    (["bounds", "fork", "--targets", "0.1,0.05,0.2"], {"semrd.codec"}),
], ids=["entropy", "verify", "sample", "codec-report", "rd", "bounds"])
def test_each_command_loads_only_the_modules_it_runs(argv, absent):
    env = {**os.environ, "PYTHONPATH": str(Path(semrd.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv], env=env,
                          capture_output=True, text=True, check=True)
    rc, *loaded = proc.stdout.split()
    assert rc == "0"
    assert "semrd.bn" in loaded
    assert not absent & set(loaded)


def test_every_public_name_is_its_home_modules_object():
    for name in semrd.__all__:
        value = getattr(semrd, name)
        home = value.__module__ if callable(value) else "semrd.bn"  # the size guard bounds
        assert getattr(sys.modules[home], name) is value, name
    assert set(semrd.__all__) <= set(dir(semrd))
    with pytest.raises(AttributeError):
        semrd.no_such_name


@pytest.mark.parametrize("name", [
    "marginal_table", "sample", "joint_entropy_factorized", "build_factorized_codebooks",
    "expected_length", "encode", "decode", "ba_joint_multi_target", "ba_joint_multi",
    "lemma1_bounds", "lemma2_check"])
def test_the_traced_names_read_through_the_cli_module(name):
    # bench/tracing.py wraps these names where ``semrd.cli`` holds them
    assert getattr(semrd.cli, name) is getattr(semrd, name)
