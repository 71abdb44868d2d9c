"""The scripts in ``scripts/`` run end to end on tiny arguments."""

import contextlib
import importlib.util
import io
import re
from pathlib import Path

import pytest

from semrd import rd

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _module(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _main(name):
    return _module(name).main


@pytest.mark.parametrize("name, argv, header, rows", [
    ("bounds_survey", ["--nets", "1", "--grids", "1"],
     "seed,n_vars,targets,lower_bits,joint_bits,upper_bits,slack_lower,slack_upper,converged", 1),
    ("closed_form_agreement", ["--flip-probs", "0.1", "--points", "2"],
     "p,target,solver_bits,closed_form_bits,abs_error,iterations", 2),
    ("codec_ledger", ["-n", "500"],
     "net,variables,entropy_bits,expected_length_bits,measured_bits_per_sample,"
     "entries_touched,distinct_codes,stream_bytes", 4),
    ("solver_digest", ["--size", "1"], "case,evals,sha256", 14),
    ("kernel_stress", ["--sources", "3", "--draws", "1"],
     "kind,points,iterations,max_iterations,evaluations,max_evaluations,bad,unmet", 7),
    ("cli_digest", [], "case,exit,sha256", 44),
])
def test_script_prints_its_csv(name, argv, header, rows):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert _main(name)(argv) == 0
    lines = out.getvalue().splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + rows
    assert all(line.count(",") == header.count(",") for line in lines[1:])


def test_codec_ledger_reports_sample_encode_and_decode_speeds():
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert _main("codec_ledger")(["-n", "500"]) == 0
    speed = r"[0-9.e+]+ symbols/s"
    lines = err.getvalue().splitlines()
    assert len(lines) == 4
    assert all(re.fullmatch(rf"# \w+: sample {speed}, encode {speed}, decode {speed}", line)
               for line in lines)


def test_solver_digest_census_counts_every_evaluation():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert _main("solver_digest")(["--size", "1"]) == 0
    evals = sum(int(line.split(",")[1]) for line in out.getvalue().splitlines()[1:])
    *_, groups, starts, jacobians, census = err.getvalue().splitlines()
    census = re.fullmatch(r"# (\d+) evaluations, (\d+) iterations, (\d+) unconverged", census)
    assert census is not None
    assert int(census[1]) == evals
    # the per-group totals split the same count, one entry per case group
    groups = re.fullmatch(r"# evaluations by group: (.*)", groups)
    assert groups is not None
    by_group = dict(entry.rsplit(" ", 1) for entry in groups[1].split(", "))
    assert list(by_group) == ["test7", "test8", "erasure", "erasure-cond", "erasure-joint",
                              "bounds-scene"]
    assert sum(map(int, by_group.values())) == int(census[1])
    assert int(census[3]) <= evals
    # every slope search opens on dD/ds, so the census counts those too
    jacobians = re.fullmatch(r"# (\d+) jacobians", jacobians)
    assert jacobians is not None and 0 < int(jacobians[1]) < evals
    # the test 7 and test 8 sources open states at the closed form, the
    # erasure ones (two rows, three letters) at the uniform q
    starts = re.fullmatch(r"# state starts: (\d+) closed form, (\d+) uniform", starts)
    assert starts is not None and int(starts[1]) > 0 and int(starts[2]) > 0


def test_solver_digest_counts_no_closed_form_start_where_none_is_taken(monkeypatch):
    monkeypatch.setattr(rd, "_closed_form_q", lambda p, a: None)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert _main("solver_digest")(["--size", "1"]) == 0
    starts = re.fullmatch(r"# state starts: (\d+) closed form, (\d+) uniform",
                          err.getvalue().splitlines()[-3])
    assert starts is not None and int(starts[1]) == 0 and int(starts[2]) > 0


def test_solver_digest_exits_1_on_an_unconverged_evaluation(monkeypatch):
    # a 2-iteration budget leaves the kernel's brackets open
    monkeypatch.setattr(rd, "MAX_ITERS", 2)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert _main("solver_digest")(["--size", "1"]) == 1
    census = re.fullmatch(r"# (\d+) evaluations, (\d+) iterations, (\d+) unconverged",
                          err.getvalue().splitlines()[-1])
    assert census is not None and int(census[3]) > 0


def test_kernel_stress_exits_1_on_an_unconverged_evaluation(monkeypatch):
    # a 2-iteration budget leaves the kernel's brackets open
    monkeypatch.setattr(rd, "MAX_ITERS", 2)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert _main("kernel_stress")(["--sources", "1", "--draws", "0"]) == 1
    kind, points, _, most, evals, most_evals, bad, _ = out.getvalue().splitlines()[1].split(",")
    assert (kind, points, most, evals, most_evals) == ("point", "9", "2", "9", "1") and int(bad) > 0


@pytest.mark.parametrize("limit, code", [([], 0), (["--max-unmet", "2"], 0), (["--max-unmet", "1"], 1)],
                         ids=["no-limit", "at-limit", "over-limit"])
def test_kernel_stress_exits_1_past_max_unmet(monkeypatch, limit, code):
    # one slope evaluation per search leaves the one joint target and one of
    # its three near-floor solves unmet, with every kernel evaluation converged
    monkeypatch.setattr(rd, "_MAX_EVALS", 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert _main("kernel_stress")(["--sources", "0", "--draws", "1", *limit]) == code
    rows = [line.split(",") for line in out.getvalue().splitlines()[1:]]
    assert [(kind, bad, unmet) for kind, _, _, _, _, _, bad, unmet in rows] == [
        ("point", "0", "0"), ("sweep", "0", "0"), ("target", "0", "0"),
        ("conditional_target", "0", "0"),
        ("joint_target", "0", "1"), ("near_floor_joint", "0", "1"), ("zero_slope", "0", "0")]


@pytest.mark.parametrize("seed, f", [(110, 1e-6), (124, 1e-6), (147, 1e-9)])
def test_joint_targets_near_the_floor_converge(monkeypatch, seed, f):
    # a slope search that walked one slope to 0 left the warm q with all but
    # one letter at 0; the next evaluation started Newton from it with a row
    # of A q near 3e-76, where no Armijo search passes, and crept toward the
    # iteration cap (seed 110; seed 124 divided by that 0 in the KKT matrix).
    # Seed 147's Newton step on the slopes was not finite.  Such a warm q
    # starts over from the uniform q, outside Newton, and a step is tested
    # for finite entries before its product with the gap.
    calls = []
    real_eval = rd._MultiSolver.eval

    def spy(self, slopes):
        out = real_eval(self, slopes)
        calls.append(out)
        assert out[3], f"unconverged evaluation at slopes {slopes}"
        assert len(calls) <= 200, "past 200 evaluations"
        return out

    monkeypatch.setattr(rd._MultiSolver, "eval", spy)
    _, solve = _module("kernel_stress").near_floor_joint_target(seed, f)
    assert solve().converged
