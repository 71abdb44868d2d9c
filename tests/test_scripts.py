"""The scripts in ``scripts/`` run end to end on tiny arguments."""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.mark.parametrize("name, argv, header, rows", [
    ("bounds_survey", ["--nets", "1", "--grids", "1"],
     "seed,n_vars,targets,lower_bits,joint_bits,upper_bits,slack_lower,slack_upper,converged", 1),
    ("closed_form_agreement", ["--flip-probs", "0.1", "--points", "2"],
     "p,target,solver_bits,closed_form_bits,abs_error,iterations", 2),
    ("codec_ledger", ["-n", "500"],
     "net,variables,entropy_bits,expected_length_bits,measured_bits_per_sample,"
     "entries_touched,stream_bytes", 3),
])
def test_script_prints_its_csv(name, argv, header, rows):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert _main(name)(argv) == 0
    lines = out.getvalue().splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + rows
    assert all(line.count(",") == header.count(",") for line in lines[1:])
