#!/usr/bin/env python3
"""Fingerprint the stdout of every ``semrd`` subcommand on the bundled nets.

Runs, in this interpreter through ``semrd.cli.run``, on each net:
``verify``, ``entropy``, ``sample``, ``codec-report``, the README's ``rd``,
``rd-cond``, ``bounds`` and ``lemma2`` lines (on the net's own variables:
its first one is the side, its next two the selected ones), and a sample ->
encode -> decode round trip in a temporary directory, whose stream bytes get
a row of their own; then the README's two ``rd-closed-form`` lines.  Prints
one CSV row per case: its exit code and a SHA-256 of its stdout.  Two trees
whose rows all match print the same bytes, so a change meant to keep the CLI
output can be checked against its parent with ``diff``.  The commands'
stderr (timings, messages) is dropped; a count of rows and of non-zero exits
goes to stderr.  Exits 1 when any command exits non-zero.
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from semrd import load_bundled
from semrd.cli import run
from semrd.nets import BUNDLED


def _commands(name):
    """(case, argv) pairs for one bundled net, round trip aside."""
    names = load_bundled(name).names
    side, a, b = names[0], names[1], names[2]
    per_rest = ",".join(["0.05"] * (len(names) - 1))  # one target per non-side variable
    yield f"verify:{name}", ["verify", name]
    yield f"entropy:{name}", ["entropy", name]
    yield f"codec-report:{name}", ["codec-report", name]
    yield f"rd-targets:{name}", ["rd", name, "--vars", a, "--targets", "0.1"]
    yield f"rd-slopes:{name}", ["rd", name, "--vars", f"{a},{b}", "--slopes=-2,-2"]
    yield f"rd-sweep:{name}", ["rd", name, "--vars", a, "--sweep", "25"]
    yield f"rd-cond:{name}", ["rd-cond", name, "--side", side, "--targets", per_rest]
    targets = ",".join(["0.1", "0.05", "0.2", "0.1"][:len(names)])  # the README's, one per variable
    yield f"bounds:{name}", ["bounds", name, "--targets", targets]
    yield f"lemma2:{name}", ["lemma2", name, "--side", side, "--targets", per_rest]


def _run(argv):
    """Exit code and stdout bytes of one command; its stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue().encode()


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)

    codes = []  # the exit code on each row

    def row(case, code, data):
        codes.append(code)
        print(f"{case},{code},{hashlib.sha256(data).hexdigest()}", flush=True)

    print("case,exit,sha256")
    with tempfile.TemporaryDirectory() as workdir:
        for name in BUNDLED:
            for case, cmd in _commands(name):
                row(case, *_run(cmd))
            samples, stream = Path(workdir, f"{name}.csv"), Path(workdir, f"{name}.bnhc")
            code, draws = _run(["sample", name, "-n", "1000", "--seed", "7"])
            row(f"sample:{name}", code, draws)
            samples.write_bytes(draws)
            code, out = _run(["encode", name, str(samples), "-o", str(stream)])
            row(f"encode:{name}", code, out)
            row(f"stream:{name}", code, stream.read_bytes() if stream.exists() else b"")
            row(f"decode:{name}", *_run(["decode", name, str(stream)]))
    row("rd-closed-form:binary", *_run(["rd-closed-form", "binary", "0.1", "0.05"]))
    row("rd-closed-form:gaussian", *_run(["rd-closed-form", "gaussian", "1.0", "0.0", "0.25"]))
    failed = sum(code != 0 for code in codes)
    print(f"# {len(codes)} rows, {failed} with a non-zero exit", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
