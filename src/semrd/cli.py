"""Command-line front end.

Machine output goes to stdout as deterministic CSV: fixed column order,
'.' decimal separator, 12 significant digits, LF line endings — identical
inputs and flags always produce byte-identical bytes.  Timing diagnostics go
to stderr so they never perturb the CSV surface.  Every CSV subcommand takes
``-o FILE``, which writes those bytes to FILE instead; ``encode``'s ``-o`` is
its required bitstream path, and ``rd-closed-form`` prints one number.

Exit codes: 0 success, 1 validation failure (bad network file, uncodable
sample, corrupt stream, guard violation, failed check), 2 usage error.

The dense-table size guard defaults to 2^24 entries and may be raised or
lowered with the ``SEMRD_SIZE_GUARD`` environment variable (capped at 2^28);
a value outside that range is a usage error.

The arguments several subcommands share (the network, a file path or the
name of a bundled example; ``-o``; ``--distortion``; ``--side``) are each
declared once, as an argparse parent parser.

The module imports the network model, the entropy accounting and the bundled
nets; each command imports what it calls from ``codec``, ``rd`` and
``bounds`` itself, so ``entropy``, ``sample`` and ``verify`` load none of
the three and the rate-distortion commands never load ``codec``.  The
package's public names stay readable here (``semrd.cli.encode`` is
``semrd.codec.encode``), as ``bench/tracing.py`` reads and wraps them.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bn import (BayesNet, _check_size, conditional_partition, enumerate_joint, load_net, sample,
                 size_guard)
from .errors import SizeGuardError
from .info import (
    conditional_entropies,
    conditional_mutual_information,
    joint_entropy_bruteforce,
    joint_entropy_factorized,
    marginal_entropy_sum,
    redundancy_gap,
)
from .nets import BUNDLED, bundled_path

_ORACLE_TOL = 1e-9


def __getattr__(name):
    package = sys.modules[__package__]
    if name in package.__all__:
        return getattr(package, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _csv_line(*cells) -> str:
    return ",".join(c if isinstance(c, str) else _fmt(c) for c in cells)


def _emit(lines, out):
    text = "\n".join(lines) + "\n"
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="")


def _load(netarg: str) -> BayesNet:
    p = Path(netarg)
    if not p.exists() and netarg in BUNDLED:
        p = bundled_path(netarg)
    return load_net(p)


def _resolve_vars(net: BayesNet, spec: str) -> list[int]:
    return [net.id_of(tok) for tok in spec.split(",") if tok]


def _floats(spec: str, n: int, what: str) -> list[float]:
    """The comma list ``spec`` as floats; a usage error unless it holds ``n``
    (an unparseable number stays a ``ValueError``)."""
    vals = [float(tok) for tok in spec.split(",") if tok]
    if len(vals) != n:
        raise argparse.ArgumentTypeError(f"{len(vals)} {what} for {n} variables")
    return vals


def _dspec(net: BayesNet, name: str) -> list[np.ndarray]:
    """One distortion matrix per variable of ``net``, in id order."""
    from .rd import hamming_distortion, squared_error_distortion

    make = {"hamming": hamming_distortion, "squared": squared_error_distortion}[name]
    return [make(k) for k in net.cards]


def _read_samples(path, m: int) -> np.ndarray:
    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    rows = []
    for k, line in enumerate(text.splitlines()):
        line = line.strip()
        if not line:
            continue
        vals = line.split(",")
        if len(vals) != m:
            raise ValueError(f"line {k + 1}: expected {m} states, got {len(vals)}")
        rows.append([float(v) for v in vals])  # ``encode`` holds them to the state rule
    return np.array(rows, dtype=float).reshape(-1, m)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    net = _load(args.net)  # refuses a net with any violation of ``validate``
    lines = [_csv_line("check", "structure", "ok")]
    ok = True
    if net.joint_states() <= size_guard():
        jt = enumerate_joint(net)
        gap = abs(joint_entropy_factorized(net) - joint_entropy_bruteforce(jt))
        red = redundancy_gap(net)
        # the blocks given v are mutually independent iff, by the chain rule,
        # I(B_k; B_{k+1} u ... u B_K | v) = 0 for every k < K
        worst = 0.0
        for v in range(net.m):
            blocks = conditional_partition(net, [v]).blocks
            for k in range(len(blocks) - 1):
                rest = [u for b in blocks[k + 1:] for u in b]
                worst = max(worst, conditional_mutual_information(jt, blocks[k], rest, [v]))
        checks = [("entropy-oracle", gap <= _ORACLE_TOL, f"fail gap {_fmt(gap)}"),
                  ("redundancy-nonnegative", red >= -_ORACLE_TOL, f"fail {_fmt(red)}"),
                  ("partition-independence", worst <= _ORACLE_TOL, f"fail cmi {_fmt(worst)}")]
        lines += [_csv_line("check", name, "ok" if good else fail) for name, good, fail in checks]
        ok = all(good for _, good, _ in checks)
    else:
        lines.append(_csv_line("check", "entropy-oracle", "skipped: joint space over guard"))
    _emit(lines, args.output)
    return 0 if ok else 1


def cmd_entropy(args: argparse.Namespace) -> int:
    net = _load(args.net)
    lines = [_csv_line("section", "key", "value_bits")]
    rows = conditional_entropies(net)
    lines += [_csv_line("node", v.name, h) for v, h in zip(net.variables, rows)]
    joint = sum(rows)
    msum = marginal_entropy_sum(net)
    lines.append(_csv_line("summary", "joint_entropy", joint))
    lines.append(_csv_line("summary", "marginal_entropy_sum", msum))
    lines.append(_csv_line("summary", "redundancy_gap", msum - joint))
    _emit(lines, args.output)
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise argparse.ArgumentTypeError(f"-n must be >= 0, got {args.n}")
    net = _load(args.net)
    arr = sample(net, args.n, args.seed)
    _emit([",".join(map(str, row.tolist())) for row in arr] or [""], args.output)
    return 0


def cmd_encode(args: argparse.Namespace) -> int:
    from .codec import build_factorized_codebooks, encode

    net = _load(args.net)
    arr = _read_samples(args.samples, net.m)
    fcb = build_factorized_codebooks(net)
    stream = encode(fcb, arr)
    Path(args.output).write_bytes(stream.to_bytes())
    print(f"encoded {stream.n} samples into {len(stream.payload)} payload bytes", file=sys.stderr)
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    from .codec import Bitstream, build_factorized_codebooks, decode

    net = _load(args.net)
    stream = Bitstream.from_bytes(Path(args.stream).read_bytes())
    fcb = build_factorized_codebooks(net)
    arr = decode(fcb, stream)
    _emit([",".join(map(str, row.tolist())) for row in arr] or [""], args.output)
    return 0


def cmd_codec_report(args: argparse.Namespace) -> int:
    from .codec import complexity_report, expected_length

    net = _load(args.net)
    t0 = time.perf_counter()
    rep = complexity_report(net)
    lines = [_csv_line("field", "value"), _csv_line("variables", rep.n_variables)]
    lines += [_csv_line(name, getattr(rep, name)) for name in (
        "max_cardinality", "max_in_degree", "joint_states", "factorized_code_bound",
        "factorized_entry_bound", "factorized_codes_built", "factorized_entries_touched")]
    lines.append(_csv_line("joint_entropy_bits", joint_entropy_factorized(net)))
    lines.append(_csv_line("factorized_expected_length_bits",
                           expected_length(rep.factorized_codebook, net)))
    if rep.joint_code is not None:
        lines.append(_csv_line("joint_expected_length_bits",
                               expected_length(rep.joint_code, rep.joint_table)))
    if rep.joint_note:
        lines.append(_csv_line("joint_note", rep.joint_note))
    _emit(lines, args.output)
    joint_s = "-" if rep.joint_build_seconds is None else f"{rep.joint_build_seconds:.6f}"
    print(f"timings: factorized build {rep.factorized_build_seconds:.6f}s, joint build {joint_s}s, "
          f"report total {time.perf_counter() - t0:.6f}s", file=sys.stderr)
    return 0


def _side(net: BayesNet, args: argparse.Namespace) -> list[int]:
    """The ``--side`` variables: none for a subcommand without ``--side``, and
    a usage error when ``--side`` names none."""
    if getattr(args, "side", None) is None:
        return []
    side = _resolve_vars(net, args.side)
    if not side:
        raise argparse.ArgumentTypeError("--side must name at least one variable")
    return side


def cmd_rd(args: argparse.Namespace) -> int:
    from .bounds import _side_first_array
    from .rd import _fixed_slope_points, _MultiSolver, ba_joint_multi_target, default_slope_grid

    net = _load(args.net)
    dspec = _dspec(net, args.distortion)
    side = _side(net, args)
    rest = [v for v in range(net.m) if v not in side]
    vars_ = rest if args.vars is None else _resolve_vars(net, args.vars)
    if not vars_ or len(set(vars_)) != len(vars_) or set(vars_) & set(side):
        raise argparse.ArgumentTypeError("--vars must be distinct and disjoint from --side")
    arr = _side_first_array(net, side, vars_)
    dists = [dspec[v] for v in vars_]
    names = [net.variables[v].name for v in vars_]
    lines = [_csv_line(*[f"slope_{n}" for n in names], "rate_bits",
                       *[f"distortion_{n}" for n in names], "iterations", "converged")]

    def add_point(pt):
        lines.append(_csv_line(*pt.slopes, pt.rate, *pt.distortions, pt.iterations, pt.converged))

    if args.targets is not None:
        targets = _floats(args.targets, len(vars_), "targets")
        add_point(ba_joint_multi_target(arr, dists, targets, side=True))
    else:
        if args.slopes is not None:
            grid = [_floats(args.slopes, len(vars_), "slopes")]
        else:
            if args.sweep < 0:
                raise argparse.ArgumentTypeError(f"--sweep must be >= 0, got {args.sweep}")
            _check_size(args.sweep * len(vars_),
                        f"--sweep {args.sweep}: {args.sweep}x{len(vars_)} slope table")
            grid = [[s] * len(vars_) for s in default_slope_grid(args.sweep)]
        # one solver for the whole grid: each slope warm-starts from the last
        for pt in _fixed_slope_points(_MultiSolver(arr, dists), grid):
            add_point(pt)
    _emit(lines, args.output)
    return 0


def cmd_rd_closed_form(args: argparse.Namespace) -> int:
    from .rd import binary_conditional_rd, gaussian_conditional_rd

    fn, n_params = {"binary": (binary_conditional_rd, 2),
                    "gaussian": (gaussian_conditional_rd, 3)}[args.family]
    if len(args.params) != n_params:
        raise argparse.ArgumentTypeError(f"{args.family} needs {n_params} parameters")
    print(f"{fn(*args.params):.6f}")
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    from .bounds import lemma1_bounds

    net = _load(args.net)
    targets = _floats(args.targets, net.m, "targets")
    rep = lemma1_bounds(net, targets, _dspec(net, args.distortion))
    names = net.names
    lines = [
        _csv_line(*[f"target_{n}" for n in names], "lower_bits", "joint_bits", "upper_bits",
                  "slack_lower", "slack_upper", "converged"),
        _csv_line(*rep.targets, rep.lower, rep.joint, rep.upper,
                  rep.slack_lower, rep.slack_upper, rep.converged),
    ]
    _emit(lines, args.output)
    return 0


def cmd_lemma2(args: argparse.Namespace) -> int:
    from .bounds import lemma2_check

    net = _load(args.net)
    side = _side(net, args)
    rest = net.m - len(set(side))  # none: ``lemma2_check`` names that, whatever the targets
    targets = _floats(args.targets, rest, "targets") if rest else []
    rep = lemma2_check(net, side, targets, _dspec(net, args.distortion))
    blocks = "|".join("+".join(net.variables[v].name for v in blk) for blk in rep.partition.blocks)
    lines = [
        _csv_line("blocks", "joint_conditional_bits", "subset_sum_bits", "delta", "converged"),
        _csv_line(blocks, rep.joint_conditional, rep.subset_sum, rep.delta, rep.converged),
    ]
    _emit(lines, args.output)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="semrd", description="Compression limits for Bayesian-network "
                                 "sources: entropy, lossless codec, and (conditional) rate-distortion.")
    ap.add_argument("--version", action="version", version=f"semrd {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def parent(*args, parents=(), **kw):
        p = argparse.ArgumentParser(add_help=False, parents=parents)
        p.add_argument(*args, **kw)
        return p

    net = parent("net", help=f"network JSON file or bundled name ({', '.join(BUNDLED)})")
    csv = parent("-o", "--output", parents=[net], default=None, help="write CSV here instead of stdout")
    distortion = parent("--distortion", default="hamming", choices=["hamming", "squared"])
    side = parent("--side", required=True, help="comma-separated side variable names")

    def command(name, fn, help, *parents):
        p = sub.add_parser(name, help=help, parents=parents)
        p.set_defaults(fn=fn)
        return p

    command("verify", cmd_verify, "validate a network and run self-consistency checks", csv)
    command("entropy", cmd_entropy, "per-node conditional entropies, joint entropy, redundancy", csv)

    p = command("sample", cmd_sample, "draw ancestral samples as CSV state vectors", csv)
    p.add_argument("-n", type=int, required=True, help="number of samples")
    p.add_argument("--seed", type=int, default=0)

    p = command("encode", cmd_encode, "compress a samples file with the factorized codebook", net)
    p.add_argument("samples", help="CSV samples file ('-' for stdin)")
    p.add_argument("-o", "--output", required=True, help="output bitstream file")

    p = command("decode", cmd_decode, "decompress a bitstream back to samples", csv)
    p.add_argument("stream", help="bitstream file")

    command("codec-report", cmd_codec_report, "joint vs factorized codebook cost accounting", csv)

    for name, help, *sides in (("rd", "of selected variables"),
                               ("rd-cond", "with a side set known at both ends", side)):
        p = command(name, cmd_rd, f"rate-distortion {help}", csv, *sides, distortion)
        p.add_argument("--vars", default=None, help="comma-separated names (default: all non-side)")
        g = p.add_mutually_exclusive_group()
        g.add_argument("--targets", default=None, help="per-variable distortion targets")
        g.add_argument("--slopes", default=None, help="per-variable slopes (<= 0)")
        g.add_argument("--sweep", type=int, default=25, help="points on a common-slope curve sweep")

    p = command("rd-closed-form", cmd_rd_closed_form, "closed-form conditional rate-distortion values")
    p.add_argument("family", choices=["binary", "gaussian"])
    p.add_argument("params", type=float, nargs="+", help="binary: P D;  gaussian: SIGMA R D")

    p = command("bounds", cmd_bounds,
                "sandwich the joint rate between marginal and conditional sums", csv, distortion)
    p.add_argument("--targets", required=True, help="per-variable distortion targets (id order)")

    p = command("lemma2", cmd_lemma2, "joint vs per-block conditional rates given a side set",
                csv, side, distortion)
    p.add_argument("--targets", required=True, help="targets for non-side variables (id order)")

    return ap


def run(argv=None) -> int:
    """Parse and dispatch; returns the process exit code."""
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        size_guard()
    except SizeGuardError as e:
        print(f"semrd: {e}", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (argparse.ArgumentTypeError, ValueError, OSError) as e:
        print(f"semrd: {e}", file=sys.stderr)
        return 2 if isinstance(e, argparse.ArgumentTypeError) else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
