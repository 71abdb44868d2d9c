#!/usr/bin/env python3
"""Compare codec cost accounting against empirical bitrates.

For each bundled network and a 120-node binary chain: build the per-node
codebooks, encode a large batch of samples, and line up three numbers per
network -- the factorized entropy, the analytic expected code length, and the
measured bits per sample.  The
measured rate should track the analytic expectation to within sampling noise,
and both stay inside [H, H + m).  Equal CPT rows share one code, so the
distinct codes can be far fewer than the table entries touched.  Sample, encode and decode speeds, in
symbols per second, go to stderr.
"""

import argparse
import sys
import time

import numpy as np

from semrd import (
    build_factorized_codebooks,
    decode,
    encode,
    expected_length,
    joint_entropy_factorized,
    load_bundled,
    sample,
)
from semrd.nets import BUNDLED, binary_chain


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-n", type=int, default=100_000, help="samples per network")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    print("net,variables,entropy_bits,expected_length_bits,measured_bits_per_sample,"
          "entries_touched,distinct_codes,stream_bytes")
    nets = [(name, load_bundled(name)) for name in BUNDLED] + [("chain120", binary_chain(120, 0.2))]
    for name, net in nets:
        fcb = build_factorized_codebooks(net)
        t = time.perf_counter()
        draws = sample(net, args.n, seed=args.seed)
        t0 = time.perf_counter()
        stream = encode(fcb, draws)
        t1 = time.perf_counter()
        decoded = decode(fcb, stream)
        t2 = time.perf_counter()
        symbols = draws.size
        print(f"# {name}: sample {symbols / (t0 - t):.4g} symbols/s, "
              f"encode {symbols / (t1 - t0):.4g} symbols/s, "
              f"decode {symbols / (t2 - t1):.4g} symbols/s", file=sys.stderr)
        if not np.array_equal(decoded, draws):
            print(f"# {name}: decode(encode(x)) != x", file=sys.stderr)
            return 1
        measured = 8 * len(stream.payload) / args.n
        h = joint_entropy_factorized(net)
        e_len = expected_length(fcb, net)
        distinct = len({id(code) for per_var in fcb.codes for code in per_var})
        print(f"{name},{net.m},{h:.6f},{e_len:.6f},{measured:.6f},"
              f"{fcb.entries_touched},{distinct},{len(stream.payload)}")
        if not h - 1e-9 <= e_len < h + net.m:
            print(f"# {name}: expected length outside [H, H+m)", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
