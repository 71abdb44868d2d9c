#!/usr/bin/env python3
"""Fingerprint every rate-distortion engine evaluation on a fixed case list.

Runs the acceptance test 7 grids (Lemma 1 sandwich on random nets), the
test 8 checks (Lemma 2 decomposition), a few erasure-distortion target
solves (scalar, conditional, and on the product of two erasure sources) and
the Lemma 1 grid on the bundled scene net that is the ``bounds`` benchmark's
slowest op (row ``bounds-scene``, with a four-variable joint search), and
prints one CSV row per case: the number of ``_MultiSolver.eval``
calls it made and a SHA-256 over each call (slopes in; rate, distortion
vector, iterations and convergence out) followed by the repr of the returned
report.  Two trees whose rows all match ran the same solves bit for bit, so a
refactor of the target search can be checked against its parent with
``diff``.  A census goes to stderr: the evaluations of each case group
(the name before the first colon) on one line, the side-state starts that
opened at the closed-form optimum and those that fell back to the uniform q
on the next, then the ``_MultiSolver.jacobian`` calls (each slope search
opens on dD/ds), then the evaluations, the iterations they took, and the
evaluations that returned ``converged=False``.
Exits 1 when any evaluation returned ``converged=False``.
"""

import argparse
import hashlib
import sys
import time

import numpy as np

from semrd import lemma1_bounds, lemma2_check, load_bundled, random_net
from semrd import rd
from semrd.nets import doubly_symmetric_chain, doubly_symmetric_fork
from semrd.rd import ba_conditional_target, ba_joint_multi_target, ba_target

#: Uniform bit with an erase letter: R(D) is linear in D above D ~ 0.031.
ERASURE = np.array([[0.0, 8.0, 1.0], [8.0, 0.0, 1.0]])


def _cases(size):
    """(name, thunk) pairs in a fixed order; ``size`` caps the test 7 nets
    and the test 8 checks (None: all 50 nets and 32 checks)."""
    for seed in range(50 if size is None else min(size, 50)):
        rng = np.random.default_rng(1000 + seed)
        net = random_net(1000 + seed, int(rng.integers(2, 5)), max_card=3)
        for g in range(5):
            targets = tuple(float(t) for t in rng.uniform(0.03, 0.45, size=net.m))
            yield f"test7:{seed}:{g}", lambda net=net, t=targets: lemma1_bounds(net, t)
    checks = [(shape, p1, p2) for shape in (doubly_symmetric_fork, doubly_symmetric_chain)
              for p1 in (0.05, 0.1, 0.2, 0.3) for p2 in (0.05, 0.1, 0.2, 0.3)]
    for shape, p1, p2 in checks[:size]:
        yield (f"test8:{shape.__name__}:{p1}:{p2}",
               lambda net=shape(p1, p2): lemma2_check(net, ["Y"], (0.05, 0.05)))
    for t in (0.1, 0.3, 0.7):
        yield f"erasure:{t}", lambda t=t: ba_target([0.5, 0.5], ERASURE, t)
    yield "erasure-cond:0.3", lambda: ba_conditional_target(np.full((2, 2), 0.25), ERASURE, 0.3)
    for t in ((0.3, 0.2), (0.5, 0.5), (0.9, 0.1)):
        yield (f"erasure-joint:{t[0]}:{t[1]}",
               lambda t=t: ba_joint_multi_target(np.full((2, 2), 0.25), [ERASURE, ERASURE], t))
    yield "bounds-scene", lambda: lemma1_bounds(load_bundled("scene"), (0.16, 0.163, 0.067, 0.103))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", type=int, default=None,
                    help="run only the first SIZE test 7 nets and test 8 checks")
    args = ap.parse_args(argv)

    real_eval, real_jacobian = rd._MultiSolver.eval, rd._MultiSolver.jacobian
    real_closed_form = rd._closed_form_q
    log = []
    census = [0, 0, 0, 0]  # evaluations, iterations, unconverged evaluations, jacobians
    starts = [0, 0]  # state starts at the closed form, at the uniform q

    def eval_logged(self, slopes):
        rate, dvec, its, conv = out = real_eval(self, slopes)
        census[0] += 1
        census[1] += int(its)
        census[2] += not conv
        log.append(np.asarray(slopes, float).tobytes() + np.float64(rate).tobytes()
                   + np.asarray(dvec, float).tobytes() + repr((int(its), bool(conv))).encode())
        return out

    def jacobian_counted(self, slopes, act):
        census[3] += 1
        return real_jacobian(self, slopes, act)

    def closed_form_counted(p, a):
        q = real_closed_form(p, a)
        starts[q is None] += 1
        return q

    print("case,evals,sha256")
    t0 = time.perf_counter()
    rows = 0
    groups = {}  # evaluations per case group, in case order
    rd._MultiSolver.eval, rd._MultiSolver.jacobian = eval_logged, jacobian_counted
    rd._closed_form_q = closed_form_counted
    try:
        for name, solve in _cases(args.size):
            log.clear()
            report = solve()
            h = hashlib.sha256()
            for record in log:
                h.update(record)
            h.update(repr(report).encode())
            print(f"{name},{len(log)},{h.hexdigest()}", flush=True)
            group = name.split(":")[0]
            groups[group] = groups.get(group, 0) + len(log)
            rows += 1
    finally:
        rd._MultiSolver.eval, rd._MultiSolver.jacobian = real_eval, real_jacobian
        rd._closed_form_q = real_closed_form
    print(f"# {rows} cases in {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    print("# evaluations by group: " + ", ".join(f"{g} {n}" for g, n in groups.items()),
          file=sys.stderr)
    print(f"# state starts: {starts[0]} closed form, {starts[1]} uniform", file=sys.stderr)
    print(f"# {census[3]} jacobians", file=sys.stderr)
    print(f"# {census[0]} evaluations, {census[1]} iterations, {census[2]} unconverged",
          file=sys.stderr)
    return 1 if census[2] else 0


if __name__ == "__main__":
    raise SystemExit(main())
