#!/usr/bin/env python3
"""Show that disc coherent states are the most predictable states of the
disc-measure averaging semigroup.

Runs the multi-start sieve minimizer at the requested Fock cutoff, reports
a0 (the infimum of the purity decay rate; 2 kappa / 3 on coherent states),
the fidelity of every minimizer to its nearest coherent state, and the
margin by which superpositions of two well-separated coherent states leave
the stability band.
"""

from __future__ import annotations

import argparse
import time

from qsieve import (
    davies_model,
    lambda_pure,
    minimize_lambda,
    nearest_su11_coherent,
    projector,
    su11_coherent_state,
    superposition_grid,
)
from qsieve.models import su11_min_cutoff


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-levels", type=int, default=40)
    parser.add_argument("--kappa", type=float, default=1.0)
    parser.add_argument("--n-starts", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    N, kappa = args.n_levels, args.kappa
    started = time.monotonic()
    gen = davies_model(N, kappa)
    flat = 2.0 * kappa / 3.0

    print(f"lambda on the coherent orbit (analytic value {flat:.12f}):")
    for zeta in (0.0, 0.3, 0.45j, -0.35 + 0.25j, 0.6):
        if su11_min_cutoff(zeta) > N:
            print(f"  zeta = {zeta!s:>12}: skipped (cutoff {N} too small)")
            continue
        lam = lambda_pure(gen, su11_coherent_state(N, zeta))
        print(f"  zeta = {zeta!s:>12}: lambda = {lam:.12f} "
              f"(error {lam - flat:+.2e})")

    report = minimize_lambda(gen, n_starts=args.n_starts, seed=args.seed)
    print(f"\nsieve: a0 = {report.a0:.9f} (2 kappa/3 = {flat:.9f}), "
          f"epsilon = {report.epsilon:.2e}, "
          f"{len(report.minimizers)} minimizers, "
          f"{report.failed_starts} failed starts")
    for psi, lam in zip(report.minimizers, report.minimizer_lambdas):
        zeta, fid = nearest_su11_coherent(psi)
        print(f"  lambda = {lam:.9f}, nearest coherent zeta = "
              f"{zeta.real:+.3f}{zeta.imag:+.3f}j, fidelity = {fid:.7f}")

    print("\nsuperposition exclusion (minimum lambda over a 24x16 grid):")
    threshold = report.a0 + report.epsilon
    for z1, z2 in [(0.5, -0.5), (0.55j, -0.55j), (0.6, -0.6)]:
        if max(su11_min_cutoff(z1), su11_min_cutoff(z2)) > N:
            print(f"  pair ({z1}, {z2}): skipped (cutoff {N} too small)")
            continue
        e = projector(su11_coherent_state(N, z1))
        f = projector(su11_coherent_state(N, z2))
        lams = [lambda_pure(gen, psi)
                for psi in superposition_grid(e, f, 24, 16)]
        print(f"  pair ({z1}, {z2}): min lambda = {min(lams):.9f}, "
              f"margin above a0 + eps = {min(lams) - threshold:+.2e}")

    print(f"\nelapsed: {time.monotonic() - started:.1f}s")


if __name__ == "__main__":
    main()
