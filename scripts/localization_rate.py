#!/usr/bin/env python3
"""Decay rate of wave packets under the Gaussian localization model.

On a position grid the purity decay rate has the closed form
lambda = kappa [1 - sum_jk p_j p_k exp(-alpha (x_j - x_k)^2 / 2)], so a
point mass is left untouched while spread-out packets decay at a rate
approaching (but never reaching) kappa.  The script scans a Gaussian packet
family in its width and prints the monotone rate profile.
"""

from __future__ import annotations

import argparse

import numpy as np

from qsieve import grw_model, lambda_pure, normalize_state


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=128)
    parser.add_argument("--kappa", type=float, default=1.0)
    parser.add_argument("--alpha", type=float, default=0.8)
    args = parser.parse_args()

    grid = np.linspace(-6.0, 6.0, args.points)
    gen = grw_model(grid, args.kappa, args.alpha)

    psi = np.zeros(args.points, dtype=complex)
    psi[args.points // 2] = 1.0
    print(f"point mass: lambda = {lambda_pure(gen, psi):.3e} (exact 0)")

    print(f"\n{'width':>8}  {'lambda':>14}  (kappa = {args.kappa})")
    widths = np.linspace(0.1, 3.0, 15)
    packets = normalize_state(np.exp(-(grid**2)
                                     / (4.0 * widths[:, None] ** 2)))
    prev = -np.inf
    for w, lam in zip(widths, lambda_pure(gen, packets)):
        marker = "" if lam > prev else "  <- NOT monotone"
        print(f"{w:>8.2f}  {lam:>14.9f}{marker}")
        prev = lam


if __name__ == "__main__":
    main()
