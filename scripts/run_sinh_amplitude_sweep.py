#!/usr/bin/env python3
"""Amplitude sweep for the sinh-Gordon reduction: the deviation of the
full nonlinear run from a linearized run of the same scheme scales as the
cube of the amplitude."""

import argparse

import numpy as np

from looptoda import solver


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cells", type=int, default=128)
    ap.add_argument("--eps", type=float, nargs="+", default=[1e-3, 2e-3, 4e-3])
    args = ap.parse_args()

    system = solver.sine_gordon_system()
    grid = solver.Grid(0, 1, 0, 1, args.cells, args.cells)
    zm, zp = np.meshgrid(grid.zm_points(), grid.zp_points())
    prev = None
    for eps in args.eps:
        hist = solver.integrate(system, solver.sinh_data(eps, 1.0, grid), grid)
        field = solver.sinh_gordon_reduce(hist)
        lin_run = solver.integrate(
            system, solver.sinh_data(eps, 1.0, grid), grid, law=lambda gs: [2.0 * np.log(gs[0])]
        ).gammas[0][..., 0, 0]
        dev = float(np.max(np.abs(field - 2.0 * np.log(lin_run.real))))
        lin = solver.sinh_linear_field(zm, zp, eps, 1.0)
        rel = float(np.max(np.abs(field - lin)) / np.max(np.abs(lin)))
        ratio = "" if prev is None else f"  dev ratio {dev / prev:.2f}"
        print(f"eps {eps:.1e}  rel vs exact linear {rel:.3e}  nonlinear dev {dev:.3e}{ratio}")
        prev = dev


if __name__ == "__main__":
    main()
