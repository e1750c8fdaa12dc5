#!/usr/bin/env python3
"""Amplitude sweep for the sinh-Gordon reduction: the deviation of the
full nonlinear run from a linearized run of the same scheme scales as the
cube of the amplitude, so doubling the amplitude multiplies it by 8.

--json prints one JSON object holding the lists ``eps``, ``rel`` (the
max deviation from the exact linear field, relative to its size),
``dev`` (the nonlinear deviation) and ``ratio`` (ratio[k] is
dev[k] / dev[k-1], null for the first amplitude)."""

import argparse
import json

import numpy as np

from looptoda import solver


def run(eps_list, cells: int) -> dict:
    system = solver.sine_gordon_system()
    grid = solver.Grid(0, 1, 0, 1, cells, cells)
    sweep = {"eps": [], "rel": [], "dev": [], "ratio": []}
    for eps in eps_list:
        hist = solver.integrate(system, solver.sinh_data(eps, grid), grid)
        field = solver.sinh_gordon_reduce(hist)
        lin_run = solver.integrate(
            system, solver.sinh_data(eps, grid), grid, law=lambda gs: [2.0 * np.log(gs[0])]
        ).gammas[0][..., 0, 0]
        dev = float(np.max(np.abs(field - 2.0 * np.log(lin_run.real))))
        lin = solver.sinh_linear_field(grid.zm_points(), grid.zp_points()[:, None], eps)
        rel = float(np.max(np.abs(field - lin)) / np.max(np.abs(lin)))
        sweep["ratio"].append(dev / sweep["dev"][-1] if sweep["dev"] else None)
        sweep["eps"].append(eps)
        sweep["rel"].append(rel)
        sweep["dev"].append(dev)
    return sweep


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cells", type=int, default=128)
    ap.add_argument("--eps", type=float, nargs="+", default=[1e-3, 2e-3, 4e-3])
    ap.add_argument("--json", action="store_true", help="print one JSON object of the sweep")
    args = ap.parse_args()
    sweep = run(args.eps, args.cells)
    if args.json:
        print(json.dumps(sweep, indent=2))
        return
    for eps, rel, dev, ratio in zip(sweep["eps"], sweep["rel"], sweep["dev"], sweep["ratio"]):
        suffix = "" if ratio is None else f"  dev ratio {ratio:.2f}"
        print(f"eps {eps:.1e}  rel vs exact linear {rel:.3e}  nonlinear dev {dev:.3e}{suffix}")


if __name__ == "__main__":
    main()
