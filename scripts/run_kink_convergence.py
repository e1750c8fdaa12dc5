#!/usr/bin/env python3
"""Kink convergence study: L-inf error against the analytic kink under
step refinement, at the preset slope and at the symmetric slope sqrt(2).
The scheme is second order at both: the ratio of successive errors
approaches 4.

--json prints one JSON object keyed by slope, each entry holding the
lists ``cells``, ``h``, ``L_inf`` and ``ratio`` (ratio[k] is
L_inf[k-1] / L_inf[k], null for the first grid)."""

import argparse
import json

import numpy as np

from looptoda import solver


def run(a: float, cells_list) -> dict:
    system = solver.sine_gordon_system()
    study = {"cells": [], "h": [], "L_inf": [], "ratio": []}
    for cells in cells_list:
        grid = solver.Grid(-5, 5, -5, 5, cells, cells)
        hist = solver.integrate(system, solver.kink_data(a, grid), grid)
        field = solver.sine_gordon_reduce(hist)
        kink = solver.analytic_kink(grid.zm_points(), grid.zp_points()[:, None], a)
        err = float(np.max(np.abs(field - kink)))
        study["ratio"].append(study["L_inf"][-1] / err if study["L_inf"] else None)
        study["cells"].append(cells)
        study["h"].append(grid.h_minus)
        study["L_inf"].append(err)
    return study


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cells", type=int, nargs="+", default=[128, 256, 512])
    ap.add_argument("--slopes", type=float, nargs="+", default=[solver.KINK_SLOPE, 2 ** 0.5])
    ap.add_argument("--json", action="store_true", help="print one JSON object keyed by slope")
    args = ap.parse_args()
    studies = {repr(a): run(a, args.cells) for a in args.slopes}
    if args.json:
        print(json.dumps(studies, indent=2))
        return
    for a, study in studies.items():
        print(f"# kink slope a = {a}")
        for cells, h, err, ratio in zip(study["cells"], study["h"], study["L_inf"], study["ratio"]):
            suffix = "" if ratio is None else f"  ratio {ratio:.2f}"
            print(f"cells {cells:5d}  h {h:.5f}  L_inf {err:.4e}{suffix}")
        print()


if __name__ == "__main__":
    main()
