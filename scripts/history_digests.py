#!/usr/bin/env python3
"""Digests of integrated histories, for checking that a change to the
marcher or its kernels leaves every output bit-identical.

One line per history: the sha256 over the bytes of its ``gammas``, its
``residual`` (for a history that did not halt), the sha256 over the
bytes of its ``constraint_residuals``, the compact drift where the
fold is compact, and its halt text.  The histories are the matrix-march
systems of perfbench's workloads for each seed (``--seeds``), the four
``simulate`` presets at their default grids, and two marches that halt:
the sinh-Gordon runaway and the strongly coupled gl chain.

Run it on two source trees and compare the output bytes:

    PYTHONPATH=src python3 scripts/history_digests.py --seeds 1 7

``--cells N`` marches the matrix-march systems and the presets at N
cells per side, on the same domains; the two halting marches keep
their grids.
"""

import argparse
import hashlib
import importlib.util
import os
import sys

import numpy as np

from looptoda import cli, gradation, solver, toda

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: the domain of each preset's default grid other than the unit square
PRESET_DOMAINS = {"sine-gordon-kink": (-5, 5, -5, 5)}


def _build_march_cases():
    """perfbench's ``build_march_cases``, loaded from its file: perfbench/
    is a directory of scripts, not a package, and its dataclasses look
    their module up by name."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  os.path.join(ROOT, "perfbench", "workloads.py"))
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_march_cases


def halting_marches():
    """(name, history) of the two marches that halt: the sinh runaway and
    the strongly coupled chain."""
    grid = solver.Grid(0, 1.5, 0, 1.5, 48, 48)
    yield "sinh_runaway", solver.integrate(solver.sine_gordon_system(), solver.sinh_data(1.0, grid), grid)
    c = tuple(6.0 * np.eye(2) for _ in range(3))
    chain = toda.build_system(gradation.make_spec("gl", gradation.TYPE_GL_INNER, 3, (2, 2, 2), (1, 1)), 1, c, c)
    state = toda.random_state(chain, np.random.default_rng(3), scale=0.6)
    yield "coupled_chain", solver.integrate(chain, solver.constant_data(state), solver.Grid(0, 3, 0, 3, 32, 32))


def _sha256(arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


def digest_line(name: str, hist: solver.FieldHistory, compact: bool = False) -> str:
    fields = [name, f"gammas {_sha256(hist.gammas)}",
              f"residual {'-' if hist.halted else repr(solver.residual(hist))}",
              f"constraints {_sha256([hist.constraint_residuals])}"]
    if compact:
        fields.append(f"compact_drift {solver.reality_preservation(hist, 'compact')!r}")
    fields.append(f"halt {hist.halt_reason}")
    return "  ".join(fields)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 7])
    ap.add_argument("--cells", type=int, help="cells per side of the matrix-march systems and the presets")
    args = ap.parse_args()
    build_march_cases = _build_march_cases()
    for seed in args.seeds:
        for case in build_march_cases(seed, cells=args.cells):
            hist = solver.integrate(case.system, case.data, case.grid)
            print(digest_line(f"seed{seed}/{case.name}", hist, case.compact))
    for name in cli.PRESETS:
        grid = None
        if args.cells:
            grid = solver.Grid(*PRESET_DOMAINS.get(name, (0, 1, 0, 1)), args.cells, args.cells)
        hist, _ = cli._run_preset(name, grid)
        print(digest_line(name, hist))
    for name, hist in halting_marches():
        print(digest_line(name, hist))


if __name__ == "__main__":
    main()
