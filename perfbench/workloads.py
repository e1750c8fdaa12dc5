"""The three benchmark workloads, driven through looptoda's public API.

Each workload builds its inputs from the seed (``build``), runs every
operation once at a small size to finish lazy set-up (``warm_up``; its
results are not gated), and lists its fixed operation set as tasks
(``tasks``); the driver runs the tasks of one pass in order.  A task
returns one :class:`Op`: its wall time, the correctness gates it failed,
the exact values the trace check compares, and the work it did.

* scalar-simulate: ``looptoda simulate`` in-process on the three scalar
  presets at their default grids, writing field.csv and manifest.json.
  The presets are fixed data, so the seed is unused.
* matrix-march: ``solver.integrate`` and ``solver.residual``, no file
  output, on seeded matrix-block systems, one per equation class, plus
  the periodic chain (p=3, r=2) at 128x128.
* gradation-census: ``enumerate_specs`` over gl/so/sp for n, M <= 8,
  then ``looptoda check`` on every spec of sp_6 M=8, gl_4 M=6 and
  so_5 M=6.  The seed only shuffles the order of the checks.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from looptoda import cli, gradation, lie_core, solver, toda


@dataclass
class Op:
    name: str
    #: perf_counter at the start of the timed call, and its length
    start: float
    seconds: float
    failed: list[str] = field(default_factory=list)
    values: dict = field(default_factory=dict)
    #: work tallies, e.g. cells or csv lines, summed over a pass
    work: dict = field(default_factory=dict)
    #: ``seconds`` scaled to the nominal reference speed (set by the driver)
    norm_seconds: float = 0.0

    def gate(self, name: str, passed: bool) -> None:
        if not passed:
            self.failed.append(name)


def _quiet(argv) -> tuple[int, str, float, float]:
    """Run ``cli.main(argv)`` with its stdout captured; returns (code, out, start, seconds)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - t0
    return code, buf.getvalue(), t0, seconds


# ---------------------------------------------------------------------------
# scalar-simulate

#: preset, its small warm-up grid, and the sizes of its independent blocks
SCALAR_PRESETS = (
    ("sine-gordon-kink", "--grid=-5,5,-5,5,0.625,0.625", (1,)),
    ("sinh-gordon", "--grid=0,1,0,1,0.0625,0.0625", (1,)),
    ("free-field", "--grid=0,1,0,1,0.0625,0.0625", (1, 1)),
)


class ScalarSimulate:
    name = "scalar-simulate"
    seed_used = False

    def build(self, seed: int, workdir: str):
        return workdir

    def warm_up(self, workdir: str) -> None:
        for preset, grid, _ in SCALAR_PRESETS:
            _quiet(["simulate", "--preset", preset, grid, "--output", os.path.join(workdir, f"warm-{preset}")])

    def tasks(self, workdir: str) -> list:
        return [functools.partial(simulate_op, workdir, preset, sizes) for preset, _, sizes in SCALAR_PRESETS]


def simulate_op(workdir: str, preset: str, sizes) -> Op:
    """``looptoda simulate`` on one preset at its default grid, then the gates."""
    out = os.path.join(workdir, preset)
    code, _, start, seconds = _quiet(["simulate", "--preset", preset, "--output", out])
    op = Op(preset, start, seconds)
    op.gate("exit_code", code == 0)
    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    with open(os.path.join(out, "field.csv"), "rb") as fh:
        csv_lines = fh.read().count(b"\n") - 1
    grid = manifest["grid"]
    expected = (grid["n_minus"] + 1) * (grid["n_plus"] + 1) * sum(n * n for n in sizes)
    op.gate("csv_lines", csv_lines == expected == manifest["outputs"]["csv_lines"])
    if preset == "sine-gordon-kink":
        err = manifest.get("l_inf_error_vs_kink", float("inf"))
        op.gate("l_inf_error_vs_kink", err <= 1e-3)
        op.values["kink_linf_error"] = err
    if preset == "sinh-gordon":
        rel = manifest.get("rel_error_vs_linearized", float("inf"))
        op.gate("rel_error_vs_linearized", rel < 1e-2)
        op.values["rel_error_vs_linearized"] = rel
    op.values["max_residual"] = manifest.get("max_residual")
    op.work = {"cells": grid["n_minus"] * grid["n_plus"], "csv_lines": csv_lines}
    return op


# ---------------------------------------------------------------------------
# matrix-march

#: Data scales of the seeded systems.  Raw ``random_c_blocks`` draws give
#: seed-dependent coupling strengths (the sp (4,4) even fold halts at C
#: scale 0.5 and state scale 0.2), so every drawn C list is rescaled to a
#: largest block spectral norm of C_NORM.  These values integrate without
#: a halt and pass the gates on every seed listed in NOTES.md.
C_NORM = 0.5
STATE_SCALE = 0.1
CHAIN_EDGE_SCALE = 0.25
COMPACT_EDGE_SCALE = 0.4
#: cells per side: the periodic chain, and every other system
CHAIN_CELLS = 128
SYSTEM_CELLS = 64

#: name, family, type, M, n_list, k_list of the systems with random data
MARCH_SPECS = (
    ("general_linear", "gl", gradation.TYPE_GL_INNER, 2, (2, 2), (1,)),
    ("even_fold_4x4", "sp", gradation.TYPE_SOSP_I, 2, (4, 4), (1,)),
    ("odd_fold_arc_first", "so", gradation.TYPE_SOSP_I, 3, (2, 2, 2), (1, 1)),
    ("odd_fold_node_first", "gl", gradation.TYPE_GL_OUTER_III, 6, (2, 2, 2), (1, 1)),
    ("double_fixed_fold", "sp", gradation.TYPE_SOSP_II, 2, (2, 2), (1,)),
)


@dataclass
class MarchCase:
    name: str
    system: toda.TodaSystem
    data: solver.CharacteristicData
    grid: solver.Grid
    compact: bool = False


def _hermitian(rng, n: int) -> np.ndarray:
    """A random Hermitian matrix of unit spectral norm."""
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = h + h.conj().T
    return h / np.linalg.norm(h, 2)


def _normalised(blocks) -> tuple:
    top = max(np.linalg.norm(b, 2) for b in blocks if b.size)
    return tuple(b * (C_NORM / top) for b in blocks)


def _unit_grid(cells: int) -> solver.Grid:
    return solver.Grid(0, 1, 0, 1, cells, cells)


def build_march_cases(seed: int, cells: int | None = None) -> list[MarchCase]:
    """The seeded matrix-march systems; each draws from its own stream.

    ``cells`` replaces every system's grid size (the warm-up uses 8).
    """
    cases = []
    rng = np.random.default_rng((seed, 0))
    chain = toda.build_periodic_chain(3, 2)
    gens = [_hermitian(rng, 2) for _ in range(3)]

    def chain_edge(t):
        return tuple(lie_core.expm(CHAIN_EDGE_SCALE * 1j * np.sin(t + a) * gens[a]) for a in range(3))

    cases.append(MarchCase("periodic_chain", chain, solver.CharacteristicData(chain_edge, chain_edge),
                           _unit_grid(cells or CHAIN_CELLS)))

    rng = np.random.default_rng((seed, 1))
    spec = gradation.make_spec("sp", gradation.TYPE_SOSP_I, 2, (2, 2), (1,))
    c = np.eye(2, dtype=complex) / np.sqrt(2)
    h = _hermitian(rng, 2)

    def unitary_edge(t):
        return (lie_core.expm(COMPACT_EDGE_SCALE * 1j * np.sin(t) * h),)

    cases.append(MarchCase("even_fold_compact", toda.build_system(spec, 1, (c, c), (c, c)),
                           solver.CharacteristicData(unitary_edge, unitary_edge),
                           _unit_grid(cells or SYSTEM_CELLS), compact=True))

    for idx, (name, family, gtype, M, n_list, k_list) in enumerate(MARCH_SPECS, start=2):
        rng = np.random.default_rng((seed, idx))
        spec = gradation.make_spec(family, gtype, M, n_list, k_list)
        L = gradation.minimal_grade(spec)
        cp, cm = toda.random_c_blocks(spec, L, rng)
        system = toda.build_system(spec, L, _normalised(cp), _normalised(cm))
        state = toda.random_state(system, rng, scale=STATE_SCALE)
        cases.append(MarchCase(name, system, solver.constant_data(state),
                               _unit_grid(cells or SYSTEM_CELLS)))

    rng = np.random.default_rng((seed, len(MARCH_SPECS) + 2))
    cp, cm = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2))
    system = toda.build_simplest("gl", *_normalised((cp,)), *_normalised((cm,)))
    state = toda.random_state(system, rng, scale=STATE_SCALE)
    cases.append(MarchCase("simplest", system, solver.constant_data(state), _unit_grid(cells or SYSTEM_CELLS)))
    return cases


def march_case(case: MarchCase) -> Op:
    """Integrate one system and take its residual, then apply the gates."""
    t0 = time.perf_counter()
    hist = solver.integrate(case.system, case.data, case.grid)
    res = None if hist.halted else solver.residual(hist)
    op = Op(case.name, t0, time.perf_counter() - t0, work={"cells": case.grid.n_minus * case.grid.n_plus})
    op.gate("no_halt", not hist.halted)
    if hist.halted:
        return op
    constraint = float(np.max(hist.constraint_residuals)) if hist.constraint_residuals.size else 0.0
    op.gate("constraint_residual", constraint <= 1e-10)
    op.gate("max_residual", res < 1e-2)
    op.values["max_residual"] = res
    op.values["constraint_residual"] = constraint
    if case.compact:
        drift = solver.reality_preservation(hist, "compact")
        op.gate("compact_drift", drift <= 1e-8)
        op.values["compact_drift"] = drift
    return op


class MatrixMarch:
    name = "matrix-march"
    seed_used = True

    def build(self, seed: int, workdir: str):
        return build_march_cases(seed), build_march_cases(seed, cells=8)

    def warm_up(self, inputs) -> None:
        for case in inputs[1]:
            march_case(case)

    def tasks(self, inputs) -> list:
        return [functools.partial(march_case, case) for case in inputs[0]]


# ---------------------------------------------------------------------------
# gradation-census

CENSUS_MAX_N = 8
CENSUS_MAX_M = 8
#: counts printed by scripts/enumerate_gradations.py --max-n 8 --max-M 8
CENSUS_TABLE = {
    "gl": {"gl_inner": 12805, "gl_outer_II": 42, "gl_outer_III": 56, "trivial": 64},
    "so": {"sosp_I": 489, "sosp_II": 277, "trivial": 64},
    "sp": {"sosp_I": 383, "sosp_II": 52, "trivial": 32},
}
CHECK_SETS = (("sp", 6, 8), ("gl", 4, 6), ("so", 5, 6))
#: name of the census enumeration operation; every other census operation is a check
ENUM_OP = "enumerate_census"


def census_counts() -> dict:
    table = {}
    for family in ("gl", "so", "sp"):
        counts = Counter()
        for n in range(1, CENSUS_MAX_N + 1):
            if family == "sp" and n % 2:
                continue
            for M in range(1, CENSUS_MAX_M + 1):
                for spec in gradation.enumerate_specs(family, n, M):
                    key = "trivial" if isinstance(spec, gradation.TrivialSpec) else spec.gradation_type
                    counts[key] += 1
        table[family] = dict(sorted(counts.items()))
    return table


def census_op() -> Op:
    """Enumerate the census and compare its counts with the pinned table."""
    t0 = time.perf_counter()
    table = census_counts()
    op = Op(ENUM_OP, t0, time.perf_counter() - t0)
    op.gate("census_table", table == CENSUS_TABLE)
    op.values["table"] = table
    op.work = {"enumerated_specs": sum(sum(counts.values()) for counts in table.values())}
    return op


def _check_op(name: str, path: str) -> Op:
    code, out, start, seconds = _quiet(["check", "--spec", path])
    op = Op(name, start, seconds)
    op.gate("exit_code", code == 0)
    lines = out.splitlines()
    op.gate("all_pass", bool(lines) and all(line.startswith("PASS ") for line in lines))
    op.values["output"] = out
    return op


class GradationCensus:
    name = "gradation-census"
    seed_used = True

    def build(self, seed: int, workdir: str):
        """The shuffled spec files, and the first spec of each set for the warm-up.

        The warm-up specs do not depend on the seed, so neither does the set-up time.
        """
        paths, warm = [], []
        for family, n, M in CHECK_SETS:
            for idx, spec in enumerate(gradation.enumerate_specs(family, n, M)):
                path = os.path.join(workdir, f"{family}{n}-M{M}-{idx:03d}.json")
                with open(path, "w") as fh:
                    json.dump(spec.to_json(), fh, sort_keys=True)
                paths.append(path)
            warm.append(paths[-idx - 1])
        order = np.random.default_rng(seed).permutation(len(paths))
        return [paths[i] for i in order], warm

    def warm_up(self, inputs) -> None:
        gradation.enumerate_specs("gl", 4, 4)
        for path in inputs[1]:
            _check_op(os.path.basename(path), path)

    def tasks(self, inputs) -> list:
        return [census_op] + [functools.partial(_check_op, os.path.basename(path), path) for path in inputs[0]]


WORKLOADS = {w.name: w for w in (ScalarSimulate(), MatrixMarch(), GradationCensus())}
