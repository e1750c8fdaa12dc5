"""Command line surface: validate, enumerate, simulate, check.

Exit codes form a stable contract: 0 success, 1 domain failure (invalid
spec, failed invariant), 2 parse error, 3 enumeration cap exceeded,
4 blow-up during integration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import folding, gradation, solver, toda
from .lie_core import b_transpose, expm, max_abs

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_BLOWUP = 4

PRESETS = ("sine-gordon-kink", "sinh-gordon", "periodic-chain", "free-field")


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _load_json(path: str):
    with open(path, "r") as fh:
        return json.load(fh)


def _dump_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _enum_cap() -> int:
    raw = os.environ.get("TODA_MAX_ENUM")
    if raw is None:
        return gradation.DEFAULT_ENUM_CAP
    return int(raw)


def cmd_validate(args) -> int:
    try:
        payload = _load_json(args.spec)
        spec = gradation.spec_from_json(payload)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    violations = gradation.validate_spec(spec)
    if args.json:
        sys.stdout.write(_dump_json({"valid": not violations, "violations": violations}))
    else:
        for v in violations:
            print(v)
        if not violations:
            print("valid")
    return EXIT_OK if not violations else EXIT_DOMAIN


def _spec_summary(spec) -> dict:
    entry = {"spec": spec.to_json()}
    eq_class, variant = toda.classify_spec(spec)
    entry["equation_class"] = eq_class
    if variant:
        entry["variant"] = variant
    if isinstance(spec, gradation.TrivialSpec):
        return entry
    table = gradation.block_index_table(spec)
    entry["index_table"] = [list(row) for row in table.entries]
    return entry


def cmd_enumerate(args) -> int:
    try:
        specs = gradation.enumerate_specs(args.family, args.n, args.M, cap=_enum_cap())
    except gradation.EnumerationCapError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if args.json:
        sys.stdout.write(_dump_json([_spec_summary(s) for s in specs]))
        return EXIT_OK
    if args.latex:
        for s in specs:
            print(f"% {json.dumps(s.to_json(), sort_keys=True)}")
            if isinstance(s, gradation.TrivialSpec):
                continue
            print(toda.table_to_latex(gradation.block_index_table(s)))
        return EXIT_OK
    for s in specs:
        eq_class, variant = toda.classify_spec(s)
        if isinstance(s, gradation.TrivialSpec):
            print(f"trivial family={s.family} n={s.n} M={s.M} class={eq_class}")
            continue
        table = gradation.block_index_table(s)
        tag = f"{eq_class}/{variant}" if variant else eq_class
        print(
            f"{s.gradation_type} family={s.family} n_list={list(s.n_list)} "
            f"k_list={list(s.k_list)} M={s.M} offset={s.phase_offset} class={tag}"
        )
        for row in table.entries:
            print("   ", list(row))
    return EXIT_OK


def _parse_grid(text: str) -> solver.Grid:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 6:
        raise ValueError("grid spec needs zmin,zmax,wmin,wmax,h_minus,h_plus")
    zmin, zmax, wmin, wmax, hm, hp = parts
    if not all(math.isfinite(v) for v in parts) or hm <= 0 or hp <= 0:
        raise ValueError("grid values must be finite and the steps h_minus, h_plus positive")
    n_minus = round((zmax - zmin) / hm)
    n_plus = round((wmax - wmin) / hp)
    if abs(n_minus * hm - (zmax - zmin)) > 1e-9 or abs(n_plus * hp - (wmax - wmin)) > 1e-9:
        raise ValueError("steps must divide the ranges evenly")
    return solver.Grid(zmin, zmax, wmin, wmax, int(n_minus), int(n_plus))


def _constant_initial_from_file(system, path):
    payload = _load_json(path)
    blocks = tuple(toda._array_from_json(b) for b in payload["gammas"])
    state = toda.FieldState(gammas=blocks)
    return solver.constant_data(state)


def _run_preset(name, grid, config):
    meta = {}
    if name == "sine-gordon-kink":
        system = solver.sine_gordon_system()
        grid = grid or solver.Grid(-5, 5, -5, 5, 512, 512)
        a = solver.KINK_SLOPE
        hist = solver.integrate(system, solver.kink_data(a, grid), grid, config, march_minus=-1)
        if not hist.halted:
            F = solver.sine_gordon_reduce(hist)
            zm, zp = np.meshgrid(grid.zm_points(), grid.zp_points())
            meta["kink_slope"] = a
            meta["l_inf_error_vs_kink"] = float(np.max(np.abs(F - solver.analytic_kink(zm, zp, a))))
        return hist, meta
    if name == "sinh-gordon":
        system = solver.sine_gordon_system()
        grid = grid or solver.Grid(0, 1, 0, 1, 128, 128)
        eps, a = 1e-3, 1.0
        hist = solver.integrate(system, solver.sinh_data(eps, a, grid), grid, config)
        if not hist.halted:
            F = solver.sinh_gordon_reduce(hist)
            zm, zp = np.meshgrid(grid.zm_points(), grid.zp_points())
            lin = solver.sinh_linear_field(zm, zp, eps, a)
            meta["amplitude"] = eps
            meta["rel_error_vs_linearized"] = float(np.max(np.abs(F - lin)) / np.max(np.abs(lin)))
        return hist, meta
    if name == "periodic-chain":
        system = toda.build_periodic_chain(3, 2)
        grid = grid or solver.Grid(0, 1, 0, 1, 64, 64)
        rng = np.random.default_rng(2024)
        gens = []
        for _ in range(3):
            h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            gens.append((h + h.conj().T) / 2)

        def edge(t):
            return tuple(expm(0.25j * np.sin(t + alpha) * gens[alpha]) for alpha in range(3))

        hist = solver.integrate(system, solver.CharacteristicData(edge, edge), grid, config)
        if not hist.halted:
            meta["det_factorization_defect"] = solver.det_factorization_defect(hist)
        return hist, meta
    if name == "free-field":
        spec = gradation.make_spec("gl", gradation.TYPE_GL_INNER, 2, (1, 1), (1,))
        zero = np.zeros((1, 1))
        one = np.eye(1)
        system = toda.build_system(spec, 1, (zero, zero), (one, one))
        grid = grid or solver.Grid(0, 1, 0, 1, 64, 64)

        def bottom(z):
            return (np.array([[np.exp(0.2 * np.sin(z))]]), np.array([[np.exp(-0.2 * np.sin(z))]]))

        def left(w):
            return (np.array([[np.exp(0.1 * w)]]), np.array([[np.exp(-0.1 * w)]]))

        def bottom_full(z):
            bl = bottom(z)
            ll = left(0.0)
            return tuple(l @ b for l, b in zip(ll, bl))

        def left_full(w):
            bl = bottom(0.0)
            ll = left(w)
            return tuple(l @ b for l, b in zip(ll, bl))

        hist = solver.integrate(system, solver.CharacteristicData(bottom_full, left_full), grid, config)
        if not hist.halted:
            dev = 0.0
            for j, w in enumerate(grid.zp_points()):
                for b in range(2):
                    exact = left(w)[b][0, 0] * np.array([bottom(z)[b][0, 0] for z in grid.zm_points()])
                    dev = max(dev, float(np.max(np.abs(hist.gammas[b][j, :, 0, 0] - exact))))
            meta["free_field_deviation"] = dev
        return hist, meta
    raise ValueError(f"unknown preset {name!r}")


def cmd_simulate(args) -> int:
    config = solver.SolverConfig() if args.tol is None else solver.SolverConfig(tol_constraint=args.tol)
    outdir = args.output or "."
    try:
        grid = _parse_grid(args.grid) if args.grid else None
        os.makedirs(outdir, exist_ok=True)
    except (OSError, ValueError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        if args.preset:
            hist, meta = _run_preset(args.preset, grid, config)
            source = {"preset": args.preset}
        else:
            payload = _load_json(args.system)
            system = toda.system_from_json(payload)
            if grid is None:
                grid = solver.Grid(0, 1, 0, 1, 64, 64)
            if args.initial:
                data = _constant_initial_from_file(system, args.initial)
            else:
                state = toda.random_state(system, np.random.default_rng(0), scale=0.2)
                data = solver.constant_data(state)
            hist = solver.integrate(system, data, grid, config)
            meta = {}
            source = {"system": args.system}
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (toda.BuildError, toda.ConstraintViolationError, gradation.SpecError, ValueError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN

    csv_path = os.path.join(outdir, "field.csv")
    lines = solver.write_history_csv(hist, csv_path)
    status = EXIT_BLOWUP if hist.halted else EXIT_OK
    manifest = {
        "command": "simulate",
        "source": source,
        "system": {
            "class": hist.system.equation_class,
            "block_sizes": list(hist.system.block_sizes),
            "L": hist.system.L,
            "spec": hist.system.spec.to_json() if hist.system.spec is not None else None,
        },
        "grid": hist.grid.to_json(),
        "config": hist.config.to_json(),
        "outputs": {"csv": "field.csv", "csv_lines": lines},
        "halted": hist.halted,
        "halt_reason": hist.halt_reason,
        "completed_rows": hist.completed_rows,
        "max_constraint_residual": float(np.max(hist.constraint_residuals))
        if hist.constraint_residuals.size else 0.0,
        "exit_status": status,
    }
    manifest.update(meta)
    if not hist.halted and hist.completed_rows >= 3 and hist.grid.n_minus >= 2:
        manifest["max_residual"] = float(solver.residual(hist))
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        fh.write(_dump_json(manifest))
    print(_dump_json(manifest), end="")
    return status


def _check_lines(spec, tol: float):
    """Invariant battery for one spec; yields (name, passed, value)."""
    rng = np.random.default_rng(0)
    n = spec.n
    aut = gradation.build_automorphism(spec)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    y = x.copy()
    for _ in range(aut.order):
        y = gradation.apply_automorphism(aut, y)
    yield "automorphism_order", max_abs(y - x) <= tol, max_abs(y - x)

    xs = gradation.grading_components(x, aut)
    total = xs.sum(axis=0)
    yield "projector_completeness", max_abs(total - x) <= tol, max_abs(total - x)

    # [x_k, y_l] must have no component of residue m != k + l (mod M)
    ys = gradation.grading_components(x.T.conj(), aut)
    res = np.arange(aut.order)
    worst = 0.0
    for k in range(aut.order):
        br = xs[k] @ ys - ys @ xs[k]
        off_grade = res[:, None] != (k + res[None, :]) % aut.order  # [m, l]
        worst = max(worst, max_abs(gradation.grading_components(br, aut)[off_grade]))
    yield "bracket_closure", worst <= tol, worst

    if isinstance(spec, gradation.GradationSpec):
        if spec.family in ("so", "sp"):
            b = gradation.structure_for_spec(spec)
            xa = (x - b_transpose(x, b)) / 2.0
            image = gradation.apply_automorphism(aut, xa)
            dev = max_abs(b_transpose(image, b) + image)
            yield "algebra_membership_preserved", dev <= 1e-9, dev

        table = gradation.block_index_table(spec)
        offs = np.cumsum((0,) + spec.n_list)
        dev = 0
        for a in range(spec.p):
            for b in range(spec.p):
                z = np.zeros((n, n), dtype=complex)
                z[offs[a]:offs[a + 1], offs[b]:offs[b + 1]] = rng.standard_normal(
                    (spec.n_list[a], spec.n_list[b])
                )
                if not set(gradation.grading_support(z, aut)) <= set(table.residues(a, b)):
                    dev += 1
        yield "index_table_vs_projector", dev == 0, float(dev)

        L = gradation.minimal_grade(spec)
        cp, cm = toda.random_c_blocks(spec, L, rng)
        system = toda.build_system(spec, L, cp, cm)
        state = toda.random_state(system, rng)
        dev = toda.rhs_blocks_vs_full(system, state)
        yield "block_vs_full", dev <= 1e-11, dev

        if system.engine is not None and all(k == L for k in spec.k_list):
            drift = folding.verify_fold_invariance(system, state, steps=8, step=1e-3)
            yield "fold_invariance_drift", drift <= 1e-8, drift


def cmd_check(args) -> int:
    try:
        payload = _load_json(args.spec)
        spec = gradation.spec_from_json(payload)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    violations = gradation.validate_spec(spec)
    if violations:
        for v in violations:
            print(f"FAIL validation: {v}")
        return EXIT_DOMAIN
    print("PASS validation")
    tol = 1e-12 if args.tol is None else args.tol
    status = EXIT_OK
    for name, passed, value in _check_lines(spec, tol):
        print(f"{'PASS' if passed else 'FAIL'} {name} ({value:.3e})")
        if not passed:
            status = EXIT_DOMAIN
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="looptoda",
        description="Gradations of the classical Lie algebras and loop-group Toda systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate a gradation spec file")
    p_val.add_argument("--spec", required=True)
    p_val.add_argument("--json", action="store_true")
    p_val.set_defaults(func=cmd_validate)

    p_enum = sub.add_parser("enumerate", help="list valid gradations for (family, n, M)")
    p_enum.add_argument("--family", required=True, choices=("gl", "sl", "so", "sp"))
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--M", type=int, required=True)
    p_enum.add_argument("--json", action="store_true")
    p_enum.add_argument("--latex", action="store_true")
    p_enum.set_defaults(func=cmd_enumerate)

    p_sim = sub.add_parser("simulate", help="integrate a Toda system")
    p_sim.add_argument("--preset", choices=PRESETS)
    p_sim.add_argument("--system", help="system JSON file")
    p_sim.add_argument("--initial", help="constant initial state JSON file")
    p_sim.add_argument("--grid", help="zmin,zmax,wmin,wmax,h_minus,h_plus")
    p_sim.add_argument("--output", help="output directory")
    p_sim.add_argument("--tol", type=_positive_float)
    p_sim.set_defaults(func=cmd_simulate)

    p_check = sub.add_parser("check", help="run the invariant suite for a spec")
    p_check.add_argument("--spec", required=True)
    p_check.add_argument("--tol", type=_positive_float)
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate" and not (args.preset or args.system):
        print("simulate needs --preset or --system", file=sys.stderr)
        return EXIT_PARSE
    return args.func(args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
