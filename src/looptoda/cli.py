"""Command line surface: validate, enumerate, simulate, check.

Exit codes form a stable contract: 0 success, 1 domain failure (invalid
spec, failed invariant), 2 parse error, 3 size cap exceeded (the
enumeration cap, a ``check`` spec with M n^2 above ``CHECK_MAX_ORBIT``, or
a ``simulate`` lattice that cannot be allocated), 4 blow-up during
integration.  The ``cmd_*`` functions compute and raise; :func:`main` is
the one place where an error becomes its exit code and its one stderr
line, so an undecodable or over-nested file is a parse error (exit 2)
for every command.
"""

from __future__ import annotations

import argparse
import functools
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


class ParseError(ValueError):
    """An input that could not be read: exit 2, not a domain failure."""


class CapError(Exception):
    """An input above a size cap: exit 3."""


def _load_json(path: str):
    """The JSON value in the file at path; bytes that do not decode, or
    decode to no JSON value or one nested too deep, raise ParseError."""
    with open(path, "r") as fh:
        try:
            return json.load(fh)
        except (RecursionError, ValueError) as exc:
            raise ParseError(exc) from None


def _dump_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def cmd_validate(args) -> int:
    spec = gradation.spec_from_json(_load_json(args.spec))
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
    eq_class, variant = toda.classify_spec(spec)
    entry = {"spec": spec.to_json(), "equation_class": eq_class}
    if variant:
        entry["variant"] = variant
    if not isinstance(spec, gradation.TrivialSpec):
        entry["index_table"] = [list(row) for row in gradation.block_index_table(spec).entries]
    return entry


def cmd_enumerate(args) -> int:
    try:
        specs = gradation.enumerate_specs(args.family, args.n, args.M)
    except ValueError as exc:  # n or M below 1
        raise ParseError(exc) from None
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
        entry = _spec_summary(s)
        if "index_table" not in entry:
            print(f"trivial family={s.family} n={s.n} M={s.M} class={entry['equation_class']}")
            continue
        tag = entry["equation_class"] + (f"/{entry['variant']}" if "variant" in entry else "")
        print(
            f"{s.gradation_type} family={s.family} n_list={list(s.n_list)} "
            f"k_list={list(s.k_list)} M={s.M} offset={s.phase_offset} class={tag}"
        )
        for row in entry["index_table"]:
            print("   ", row)
    return EXIT_OK


def _parse_grid(text: str) -> solver.Grid:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 6:
        raise ValueError("grid spec needs zmin,zmax,wmin,wmax,h_minus,h_plus")
    zmin, zmax, wmin, wmax, hm, hp = parts
    if not all(math.isfinite(v) for v in parts) or hm <= 0 or hp <= 0:
        raise ValueError("grid values must be finite and the steps h_minus, h_plus positive")
    counts = ((zmax - zmin) / hm, (wmax - wmin) / hp)
    if not all(math.isfinite(c) for c in counts):
        raise ValueError("grid steps are too small for their ranges")
    n_minus, n_plus = (round(c) for c in counts)
    if abs(n_minus * hm - (zmax - zmin)) > 1e-9 or abs(n_plus * hp - (wmax - wmin)) > 1e-9:
        raise ValueError("steps must divide the ranges evenly")
    return solver.Grid(zmin, zmax, wmin, wmax, int(n_minus), int(n_plus))


def _run_preset(name, grid):
    meta = {}
    if name == "sine-gordon-kink":
        system = solver.sine_gordon_system()
        grid = grid or solver.Grid(-5, 5, -5, 5, 512, 512)
        a = solver.KINK_SLOPE
        hist = solver.integrate(system, solver.kink_data(a, grid), grid)
        if not hist.halted:
            F = solver.sine_gordon_reduce(hist)
            kink = solver.analytic_kink(grid.zm_points(), grid.zp_points()[:, None], a)
            meta["kink_slope"] = a
            meta["l_inf_error_vs_kink"] = float(np.max(np.abs(F - kink)))
        return hist, meta
    if name == "sinh-gordon":
        system = solver.sine_gordon_system()
        grid = grid or solver.Grid(0, 1, 0, 1, 128, 128)
        eps = 1e-3
        hist = solver.integrate(system, solver.sinh_data(eps, grid), grid)
        if not hist.halted:
            F = solver.sinh_gordon_reduce(hist)
            lin = solver.sinh_linear_field(grid.zm_points(), grid.zp_points()[:, None], eps)
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

        hist = solver.integrate(system, solver.CharacteristicData(edge, edge), grid)
        if not hist.halted:
            meta["det_factorization_defect"] = solver.det_factorization_defect(hist)
        return hist, meta
    # free-field, the last name argparse's choices=PRESETS admit
    spec = gradation.make_spec("gl", gradation.TYPE_GL_INNER, 2, (1, 1), (1,))
    zero = np.zeros((1, 1))
    one = np.eye(1)
    system = toda.build_system(spec, 1, (zero, zero), (one, one))
    grid = grid or solver.Grid(0, 1, 0, 1, 64, 64)

    def bottom(z):
        return (np.array([[np.exp(0.2 * np.sin(z))]]), np.array([[np.exp(-0.2 * np.sin(z))]]))

    def left(w):
        return (np.array([[np.exp(0.1 * w)]]), np.array([[np.exp(-0.1 * w)]]))

    hist = solver.integrate(system, solver.CharacteristicData(bottom, left), grid)
    if not hist.halted:
        # the exact field is left(w) * bottom(z), block by block
        bottoms = np.array([[g[0, 0] for g in bottom(z)] for z in grid.zm_points()])
        lefts = np.array([[g[0, 0] for g in left(w)] for w in grid.zp_points()])
        meta["free_field_deviation"] = max(
            float(np.max(np.abs(hist.gammas[b][..., 0, 0] - np.outer(lefts[:, b], bottoms[:, b]))))
            for b in range(2)
        )
    return hist, meta


def cmd_simulate(args) -> int:
    """Integrate a preset or a system file.  --output is made once the
    march returns, so an input that fails, or a lattice that cannot be
    allocated, leaves nothing behind."""
    outdir = args.output or "."
    try:
        grid = _parse_grid(args.grid) if args.grid else None
    except ValueError as exc:  # Grid's own checks included
        raise ParseError(exc) from None
    if args.preset:
        hist, meta = _run_preset(args.preset, grid)
        source = {"preset": args.preset}
    else:
        system = toda.system_from_json(_load_json(args.system))
        if args.initial:
            state = [toda._array_from_json(b) for b in _load_json(args.initial)["gammas"]]
        else:
            state = toda.random_state(system, np.random.default_rng(0), scale=0.2)
        toda.check_state(system, state)
        hist = solver.integrate(system, solver.constant_data(state),
                                grid or solver.Grid(0, 1, 0, 1, 64, 64))
        meta = {}
        source = {"system": args.system}

    status = EXIT_BLOWUP if hist.halted else EXIT_OK
    manifest = {
        "command": "simulate",
        "source": source,
        "system": {
            "class": hist.system.equation_class,
            "block_sizes": list(hist.system.block_sizes),
            "L": hist.system.L,
            "spec": None if hist.system.outer else hist.system.spec.to_json(),
        },
        "grid": hist.grid.to_json(),
        "config": {
            "tol_constraint": toda.TOL_CONSTRAINT,
            "tol_invertibility": toda.INVERTIBILITY_BOUND,
        },
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
    os.makedirs(outdir, exist_ok=True)
    lines = solver.write_history_csv(hist, os.path.join(outdir, "field.csv"))
    manifest["outputs"] = {"csv": "field.csv", "csv_lines": lines}
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        fh.write(_dump_json(manifest))
    print(_dump_json(manifest), end="")
    return status


#: bound on the round-off of the automorphism, projector, bracket and fold lines of ``check``
CHECK_TOL = 1e-12

#: largest M n^2 ``check`` takes: its largest buffers are the (M, n, n)
#: orbit and component stacks, 4 MiB each at this size
CHECK_MAX_ORBIT = 2**18


def _check_lines(spec):
    """Invariant battery for one spec; yields (name, passed, value), the
    value a deviation or the text of why a line could not be measured.

    Every line reads one random x, its conjugate transpose and the M
    residue components of x, so the battery holds a few (M, n, n) stacks
    and takes O(M n^2) memory and O(M^2 n^2 + n^3) time.
    """
    rng = np.random.default_rng(0)
    n = spec.n
    aut = gradation.build_automorphism(spec)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    y = x.copy()
    for _ in range(aut.order):
        y = gradation.apply_automorphism(aut, y)
    yield "automorphism_order", max_abs(y - x) <= CHECK_TOL, max_abs(y - x)

    xs = gradation.grading_components(x, aut)
    total = xs.sum(axis=0)
    yield "projector_completeness", max_abs(total - x) <= CHECK_TOL, max_abs(total - x)

    # [g_k, g_l] lies in g_{k+l} exactly when A is a bracket homomorphism
    # whose residue-k components are eigenvectors of eigenvalue w^k; an
    # inner A is a homomorphism for any h, so the eigen defect is needed too
    y = x.T.conj()
    ax, ay = gradation.apply_automorphism(aut, np.stack((x, y)))
    hom = max_abs(gradation.apply_automorphism(aut, x @ y - y @ x) - (ax @ ay - ay @ ax))
    w = np.exp(2j * np.pi * np.arange(aut.order) / aut.order)
    eig = max_abs(gradation.apply_automorphism(aut, xs) - w[:, None, None] * xs)
    worst = max(hom, eig)
    yield "bracket_closure", worst <= CHECK_TOL, worst

    if isinstance(spec, gradation.GradationSpec):
        if spec.family in ("so", "sp"):
            b = gradation.structure_for_spec(spec)
            xa = (x - b_transpose(x, b)) / 2.0
            image = gradation.apply_automorphism(aut, xa)
            dev = max_abs(b_transpose(image, b) + image)
            yield "algebra_membership_preserved", dev <= 1e-9, dev

        # the projectors are orthogonal, so residue k carries part of the
        # block (a, b) inputs exactly when the (a, b) block of x_k is non-zero
        table = gradation.block_index_table(spec)
        starts = np.cumsum((0,) + spec.n_list[:-1])
        peaks = np.maximum.reduceat(np.maximum.reduceat(np.abs(xs), starts, axis=1), starts, axis=2)
        support = peaks > 1e-9  # [k, a, b]
        dev = sum(not set(np.flatnonzero(support[:, a, b])) <= set(table.residues(a, b))
                  for a in range(spec.p) for b in range(spec.p))
        yield "index_table_vs_projector", dev == 0, float(dev)

        L = gradation.minimal_grade(spec)
        cp, cm = toda.random_c_blocks(spec, L, rng)
        system = toda.build_system(spec, L, cp, cm)
        # entries of X in I + X scaled by 1 / sqrt(size) keep X's eigenvalues
        # in a disk of radius about 0.57 at every block size (circular law),
        # so a large block is as far from singular as a small one
        state = toda.random_state(system, rng, scale=0.4 / math.sqrt(max(spec.n_list)))
        dev = toda.rhs_blocks_vs_full(system, state)
        yield "block_vs_full", dev <= 1e-11, dev

        if system.engine is not None and all(k == L for k in spec.k_list):
            try:
                drift = folding.verify_fold_invariance(system, state)
            except folding.FoldError as exc:
                yield "fold_invariance_drift", False, str(exc)
            else:
                yield "fold_invariance_drift", drift <= CHECK_TOL, drift


def cmd_check(args) -> int:
    spec = gradation.spec_from_json(_load_json(args.spec))
    violations = gradation.validate_spec(spec)
    if violations:
        for v in violations:
            print(f"FAIL validation: {v}")
        return EXIT_DOMAIN
    if spec.M * spec.n**2 > CHECK_MAX_ORBIT:
        raise CapError(f"check takes M n^2 up to {CHECK_MAX_ORBIT}, got {spec.M * spec.n**2}")
    print("PASS validation")
    status = EXIT_OK
    for name, passed, value in _check_lines(spec):
        verdict = "PASS" if passed else "FAIL"
        print(f"{verdict} {name}: {value}" if isinstance(value, str) else f"{verdict} {name} ({value:.3e})")
        if not passed:
            status = EXIT_DOMAIN
    return status


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing does not
    change it."""
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
    p_enum.add_argument("--family", required=True, choices=gradation.FAMILIES)
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--M", type=int, required=True)
    enum_format = p_enum.add_mutually_exclusive_group()
    enum_format.add_argument("--json", action="store_true")
    enum_format.add_argument("--latex", action="store_true")
    p_enum.set_defaults(func=cmd_enumerate)

    p_sim = sub.add_parser("simulate", help="integrate a Toda system")
    p_sim.add_argument("--preset", choices=PRESETS)
    p_sim.add_argument("--system", help="system JSON file")
    p_sim.add_argument("--initial", help="constant initial state JSON file")
    p_sim.add_argument("--grid", help="zmin,zmax,wmin,wmax,h_minus,h_plus")
    p_sim.add_argument("--output", help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_check = sub.add_parser("check", help="run the invariant suite for a spec")
    p_check.add_argument("--spec", required=True)
    p_check.set_defaults(func=cmd_check)

    return parser


def _source_error(args) -> str | None:
    """Why simulate's options name no single source, or None: exactly one
    of --preset and --system, and --initial only with --system."""
    if not (args.preset or args.system):
        return "simulate needs --preset or --system"
    if args.preset and args.system:
        return "simulate takes --preset or --system, not both"
    if args.initial and not args.system:
        return "simulate takes --initial only with --system"
    return None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's --help (0) and usage errors (2)
        return exc.code
    if args.command == "simulate":
        error = _source_error(args)
        if error:
            print(error, file=sys.stderr)
            return EXIT_PARSE
    try:
        return args.func(args)
    except (CapError, gradation.EnumerationCapError, MemoryError) as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (OSError, KeyError, TypeError, ParseError) as exc:
        print(f"parse error: {'missing key ' if isinstance(exc, KeyError) else ''}{exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
