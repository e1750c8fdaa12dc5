"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
measured values.
"""

import numpy as np
import pytest

from looptoda import folding
from looptoda import gradation as gr
from looptoda import lie_core as lc
from looptoda import solver, toda

import oracles


def report(criterion: str, passed: bool, detail: str) -> bool:
    print(f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}")
    return passed


def chain_spec(family, gtype, n_list, L=1):
    p = len(n_list)
    M = p * L if gtype in (gr.TYPE_GL_INNER, gr.TYPE_SOSP_I, gr.TYPE_SOSP_II) else 2 * p * L
    return gr.make_spec(family, gtype, M, n_list, (L,) * (p - 1))


def test_criterion_1_gradation_algebra():
    """Closure, completeness, finite order and membership for every spec
    with n <= 6, M <= 6."""
    rng = np.random.default_rng(101)
    tol = 1e-12
    count = 0
    worst = 0.0
    for family in ("gl", "sl", "so", "sp"):
        for n in range(1, 7):
            if family == "sp" and n % 2:
                continue
            for M in range(1, 7):
                for spec in gr.enumerate_specs(family, n, M):
                    count += 1
                    aut = gr.build_automorphism(spec)
                    order = aut.order
                    omega = np.exp(2j * np.pi / order)
                    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                    y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

                    z = x.copy()
                    for _ in range(order):
                        z = gr.apply_automorphism(aut, z)
                    worst = max(worst, lc.max_abs(z - x))

                    xc = gr.grading_components(x, aut)
                    yc = gr.grading_components(y, aut)
                    worst = max(worst, lc.max_abs(xc.sum(axis=0) - x))

                    # eigen test covers closure: [x_k, y_l] lies in grade k+l
                    br = xc[:, None] @ yc[None] - yc[None] @ xc[:, None]
                    tw = gr.apply_automorphism(aut, br)
                    kl = np.add.outer(np.arange(order), np.arange(order))[..., None, None]
                    worst = max(worst, lc.max_abs(tw - omega ** kl * br))

                    if isinstance(spec, gr.GradationSpec) and spec.family in ("so", "sp"):
                        # membership in the realization the spec actually uses
                        b = gr.structure_for_spec(spec)
                        xa = (x - lc.b_transpose(x, b)) / 2.0
                        image = gr.apply_automorphism(aut, xa)
                        worst = max(worst, lc.max_abs(lc.b_transpose(image, b) + image))
    passed = worst <= tol
    assert report("criterion-1 gradation algebra",
                  passed, f"{count} specs, worst deviation {worst:.2e} (tol {tol:g})")


def test_criterion_2_table_fidelity():
    """Index tables reproduce the projector computation exactly, including
    the outer pair-plus-sign rule, on 50 random specs."""
    rng = np.random.default_rng(202)
    pool = []
    for family, n, M in (("gl", 5, 4), ("gl", 6, 6), ("sl", 4, 5), ("so", 5, 5),
                         ("so", 6, 4), ("sp", 6, 6), ("gl", 4, 8), ("gl", 6, 8)):
        pool.extend(s for s in gr.enumerate_specs(family, n, M)
                    if isinstance(s, gr.GradationSpec))
    outer_pool = [s for s in pool if s.gradation_type in (gr.TYPE_GL_OUTER_II, gr.TYPE_GL_OUTER_III)]
    inner_pool = [s for s in pool if s not in outer_pool]
    chosen = list(rng.choice(len(inner_pool), size=35, replace=False))
    specs = [inner_pool[i] for i in chosen]
    specs += [outer_pool[i] for i in rng.choice(len(outer_pool), size=15, replace=False)]

    mismatches = 0
    for spec in specs:
        aut = gr.build_automorphism(spec)
        table = gr.block_index_table(spec)
        offs = np.cumsum((0,) + spec.n_list)
        if table.outer:
            B = gr.structure_for_spec(spec)
            D = np.linalg.inv(B) @ B.T
        for a in range(spec.p):
            for b in range(spec.p):
                z = np.zeros((spec.n, spec.n), dtype=complex)
                z[offs[a]:offs[a + 1], offs[b]:offs[b + 1]] = rng.standard_normal(
                    (spec.n_list[a], spec.n_list[b]))
                if not table.outer:
                    if oracles.grading_support(z, aut) != list(table.residues(a, b)):
                        mismatches += 1
                    continue
                factor = (D[offs[a], offs[a]] * D[offs[b], offs[b]]).real
                low, high = table.residues(a, b)
                for sigma in (-1, 1):
                    xs = z + sigma * factor * lc.b_transpose(z, B)
                    if lc.max_abs(xs) < 1e-12:
                        continue
                    # x = -(^B x) selects the low index for a <= b, the high one for a > b
                    want = low if (sigma == -1) == (a <= b) else high
                    if oracles.grading_support(xs, aut) != [want]:
                        mismatches += 1
    passed = mismatches == 0
    assert report("criterion-2 table fidelity",
                  passed, f"50 specs (15 outer), {mismatches} mismatching blocks")


def test_criterion_3_block_full_equivalence():
    """Block equations match the full matrix commutator form for random
    instances of all four classes, p <= 6, blocks <= 3x3."""
    rng = np.random.default_rng(303)
    cases = [
        ("gl", gr.TYPE_GL_INNER, (1, 2, 1)),
        ("gl", gr.TYPE_GL_INNER, (3, 1, 2, 3, 1)),
        ("gl", gr.TYPE_GL_INNER, (2, 2, 2, 1, 1, 3)),
        ("so", gr.TYPE_SOSP_I, (2, 1, 1, 2)),
        ("so", gr.TYPE_SOSP_I, (3, 1, 2, 1, 3)),
        ("sp", gr.TYPE_SOSP_I, (1, 2, 2, 1)),
        ("sp", gr.TYPE_SOSP_I, (2, 1, 2, 1, 2)),
        ("so", gr.TYPE_SOSP_I, (2, 3, 2)),
        ("so", gr.TYPE_SOSP_II, (1, 2, 1, 2)),
        ("so", gr.TYPE_SOSP_II, (3, 1, 3, 1, 3, 1)),
        ("sp", gr.TYPE_SOSP_II, (2, 2, 2, 2)),
        ("gl", gr.TYPE_GL_OUTER_II, (2, 1, 1, 2)),
        ("gl", gr.TYPE_GL_OUTER_II, (1, 2, 2, 2, 1)),
        ("gl", gr.TYPE_GL_OUTER_II, (3, 2, 3)),
        ("gl", gr.TYPE_GL_OUTER_III, (1, 2, 2, 2)),
        ("gl", gr.TYPE_GL_OUTER_III, (2, 3, 3)),
        ("gl", gr.TYPE_GL_OUTER_III, (1, 3, 2, 2, 3)),
    ]
    worst = 0.0
    classes = set()
    for family, gtype, n_list in cases:
        spec = chain_spec(family, gtype, n_list)
        assert gr.validate_spec(spec) == [], (family, gtype, n_list, gr.validate_spec(spec))
        for trial in range(3):
            cp, cm = toda.random_c_blocks(spec, 1, rng)
            system = toda.build_system(spec, 1, cp, cm)
            state = toda.random_state(system, rng)
            worst = max(worst, toda.rhs_blocks_vs_full(system, state))
            classes.add(system.equation_class)
    classes.add(toda.EQ_GENERAL_LINEAR)
    passed = worst <= 1e-12 and classes == {
        toda.EQ_GENERAL_LINEAR, toda.EQ_EVEN_FOLD, toda.EQ_ODD_FOLD, toda.EQ_DOUBLE_FIXED_FOLD}
    assert report("criterion-3 block/full equivalence",
                  passed, f"{len(cases) * 3} instances over 4 classes, worst {worst:.2e}")


def test_criterion_4_folding_soundness(monkeypatch):
    """The unfolded chain's equations on the lift of a folded state are the
    folded equations to 1e-12; the odd substitution closes to 1e-12; the
    unfolded flow keeps the fold constraints to round-off, a drift of at
    most 1e-12 relative to the largest |G|, at every step."""
    rng = np.random.default_rng(404)
    fold_cases = [
        ("so", gr.TYPE_SOSP_I, (2, 1, 1, 2)),
        ("sp", gr.TYPE_SOSP_I, (1, 1)),
        ("so", gr.TYPE_SOSP_I, (2, 1, 2)),
        ("sp", gr.TYPE_SOSP_I, (1, 2, 1)),
        ("so", gr.TYPE_SOSP_II, (1, 2, 1, 2)),
        ("sp", gr.TYPE_SOSP_II, (2, 2)),
        ("gl_outer_II", gr.TYPE_GL_OUTER_II, (2, 1, 1, 2)),
        ("gl_outer_II", gr.TYPE_GL_OUTER_II, (1, 2, 1)),
        ("gl_outer_III", gr.TYPE_GL_OUTER_III, (1, 2, 2, 2)),
    ]
    # the states take their own generator, leaving rng's draws to the C
    # blocks and to the parts below
    state_rng = np.random.default_rng(405)
    rhs_dev = 0.0
    for family, gtype, n_list in fold_cases:
        p = len(n_list)
        M = p if gtype in (gr.TYPE_SOSP_I, gr.TYPE_SOSP_II) else 2 * p
        fam = family if family in ("so", "sp") else "gl"
        fspec = gr.make_spec(fam, gtype, M, n_list, (1,) * (p - 1))
        cp, cm = toda.random_c_blocks(fspec, 1, rng)
        direct = toda.build_system(fspec, 1, cp, cm)
        chain = folding.unfolded_chain(direct)
        state = toda.random_state(direct, state_rng)
        lifted = toda.rhs_blocks(chain, toda.full_state(direct, state))
        rhs_dev = max(rhs_dev, max(
            lc.max_abs(a - b) for a, b in zip(lifted[:direct.s], toda.rhs_blocks(direct, state))))

    sub_dev = 0.0
    for b_kind, s in (("J", 2), ("J", 3), ("K", 2), ("K", 3)):
        r = 2
        gammas = [np.eye(r) + 0.4 * (rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
                  for _ in range(s)]
        cps = [rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)) for _ in range(s)]
        cms = [rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)) for _ in range(s)]
        sub_dev = max(sub_dev, oracles.odd_fold_equivalence(gammas, cps, cms, b_kind))

    # the p = 2 periodic chain with C = I, folded under epsilon = +1
    eye = (np.eye(2), np.eye(2))
    direct = toda.build_system(gr.make_spec("sp", gr.TYPE_SOSP_I, 2, (2, 2), (1,)), 1, eye, eye)
    state = toda.random_state(direct, rng)
    # the scheme commutes with the fold, so the drift is round-off at every step
    drifts = []
    for steps, step in ((2, 0.025), (10, 2e-3), (20, 1e-3)):
        monkeypatch.setattr(folding, "FOLD_STEPS", steps)
        monkeypatch.setattr(folding, "FOLD_STEP", step)
        drifts.append(folding.verify_fold_invariance(direct, state))
    drift_note = "relative drift " + ", ".join(f"{d:.1e}" for d in drifts) + ": exactly preserved"
    passed = rhs_dev <= 1e-12 and sub_dev <= 1e-12 and max(drifts) <= 1e-12
    assert report("criterion-4 folding soundness", passed,
                  f"rhs dev {rhs_dev:.2e}, substitution dev {sub_dev:.2e}, {drift_note}")


def test_criterion_5_sine_gordon_oracle():
    """Kink reproduced at 1e-3 on the 512-cell grid over [-5, 5]^2 with a
    second-order step-halving signature."""
    system = solver.sine_gordon_system()
    a = solver.KINK_SLOPE
    base = solver.Grid(-5, 5, -5, 5, 512, 512)
    errors = {}
    for grid in (base, solver.Grid(-5, 5, -5, 5, 1024, 1024)):
        hist = solver.integrate(system, solver.kink_data(a, grid), grid)
        assert not hist.halted
        field = solver.sine_gordon_reduce(hist)
        zm, zp = np.meshgrid(grid.zm_points(), grid.zp_points())
        errors[grid.n_minus] = float(np.max(np.abs(field - solver.analytic_kink(zm, zp, a))))
    ratio = errors[512] / errors[1024]
    passed = errors[512] <= 1e-3 and 3.5 <= ratio <= 4.5
    assert report("criterion-5 sine-Gordon oracle",
                  passed, f"L_inf(512) = {errors[512]:.2e} (tol 1e-3), halving ratio {ratio:.2f}")


def test_criterion_6_sinh_gordon_linearization():
    """Small-amplitude runs track the exact linearized solution, and the
    nonlinear deviation scales cubically with the amplitude."""
    system = solver.sine_gordon_system()
    grid = solver.Grid(0, 1, 0, 1, 128, 128)
    zm, zp = np.meshgrid(grid.zm_points(), grid.zp_points())
    rels = []
    devs = []
    for eps in (1e-3, 2e-3, 4e-3):
        hist = solver.integrate(system, solver.sinh_data(eps, grid), grid)
        field = solver.sinh_gordon_reduce(hist)
        lin = solver.sinh_linear_field(zm, zp, eps)
        rels.append(float(np.max(np.abs(field - lin)) / np.max(np.abs(lin))))
        lin_run = solver.integrate(system, solver.sinh_data(eps, grid), grid,
                                   law=lambda gs: [2.0 * np.log(gs[0])]).gammas[0][..., 0, 0]
        devs.append(float(np.max(np.abs(field - 2.0 * np.log(lin_run.real)))))
    ratios = [devs[i + 1] / devs[i] for i in range(2)]
    cubic = all(6.5 <= r <= 9.5 for r in ratios)
    passed = rels[0] <= 1e-2 and cubic
    assert report(
        "criterion-6 sinh-Gordon linearization", passed,
        f"rel error {rels[0]:.2e} (tol 1e-2), amplitude-doubling ratios "
        + ", ".join(f"{r:.2f}" for r in ratios) + " (cubic = 8)")


def test_criterion_7_reality_and_group_constraints():
    """Reality drift below 1e-8 on the unit square at h = 1e-2 for both
    real forms, determinant product conserved for sl, incompatible C
    detected."""
    grid = solver.Grid(0, 1, 0, 1, 100, 100)
    spec = gr.make_spec("sp", gr.TYPE_SOSP_I, 2, (2, 2), (1,))
    c = np.eye(2, dtype=complex) / np.sqrt(2)
    system = toda.build_system(spec, 1, (c, c), (c, c))
    rng = np.random.default_rng(707)

    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h = (h + h.conj().T) / 2

    def unitary_edge(t):
        return (lc.expm(0.4j * np.sin(t) * h),)

    hist = solver.integrate(system, solver.CharacteristicData(unitary_edge, unitary_edge), grid)
    compact_drift = solver.reality_preservation(hist, "compact")

    s = 0.4 * rng.standard_normal((2, 2))

    def real_edge(t):
        return (lc.expm(0.3 * np.cos(t) * s),)

    hist = solver.integrate(system, solver.CharacteristicData(real_edge, real_edge), grid)
    split_drift = solver.reality_preservation(hist, "real_split")

    spec_sl = gr.GradationSpec("sl", 4, gr.TYPE_GL_INNER, 2, (2, 2), (1,))
    chain = toda.build_periodic_chain(2, 2)
    system_sl = toda.build_system(spec_sl, 1, chain.c_plus, chain.c_minus)
    t1 = rng.standard_normal((2, 2))
    t1 -= np.trace(t1) / 2 * np.eye(2)
    t2 = rng.standard_normal((2, 2))
    t2 -= np.trace(t2) / 2 * np.eye(2)

    def sl_edge(t):
        return (lc.expm(0.3 * np.sin(t) * t1), lc.expm(0.3 * np.cos(t) * t2))

    hist = solver.integrate(system_sl, solver.CharacteristicData(sl_edge, sl_edge), grid)
    det_drift = solver.det_factorization_defect(hist)

    bad_c = (1 + 0.4j) * c
    bad_system = toda.build_system(spec, 1, (bad_c, bad_c), (bad_c, bad_c))
    hist = solver.integrate(bad_system, solver.CharacteristicData(unitary_edge, unitary_edge), grid)
    control = solver.reality_preservation(hist, "compact")

    passed = compact_drift <= 1e-8 and split_drift <= 1e-8 and det_drift <= 1e-8 and control > 1e-2
    assert report(
        "criterion-7 reality and group constraints", passed,
        f"compact {compact_drift:.1e}, real {split_drift:.1e}, det {det_drift:.1e} "
        f"(tol 1e-8); negative control drift {control:.1e}")


def test_criterion_8_four_class_exhaustiveness():
    """Reflection axes of the p-circle realize exactly the three folded
    constraint shapes for p <= 8 (plus the unrestricted chain: four
    classes in total)."""
    seen = set()
    consistent = True
    for p in range(2, 9):
        shapes = oracles.enumerate_axis_shapes(p)
        expected = {(2, 0), (0, 2)} if p % 2 == 0 else {(1, 1)}
        consistent = consistent and set(shapes) == expected
        consistent = consistent and sum(shapes.values()) == p
        for nodes, arcs in shapes:
            consistent = consistent and nodes + arcs == 2
            seen.add(toda.FOLD_CLASSES[nodes])
    passed = consistent and seen == {toda.EQ_EVEN_FOLD, toda.EQ_ODD_FOLD, toda.EQ_DOUBLE_FIXED_FOLD}
    assert report("criterion-8 four-class exhaustiveness",
                  passed, f"axes for p = 2..8 realize exactly {sorted(seen)}")
