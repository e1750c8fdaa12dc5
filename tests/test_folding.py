import numpy as np
import pytest

from looptoda import folding
from looptoda import gradation as gr
from looptoda import lie_core as lc
from looptoda import toda


def uniform_chain(n_list, seed=0, scale=0.6):
    """A general linear chain with random C blocks on every arc."""
    rng = np.random.default_rng(seed)
    p = len(n_list)
    spec = gr.make_spec("gl", gr.TYPE_GL_INNER, p, n_list, (1,) * (p - 1))
    cp, cm = toda.random_c_blocks(spec, 1, rng, scale=scale)
    return toda.build_system(spec, 1, cp, cm)


def folded_chain(family, gtype, n_list, seed=0):
    """A chain whose C blocks already satisfy the fold symmetry, plus the
    directly-built folded system with the same blocks."""
    rng = np.random.default_rng(seed)
    p = len(n_list)
    M = p if gtype in (gr.TYPE_SOSP_I, gr.TYPE_SOSP_II) else 2 * p
    fspec = gr.make_spec(family if family in ("so", "sp") else "gl", gtype, M, n_list, (1,) * (p - 1))
    assert gr.validate_spec(fspec) == []
    cp, cm = toda.random_c_blocks(fspec, 1, rng)
    direct = toda.build_system(fspec, 1, cp, cm)
    chain_spec = gr.make_spec("gl", gr.TYPE_GL_INNER, p, n_list, (1,) * (p - 1))
    chain = toda.build_system(chain_spec, 1, cp, cm)
    return chain, direct


class TestMakeFold:
    def test_p2_even_arc(self):
        fmap = folding.make_fold(2, folding.PATTERN_EVEN_ARC_FIXED, "sp")
        assert fmap.sigma == (1, 0)
        assert fmap.fixed_nodes == ()
        assert dict(fmap.fixed_arcs) == {0: 1, 1: 1}

    def test_p3_odd_mixed(self):
        fmap = folding.make_fold(3, folding.PATTERN_ODD_MIXED, "so")
        assert fmap.sigma == (2, 1, 0)
        assert fmap.fixed_nodes == ((1, "J"),)
        assert fmap.fixed_arcs == ((0, -1),)

    def test_p2_even_node(self):
        fmap = folding.make_fold(2, folding.PATTERN_EVEN_NODE_FIXED, "so")
        assert fmap.sigma == (0, 1)
        assert fmap.fixed_nodes == ((0, "J"), (1, "J"))
        assert fmap.fixed_arcs == ()

    def test_decorations_by_family(self):
        assert dict(folding.make_fold(4, folding.PATTERN_EVEN_ARC_FIXED, "so").fixed_arcs) == {0: -1, 2: -1}
        assert dict(folding.make_fold(4, folding.PATTERN_EVEN_ARC_FIXED, "gl_outer_II").fixed_arcs) == {0: -1, 2: 1}
        assert folding.make_fold(3, folding.PATTERN_ODD_MIXED, "sp").fixed_nodes == ((1, "K"),)
        assert folding.make_fold(4, folding.PATTERN_EVEN_NODE_FIXED, "gl_outer_III").fixed_nodes == ((0, "J"), (2, "K"))

    def test_parity_mismatch(self):
        with pytest.raises(folding.FoldError):
            folding.make_fold(3, folding.PATTERN_EVEN_ARC_FIXED, "so")
        with pytest.raises(folding.FoldError):
            folding.make_fold(4, folding.PATTERN_ODD_MIXED, "so")

    def test_family_pattern_mismatch(self):
        with pytest.raises(folding.FoldError):
            folding.make_fold(4, folding.PATTERN_EVEN_ARC_FIXED, "gl_outer_III")

    @pytest.mark.parametrize("family,variant,nodes,arcs", [
        ("so", toda.VARIANT_NODE_FIRST, ((0, "J"),), ((3, -1),)),
        ("gl_outer_II", toda.VARIANT_NODE_FIRST, ((0, "K"),), ((3, -1),)),
        ("gl_outer_III", toda.VARIANT_ARC_FIRST, ((2, "J"),), ((0, 1),)),
    ])
    def test_odd_mirrored_placements(self, family, variant, nodes, arcs):
        fmap = folding.make_fold(5, folding.PATTERN_ODD_MIXED, family, variant=variant)
        assert fmap.s == 3
        assert fmap.variant == variant
        assert fmap.fixed_nodes == nodes
        assert fmap.fixed_arcs == arcs


FOLD_CASES = [
    (folding.PATTERN_EVEN_ARC_FIXED, "so", gr.TYPE_SOSP_I, (2, 1, 1, 2)),
    (folding.PATTERN_EVEN_ARC_FIXED, "sp", gr.TYPE_SOSP_I, (1, 2, 2, 1)),
    (folding.PATTERN_EVEN_ARC_FIXED, "sp", gr.TYPE_SOSP_I, (1, 1)),
    (folding.PATTERN_ODD_MIXED, "so", gr.TYPE_SOSP_I, (2, 1, 2)),
    (folding.PATTERN_ODD_MIXED, "sp", gr.TYPE_SOSP_I, (1, 2, 1)),
    (folding.PATTERN_EVEN_NODE_FIXED, "so", gr.TYPE_SOSP_II, (1, 2, 1, 2)),
    (folding.PATTERN_EVEN_NODE_FIXED, "sp", gr.TYPE_SOSP_II, (2, 2)),
    (folding.PATTERN_EVEN_ARC_FIXED, "gl_outer_II", gr.TYPE_GL_OUTER_II, (2, 1, 1, 2)),
    (folding.PATTERN_ODD_MIXED, "gl_outer_II", gr.TYPE_GL_OUTER_II, (1, 2, 1)),
    (folding.PATTERN_EVEN_NODE_FIXED, "gl_outer_III", gr.TYPE_GL_OUTER_III, (1, 2, 2, 2)),
]


class TestFoldConstraints:
    @pytest.mark.parametrize("pattern,family,gtype,n_list", FOLD_CASES)
    def test_fold_equals_direct_build(self, pattern, family, gtype, n_list):
        chain, direct = folded_chain(family, gtype, n_list, seed=hash((pattern, family)) % 997)
        variant = direct.variant or folding.VARIANT_ARC_FIRST
        fmap = folding.make_fold(len(n_list), pattern, family, variant=variant)
        folded = folding.fold_constraints(fmap, chain)
        assert folded.equation_class == direct.equation_class
        assert folded.variant == direct.variant
        assert folded.constraints == direct.constraints
        assert folded.block_sizes == direct.block_sizes
        assert folded.s == direct.s
        for a, b in zip(folded.c_plus, direct.c_plus):
            assert lc.max_abs(a - b) < 1e-12
        for a, b in zip(folded.c_minus, direct.c_minus):
            assert lc.max_abs(a - b) < 1e-12

    def test_sine_gordon_fold_matches_er9(self):
        # p = 2 chain with C = I folds under epsilon = +1 to the
        # anti-transpose-square equation
        chain = toda.build_periodic_chain(2, 2)
        fmap = folding.make_fold(2, folding.PATTERN_EVEN_ARC_FIXED, "sp")
        folded = folding.fold_constraints(fmap, chain)
        rng = np.random.default_rng(0)
        g = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
        r = toda.rhs_blocks(folded, toda.FieldState(gammas=(g,)))[0]
        s = lc.anti_transpose(g) @ g
        assert lc.max_abs(r - (-np.linalg.inv(s) + s)) < 1e-13

    def test_incompatible_c_rejected(self):
        # identity C blocks break the orthogonal fold signs
        chain = toda.build_periodic_chain(2, 2)
        fmap = folding.make_fold(2, folding.PATTERN_EVEN_ARC_FIXED, "so")
        with pytest.raises(folding.FoldError):
            folding.fold_constraints(fmap, chain)

    def test_p_mismatch(self):
        chain = toda.build_periodic_chain(3, 1)
        fmap = folding.make_fold(2, folding.PATTERN_EVEN_ARC_FIXED, "sp")
        with pytest.raises(folding.FoldError):
            folding.fold_constraints(fmap, chain)

    def test_size_palindrome_required(self):
        chain = uniform_chain((1, 2, 2), seed=3)
        fmap = folding.make_fold(3, folding.PATTERN_ODD_MIXED, "so")
        with pytest.raises(folding.FoldError):
            folding.fold_constraints(fmap, chain)

    def test_folded_state_lift_consistency(self):
        chain, direct = folded_chain("so", gr.TYPE_SOSP_I, (2, 1, 2), seed=21)
        rng = np.random.default_rng(22)
        state = toda.random_state(direct, rng)
        full = toda.full_state(direct, state)
        assert len(full) == 3
        assert direct.engine.gamma_residual(full) < 1e-12


class TestFoldEngine:
    @pytest.mark.parametrize("family, gtype, n_list", [
        ("so", gr.TYPE_SOSP_I, (2, 1, 2)),
        ("gl_outer_II", gr.TYPE_GL_OUTER_II, (1, 2, 1)),
    ], ids=["inner", "outer"])
    def test_gamma_residual_of_a_stack_is_its_worst_point(self, family, gtype, n_list):
        _, direct = folded_chain(family, gtype, n_list, seed=12)
        engine = direct.engine
        rng = np.random.default_rng(13)
        # twelve points whose constraints break by 1e-7 to 1e-2
        points = []
        for k in range(12):
            state = toda.random_state(direct, rng)
            bad = [g + 10.0 ** -(2 + k % 6) * rng.standard_normal(g.shape) for g in state.gammas]
            points.append(engine.complete_gammas(bad))
        stack = [np.stack([pt[b] for pt in points]).reshape((3, 4) + points[0][b].shape)
                 for b in range(direct.p)]
        per_point = [engine.gamma_residual(pt) for pt in points]
        assert engine.gamma_residual(stack) == pytest.approx(max(per_point), rel=1e-12)
        assert max(per_point) > 10 * min(per_point)


class TestFoldInvariance:
    def test_zero_steps_zero_drift(self):
        chain, direct = folded_chain("sp", gr.TYPE_SOSP_I, (1, 1), seed=4)
        fmap = folding.make_fold(2, folding.PATTERN_EVEN_ARC_FIXED, "sp")
        state = toda.random_state(direct, np.random.default_rng(5))
        drift = folding.verify_fold_invariance(fmap, chain, state, steps=1, step=1e-6)
        assert drift < 1e-10

    def test_drift_small_at_small_step(self):
        chain, direct = folded_chain("sp", gr.TYPE_SOSP_I, (1, 1), seed=6)
        fmap = folding.make_fold(2, folding.PATTERN_EVEN_ARC_FIXED, "sp")
        state = toda.random_state(direct, np.random.default_rng(7))
        drift = folding.verify_fold_invariance(fmap, chain, state, steps=10, step=1e-3)
        assert drift <= 1e-8

    @pytest.mark.parametrize("family, gtype, n_list, pattern", [
        ("so", gr.TYPE_SOSP_I, (2, 2, 2), folding.PATTERN_ODD_MIXED),
        ("gl_outer_II", gr.TYPE_GL_OUTER_II, (1, 2, 1), folding.PATTERN_ODD_MIXED),
        ("gl_outer_III", gr.TYPE_GL_OUTER_III, (1, 2, 2, 2), folding.PATTERN_EVEN_NODE_FIXED),
    ], ids=["so", "gl_outer_II", "gl_outer_III"])
    def test_detector_sees_broken_constraint(self, family, gtype, n_list, pattern):
        # the last independent node is a fixed one in all three folds
        chain, direct = folded_chain(family, gtype, n_list, seed=8)
        fmap = folding.make_fold(len(n_list), pattern, family)
        state = toda.random_state(direct, np.random.default_rng(9))
        bad = list(state.gammas)
        bad[-1] = bad[-1] + 1e-2
        folded = folding.fold_constraints(fmap, chain)
        full = folded.engine.complete_gammas(tuple(bad))
        assert folded.engine.gamma_residual(full) >= 1e-2

    def test_matrix_fold_drift(self):
        chain, direct = folded_chain("so", gr.TYPE_SOSP_II, (2, 2), seed=10)
        fmap = folding.make_fold(2, folding.PATTERN_EVEN_NODE_FIXED, "so")
        state = toda.random_state(direct, np.random.default_rng(11))
        drift = folding.verify_fold_invariance(fmap, chain, state, steps=8, step=2e-3)
        assert drift <= 1e-8


class TestOddFoldEquivalence:
    def test_identity_state_exact(self):
        s = 2
        gammas = [np.eye(2, dtype=complex) for _ in range(s)]
        cps = [np.eye(2, dtype=complex) for _ in range(s)]
        cms = [np.eye(2, dtype=complex) for _ in range(s)]
        assert folding.odd_fold_equivalence(gammas, cps, cms, "J") < 1e-13

    @pytest.mark.parametrize("b_kind", ["J", "K"])
    @pytest.mark.parametrize("s", [2, 3])
    def test_random_instances(self, b_kind, s):
        rng = np.random.default_rng(40 + s)
        r = 2
        gammas = [np.eye(r) + 0.4 * (rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
                  for _ in range(s)]
        cps = [rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)) for _ in range(s)]
        cms = [rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)) for _ in range(s)]
        assert folding.odd_fold_equivalence(gammas, cps, cms, b_kind) < 1e-12

    @pytest.mark.parametrize("b_kind", ["J", "K"])
    def test_substitution_involution(self, b_kind):
        rng = np.random.default_rng(50)
        s, r = 3, 2
        gammas = [np.eye(r) + 0.3 * rng.standard_normal((r, r)) for _ in range(s)]
        cps = [rng.standard_normal((r, r)) for _ in range(s)]
        cms = [rng.standard_normal((r, r)) for _ in range(s)]
        g2, cp2, cm2 = folding.odd_fold_substitution(gammas, cps, cms, b_kind)
        g3, cp3, cm3 = folding.odd_fold_substitution(g2, cp2, cm2, b_kind)
        for a, b in zip(gammas + cps + cms, g3 + cp3 + cm3):
            assert lc.max_abs(a - b) < 1e-12


class TestAxisEnumeration:
    def test_even_p_two_shapes(self):
        for p in (2, 4, 6, 8):
            shapes = folding.enumerate_axis_shapes(p)
            assert set(shapes) == {(2, 0), (0, 2)}
            assert shapes[(2, 0)] == p // 2
            assert shapes[(0, 2)] == p // 2

    def test_odd_p_one_shape(self):
        for p in (3, 5, 7):
            shapes = folding.enumerate_axis_shapes(p)
            assert set(shapes) == {(1, 1)}
            assert shapes[(1, 1)] == p

    def test_exactly_three_patterns_up_to_eight(self):
        seen = set()
        for p in range(2, 9):
            for shape in folding.enumerate_axis_shapes(p):
                seen.add(folding.shape_to_pattern(shape))
        assert seen == set(folding.PATTERNS)


class TestDiagramExport:
    def test_json_description(self):
        fmap = folding.make_fold(4, folding.PATTERN_EVEN_ARC_FIXED, "so")
        desc = folding.diagram_json(fmap)
        assert desc["p"] == 4
        assert desc["nodes"] == ["Gamma_1", "Gamma_2", "Gamma_3", "Gamma_4"]
        assert [0, 3] in desc["node_pairs"] or [3, 0] in desc["node_pairs"]
        assert desc["fixed_arcs"] == [[0, -1], [2, -1]]
