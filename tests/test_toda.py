import json
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looptoda import gradation as gr
from looptoda import lie_core as lc
from looptoda import toda


def case_seed(case) -> int:
    """A seed fixed by the case id: the same in every process, unlike the salted hash()."""
    return zlib.crc32(repr(case).encode())


def chain_spec(family, gtype, n_list, L=1):
    p = len(n_list)
    M = p * L if gtype in (gr.TYPE_GL_INNER, gr.TYPE_SOSP_I, gr.TYPE_SOSP_II) else 2 * p * L
    return gr.make_spec(family, gtype, M, n_list, (L,) * (p - 1))


CHAIN_CASES = [
    ("gl", gr.TYPE_GL_INNER, (1, 2, 1)),
    ("gl", gr.TYPE_GL_INNER, (2, 3, 1, 2)),
    ("sl", gr.TYPE_GL_INNER, (1, 1, 1)),
    ("so", gr.TYPE_SOSP_I, (2, 1, 1, 2)),
    ("sp", gr.TYPE_SOSP_I, (1, 2, 2, 1)),
    ("so", gr.TYPE_SOSP_I, (2, 1, 2)),
    ("sp", gr.TYPE_SOSP_I, (1, 2, 1)),
    ("so", gr.TYPE_SOSP_II, (2, 2)),
    ("so", gr.TYPE_SOSP_II, (1, 2, 1, 2)),
    ("sp", gr.TYPE_SOSP_II, (2, 2)),
    ("sp", gr.TYPE_SOSP_II, (2, 2, 2, 2)),
    ("gl", gr.TYPE_GL_OUTER_II, (1, 1)),
    ("gl", gr.TYPE_GL_OUTER_II, (2, 1, 1, 2)),
    ("gl", gr.TYPE_GL_OUTER_II, (1, 2, 1)),
    ("gl", gr.TYPE_GL_OUTER_III, (1, 1, 1)),
    ("gl", gr.TYPE_GL_OUTER_III, (2, 2, 2)),
    ("gl", gr.TYPE_GL_OUTER_III, (1, 2, 2, 2)),
]


def build_random(family, gtype, n_list, seed=0, L=1):
    rng = np.random.default_rng(seed)
    spec = chain_spec(family, gtype, n_list, L)
    assert gr.validate_spec(spec) == []
    cp, cm = toda.random_c_blocks(spec, L, rng)
    system = toda.build_system(spec, L, cp, cm)
    state = toda.random_state(system, rng)
    return system, state


class TestRhsScalarChain:
    def test_p2_exponential_form(self):
        chain = toda.build_periodic_chain(2, 1)
        f1, f2 = 0.37, -0.61
        state = toda.FieldState(gammas=(np.array([[np.exp(f1)]]), np.array([[np.exp(f2)]])))
        r = toda.rhs_blocks(chain, state)
        expected = -np.exp(f2 - f1) + np.exp(f1 - f2)
        assert abs(r[0][0, 0] - expected) < 1e-14
        assert abs(r[1][0, 0] + expected) < 1e-14

    def test_identity_state(self):
        rng = np.random.default_rng(1)
        spec = chain_spec("gl", gr.TYPE_GL_INNER, (2, 1, 2))
        cp, cm = toda.random_c_blocks(spec, 1, rng)
        system = toda.build_system(spec, 1, cp, cm)
        state = toda.FieldState(gammas=tuple(np.eye(n, dtype=complex) for n in (2, 1, 2)))
        r = toda.rhs_blocks(system, state)
        for i in range(3):
            expected = -cp[(i + 1) % 3] @ cm[(i + 1) % 3] + cm[i] @ cp[i]
            assert lc.max_abs(r[i] - expected) < 1e-14

    def test_periodic_chain_critical_point(self):
        chain = toda.build_periodic_chain(3, 2)
        state = toda.FieldState(gammas=tuple(np.eye(2, dtype=complex) for _ in range(3)))
        for r in toda.rhs_blocks(chain, state):
            assert lc.max_abs(r) < 1e-14


class TestBlockVsFull:
    @pytest.mark.parametrize("family,gtype,n_list", CHAIN_CASES)
    def test_equivalence(self, family, gtype, n_list):
        system, state = build_random(family, gtype, n_list, seed=case_seed((family, gtype, n_list)) % 1000)
        assert toda.rhs_blocks_vs_full(system, state) < 1e-12

    def test_identity_state_exact(self):
        system, _ = build_random("so", gr.TYPE_SOSP_I, (2, 1, 1, 2), seed=5)
        sizes = system.independent_sizes
        state = toda.FieldState(gammas=tuple(np.eye(n, dtype=complex) for n in sizes))
        assert toda.rhs_blocks_vs_full(system, state) < 1e-13

    def test_simplest(self):
        rng = np.random.default_rng(2)
        cp = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        cm = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        system = toda.build_simplest("gl", cp, cm)
        state = toda.FieldState(gammas=(np.eye(3) + 0.3 * rng.standard_normal((3, 3)),))
        assert toda.rhs_blocks_vs_full(system, state) < 1e-12

    def test_larger_L(self):
        system, state = build_random("gl", gr.TYPE_GL_INNER, (1, 2, 1), seed=9, L=2)
        assert system.L == 2
        assert toda.rhs_blocks_vs_full(system, state) < 1e-12


class TestBuildValidation:
    def test_forbidden_arc_rejected(self):
        spec = gr.make_spec("gl", gr.TYPE_GL_INNER, 4, (1, 1), (1,))
        # wrap arc has index M - k_1 = 3 != 1, so its blocks must vanish
        one = np.eye(1)
        zero = np.zeros((1, 1))
        toda.build_system(spec, 1, (zero, one), (zero, one))  # fine
        with pytest.raises(toda.BuildError):
            toda.build_system(spec, 1, (one, one), (one, one))

    def test_shape_mismatch(self):
        spec = chain_spec("gl", gr.TYPE_GL_INNER, (1, 2))
        bad = np.eye(2)
        with pytest.raises(lc.ShapeMismatchError):
            toda.build_system(spec, 1, (bad, bad), (bad, bad))

    def test_constraint_violation_rejected(self):
        # so even fold requires ^J C_0 = -C_0; the identity violates it
        spec = chain_spec("so", gr.TYPE_SOSP_I, (1, 1))
        one = np.eye(1)
        with pytest.raises(toda.ConstraintViolationError):
            toda.build_system(spec, 1, (one, one), (one, one))

    def test_fold_symmetry_of_mirror_arcs_enforced(self):
        rng = np.random.default_rng(3)
        spec = chain_spec("so", gr.TYPE_SOSP_I, (2, 1, 2))
        cp, cm = toda.random_c_blocks(spec, 1, rng)
        cp = list(cp)
        cp[2] = cp[2] + 0.5  # break the mirror relation on the derived arc
        with pytest.raises(toda.ConstraintViolationError):
            toda.build_system(spec, 1, cp, cm)

    def test_invalid_L(self):
        spec = gr.make_spec("gl", gr.TYPE_GL_INNER, 4, (2, 2), (2,))
        blocks = tuple(np.zeros((2, 2)) for _ in range(2))
        with pytest.raises(toda.BuildError):
            toda.build_system(spec, 3, blocks, blocks)

    def test_state_constraint_checked(self):
        system, state = build_random("so", gr.TYPE_SOSP_I, (2, 1, 2), seed=7)
        bad = list(state.gammas)
        bad[-1] = bad[-1] + 0.3  # breaks ^B Gamma = inv(Gamma) on the fixed node
        with pytest.raises(toda.ConstraintViolationError):
            toda.rhs_blocks(system, toda.FieldState(gammas=tuple(bad)))

    def test_singular_state_rejected(self):
        chain = toda.build_periodic_chain(2, 1)
        state = toda.FieldState(gammas=(np.zeros((1, 1)), np.eye(1)))
        with pytest.raises(lc.SingularMatrixError):
            toda.rhs_blocks(chain, state)


class TestSimplest:
    def test_gl_any_c(self):
        rng = np.random.default_rng(4)
        cp = rng.standard_normal((2, 2))
        cm = rng.standard_normal((2, 2))
        system = toda.build_simplest("gl", cp, cm)
        assert system.equation_class == toda.EQ_SIMPLEST
        assert system.fixed_nodes == ()

    def test_outer_symmetric_c(self):
        j3 = lc.skew_identity(3)
        system = toda.build_simplest("gl", j3, j3, outer=True)
        assert system.simplest_outer
        assert system.fixed_nodes == ((0, "J"),)

    def test_outer_antisymmetric_rejected(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 4))
        x = (x - lc.b_transpose(x, "J")) / 2
        with pytest.raises(toda.ConstraintViolationError):
            toda.build_simplest("gl", x, x, outer=True)

    def test_inner_so_needs_algebra_c(self):
        with pytest.raises(toda.ConstraintViolationError):
            toda.build_simplest("so", np.eye(3), np.eye(3))

    def test_rhs_is_commutator(self):
        rng = np.random.default_rng(6)
        cp = rng.standard_normal((2, 2))
        cm = rng.standard_normal((2, 2))
        system = toda.build_simplest("gl", cp, cm)
        g = np.eye(2) + 0.2 * rng.standard_normal((2, 2))
        r = toda.rhs_blocks(system, toda.FieldState(gammas=(g,)))[0]
        x = np.linalg.inv(g) @ cp @ g
        assert lc.max_abs(r - (cm @ x - x @ cm)) < 1e-14

    def test_zero_c_plus_freezes(self):
        system = toda.build_simplest("gl", np.zeros((2, 2)), np.eye(2))
        state = toda.FieldState(gammas=(np.diag([2.0, 0.5]),))
        assert lc.max_abs(toda.rhs_blocks(system, state)[0]) == 0.0


class TestPeriodicChain:
    def test_p2_r1_is_even_foldable_shape(self):
        chain = toda.build_periodic_chain(2, 1)
        assert chain.equation_class == toda.EQ_GENERAL_LINEAR
        assert chain.block_sizes == (1, 1)
        assert all(lc.max_abs(c - np.eye(1)) == 0 for c in chain.c_plus)
        assert chain.fixed_nodes == () and chain.engine is None

    def test_p3_r2(self):
        chain = toda.build_periodic_chain(3, 2)
        assert chain.block_sizes == (2, 2, 2)
        assert chain.spec.M == 3

    def test_invalid_args(self):
        with pytest.raises(toda.BuildError):
            toda.build_periodic_chain(1, 1)


class TestConservationProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_zero_sum_trace(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 6))
        sizes = tuple(int(v) for v in rng.integers(1, 4, p))
        spec = chain_spec("gl", gr.TYPE_GL_INNER, sizes)
        cp, cm = toda.random_c_blocks(spec, 1, rng)
        system = toda.build_system(spec, 1, cp, cm)
        state = toda.random_state(system, rng)
        r = toda.rhs_blocks(system, state)
        assert abs(sum(np.trace(b) for b in r)) < 1e-11

    def test_cyclic_covariance(self):
        rng = np.random.default_rng(8)
        sizes = (2, 1, 2, 1)
        spec = chain_spec("gl", gr.TYPE_GL_INNER, sizes)
        cp, cm = toda.random_c_blocks(spec, 1, rng)
        system = toda.build_system(spec, 1, cp, cm)
        state = toda.random_state(system, rng)
        r = toda.rhs_blocks(system, state)

        shifted_sizes = tuple(sizes[(i - 1) % 4] for i in range(4))
        spec2 = chain_spec("gl", gr.TYPE_GL_INNER, shifted_sizes)
        cp2 = tuple(cp[(a - 1) % 4] for a in range(4))
        cm2 = tuple(cm[(a - 1) % 4] for a in range(4))
        system2 = toda.build_system(spec2, 1, cp2, cm2)
        state2 = toda.FieldState(gammas=tuple(state.gammas[(i - 1) % 4] for i in range(4)))
        r2 = toda.rhs_blocks(system2, state2)
        for i in range(4):
            assert lc.max_abs(r2[i] - r[(i - 1) % 4]) < 1e-13

    def test_transformation_invariance_p2(self):
        # Gamma_2 = t(inv(Gamma_1)) is preserved: rhs_2 = -t(rhs_1), and the
        # constrained equation is the transpose-square form.
        rng = np.random.default_rng(9)
        chain = toda.build_periodic_chain(2, 3)
        g0 = np.eye(3) + 0.3 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        g1 = np.swapaxes(np.linalg.inv(g0), -1, -2)
        r = toda.rhs_blocks(chain, toda.FieldState(gammas=(g0, g1)))
        assert lc.max_abs(r[1] + np.swapaxes(r[0], -1, -2)) < 1e-12
        s = g0.T @ g0
        assert lc.max_abs(r[0] - (-np.linalg.inv(s) + s)) < 1e-12

    def test_single_zero_c_decouples(self):
        rng = np.random.default_rng(10)
        spec = chain_spec("gl", gr.TYPE_GL_INNER, (1, 1, 1))
        cp, cm = toda.random_c_blocks(spec, 1, rng)
        cp = list(cp)
        cm = list(cm)
        cp[0] = np.zeros((1, 1))
        cm[0] = np.zeros((1, 1))
        system = toda.build_system(spec, 1, cp, cm)
        state = toda.random_state(system, rng)
        r = toda.rhs_blocks(system, state)
        # the wrap coupling is gone: equation 0 no longer sees Gamma_p
        state2 = toda.FieldState(gammas=(state.gammas[0], state.gammas[1], 2.0 * state.gammas[2]))
        r2 = toda.rhs_blocks(system, state2)
        assert lc.max_abs(r[0] - r2[0]) < 1e-13


class TestClassification:
    def test_so_even_fold_constraint_signs(self):
        system, _ = build_random("so", gr.TYPE_SOSP_I, (2, 2), seed=20)
        assert system.equation_class == toda.EQ_EVEN_FOLD
        assert toda._classify(system.spec)[4] == ((0, -1), (1, -1))

    def test_sp_even_fold_constraint_signs(self):
        system, _ = build_random("sp", gr.TYPE_SOSP_I, (1, 1), seed=21)
        assert toda._classify(system.spec)[4] == ((0, 1), (1, 1))

    def test_outer_even_fold_mixed_signs(self):
        system, _ = build_random("gl", gr.TYPE_GL_OUTER_II, (2, 1, 1, 2), seed=22)
        assert toda._classify(system.spec)[4] == ((0, -1), (2, 1))

    def test_odd_fold_node_kinds(self):
        so_sys, _ = build_random("so", gr.TYPE_SOSP_I, (2, 1, 2), seed=23)
        sp_sys, _ = build_random("sp", gr.TYPE_SOSP_I, (1, 2, 1), seed=24)
        outer2, _ = build_random("gl", gr.TYPE_GL_OUTER_II, (1, 2, 1), seed=25)
        outer3, _ = build_random("gl", gr.TYPE_GL_OUTER_III, (1, 1, 1), seed=26)
        assert so_sys.fixed_nodes == ((1, "J"),)
        assert sp_sys.fixed_nodes == ((1, "K"),)
        assert outer2.fixed_nodes == ((1, "K"),)
        assert toda._classify(outer2.spec)[4] == ((0, -1),)
        assert outer3.fixed_nodes == ((0, "J"),)
        assert toda._classify(outer3.spec)[4] == ((2, 1),)
        assert outer3.variant == toda.VARIANT_NODE_FIRST

    def test_double_fold_node_kinds(self):
        so_sys, _ = build_random("so", gr.TYPE_SOSP_II, (2, 2), seed=27)
        outer3, _ = build_random("gl", gr.TYPE_GL_OUTER_III, (1, 2, 2, 2), seed=28)
        assert so_sys.fixed_nodes == ((0, "J"), (1, "J"))
        assert outer3.fixed_nodes == ((0, "J"), (2, "K"))

    def test_sl_state_residual_reads_det_product(self):
        state = toda.FieldState(gammas=(np.array([[2.0]]), np.eye(1), np.eye(1)))
        sl_sys, _ = build_random("sl", gr.TYPE_GL_INNER, (1, 1, 1), seed=29)
        gl_sys, _ = build_random("gl", gr.TYPE_GL_INNER, (1, 1, 1), seed=29)
        assert toda.state_residual(sl_sys, state) >= 1.0
        assert toda.state_residual(gl_sys, state) == 0.0


class TestIndexTableReaders:
    """minimal_grade and arcs_allowed against the raw block index table."""

    @pytest.mark.parametrize("family,count", [("gl", 911), ("so", 174), ("sp", 99)])
    def test_pinned_on_census(self, family, count):
        checked = 0
        for n in range(1, 7):
            for M in range(1, 7):
                for spec in gr.enumerate_specs(family, n, M):
                    if isinstance(spec, gr.TrivialSpec):
                        assert gr.minimal_grade(spec) == M
                        continue
                    p = spec.p
                    # each entry is one residue (inner) or a (low, high) pair (outer)
                    cells = [[set(np.ravel(e).tolist()) for e in row]
                             for row in gr.block_index_table(spec).entries]
                    positive = [r for row in cells for c in row for r in c if r > 0]
                    grade = min(positive) if positive else M
                    assert gr.minimal_grade(spec) == grade
                    for L in range(1, grade + 1):
                        want = [L % M in cells[(a - 1) % p][a] for a in range(p)]
                        assert toda.arcs_allowed(spec, L) == want
                    checked += 1
        assert checked == count


#: one folded spec with fixed arcs per FOLD_ENDS row and fold shape, sized
#: so that no fixed arc is a 1x1 block with eps = +1 (which ^J leaves free);
#: the odd node-first placement occurs only for the outer type III
FIXED_ARC_CASES = [
    ("so", gr.TYPE_SOSP_I, (2, 1, 1, 2)),       # even fold
    ("so", gr.TYPE_SOSP_I, (2, 1, 2)),          # odd fold, arc first
    ("sp", gr.TYPE_SOSP_I, (2, 2)),
    ("sp", gr.TYPE_SOSP_I, (2, 2, 2)),
    ("gl", gr.TYPE_GL_OUTER_II, (1, 2, 2, 1)),
    ("gl", gr.TYPE_GL_OUTER_II, (1, 2, 1)),     # odd fold, arc first
    ("gl", gr.TYPE_GL_OUTER_III, (1, 2, 2)),    # odd fold, node first
]


class TestFixedArcGuard:
    """The fold twist alone rejects C blocks that break ^J C = eps C on a fixed arc."""

    @pytest.mark.parametrize("family,gtype,n_list", FIXED_ARC_CASES)
    def test_twist_rejects_fixed_arc_violation(self, family, gtype, n_list):
        spec = chain_spec(family, gtype, n_list)
        rng = np.random.default_rng(case_seed((family, gtype, n_list)))
        cp, cm = toda.random_c_blocks(spec, 1, rng)
        toda.build_system(spec, 1, cp, cm)
        arcs = toda._classify(spec)[4]
        assert arcs and all(toda.arcs_allowed(spec, 1))
        for a, eps in arcs:
            for direction in (+1, -1):
                blocks = [list(cp), list(cm)]
                blk = blocks[direction < 0][a]
                x = rng.standard_normal(blk.shape) + 1j * rng.standard_normal(blk.shape)
                bad = (x - eps * lc.b_transpose(x, "J")) / 2.0
                assert lc.max_abs(lc.b_transpose(bad, "J") - eps * bad) > 0.5
                blocks[direction < 0][a] = blk + bad
                with pytest.raises(toda.ConstraintViolationError, match="fold symmetry"):
                    toda.build_system(spec, 1, *blocks)


class TestRhsFull:
    def test_identity_gamma_gives_plain_commutator(self):
        rng = np.random.default_rng(30)
        cp = rng.standard_normal((3, 3))
        cm = rng.standard_normal((3, 3))
        out = toda.rhs_full(np.eye(3), cm, cp)
        assert lc.max_abs(out - (cm @ cp - cp @ cm)) < 1e-14

    def test_zero_c_plus(self):
        rng = np.random.default_rng(31)
        g = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        assert lc.max_abs(toda.rhs_full(g, rng.standard_normal((3, 3)), np.zeros((3, 3)))) == 0

    def test_singular_gamma_rejected(self):
        with pytest.raises(lc.SingularMatrixError):
            toda.rhs_full(np.zeros((2, 2)), np.eye(2), np.eye(2))


class TestEvenFoldEr9:
    def test_even_fold_s1_matches_er9_shape(self):
        # C = identity blocks, so the single equation reduces to the
        # anti-transpose square form
        spec = chain_spec("sp", gr.TYPE_SOSP_I, (2, 2))
        c = np.eye(2, dtype=complex)
        system = toda.build_system(spec, 1, (c, c), (c, c))
        rng = np.random.default_rng(11)
        g = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
        r = toda.rhs_blocks(system, toda.FieldState(gammas=(g,)))[0]
        s = lc.b_transpose(g, "J") @ g
        assert lc.max_abs(r - (-np.linalg.inv(s) + s)) < 1e-13


class TestSerialization:
    @pytest.mark.parametrize("family,gtype,n_list", CHAIN_CASES[:6])
    def test_json_round_trip(self, family, gtype, n_list):
        system, _ = build_random(family, gtype, n_list, seed=13)
        payload = json.loads(json.dumps(toda.system_to_json(system)))
        again = toda.system_from_json(payload)
        assert again.equation_class == system.equation_class
        assert again.block_sizes == system.block_sizes
        for a, b in zip(again.c_plus, system.c_plus):
            assert lc.max_abs(a - b) < 1e-12

    def test_json_without_constraints_block(self):
        system, _ = build_random("so", gr.TYPE_SOSP_I, (2, 1, 2), seed=15)
        assert "constraints" not in toda.system_to_json(system)

    def test_json_with_old_constraints_block_loads(self):
        system, _ = build_random("gl", gr.TYPE_GL_OUTER_II, (1, 2, 1), seed=16)
        payload = json.loads(json.dumps(toda.system_to_json(system)))
        payload["constraints"] = {"gamma": [[1, "K"]], "c": [[0, "J", -1]],
                                  "det_product_one": False}
        again = toda.system_from_json(payload)
        assert again.fixed_nodes == system.fixed_nodes == ((1, "K"),)
        for a, b in zip(again.c_plus + again.c_minus, system.c_plus + system.c_minus):
            assert lc.max_abs(a - b) == 0.0

    def test_simplest_outer_round_trip(self):
        system = toda.build_simplest("gl", lc.skew_identity(3), lc.skew_identity(3), outer=True)
        again = toda.system_from_json(toda.system_to_json(system))
        assert again.simplest_outer

    def test_latex_emission(self):
        system, _ = build_random("so", gr.TYPE_SOSP_I, (1, 2, 1), seed=14)
        tex = toda.system_to_latex(system)
        assert "\\partial_+" in tex and "aligned" in tex
        table_tex = toda.table_to_latex(gr.block_index_table(system.spec))
        assert "array" in table_tex


def _eq(i, rhs):
    return rf"\partial_+\left(\Gamma_{{{i}}}^{{-1}}\,\partial_-\Gamma_{{{i}}}\right) &= {rhs}"


def _aligned(*lines):
    return "\\begin{aligned}\n" + " \\\\\n".join(lines) + "\n\\end{aligned}"


LATEX_GOLDEN = [
    (("gl", gr.TYPE_GL_INNER, (1, 2, 1)), _aligned(
        _eq(1, r"-\Gamma_{1}^{-1} C_{+1}\,\Gamma_{2}\,C_{-1} + C_{-0}\,\Gamma_{3}^{-1} C_{+0}\,\Gamma_{1}"),
        _eq(2, r"-\Gamma_{2}^{-1} C_{+2}\,\Gamma_{3}\,C_{-2} + C_{-1}\,\Gamma_{1}^{-1} C_{+1}\,\Gamma_{2}"),
        _eq(3, r"-\Gamma_{3}^{-1} C_{+0}\,\Gamma_{1}\,C_{-0} + C_{-2}\,\Gamma_{2}^{-1} C_{+2}\,\Gamma_{3}"),
    )),
    (("so", gr.TYPE_SOSP_I, (2, 1, 1, 2)), _aligned(
        _eq(1, r"-\Gamma_{1}^{-1} C_{+1}\,\Gamma_{2}\,C_{-1} + C_{-0}\,{}^{J}\Gamma_{1}\,C_{+0}\,\Gamma_{1}"),
        _eq(2, r"-\Gamma_{2}^{-1} C_{+2}\,{}^{J}(\Gamma_{2}^{-1})\,C_{-2} + C_{-1}\,\Gamma_{1}^{-1} C_{+1}\,\Gamma_{2}"),
    )),
    (("so", gr.TYPE_SOSP_I, (1, 1, 1, 1, 1)), _aligned(
        _eq(1, r"-\Gamma_{1}^{-1} C_{+1}\,\Gamma_{2}\,C_{-1} + C_{-0}\,{}^{J}\Gamma_{1}\,C_{+0}\,\Gamma_{1}"),
        _eq(2, r"-\Gamma_{2}^{-1} C_{+2}\,\Gamma_{3}\,C_{-2} + C_{-1}\,\Gamma_{1}^{-1} C_{+1}\,\Gamma_{2}"),
        _eq(3, r"-{}^{J}\!\left(C_{-2}\,\Gamma_{2}^{-1} C_{+2}\,\Gamma_{3}\right)"
               r" + C_{-2}\,\Gamma_{2}^{-1} C_{+2}\,\Gamma_{3}"),
    )),
    (("gl", gr.TYPE_GL_OUTER_III, (1, 1, 1, 1, 1)), _aligned(
        _eq(1, r"-\Gamma_{1}^{-1} C_{+1}\,\Gamma_{2}\,C_{-1}"
               r" + {}^{J}\!\left(\Gamma_{1}^{-1} C_{+1}\,\Gamma_{2}\,C_{-1}\right)"),
        _eq(2, r"-\Gamma_{2}^{-1} C_{+2}\,\Gamma_{3}\,C_{-2} + C_{-1}\,\Gamma_{1}^{-1} C_{+1}\,\Gamma_{2}"),
        _eq(3, r"-\Gamma_{3}^{-1} C_{+3}\,{}^{J}(\Gamma_{3}^{-1})\,C_{-3} + C_{-2}\,\Gamma_{2}^{-1} C_{+2}\,\Gamma_{3}"),
    )),
    (("gl", gr.TYPE_GL_OUTER_III, (1, 2, 2, 2)), _aligned(
        _eq(1, r"-\Gamma_{1}^{-1} C_{+1}\,\Gamma_{2}\,C_{-1}"
               r" + {}^{J}\!\left(\Gamma_{1}^{-1} C_{+1}\,\Gamma_{2}\,C_{-1}\right)"),
        _eq(2, r"-\Gamma_{2}^{-1} C_{+2}\,\Gamma_{3}\,C_{-2} + C_{-1}\,\Gamma_{1}^{-1} C_{+1}\,\Gamma_{2}"),
        _eq(3, r"-{}^{K}\!\left(C_{-2}\,\Gamma_{2}^{-1} C_{+2}\,\Gamma_{3}\right)"
               r" + C_{-2}\,\Gamma_{2}^{-1} C_{+2}\,\Gamma_{3}"),
    )),
]


class TestLatexGolden:
    @pytest.mark.parametrize("case,expected", LATEX_GOLDEN,
                             ids=["general_linear", "even_fold", "odd_arc_first",
                                  "odd_node_first", "double_fixed"])
    def test_chain_classes(self, case, expected):
        system, _ = build_random(*case, seed=0)
        assert toda.system_to_latex(system) == expected

    def test_simplest(self):
        system = toda.build_simplest("gl", np.eye(2), np.eye(2))
        assert toda.system_to_latex(system) == (
            r"\partial_+\left(\Gamma^{-1}\partial_-\Gamma\right) = [C_-,\,\Gamma^{-1} C_+ \Gamma]")


class TestFoldEndsMatchStructure:
    def test_fixed_node_kind_is_diagonal_block_of_b(self):
        # every fixed node's B kind, read from the fold ends, is the
        # diagonal block of the spec's global structure matrix at that node
        checked = 0
        for family in ("gl", "so", "sp"):
            for n in range(1, 9):
                for M in range(1, 9):
                    for spec in gr.enumerate_specs(family, n, M):
                        if isinstance(spec, gr.TrivialSpec) or spec.gradation_type == gr.TYPE_GL_INNER:
                            continue
                        b = gr.structure_for_spec(spec)
                        offs = np.cumsum((0,) + spec.n_list)
                        for node, b_kind in toda._spec_fold_ends(spec)[2]:
                            block = b[offs[node]:offs[node + 1], offs[node]:offs[node + 1]]
                            expected = lc.structure_matrix(b_kind, spec.n_list[node])
                            assert np.array_equal(block, expected), (spec, node, b_kind)
                            checked += 1
        assert checked == 1076
