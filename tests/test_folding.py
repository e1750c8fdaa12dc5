import zlib

import numpy as np
import pytest

from looptoda import folding, solver
from looptoda import gradation as gr
from looptoda import lie_core as lc
from looptoda import toda

import oracles


def case_seed(case) -> int:
    """A seed fixed by the case id: the same in every process, unlike the salted hash()."""
    return zlib.crc32(repr(case).encode())


def fold_grid(monkeypatch, steps, step):
    """verify_fold_invariance marches steps x steps cells of the given step."""
    monkeypatch.setattr(folding, "FOLD_STEPS", steps)
    monkeypatch.setattr(folding, "FOLD_STEP", step)


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
    """The folds of the p-node circle: toda.fold_ends gives the geometry
    (s, sigma, fixed nodes; node0 puts node 0 on the axis), and a built
    system's fixed nodes carry their B kinds and its twist the sign eps of
    ^J C = eps C on each fixed arc."""

    def test_p2_even_arc(self):
        assert toda.fold_ends(2, False) == (1, (1, 0), ())
        system = folded_chain("sp", gr.TYPE_SOSP_I, (1, 1))[1]
        assert system.fixed_nodes == ()
        assert oracles.fixed_arc_signs(system) == ((0, 1), (1, 1))

    def test_p3_odd_mixed(self):
        assert toda.fold_ends(3, False) == (2, (2, 1, 0), (1,))
        system = folded_chain("so", gr.TYPE_SOSP_I, (2, 1, 2))[1]
        assert system.fixed_nodes == ((1, "J"),)
        assert oracles.fixed_arc_signs(system) == ((0, -1),)

    def test_p2_even_node(self):
        assert toda.fold_ends(2, True) == (2, (0, 1), (0, 1))
        system = folded_chain("so", gr.TYPE_SOSP_II, (2, 2))[1]
        assert system.fixed_nodes == ((0, "J"), (1, "J"))
        assert oracles.fixed_arc_signs(system) == ()

    def test_decorations_by_family(self):
        so4 = folded_chain("so", gr.TYPE_SOSP_I, (2, 1, 1, 2))[1]
        outer2 = folded_chain("gl_outer_II", gr.TYPE_GL_OUTER_II, (1, 2, 2, 1))[1]
        sp3 = folded_chain("sp", gr.TYPE_SOSP_I, (2, 2, 2))[1]
        outer3 = folded_chain("gl_outer_III", gr.TYPE_GL_OUTER_III, (1, 2, 2, 2))[1]
        assert oracles.fixed_arc_signs(so4) == ((0, -1), (2, -1))
        assert oracles.fixed_arc_signs(outer2) == ((0, -1), (2, 1))
        assert sp3.fixed_nodes == ((1, "K"),)
        assert outer3.fixed_nodes == ((0, "J"), (2, "K"))

    @pytest.mark.parametrize("node0,sigma,nodes", [
        (True, (0, 4, 3, 2, 1), (0,)),
        (False, (4, 3, 2, 1, 0), (2,)),
    ])
    def test_p5_odd_placements(self, node0, sigma, nodes):
        assert toda.fold_ends(5, node0) == (3, sigma, nodes)


#: The folded class each axis shape gives, by the shape's name.
AXIS_CLASSES = {
    "even_arc_fixed": toda.EQ_EVEN_FOLD,
    "odd_mixed": toda.EQ_ODD_FOLD,
    "even_node_fixed": toda.EQ_DOUBLE_FIXED_FOLD,
}

FOLD_CASES = [
    ("even_arc_fixed", "so", gr.TYPE_SOSP_I, (2, 1, 1, 2)),
    ("even_arc_fixed", "sp", gr.TYPE_SOSP_I, (1, 2, 2, 1)),
    ("even_arc_fixed", "sp", gr.TYPE_SOSP_I, (1, 1)),
    ("odd_mixed", "so", gr.TYPE_SOSP_I, (2, 1, 2)),
    ("odd_mixed", "sp", gr.TYPE_SOSP_I, (1, 2, 1)),
    ("even_node_fixed", "so", gr.TYPE_SOSP_II, (1, 2, 1, 2)),
    ("even_node_fixed", "sp", gr.TYPE_SOSP_II, (2, 2)),
    ("even_arc_fixed", "gl_outer_II", gr.TYPE_GL_OUTER_II, (2, 1, 1, 2)),
    ("odd_mixed", "gl_outer_II", gr.TYPE_GL_OUTER_II, (1, 2, 1)),
    ("even_node_fixed", "gl_outer_III", gr.TYPE_GL_OUTER_III, (1, 2, 2, 2)),
]


def sp_sine_gordon():
    """The sp sosp_I M = 2 (2, 2) system with C = I: the p = 2 periodic
    chain folded under epsilon = +1."""
    spec = gr.make_spec("sp", gr.TYPE_SOSP_I, 2, (2, 2), (1,))
    eye = (np.eye(2), np.eye(2))
    return toda.build_system(spec, 1, eye, eye)


class TestFoldConstraints:
    @pytest.mark.parametrize("pattern,family,gtype,n_list", FOLD_CASES)
    def test_fold_equals_direct_build(self, pattern, family, gtype, n_list):
        """The unfolded chain is the inner gl system on the same data, and its
        equations restricted to the independent nodes are the folded ones."""
        chain, direct = folded_chain(family, gtype, n_list, seed=case_seed((pattern, family)) % 997)
        assert direct.equation_class == AXIS_CLASSES[pattern]
        unfolded = folding.unfolded_chain(direct)
        assert unfolded.spec == chain.spec
        assert unfolded.equation_class == toda.EQ_GENERAL_LINEAR
        for a, b in zip(unfolded.c_plus + unfolded.c_minus, chain.c_plus + chain.c_minus):
            assert np.array_equal(a, b)
        state = toda.random_state(direct, np.random.default_rng(len(n_list)))
        lifted = toda.rhs_blocks(unfolded, toda.full_state(direct, state))
        for a, b in zip(lifted[:direct.s], toda.rhs_blocks(direct, state)):
            assert lc.max_abs(a - b) < 1e-12

    def test_sine_gordon_fold_matches_er9(self):
        # p = 2 chain with C = I folds under epsilon = +1 to the
        # anti-transpose-square equation
        folded = sp_sine_gordon()
        assert folding.unfolded_chain(folded).spec == toda.build_periodic_chain(2, 2).spec
        rng = np.random.default_rng(0)
        g = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
        r = toda.rhs_blocks(folded, (g,))[0]
        s = lc.b_transpose(g, "J") @ g
        assert lc.max_abs(r - (-np.linalg.inv(s) + s)) < 1e-13

    def test_incompatible_c_rejected(self):
        # identity C blocks break the orthogonal fold signs
        spec = gr.make_spec("so", gr.TYPE_SOSP_I, 2, (2, 2), (1,))
        eye = (np.eye(2), np.eye(2))
        with pytest.raises(toda.ConstraintViolationError):
            toda.build_system(spec, 1, eye, eye)

    def test_size_palindrome_required(self):
        # the odd so fold of the chain (1, 2, 2) has no system to be built
        spec = gr.make_spec("so", gr.TYPE_SOSP_I, 3, (1, 2, 2), (1, 1))
        with pytest.raises(gr.SpecError, match="n_palindrome"):
            gr.check_valid(spec)

    def test_unfolded_chain_needs_a_uniform_fold(self):
        with pytest.raises(folding.FoldError, match="not folded"):
            folding.unfolded_chain(toda.build_periodic_chain(3, 1))
        spec = gr.make_spec("so", gr.TYPE_SOSP_I, 4, (2, 2), (3,))
        assert gr.minimal_grade(spec) == 1
        cp, cm = toda.random_c_blocks(spec, 1, np.random.default_rng(1))
        system = toda.build_system(spec, 1, cp, cm)
        with pytest.raises(folding.FoldError, match="uniform"):
            folding.unfolded_chain(system)

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
            bad = [g + 10.0 ** -(2 + k % 6) * rng.standard_normal(g.shape) for g in state]
            points.append(engine.complete_gammas(bad))
        stack = [np.stack([pt[b] for pt in points]).reshape((3, 4) + points[0][b].shape)
                 for b in range(len(direct.block_sizes))]
        per_point = [engine.gamma_residual(pt) for pt in points]
        assert engine.gamma_residual(stack) == pytest.approx(max(per_point), rel=1e-12)
        assert max(per_point) > 10 * min(per_point)


class TestFoldInvariance:
    """The scheme commutes with the fold exactly: the drift relative to the
    largest |G| is round-off, at most 1e-12, at every step size."""

    def test_zero_steps_zero_drift(self, monkeypatch):
        _, direct = folded_chain("sp", gr.TYPE_SOSP_I, (1, 1), seed=4)
        state = toda.random_state(direct, np.random.default_rng(5))
        fold_grid(monkeypatch, 1, 1e-6)
        drift = folding.verify_fold_invariance(direct, state)
        assert drift <= 1e-12

    def test_drift_small_at_small_step(self, monkeypatch):
        _, direct = folded_chain("sp", gr.TYPE_SOSP_I, (1, 1), seed=6)
        state = toda.random_state(direct, np.random.default_rng(7))
        for steps, step in ((10, 1e-3), (2, 0.025), (2, 0.25)):
            fold_grid(monkeypatch, steps, step)
            assert folding.verify_fold_invariance(direct, state) <= 1e-12

    @pytest.mark.parametrize("family, gtype, n_list", [
        ("so", gr.TYPE_SOSP_I, (2, 2, 2)),
        ("gl_outer_II", gr.TYPE_GL_OUTER_II, (1, 2, 1)),
        ("gl_outer_III", gr.TYPE_GL_OUTER_III, (1, 2, 2, 2)),
    ], ids=["so", "gl_outer_II", "gl_outer_III"])
    def test_detector_sees_broken_constraint(self, family, gtype, n_list):
        # the last independent node is a fixed one in all three folds
        _, direct = folded_chain(family, gtype, n_list, seed=8)
        state = toda.random_state(direct, np.random.default_rng(9))
        bad = list(state)
        bad[-1] = bad[-1] + 1e-2
        full = direct.engine.complete_gammas(tuple(bad))
        assert direct.engine.gamma_residual(full) >= 1e-2

    def test_matrix_fold_drift(self, monkeypatch):
        _, direct = folded_chain("so", gr.TYPE_SOSP_II, (2, 2), seed=10)
        state = toda.random_state(direct, np.random.default_rng(11))
        assert folding.verify_fold_invariance(direct, state) <= 1e-12
        fold_grid(monkeypatch, 8, 2e-3)
        assert folding.verify_fold_invariance(direct, state) <= 1e-12

    def test_halted_march_raises(self, monkeypatch):
        """A march that halts has no drift to report: its halt text is raised."""
        _, direct = folded_chain("sp", gr.TYPE_SOSP_I, (1, 1), seed=1)
        state = toda.random_state(direct, np.random.default_rng(1))
        fold_grid(monkeypatch, 2, 1.0)
        with pytest.raises(folding.FoldError,
                           match=r"^the unfolded march halted: non-finite value at row 2 \(z\^\+ = 2\)$"):
            folding.verify_fold_invariance(direct, state)


class TestStateGate:
    GRID = solver.Grid(0, 1, 0, 1, 8, 8)

    def test_fold_check_reads_the_block_count(self):
        """A wrong block count fails the fold check as it fails rhs_blocks."""
        spec = gr.make_spec("sp", gr.TYPE_SOSP_I, 2, (2, 2), (1,))
        cp, cm = toda.random_c_blocks(spec, 1, np.random.default_rng(0))
        system = toda.build_system(spec, 1, cp, cm)
        for count in (3, 0):
            state = (np.eye(2, dtype=complex),) * count
            with pytest.raises(lc.ShapeMismatchError) as rhs_error:
                toda.rhs_blocks(system, state)
            with pytest.raises(lc.ShapeMismatchError) as fold_error:
                folding.verify_fold_invariance(system, state)
            assert str(fold_error.value) == str(rhs_error.value)

    @staticmethod
    def sl_state_with_det_two(gtype, M, n_list, k_list):
        """An sl system and a constrained state with one paired node scaled to det 2."""
        spec = gr.make_spec("sl", gtype, M, n_list, k_list)
        L = gr.minimal_grade(spec)
        rng = np.random.default_rng(0)
        system = toda.build_system(spec, L, *toda.random_c_blocks(spec, L, rng))
        state = list(toda.random_state(system, rng))
        node = next(i for i in range(system.s) if i not in dict(system.fixed_nodes))
        state[node] = state[node] * 2.0 ** (1 / system.block_sizes[node])
        assert abs(np.linalg.det(state[node]) - 2.0) < 1e-12
        return system, state

    @pytest.mark.parametrize("gtype, M, n_list, k_list", [
        (gr.TYPE_GL_OUTER_II, 4, (1, 1), (1,)),
        (gr.TYPE_GL_OUTER_II, 6, (2, 2), (1,)),
        (gr.TYPE_GL_OUTER_III, 6, (2, 2, 2), (1, 1)),
    ], ids=["outer_II-M4", "outer_II-M6", "outer_III-M6"])
    def test_sl_fold_reads_det_over_the_full_cycle(self, gtype, M, n_list, k_list):
        """On a fold the mirror ^J inv(G) of a det-2 node cancels it: det is 1
        over the full cycle, and the state evaluates and marches."""
        system, state = self.sl_state_with_det_two(gtype, M, n_list, k_list)
        full = toda.full_state(system, state)
        assert abs(np.prod([np.linalg.det(g) for g in full]) - 1.0) < 1e-12
        assert system.engine.gamma_residual(full) < 1e-12
        toda.rhs_blocks(system, state)
        assert not solver.integrate(system, solver.constant_data(state), self.GRID).halted

    def test_sl_fold_singular_corner_is_a_constraint_violation(self):
        """A singular block has no mirror; its det reads 0, as on the chain,
        so its constraint residual is 1.  The state gate rejects it as
        singular before that residual is read."""
        system, _ = self.sl_state_with_det_two(gr.TYPE_GL_OUTER_II, 4, (1, 1), (1,))
        corner = (np.zeros((1, 1)),)
        assert toda.state_residual(system, corner) == 1.0
        with pytest.raises(lc.SingularMatrixError, match="^state block 0 is singular$"):
            solver.integrate(system, solver.constant_data(corner), self.GRID)

    def test_sl_chain_rejects_a_det_two_node(self):
        system, state = self.sl_state_with_det_two(gr.TYPE_GL_INNER, 3, (1, 1, 1), (1, 1))
        with pytest.raises(toda.ConstraintViolationError):
            toda.rhs_blocks(system, state)
        with pytest.raises(toda.ConstraintViolationError):
            solver.integrate(system, solver.constant_data(state), self.GRID)


class TestOddFoldEquivalence:
    def test_identity_state_exact(self):
        s = 2
        gammas = [np.eye(2, dtype=complex) for _ in range(s)]
        cps = [np.eye(2, dtype=complex) for _ in range(s)]
        cms = [np.eye(2, dtype=complex) for _ in range(s)]
        assert oracles.odd_fold_equivalence(gammas, cps, cms, "J") < 1e-13

    @pytest.mark.parametrize("b_kind", ["J", "K"])
    @pytest.mark.parametrize("s", [2, 3])
    def test_random_instances(self, b_kind, s):
        rng = np.random.default_rng(40 + s)
        r = 2
        gammas = [np.eye(r) + 0.4 * (rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
                  for _ in range(s)]
        cps = [rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)) for _ in range(s)]
        cms = [rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)) for _ in range(s)]
        assert oracles.odd_fold_equivalence(gammas, cps, cms, b_kind) < 1e-12

    @pytest.mark.parametrize("b_kind", ["J", "K"])
    def test_substitution_involution(self, b_kind):
        rng = np.random.default_rng(50)
        s, r = 3, 2
        gammas = [np.eye(r) + 0.3 * rng.standard_normal((r, r)) for _ in range(s)]
        cps = [rng.standard_normal((r, r)) for _ in range(s)]
        cms = [rng.standard_normal((r, r)) for _ in range(s)]
        g2, cp2, cm2 = oracles.odd_fold_substitution(gammas, cps, cms, b_kind)
        g3, cp3, cm3 = oracles.odd_fold_substitution(g2, cp2, cm2, b_kind)
        for a, b in zip(gammas + cps + cms, g3 + cp3 + cm3):
            assert lc.max_abs(a - b) < 1e-12


class TestAxisEnumeration:
    def test_even_p_two_shapes(self):
        for p in (2, 4, 6, 8):
            shapes = oracles.enumerate_axis_shapes(p)
            assert set(shapes) == {(2, 0), (0, 2)}
            assert shapes[(2, 0)] == p // 2
            assert shapes[(0, 2)] == p // 2

    def test_odd_p_one_shape(self):
        for p in (3, 5, 7):
            shapes = oracles.enumerate_axis_shapes(p)
            assert set(shapes) == {(1, 1)}
            assert shapes[(1, 1)] == p

    def test_exactly_three_patterns_up_to_eight(self):
        # an axis through 0, 1 or 2 nodes gives one folded class each
        seen = set()
        for p in range(2, 9):
            for nodes, arcs in oracles.enumerate_axis_shapes(p):
                assert nodes + arcs == 2
                seen.add(toda.FOLD_CLASSES[nodes])
        assert seen == {toda.EQ_EVEN_FOLD, toda.EQ_ODD_FOLD, toda.EQ_DOUBLE_FIXED_FOLD}
