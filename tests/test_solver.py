import csv
import functools
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from looptoda import cli, folding
from looptoda import gradation as gr
from looptoda import lie_core as lc
from looptoda import solver, toda

import oracles


def plus_corner_kink(a, grid):
    """The kink's characteristic data from the minimum-z^- corner, marched upward."""
    def bottom(z):
        return (np.array([[np.exp(0.5j * solver.analytic_kink(z, grid.z_plus_min, a))]]),)

    def left(w):
        return (np.array([[np.exp(0.5j * solver.analytic_kink(grid.z_minus_min, w, a))]]),)

    return solver.CharacteristicData(gamma_minus=bottom, gamma_plus=left, march_minus=+1)


def kink_error(a, cells, domain=5.0):
    system = solver.sine_gordon_system()
    grid = solver.Grid(-domain, domain, -domain, domain, cells, cells)
    hist = solver.integrate(system, solver.kink_data(a, grid), grid)
    field = solver.sine_gordon_reduce(hist)
    zm, zp = np.meshgrid(grid.zm_points(), grid.zp_points())
    return float(np.max(np.abs(field - solver.analytic_kink(zm, zp, a)))), hist


class TestGrid:
    def test_steps(self):
        g = solver.Grid(0, 1, 0, 2, 10, 20)
        assert abs(g.h_minus - 0.1) < 1e-15
        assert abs(g.h_plus - 0.1) < 1e-15
        assert len(g.zm_points()) == 11

    def test_validation(self):
        with pytest.raises(ValueError):
            solver.Grid(1, 0, 0, 1, 4, 4)
        with pytest.raises(ValueError):
            solver.Grid(0, 1, 0, 1, 0, 4)
        for bounds in ((0, np.nan, 0, 1), (0, np.inf, 0, 1), (-np.inf, 1, 0, 1),
                       (0, 1, np.nan, 1), (0, 1, 0, np.inf)):
            with pytest.raises(ValueError):
                solver.Grid(*bounds, 4, 4)

    @pytest.mark.parametrize("count", [8.0, True, np.bool_(True), "8", None, np.float64(8)],
                             ids=["float", "bool", "numpy_bool", "str", "none", "numpy_float"])
    def test_cell_counts_must_be_integers(self, count):
        for counts in ((count, 8), (8, count)):
            with pytest.raises(ValueError, match="must be an integer cell count"):
                solver.Grid(0, 1, 0, 1, *counts)

    def test_integer_cell_counts_are_stored_as_int(self):
        g = solver.Grid(0, 1, 0, 1, np.int64(8), np.uint8(4))
        assert type(g.n_minus) is int and type(g.n_plus) is int
        assert json.loads(json.dumps(g.to_json())) == {"z_minus": [0, 1], "z_plus": [0, 1],
                                                       "n_minus": 8, "n_plus": 4}
        assert len(g.zm_points()) == 9

    @pytest.mark.parametrize("scalar, low, high", [(np.float32, 0.0, 1.0), (np.int64, 0, 1),
                                                   (np.float64, 0.0, 1.0)])
    def test_numpy_scalar_bounds_are_stored_as_python_numbers(self, scalar, low, high):
        g = solver.Grid(scalar(0), scalar(1), scalar(0), scalar(1), 8, 8)
        assert [type(b) for b in (g.z_minus_min, g.z_minus_max, g.z_plus_min, g.z_plus_max)] == [type(low)] * 4
        assert json.dumps(g.to_json()) == json.dumps({"z_minus": [low, high], "z_plus": [low, high],
                                                      "n_minus": 8, "n_plus": 8})

    def test_python_bounds_keep_their_manifest_bytes(self):
        g = solver.Grid(0, 1, -0.5, 2.5, 8, 8)
        assert json.dumps(g.to_json()) == '{"z_minus": [0, 1], "z_plus": [-0.5, 2.5], "n_minus": 8, "n_plus": 8}'

    @pytest.mark.parametrize("march_minus", [0, 2, -2])
    def test_march_corner_is_plus_or_minus_one(self, march_minus):
        def edge(t):
            return (np.eye(1),)

        with pytest.raises(ValueError, match="march_minus must be"):
            solver.CharacteristicData(edge, edge, march_minus=march_minus)


class TestFreeField:
    def test_scalar_factorized_exact(self):
        spec = gr.make_spec("gl", gr.TYPE_GL_INNER, 2, (1, 1), (1,))
        zero = np.zeros((1, 1))
        one = np.eye(1)
        system = toda.build_system(spec, 1, (zero, zero), (one, one))

        def gm(z):
            return (np.array([[np.exp(0.3 * np.sin(z))]]), np.array([[np.exp(0.1 * z)]]))

        def gp(w):
            return (np.array([[np.exp(0.2 * w)]]), np.array([[np.exp(-0.4 * np.sin(w))]]))

        def bottom(z):
            return tuple(l @ b for l, b in zip(gp(0.0), gm(z)))

        def left(w):
            return tuple(l @ b for l, b in zip(gp(w), gm(0.0)))

        grid = solver.Grid(0, 1, 0, 1, 16, 16)
        hist = solver.integrate(system, solver.CharacteristicData(bottom, left), grid)
        dev = 0.0
        for j, w in enumerate(grid.zp_points()):
            for i, z in enumerate(grid.zm_points()):
                for b in range(2):
                    exact = gp(w)[b] @ gm(z)[b]
                    dev = max(dev, lc.max_abs(hist.gammas[b][j, i] - exact))
        assert dev < 1e-12

    def test_matrix_factorized_exact(self):
        rng = np.random.default_rng(0)
        spec = gr.make_spec("gl", gr.TYPE_GL_INNER, 2, (2, 2), (1,))
        zero = np.zeros((2, 2))
        one = np.eye(2)
        system = toda.build_system(spec, 1, (zero, zero), (one, one))
        A = 0.3 * rng.standard_normal((2, 2))
        B = 0.3 * rng.standard_normal((2, 2))

        def bottom(z):
            g = lc.expm(z * B)
            return (g, g)

        def left(w):
            g = lc.expm(w * A)
            return (g, g)

        def bottom_full(z):
            return tuple(l @ b for l, b in zip(left(0.0), bottom(z)))

        def left_full(w):
            return tuple(l @ b for l, b in zip(left(w), bottom(0.0)))

        grid = solver.Grid(0, 1, 0, 1, 12, 12)
        hist = solver.integrate(system, solver.CharacteristicData(bottom_full, left_full), grid)
        dev = 0.0
        for j, w in enumerate(grid.zp_points()):
            for i, z in enumerate(grid.zm_points()):
                exact = lc.expm(w * A) @ lc.expm(z * B)
                dev = max(dev, lc.max_abs(hist.gammas[0][j, i] - exact))
        assert dev < 1e-12

    def test_constant_critical_point(self):
        chain = toda.build_periodic_chain(2, 2)
        state = (np.eye(2, dtype=complex), np.eye(2, dtype=complex))
        grid = solver.Grid(0, 1, 0, 1, 8, 8)
        hist = solver.integrate(chain, solver.constant_data(state), grid)
        for g in hist.gammas:
            assert lc.max_abs(g - np.eye(2)) < 1e-13


class TestKink:
    def test_accuracy_512(self):
        err, hist = kink_error(solver.KINK_SLOPE, 512)
        assert not hist.halted
        assert err <= 1e-3

    def test_convergence_ratio(self):
        err_512, _ = kink_error(solver.KINK_SLOPE, 512)
        err_1024, _ = kink_error(solver.KINK_SLOPE, 1024)
        assert 3.9 <= err_512 / err_1024 <= 4.1

    def test_unitarity_preserved(self):
        _, hist = kink_error(1.0, 128)
        assert solver.reality_preservation(hist, "compact") < 1e-10

    def test_forward_direction_small_domain(self):
        system = solver.sine_gordon_system()
        a = 1.0
        grid = solver.Grid(-1, 1, -1, 1, 64, 64)
        hist = solver.integrate(system, plus_corner_kink(a, grid), grid)
        field = solver.sine_gordon_reduce(hist)
        zm, zp = np.meshgrid(grid.zm_points(), grid.zp_points())
        assert np.max(np.abs(field - solver.analytic_kink(zm, zp, a))) < 2e-3

    def test_kink_satisfies_equation_symbolically(self):
        # d+d-F and 2 sin F both reduce to -2 a b sech tanh with a b = 2
        a = 1.3
        zm, zp = np.meshgrid(np.linspace(-2, 2, 7), np.linspace(-2, 2, 7))
        theta = a * zm + (2.0 / a) * zp
        lhs = -2.0 * a * (2.0 / a) / np.cosh(theta) * np.tanh(theta)
        rhs = 2.0 * np.sin(solver.analytic_kink(zm, zp, a))
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        # and the closed-form d_- matches a finite difference of the kink
        delta = 1e-6
        fd = (solver.analytic_kink(zm + delta, zp, a)
              - solver.analytic_kink(zm - delta, zp, a)) / (2 * delta)
        assert np.max(np.abs(fd - oracles.kink_dminus(zm, zp, a))) < 1e-8

    def test_kink_limits(self):
        assert solver.analytic_kink(-50.0, 0.0, 1.0) < 1e-10
        assert abs(solver.analytic_kink(50.0, 0.0, 1.0) - 2 * np.pi) < 1e-10

    def test_kink_numerical_residual(self):
        a = 1.0
        grid = solver.Grid(-2, 2, -2, 2, 128, 128)
        zm, zp = np.meshgrid(grid.zm_points(), grid.zp_points())
        f = solver.analytic_kink(zm, zp, a)
        d2 = (
            f[2:, 2:] - f[:-2, 2:] - f[2:, :-2] + f[:-2, :-2]
        ) / (4 * grid.h_minus * grid.h_plus)
        resid = np.max(np.abs(d2 - 2 * np.sin(f[1:-1, 1:-1])))
        assert resid < 5e-3  # pure truncation of the cross difference

    def test_zero_slope_rejected(self):
        with pytest.raises(ValueError):
            solver.analytic_kink(0.0, 0.0, 0.0)


class TestResidual:
    def test_residual_small_on_converged_run(self):
        system = solver.sine_gordon_system()
        grid = solver.Grid(-2, 2, -2, 2, 128, 128)
        hist = solver.integrate(system, plus_corner_kink(1.0, grid), grid)
        assert solver.residual(hist) < 5e-3

    def test_residual_order(self):
        system = solver.sine_gordon_system()
        values = []
        for cells in (64, 128):
            grid = solver.Grid(-2, 2, -2, 2, cells, cells)
            hist = solver.integrate(system, plus_corner_kink(1.0, grid), grid)
            values.append(solver.residual(hist))
        assert 2.5 <= values[0] / values[1] <= 6.0

    def test_residual_detects_corruption(self):
        system = solver.sine_gordon_system()
        grid = solver.Grid(-2, 2, -2, 2, 128, 128)
        hist = solver.integrate(system, plus_corner_kink(1.0, grid), grid)
        clean = solver.residual(hist)
        hist.gammas[0][64, 64, 0, 0] *= np.exp(1e-3j)
        corrupted = solver.residual(hist)
        assert corrupted >= 1e-3 / grid.h_minus
        assert corrupted >= 5 * clean

    def test_residual_needs_three_by_three_points(self):
        system = solver.sine_gordon_system()
        one = solver.constant_data((np.eye(1, dtype=complex),))
        for grid in (solver.Grid(0, 1, 0, 1, 1, 4), solver.Grid(0, 1, 0, 1, 4, 1)):
            hist = solver.integrate(system, one, grid)
            with pytest.raises(ValueError, match="at least a 3x3 block"):
                solver.residual(hist)

    def test_exact_factorized_residual_truncation_level(self):
        spec = gr.make_spec("gl", gr.TYPE_GL_INNER, 2, (1, 1), (1,))
        zero = np.zeros((1, 1))
        one = np.eye(1)
        system = toda.build_system(spec, 1, (zero, zero), (one, one))

        def bottom(z):
            return (np.array([[np.exp(0.5 * np.sin(z))]]), np.array([[np.exp(-0.5 * np.sin(z))]]))

        def left(w):
            b = bottom(0.0)
            return (np.exp(0.3 * w) * b[0], np.exp(-0.3 * w) * b[1])

        grid = solver.Grid(0, 1, 0, 1, 64, 64)
        hist = solver.integrate(system, solver.CharacteristicData(
            lambda z: tuple(np.exp(s * 0.0) * b for s, b in zip((0.3, -0.3), bottom(z))),
            left), grid)
        assert solver.residual(hist) < 5e-4


class TestReductions:
    def test_sine_gordon_equilibria(self):
        system = solver.sine_gordon_system()
        grid = solver.Grid(0, 1, 0, 1, 16, 16)
        one = (np.eye(1, dtype=complex),)
        hist = solver.integrate(system, solver.constant_data(one), grid)
        assert np.max(np.abs(solver.sine_gordon_reduce(hist))) < 1e-12
        # F = pi: Gamma = exp(i pi / 2) = i, the unstable equilibrium
        eq = (1j * np.eye(1),)
        hist2 = solver.integrate(system, solver.constant_data(eq), grid)
        f2 = solver.sine_gordon_reduce(hist2)
        assert np.max(np.abs(f2 - np.pi)) < 1e-10

    def test_reduce_rejects_nonunitary(self):
        system = solver.sine_gordon_system()
        grid = solver.Grid(0, 1, 0, 1, 8, 8)
        state = (1.5 * np.eye(1, dtype=complex),)
        hist = solver.integrate(system, solver.constant_data(state), grid)
        with pytest.raises(ValueError):
            solver.sine_gordon_reduce(hist)

    def test_reductions_reject_a_matrix_history(self):
        system = toda.build_simplest("gl", np.eye(2), np.eye(2))
        hist = solver.integrate(system, solver.constant_data((np.eye(2, dtype=complex),)),
                                solver.Grid(0, 1, 0, 1, 4, 4))
        for reduce in (solver.sine_gordon_reduce, solver.sinh_gordon_reduce):
            with pytest.raises(ValueError, match="needs a single scalar block"):
                reduce(hist)

    def test_sinh_reduce_equilibrium_and_domain(self):
        system = solver.sine_gordon_system()
        grid = solver.Grid(0, 1, 0, 1, 8, 8)
        one = (np.eye(1, dtype=complex),)
        hist = solver.integrate(system, solver.constant_data(one), grid)
        assert np.max(np.abs(solver.sinh_gordon_reduce(hist))) < 1e-12
        unit = (1j * np.eye(1),)
        hist2 = solver.integrate(system, solver.constant_data(unit), grid)
        with pytest.raises(ValueError):
            solver.sinh_gordon_reduce(hist2)
        minus = (-np.eye(1, dtype=complex),)
        hist3 = solver.integrate(system, solver.constant_data(minus), grid)
        with pytest.raises(ValueError, match="history is not positive"):
            solver.sinh_gordon_reduce(hist3)

    def test_sinh_linearized_match(self):
        system = solver.sine_gordon_system()
        grid = solver.Grid(0, 1, 0, 1, 128, 128)
        eps = 1e-3
        hist = solver.integrate(system, solver.sinh_data(eps, grid), grid)
        field = solver.sinh_gordon_reduce(hist)
        zm, zp = np.meshgrid(grid.zm_points(), grid.zp_points())
        lin = solver.sinh_linear_field(zm, zp, eps)
        assert np.max(np.abs(field - lin)) / np.max(np.abs(lin)) < 1e-2

    def test_sinh_cubic_amplitude_scaling(self):
        system = solver.sine_gordon_system()
        grid = solver.Grid(0, 1, 0, 1, 128, 128)
        devs = []
        for eps in (1e-3, 2e-3, 4e-3):
            hist = solver.integrate(system, solver.sinh_data(eps, grid), grid)
            field = solver.sinh_gordon_reduce(hist)
            lin_run = solver.integrate(system, solver.sinh_data(eps, grid), grid,
                                       law=lambda gs: [2.0 * np.log(gs[0])]).gammas[0][..., 0, 0]
            devs.append(np.max(np.abs(field - 2.0 * np.log(lin_run.real))))
        for i in range(2):
            assert 6.5 <= devs[i + 1] / devs[i] <= 9.5  # cubic in the amplitude

    def test_phase_unwrapping_through_branch_cut(self):
        # a run whose phase passes through pi must come out continuous
        err, hist = kink_error(1.0, 96, domain=4.0)
        field = solver.sine_gordon_reduce(hist)
        assert np.max(np.abs(np.diff(field, axis=1))) < 0.5
        assert np.max(field) > 5.0  # reaches beyond pi, so unwrapping engaged


class TestReality:
    def _er9_matrix_system(self):
        spec = gr.make_spec("sp", gr.TYPE_SOSP_I, 2, (2, 2), (1,))
        c = np.eye(2, dtype=complex) / np.sqrt(2)
        return toda.build_system(spec, 1, (c, c), (c, c))

    def test_compact_drift(self):
        system = self._er9_matrix_system()
        rng = np.random.default_rng(1)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = (h + h.conj().T) / 2

        def edge(t):
            return (lc.expm(0.4j * np.sin(t) * h),)

        grid = solver.Grid(0, 1, 0, 1, 100, 100)
        hist = solver.integrate(system, solver.CharacteristicData(edge, edge), grid)
        assert solver.reality_preservation(hist, "compact") <= 1e-8

    def test_real_split_drift(self):
        system = self._er9_matrix_system()
        rng = np.random.default_rng(2)
        s = 0.4 * rng.standard_normal((2, 2))

        def edge(t):
            return (lc.expm(0.3 * np.cos(t) * s),)

        grid = solver.Grid(0, 1, 0, 1, 100, 100)
        hist = solver.integrate(system, solver.CharacteristicData(edge, edge), grid)
        assert solver.reality_preservation(hist, "real_split") <= 1e-8

    def test_incompatible_c_detected(self):
        spec = gr.make_spec("sp", gr.TYPE_SOSP_I, 2, (2, 2), (1,))
        c = (1 + 0.4j) * np.eye(2) / np.sqrt(2)
        system = toda.build_system(spec, 1, (c, c), (c, c))
        rng = np.random.default_rng(3)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = (h + h.conj().T) / 2

        def edge(t):
            return (lc.expm(0.4j * np.sin(t) * h),)

        grid = solver.Grid(0, 1, 0, 1, 100, 100)
        hist = solver.integrate(system, solver.CharacteristicData(edge, edge), grid)
        assert solver.reality_preservation(hist, "compact") > 1e-2

    def test_det_product_conserved_for_sl(self):
        spec = gr.GradationSpec("sl", 4, gr.TYPE_GL_INNER, 2, (2, 2), (1,))
        chain = toda.build_periodic_chain(2, 2)
        system = toda.build_system(spec, 1, chain.c_plus, chain.c_minus)
        rng = np.random.default_rng(4)
        t1 = rng.standard_normal((2, 2))
        t1 -= np.trace(t1) / 2 * np.eye(2)
        t2 = rng.standard_normal((2, 2))
        t2 -= np.trace(t2) / 2 * np.eye(2)

        def edge(t):
            return (lc.expm(0.3 * np.sin(t) * t1), lc.expm(0.3 * np.cos(t) * t2))

        grid = solver.Grid(0, 1, 0, 1, 100, 100)
        hist = solver.integrate(system, solver.CharacteristicData(edge, edge), grid)
        assert solver.det_factorization_defect(hist) <= 1e-8

    def test_det_factorization_defect_needs_an_inner_system(self):
        grid = solver.Grid(0, 1, 0, 1, 4, 4)
        hist = solver.integrate(solver.sine_gordon_system(),
                                solver.constant_data((np.eye(1, dtype=complex),)), grid)
        with pytest.raises(ValueError):
            solver.det_factorization_defect(hist)

    def test_unknown_tag(self):
        system = solver.sine_gordon_system()
        grid = solver.Grid(0, 1, 0, 1, 4, 4)
        hist = solver.integrate(system, solver.constant_data((np.eye(1, dtype=complex),)), grid)
        with pytest.raises(ValueError):
            solver.reality_preservation(hist, "quaternionic")


#: a 2x2-block system, and the free-field preset's gl inner (1, 1) system
#: with two 1x1 blocks
SCALAR_FREE_FIELD = toda.build_system(gr.make_spec("gl", gr.TYPE_GL_INNER, 2, (1, 1), (1,)), 1,
                                      (np.zeros((1, 1)),) * 2, (np.eye(1),) * 2)
GL2_SIMPLEST = toda.build_simplest("gl", np.eye(2) / 2, np.eye(2) / 2)
EDGE_CASE_SYSTEMS = pytest.mark.parametrize("system", [GL2_SIMPLEST, SCALAR_FREE_FIELD], ids=["gl2", "scalar"])


class TestBlowUp:
    def test_sinh_runaway_halts(self):
        # the last cell of row 3 overflows (exp of h_minus V with V ~ 1e18),
        # so row 3 never completes; rows above it failed first, on earlier
        # anti-diagonals, and do not pre-empt it
        system = solver.sine_gordon_system()
        grid = solver.Grid(0, 1.5, 0, 1.5, 48, 48)
        hist = solver.integrate(system, solver.sinh_data(1.0, grid), grid)
        assert hist.halt_reason == "non-finite value at row 3 (z^+ = 0.09375)"
        assert hist.completed_rows == 3
        assert hist.gammas[0].shape[0] == hist.completed_rows
        assert np.all(np.isfinite(hist.gammas[0]))

    def test_lower_row_failure_preempts_a_higher_one(self):
        # a strongly coupled chain: the sixth anti-diagonal first fails in
        # row 2 (a cell-centre square root does not converge), then row 1,
        # still marching below it, overflows at its eighth cell
        c = tuple(6.0 * np.eye(2) for _ in range(3))
        chain = toda.build_system(gr.make_spec("gl", gr.TYPE_GL_INNER, 3, (2, 2, 2), (1, 1)), 1, c, c)
        state = toda.random_state(chain, np.random.default_rng(3), scale=0.6)
        hist = solver.integrate(chain, solver.constant_data(state), solver.Grid(0, 3, 0, 3, 32, 32))
        assert hist.halted and hist.completed_rows == 1
        assert hist.halt_reason == "non-finite value at row 1 (z^+ = 0.09375)"

    def test_square_root_failure_halts_with_its_reason(self):
        # the first cell's inv(nw) se = diag(-3 + 1e-9 i, 1) has an eigenvalue
        # near -3: Denman-Beavers stalls and raises ConvergenceError, which
        # halts the march
        system = toda.build_simplest("gl", np.eye(2) / 2, np.eye(2) / 2)
        data = solver.CharacteristicData(
            lambda z: (np.eye(2, dtype=complex),),
            lambda w: (np.diag([1.0 / (-3.0 + 1e-9j) if w > 0 else 1.0, 1.0]),))
        hist = solver.integrate(system, data, solver.Grid(0, 1, 0, 1, 8, 8))
        assert hist.halted and hist.completed_rows == 1
        assert hist.halt_reason == ("cell-centre square root failed at row 1 (z^+ = 0.125):"
                                    " Denman-Beavers square root did not converge in 32 iterations"
                                    " (last relative increment 1.69e+00)")

    def test_corner_blow_up_test_precedes_the_square_root(self):
        # the data above with the left edge's first entry scaled by 1e-13:
        # the square root would stall as before, but the cell's NW corner
        # has |inv G| = 3e13 and fails the blow-up test first
        system = toda.build_simplest("gl", np.eye(2) / 2, np.eye(2) / 2)
        data = solver.CharacteristicData(
            lambda z: (np.eye(2, dtype=complex),),
            lambda w: (np.diag([1e-13 / (-3.0 + 1e-9j) if w > 0 else 1.0, 1.0]),))
        hist = solver.integrate(system, data, solver.Grid(0, 1, 0, 1, 8, 8))
        assert hist.halted and hist.completed_rows == 1
        assert hist.halt_reason == ("invertibility lost at row 1 (z^+ = 0.125):"
                                    " max(|G|, |inv G|, |G| |inv G|) = 3e+13 > 1e+12")

    @staticmethod
    def _unit_edge(system, corner):
        """Edge data of unit blocks, with entry [-1, -1] of block 0 set to corner(t)."""
        def blocks(t):
            out = [np.eye(na, dtype=complex) for na in system.independent_sizes]
            out[0][-1, -1] = corner(t)
            return tuple(out)
        return blocks

    @EDGE_CASE_SYSTEMS
    def test_singular_edge_block_halts_with_its_reason(self, system):
        # an exactly singular left-edge block makes the cell-centre inverse
        # of the next row raise LinAlgError, which halts the march
        data = solver.CharacteristicData(self._unit_edge(system, lambda z: 1.0),
                                         self._unit_edge(system, lambda w: 0.0 if w > 0 else 1.0))
        hist = solver.integrate(system, data, solver.Grid(0, 1, 0, 1, 8, 8))
        assert hist.halted and hist.completed_rows == 1
        assert hist.halt_reason == "singular block at row 1 (z^+ = 0.125)"

    @EDGE_CASE_SYSTEMS
    def test_overflowing_cell_centre_halts_as_invertibility_lost(self, system):
        # 1e-307 on the left edge at row 1 against 1e2 on the bottom edge at
        # column 1 would overflow inv(nw) se in the first cell centre; the
        # blow-up test of that NW corner runs before the kernels read it
        data = solver.CharacteristicData(self._unit_edge(system, lambda z: 10.0 ** (16 * z)),
                                         self._unit_edge(system, lambda w: 1e-307 if w > 0 else 1.0))
        hist = solver.integrate(system, data, solver.Grid(0, 1, 0, 1, 8, 8))
        assert hist.halted and hist.completed_rows == 1
        assert hist.halt_reason == ("invertibility lost at row 1 (z^+ = 0.125):"
                                    " max(|G|, |inv G|, |G| |inv G|) = 1e+307 > 1e+12")

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("system", [solver.sine_gordon_system(), GL2_SIMPLEST],
                             ids=["sine_gordon", "gl2"])
    def test_non_finite_v_halts_as_non_finite(self, system, value):
        # a law whose d_+ V is non-finite makes the first cell's V non-finite:
        # expm(h_minus V) rejects it, which halts the march at row 1
        data = solver.constant_data([np.eye(na) for na in system.independent_sizes])
        hist = solver.integrate(system, data, solver.Grid(0, 1, 0, 1, 8, 8),
                                law=lambda centres: np.full_like(centres, value))
        assert hist.halted and hist.completed_rows == 1
        assert hist.halt_reason == "non-finite value at row 1 (z^+ = 0.125)"

    @EDGE_CASE_SYSTEMS
    def test_large_edge_block_fails_the_blow_up_test(self, system):
        # the finite left-edge block of 1e13 at row 2, above
        # INVERTIBILITY_BOUND, is the NW corner of that row's first cell
        data = solver.CharacteristicData(self._unit_edge(system, lambda z: 1.0),
                                         self._unit_edge(system, lambda w: 1e13 if w >= 0.25 else 1.0))
        hist = solver.integrate(system, data, solver.Grid(0, 1, 0, 1, 8, 8))
        assert hist.halted and hist.completed_rows == 2
        assert hist.halt_reason == ("invertibility lost at row 2 (z^+ = 0.25):"
                                    " max(|G|, |inv G|, |G| |inv G|) = 1e+13 > 1e+12")

    @EDGE_CASE_SYSTEMS
    def test_large_last_column_block_fails_the_blow_up_test(self, system):
        # 1e13 on the bottom edge at z^- = 1 only: the last column, which is
        # no cell's NW corner, takes the test on an inverse of its own
        data = solver.CharacteristicData(self._unit_edge(system, lambda z: 1e13 if z == 1 else 1.0),
                                         self._unit_edge(system, lambda w: 1.0))
        hist = solver.integrate(system, data, solver.Grid(0, 1, 0, 1, 8, 8))
        assert hist.halted and hist.completed_rows == 1
        assert hist.halt_reason == ("invertibility lost at row 1 (z^+ = 0.125):"
                                    " max(|G|, |inv G|, |G| |inv G|) = 1e+13 > 1e+12")

    @pytest.mark.parametrize("scale, size", [(1e200, "1e+200"), (1e-170, "1e+170")])
    def test_constant_state_beyond_the_det_range_fails_the_blow_up_test(self, scale, size):
        # the 2x2 det of 1e200 I overflows and that of 1e-170 I underflows to
        # 0: their inverses take LAPACK's kernel, so the gate and, on the left
        # edge from row 1, the march fail them on their blow-up value, never
        # as a false singular block
        block = scale * np.eye(2, dtype=complex)
        text = f"max(|G|, |inv G|, |G| |inv G|) = {size} > 1e+12"
        with pytest.raises(lc.SingularMatrixError) as excinfo:
            toda.check_state(GL2_SIMPLEST, (block,))
        assert str(excinfo.value) == f"state block 0: {text}"
        data = solver.CharacteristicData(lambda z: (np.eye(2),), lambda w: (block if w > 0 else np.eye(2),))
        hist = solver.integrate(GL2_SIMPLEST, data, solver.Grid(0, 1, 0, 1, 8, 8))
        assert hist.halted and hist.completed_rows == 1
        assert hist.halt_reason == f"invertibility lost at row 1 (z^+ = 0.125): {text}"

    def test_block_with_a_non_finite_inverse_reads_inf(self):
        # the inverse of the 1x1 block 1e-320 is not finite (nan parts):
        # the gate and the march fail it as they did, and both texts give
        # its blow-up value as inf, not nan
        chain = toda.build_periodic_chain(2, 1)
        tiny, one = np.full((1, 1), 1e-320 + 0j), np.eye(1)
        text = "max(|G|, |inv G|, |G| |inv G|) = inf > 1e+12"
        with pytest.raises(lc.SingularMatrixError) as excinfo:
            toda.check_state(chain, (tiny, one))
        assert str(excinfo.value) == f"state block 0: {text}"
        data = solver.CharacteristicData(lambda z: (one, one), lambda w: (tiny if w > 0 else one, one))
        hist = solver.integrate(chain, data, solver.Grid(0, 1, 0, 1, 8, 8))
        assert hist.halted and hist.completed_rows == 1
        assert hist.halt_reason == f"invertibility lost at row 1 (z^+ = 0.125): {text}"

    @pytest.mark.parametrize("diagonal", [(1e11, 1e11), (1e-11, 1e-11), (10 ** 5.5, 10 ** -5.5)],
                             ids=["large", "small", "split"])
    def test_state_just_inside_the_bound_passes_the_gate_and_marches(self, diagonal):
        # blow-up value 1e11 under the bound of 1e12; C = 0 keeps the state
        # constant, so no row lifts it over the bound (a block at exactly
        # 1e12 does not stay there: round-off on row 1 lifts it above)
        system = toda.build_simplest("gl", np.zeros((2, 2)), np.zeros((2, 2)))
        state = (np.diag(diagonal).astype(complex),)
        toda.check_state(system, state)
        hist = solver.integrate(system, solver.constant_data(state), solver.Grid(0, 1, 0, 1, 8, 8))
        assert not hist.halted and hist.completed_rows == 9

    def test_invertibility_bound_has_one_home(self, monkeypatch):
        # the gate and the march read one bound, toda.INVERTIBILITY_BOUND
        assert toda.INVERTIBILITY_BOUND == 1e12 and not hasattr(solver, "INVERTIBILITY_BOUND")
        monkeypatch.setattr(toda, "INVERTIBILITY_BOUND", 1e10)
        text = "max(|G|, |inv G|, |G| |inv G|) = 1e+11 > 1e+10"
        with pytest.raises(lc.SingularMatrixError) as excinfo:
            solver.integrate(GL2_SIMPLEST, solver.constant_data((1e11 * np.eye(2),)), solver.Grid(0, 1, 0, 1, 8, 8))
        assert str(excinfo.value) == f"state block 0: {text}"
        data = solver.CharacteristicData(self._unit_edge(GL2_SIMPLEST, lambda z: 1.0),
                                         self._unit_edge(GL2_SIMPLEST, lambda w: 1e11 if w > 0 else 1.0))
        hist = solver.integrate(GL2_SIMPLEST, data, solver.Grid(0, 1, 0, 1, 8, 8))
        assert hist.halt_reason == f"invertibility lost at row 1 (z^+ = 0.125): {text}"

    def test_exponential_beyond_scaling_halts_as_non_finite(self):
        # at G = I the first cell's V is h_+ [C_-, C_+], entries 1e307, so
        # h_- V has a 1-norm above expm's scaling range (about 7.4e307)
        system = toda.build_simplest("gl", np.array([[0.0, 1e153], [0.0, 0.0]]),
                                     np.array([[0.0, 0.0], [1e153, 0.0]]))
        data = solver.constant_data((np.eye(2, dtype=complex),))
        hist = solver.integrate(system, data, solver.Grid(0, 20, 0, 20, 2, 2))
        assert hist.halted and hist.completed_rows == 1
        assert hist.halt_reason == "non-finite value at row 1 (z^+ = 10)"

    def test_well_conditioned_field_with_wide_range_completes(self):
        # a free field G = exp(14.5 sin 2 pi z^-): |G| and |inv G| each reach
        # 1.98e6 at different points, but |G| |inv G| = 1 at every point, so
        # the per-point test passes where their product, 3.93e12, would not
        edge = self._unit_edge(SCALAR_FREE_FIELD, lambda z: np.exp(14.5 * np.sin(2 * np.pi * z)))
        data = solver.CharacteristicData(edge, self._unit_edge(SCALAR_FREE_FIELD, lambda w: 1.0))
        hist = solver.integrate(SCALAR_FREE_FIELD, data, solver.Grid(0, 1, 0, 1, 64, 64))
        assert hist.halt_reason is None and hist.completed_rows == 65
        g = hist.gammas[0]
        assert np.abs(g).max() * np.abs(1 / g).max() > 3.9e12
        # with C_+ = 0 the field is its bottom edge on every row
        assert np.abs(g / g[0] - 1).max() < 1e-12

    @pytest.mark.parametrize("bottom, reason", [
        (lambda z: (np.diag([-3.0 + 1e-9j if z > 0 else 1.0, 1.0]),),
         "edge logarithm failed at row 0 (z^+ = 0): Denman-Beavers square root did not converge"
         " in 32 iterations (last relative increment 1.69e+00)"),
        (lambda z: (np.zeros((2, 2)) if z == 0.5 else np.eye(2),), "singular block at row 0 (z^+ = 0)"),
        (lambda z: (np.diag([1e300 if z > 0 else 1.0, 1.0]),),
         "edge logarithm failed at row 0 (z^+ = 0): Denman-Beavers square root did not converge"
         " in 32 iterations (last relative increment 1.00e+00)"),
        (lambda z: (np.diag([{0.125: 1e-200, 0.25: 1e200}.get(z, 1.0), 1.0]),),
         "non-finite value at row 0 (z^+ = 0)"),
    ], ids=["log_stall", "singular", "log_overflow", "step_overflow"])
    def test_bottom_edge_failure_halts_at_row_0(self, bottom, reason):
        # row 0's V takes the logarithm of every bottom-edge step before the
        # march: a step with an eigenvalue near -3 (Denman-Beavers does not
        # converge), a singular block, a step of 1e300 and a step of 1e400
        # (inf) halt there
        system = toda.build_simplest("gl", np.eye(2) / 2, np.eye(2) / 2)
        data = solver.CharacteristicData(bottom, lambda w: (np.eye(2, dtype=complex),))
        hist = solver.integrate(system, data, solver.Grid(0, 1, 0, 1, 8, 8))
        assert hist.halted and hist.completed_rows == 1
        assert hist.gammas[0].shape[0] == 1
        assert hist.halt_reason == reason

    @staticmethod
    def _chain_and_data():
        chain = toda.build_periodic_chain(3, 2)
        state = toda.random_state(chain, np.random.default_rng(0), scale=0.2)
        return chain, solver.constant_data(state), solver.Grid(0, 1, 0, 1, 8, 8)

    def test_mis_shaped_edge_block_raises(self):
        chain, data, grid = self._chain_and_data()
        good = data.gamma_minus(0.0)

        def edge(t):
            return (good[0], np.ones(2), good[2])

        with pytest.raises(ValueError, match=r"gamma_minus\(0\) block 1 has shape \(2,\), need \(2, 2\)"):
            solver.integrate(chain, solver.CharacteristicData(edge, edge), grid)

        def short(t):
            return good[:2]

        with pytest.raises(ValueError, match=r"gamma_minus\(0\) returned 2 blocks, need 3"):
            solver.integrate(chain, solver.CharacteristicData(short, short), grid)

    def test_non_finite_edge_sample_names_the_point(self):
        # the left edge exp(2.5 e^{2 z^+}) overflows first at z^+ = 3
        grid = solver.Grid(0, 3, 0, 3, 16, 16)
        with np.errstate(over="ignore"):
            data = solver.sinh_data(5.0, grid)
            with pytest.raises(lc.NonFiniteError, match=r"^gamma_plus\(3\) block 0 has a non-finite entry$"):
                solver.integrate(solver.sine_gordon_system(), data, grid)

    def test_law_hook_runs_the_same_scheme(self):
        system = solver.sine_gordon_system()
        grid = solver.Grid(0, 1, 0, 1, 32, 32)
        data = solver.sinh_data(0.1, grid)
        own = solver.integrate(system, data, grid)
        hooked = solver.integrate(system, data, grid, law=lambda gs: toda.rhs_dispatch(system, gs))
        assert np.array_equal(own.gammas[0], hooked.gammas[0])

    def test_corner_mismatch_rejected(self):
        system = solver.sine_gordon_system()
        grid = solver.Grid(0, 1, 0, 1, 8, 8)
        data = solver.CharacteristicData(
            lambda z: (np.eye(1, dtype=complex),),
            lambda w: (2.0 * np.eye(1, dtype=complex),),
        )
        with pytest.raises(ValueError):
            solver.integrate(system, data, grid)

    def test_constrained_initial_data_checked(self):
        spec = gr.make_spec("so", gr.TYPE_SOSP_II, 2, (2, 2), (1,))
        rng = np.random.default_rng(5)
        cp, cm = toda.random_c_blocks(spec, 1, rng)
        system = toda.build_system(spec, 1, cp, cm)
        bad = (np.eye(2) * 1.5, np.eye(2))
        grid = solver.Grid(0, 1, 0, 1, 4, 4)
        with pytest.raises(toda.ConstraintViolationError):
            solver.integrate(system, solver.constant_data(bad), grid)

    def test_constraint_bound_has_one_home(self, monkeypatch):
        # integrate's corner and rhs_blocks' state pass one gate, toda.check_state,
        # which reads toda.TOL_CONSTRAINT
        assert toda.TOL_CONSTRAINT == 1e-8 and not hasattr(solver, "TOL_CONSTRAINT")
        spec = gr.make_spec("so", gr.TYPE_SOSP_II, 2, (2, 2), (1,))
        cp, cm = toda.random_c_blocks(spec, 1, np.random.default_rng(5))
        system = toda.build_system(spec, 1, cp, cm)
        state = (np.eye(2) * (1 + 1e-6), np.eye(2))
        dev = toda.state_residual(system, state)
        assert dev > toda.TOL_CONSTRAINT
        grid = solver.Grid(0, 1, 0, 1, 4, 4)
        monkeypatch.setattr(toda, "TOL_CONSTRAINT", 2 * dev)
        toda.rhs_blocks(system, state)
        solver.integrate(system, solver.constant_data(state), grid)
        monkeypatch.setattr(toda, "TOL_CONSTRAINT", dev / 2)
        with pytest.raises(toda.ConstraintViolationError, match="state violates"):
            toda.rhs_blocks(system, state)
        with pytest.raises(toda.ConstraintViolationError, match="state violates"):
            solver.integrate(system, solver.constant_data(state), grid)


class TestSchemes:
    def test_reference_scheme_agrees_with_main(self):
        # independent 4-point oracle vs the group-variable marcher
        a = 1.0
        grid = solver.Grid(-1, 1, -1, 1, 64, 64)
        system = solver.sine_gordon_system()
        hist = solver.integrate(system, plus_corner_kink(a, grid), grid)
        main = solver.sine_gordon_reduce(hist)
        ref = oracles.integrate_scalar_reference(
            lambda v: 2.0 * np.sin(v),
            lambda z: float(solver.analytic_kink(z, grid.z_plus_min, a)),
            lambda w: float(solver.analytic_kink(grid.z_minus_min, w, a)),
            grid,
        )
        assert np.max(np.abs(main - ref)) < 5e-4


class TestHistoryResiduals:
    def test_constraint_residuals_recorded(self):
        spec = gr.make_spec("so", gr.TYPE_SOSP_II, 2, (2, 2), (1,))
        rng = np.random.default_rng(30)
        cp, cm = toda.random_c_blocks(spec, 1, rng)
        system = toda.build_system(spec, 1, cp, cm)
        state = toda.random_state(system, rng)
        grid = solver.Grid(0, 0.5, 0, 0.5, 32, 32)
        hist = solver.integrate(system, solver.constant_data(state), grid)
        assert hist.constraint_residuals.shape == (33,)
        assert np.max(hist.constraint_residuals) <= 1e-13

    def test_unconstrained_history_zero_residuals(self):
        chain = toda.build_periodic_chain(2, 1)
        state = (np.eye(1, dtype=complex), np.eye(1, dtype=complex))
        grid = solver.Grid(0, 1, 0, 1, 4, 4)
        hist = solver.integrate(chain, solver.constant_data(state), grid)
        assert np.all(hist.constraint_residuals == 0)


class TestCsv:
    def test_csv_output(self, tmp_path):
        system = solver.sine_gordon_system()
        grid = solver.Grid(0, 1, 0, 1, 4, 4)
        hist = solver.integrate(system, solver.constant_data((np.eye(1, dtype=complex),)), grid)
        path = tmp_path / "field.csv"
        lines = solver.write_history_csv(hist, str(path))
        content = path.read_text().splitlines()
        assert content[0] == "z_minus,z_plus,alpha,block_row,block_col,re,im"
        assert lines == 25
        assert len(content) == 26

    def test_csv_deterministic(self, tmp_path):
        system = solver.sine_gordon_system()
        grid = solver.Grid(0, 1, 0, 1, 8, 8)
        data = plus_corner_kink(1.0, grid)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        solver.write_history_csv(solver.integrate(system, data, grid), str(p1))
        solver.write_history_csv(solver.integrate(system, data, grid), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    #: sha256 of field.csv for each preset on a 16-cell grid
    PRESET_SHA256 = {
        "sine-gordon-kink": (solver.Grid(-5, 5, -5, 5, 16, 16),
                             "11488a28d8a340febc040a44f10e2024d34e3b70c265b3d7d5adbdf35ac27ab7"),
        "sinh-gordon": (solver.Grid(0, 1, 0, 1, 16, 16),
                        "f125273c3bedacebb1fb923a64e74c693be9c41c4eb7bc9805fe082bd46f52d3"),
        "periodic-chain": (solver.Grid(0, 1, 0, 1, 16, 16),
                           "fdb74bb4189a18da2f35e655a4a913265709938aa0b00ae2fbd05de61c1230a0"),
        "free-field": (solver.Grid(0, 1, 0, 1, 16, 16),
                       "4d420cd271c50612c0f29d934bcf46b399f361b38b5e19ab49199067dad19828"),
    }

    @staticmethod
    def _sha256(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("preset", sorted(PRESET_SHA256))
    def test_preset_bytes_are_pinned(self, preset, tmp_path):
        grid, digest = self.PRESET_SHA256[preset]
        hist, _ = cli._run_preset(preset, grid)
        path = tmp_path / "field.csv"
        lines = solver.write_history_csv(hist, str(path))
        assert lines == (grid.n_minus + 1) * (grid.n_plus + 1) * sum(
            g.shape[-1] ** 2 for g in hist.gammas)
        assert self._sha256(path) == digest

    def test_halted_history_bytes_are_pinned(self, tmp_path):
        # the sinh runaway of TestBlowUp: only rows 0-2 of 49 are written
        system = solver.sine_gordon_system()
        grid = solver.Grid(0, 1.5, 0, 1.5, 48, 48)
        hist = solver.integrate(system, solver.sinh_data(1.0, grid), grid)
        assert hist.completed_rows == 3
        path = tmp_path / "field.csv"
        assert solver.write_history_csv(hist, str(path)) == 3 * 49
        assert self._sha256(path) == "bfa1bd2e8547db586d28aa0ae1d91b5c9473265c8565e858045e455d37dc6935"

    @pytest.mark.parametrize("rows", [6, 3, 2, 1, 0])
    def test_matches_the_per_entry_writer(self, rows, tmp_path):
        # a 1x1 and a 2x2 block, with floats whose repr takes every form
        system, data = _mixed_case()
        hist = solver.integrate(system, data, solver.Grid(0, 1, 0, 1, 5, 5))
        gammas = [g[:rows].copy() for g in hist.gammas]
        special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 1 / 3, -2.5e-7]
        flat = gammas[1].reshape(-1)
        flat[:len(special)] = [complex(x, -x) for x in special][:flat.size]
        history = solver.FieldHistory(system, hist.grid, gammas, hist.constraint_residuals[:rows])
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        assert solver.write_history_csv(history, str(new)) == oracles.write_history_csv_reference(
            history, str(ref)) == rows * 6 * 5
        assert new.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("preset", ["periodic-chain", "free-field"])
    def test_round_trip_is_exact(self, preset, tmp_path):
        # periodic-chain: three 2x2 blocks; free-field: two 1x1 blocks
        hist, _ = cli._run_preset(preset, solver.Grid(0, 1, 0, 1, 6, 5))
        path = tmp_path / "field.csv"
        lines = solver.write_history_csv(hist, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == solver.CSV_HEADER
        zm, zp = hist.grid.zm_points(), hist.grid.zp_points()
        expected = [
            (zm[i], zp[j], alpha + 1, r, c, g[j, i, r, c])
            for j in range(hist.completed_rows)
            for i in range(len(zm))
            for alpha, g in enumerate(hist.gammas)
            for r in range(g.shape[-1])
            for c in range(g.shape[-1])
        ]
        assert lines == len(rows) - 1 == len(expected)
        for row, (z_minus, z_plus, alpha, r, c, value) in zip(rows[1:], expected):
            assert float(row[0]) == z_minus and float(row[1]) == z_plus
            assert (int(row[2]), int(row[3]), int(row[4])) == (alpha, r, c)
            assert float(row[5]) + 1j * float(row[6]) == value


@pytest.mark.parametrize("cells, cpus, forks", [
    (16, 2, 0), (90, 2, 0), (128, 1, 0), (128, 2, 1), (128, 4, 1), (255, 4, 3),
])
def test_csv_forks_one_worker_per_cpu_and_line_floor(cells, cpus, forks, tmp_path, monkeypatch):
    """Workers: min(usable CPUs, lines // CSV_LINES_PER_WORKER), so files of
    fewer than 2 * 8192 lines (289 at 16^2, 8 281 at 90^2) stay in one process."""
    grid = solver.Grid(0, 1, 0, 1, cells, cells)
    points = (cells + 1, cells + 1, 1, 1)
    history = solver.FieldHistory(solver.sine_gordon_system(), grid, [np.ones(points, complex)],
                                  np.zeros(cells + 1))
    fork = solver.os.fork
    pids = []

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(solver, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(solver.os, "fork", counted_fork)
    path = tmp_path / "field.csv"
    assert solver.write_history_csv(history, str(path)) == (cells + 1) ** 2
    assert len(pids) == forks
    assert path.read_bytes().count(b"\n") == (cells + 1) ** 2 + 1
    assert [p.name for p in tmp_path.iterdir()] == ["field.csv"]


def test_no_affinity_means_one_process(tmp_path, monkeypatch):
    """Where ``os.sched_getaffinity`` does not exist, one CPU is usable and
    the file is written without a fork, to the bytes pinned above."""
    monkeypatch.delattr(solver.os, "sched_getaffinity")
    monkeypatch.setattr(solver, "CSV_LINES_PER_WORKER", 1)
    monkeypatch.setattr(solver.os, "fork", lambda: pytest.fail("forked"))
    assert solver._usable_cpus() == 1
    grid, digest = TestCsv.PRESET_SHA256["sine-gordon-kink"]
    hist, _ = cli._run_preset("sine-gordon-kink", grid)
    path = tmp_path / "field.csv"
    solver.write_history_csv(hist, str(path))
    assert TestCsv._sha256(path) == digest


@pytest.mark.usefixtures("split_csv")
class TestCsvSplit(TestCsv):
    """Every ``TestCsv`` test with each file split over up to three
    processes, one lattice row at least to each: the bytes, and the
    digests pinned above, do not change."""


def _spectral_normalised(blocks, norm):
    top = max(np.linalg.norm(b, 2) for b in blocks if b.size)
    return tuple(b * (norm / top) for b in blocks)


def _edge_generator(system, node, rng):
    """A random element of the node's algebra, of unit spectral norm."""
    na = system.block_sizes[node]
    x = rng.standard_normal((na, na)) + 1j * rng.standard_normal((na, na))
    fixed = dict(system.fixed_nodes)
    if node in fixed:
        x = (x - lc.b_transpose(x, fixed[node])) / 2.0
    elif system.family == "sl":
        x = x - np.trace(x) / na * np.eye(na)
    return x / np.linalg.norm(x, 2)


#: one system with 2x2 blocks per equation class (and both odd variants):
#: name, family, type, M, n_list, k_list; None marks the simplest gl(2)
RICHARDSON_SYSTEMS = (
    ("general_linear", "gl", gr.TYPE_GL_INNER, 2, (2, 2), (1,)),
    ("even_fold", "sp", gr.TYPE_SOSP_I, 2, (2, 2), (1,)),
    ("odd_fold_arc_first", "so", gr.TYPE_SOSP_I, 3, (2, 2, 2), (1, 1)),
    ("odd_fold_node_first", "gl", gr.TYPE_GL_OUTER_III, 6, (2, 2, 2), (1, 1)),
    ("double_fixed_fold", "sp", gr.TYPE_SOSP_II, 2, (2, 2), (1,)),
    ("simplest", None, None, None, None, None),
)


#: one spec per (gradation type, equation class) and one 4x4 fold: the
#: Richardson systems and the outer types' remaining classes
GAUGE_SYSTEMS = RICHARDSON_SYSTEMS + (
    ("even_fold_outer", "gl", gr.TYPE_GL_OUTER_II, 4, (2, 2), (1,)),
    ("odd_fold_arc_first_outer", "gl", gr.TYPE_GL_OUTER_II, 6, (2, 2, 2), (1, 1)),
    ("double_fixed_fold_outer", "gl", gr.TYPE_GL_OUTER_III, 4, (2, 2), (1,)),
    ("even_fold_4x4", "sp", gr.TYPE_SOSP_I, 2, (4, 4), (1,)),
)


class TestRichardson:
    """Self-convergence of the matrix marcher on every equation class.

    Non-constant Goursat data G_0 expm(a sin(3t) X) on both edges, with C
    lists rescaled to spectral norm 0.5 and a state of scale 0.1 (the
    matrix-march data).  For a second-order scheme the differences of
    the solutions on 16^2, 32^2 and 64^2, compared at the 16^2 points,
    shrink 4x per halving of the step.
    """

    C_NORM = 0.5
    STATE_SCALE = 0.1
    EDGE_SCALE = 0.5

    @classmethod
    def _case(cls, name, family, gtype, M, n_list, k_list):
        rng = np.random.default_rng(list(name.encode()))
        if family is None:
            cp, cm = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2))
            system = toda.build_simplest("gl", *_spectral_normalised((cp,), cls.C_NORM),
                                         *_spectral_normalised((cm,), cls.C_NORM))
        else:
            spec = gr.make_spec(family, gtype, M, n_list, k_list)
            L = gr.minimal_grade(spec)
            cp, cm = toda.random_c_blocks(spec, L, rng)
            system = toda.build_system(spec, L, _spectral_normalised(cp, cls.C_NORM),
                                       _spectral_normalised(cm, cls.C_NORM))
        assert name.startswith(system.equation_class)
        g0 = toda.random_state(system, rng, scale=cls.STATE_SCALE)
        xs = [_edge_generator(system, i, rng) for i in range(system.s)]
        ys = [_edge_generator(system, i, rng) for i in range(system.s)]

        def edge(gens):
            return lambda t: tuple(g @ lc.expm(cls.EDGE_SCALE * np.sin(3 * t) * x)
                                   for g, x in zip(g0, gens))

        return system, solver.CharacteristicData(edge(xs), edge(ys))

    @pytest.mark.parametrize("case", RICHARDSON_SYSTEMS, ids=[c[0] for c in RICHARDSON_SYSTEMS])
    def test_second_order_ratio(self, case):
        system, data = self._case(*case)
        coarse = []
        for cells, stride in ((16, 1), (32, 2), (64, 4)):
            hist = solver.integrate(system, data, solver.Grid(0, 1, 0, 1, cells, cells))
            assert not hist.halted
            coarse.append([g[::stride, ::stride] for g in hist.gammas])
        d1 = max(lc.max_abs(a - b) for a, b in zip(coarse[0], coarse[1]))
        d2 = max(lc.max_abs(a - b) for a, b in zip(coarse[1], coarse[2]))
        assert 3.5 <= d1 / d2 <= 4.5, (d1, d2)

    @pytest.mark.parametrize("case", RICHARDSON_SYSTEMS[1:5], ids=[c[0] for c in RICHARDSON_SYSTEMS[1:5]])
    def test_fold_commutes_with_integration(self, case):
        # the unfolded gl chain, with the full C cycle, integrated from the
        # completion of the folded system's edges keeps its s independent
        # blocks equal to the folded run's
        system, data = self._case(*case)
        _, _, gtype, M, n_list, k_list = case
        chain_spec = gr.make_spec("gl", gr.TYPE_GL_INNER, gr.data_modulus(gtype, M), n_list, k_list)
        chain = toda.build_system(chain_spec, system.L, system.c_plus, system.c_minus)

        def full(edge):
            return lambda t: toda.full_state(system, edge(t))

        grid = solver.Grid(0, 1, 0, 1, 16, 16)
        folded = solver.integrate(system, data, grid)
        unfolded = solver.integrate(chain, solver.CharacteristicData(full(data.gamma_minus),
                                                                     full(data.gamma_plus)), grid)
        assert not folded.halted and not unfolded.halted
        scale = max(lc.max_abs(g) for g in folded.gammas)
        gap = max(lc.max_abs(a - b) for a, b in zip(folded.gammas, unfolded.gammas))
        assert gap <= 1e-12 * scale, gap / scale

    @pytest.mark.parametrize("case", GAUGE_SYSTEMS, ids=[c[0] for c in GAUGE_SYSTEMS])
    def test_grade_zero_gauge_commutes_with_integration(self, case):
        # constant grade-0 A and B, drawn as states are, take a solution G
        # to A G B, a solution of the system with C blocks (A C_+ inv(A),
        # inv(B) C_- B) on the full node cycle: the march of the gauged
        # edges is the gauged march
        system, data = self._case(*case)
        rng = np.random.default_rng(list(case[0].encode()) + [0])
        a, b = (toda.random_state(system, rng) for _ in range(2))
        full_a, full_b = toda.full_state(system, a), toda.full_state(system, b)
        cp = [full_a[k - 1] @ c @ np.linalg.inv(full_a[k]) for k, c in enumerate(system.c_plus)]
        cm = [np.linalg.inv(full_b[k]) @ c @ full_b[k - 1] for k, c in enumerate(system.c_minus)]
        gauged = toda.build_system(system.spec, system.L, cp, cm)
        assert gauged.equation_class == system.equation_class

        def gauge(blocks):
            return [x @ g @ y for x, g, y in zip(a, blocks, b)]

        grid = solver.Grid(0, 1, 0, 1, 16, 16)
        plain = solver.integrate(system, data, grid)
        moved = solver.integrate(gauged, solver.CharacteristicData(lambda t: gauge(data.gamma_minus(t)),
                                                                   lambda t: gauge(data.gamma_plus(t))), grid)
        assert not plain.halted and not moved.halted
        expected = gauge(plain.gammas)
        scale = max(lc.max_abs(g) for g in expected)
        gap = max(lc.max_abs(g - e) for g, e in zip(moved.gammas, expected))
        assert gap <= 1e-13 * scale, gap / scale


def _soliton_factor(p, alpha, k, mu, a, zm, zp):
    """tau_{alpha+1} / tau_alpha of the one-soliton tau_alpha = 1 + a omega^alpha E
    of the abelian chain with C = I: omega = e^{2 pi i k / p}, E = exp(mu z^- + nu z^+)
    and mu nu = 4 sin^2(pi k / p) (Hollowood, Nucl. Phys. B 384, 1992)."""
    omega = np.exp(2j * np.pi * k / p)
    nu = 4 * np.sin(np.pi * k / p) ** 2 / mu
    e = np.exp(mu * zm + nu * zp)
    return (1 + a * omega ** (alpha + 1) * e) / (1 + a * omega ** alpha * e)


class TestExactSoliton:
    """The periodic chain against its exact solitons, to second order.

    On the chain of p r x r blocks with C = I, G_alpha = U diag(one soliton
    factor per diagonal entry, each with its own k and mu) U^-1 is exact for
    any constant invertible U, so with U not diagonal the matrix kernels do
    real work.  The march starts from the exact edges on the unit square;
    the max error against the exact G shrinks 4x per halving of the step.
    """

    A = 0.01

    @pytest.mark.parametrize("p, ks, mus, rotate", [(3, (1,), (1.0,), False),
                                                    (4, (1, 3), (1.1, 0.8), True)],
                             ids=["p3_r1", "p4_r2"])
    def test_second_order_error(self, p, ks, mus, rotate):
        r = len(ks)
        rng = np.random.default_rng(0)
        u = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)) if rotate else np.eye(r)
        u_inv = np.linalg.inv(u)

        def exact(alpha, zm, zp):
            d = np.stack([_soliton_factor(p, alpha, k, mu, self.A, zm, zp) for k, mu in zip(ks, mus)], axis=-1)
            return (u * d[..., None, :]) @ u_inv

        chain = toda.build_periodic_chain(p, r)
        data = solver.CharacteristicData(lambda z: tuple(exact(alpha, z, 0.0) for alpha in range(p)),
                                         lambda w: tuple(exact(alpha, 0.0, w) for alpha in range(p)))
        errors = []
        for cells in (16, 32, 64):
            grid = solver.Grid(0, 1, 0, 1, cells, cells)
            hist = solver.integrate(chain, data, grid)
            assert not hist.halted
            zm, zp = np.meshgrid(grid.zm_points(), grid.zp_points())
            errors.append(max(lc.max_abs(g - exact(alpha, zm, zp)) for alpha, g in enumerate(hist.gammas)))
        assert errors[0] < 2e-3
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.9 <= coarse / fine <= 4.1, errors


def _mixed_case():
    """The gl (1, 2) system, a 1x1 and a 2x2 block, with edges expm(sin t a), expm(cos t b)."""
    spec = gr.make_spec("gl", gr.TYPE_GL_INNER, 2, (1, 2), (1,))
    rng = np.random.default_rng(12)
    cp, cm = (tuple(0.5 * c for c in cs) for cs in toda.random_c_blocks(spec, gr.minimal_grade(spec), rng))
    system = toda.build_system(spec, gr.minimal_grade(spec), cp, cm)
    a = 0.3 * (rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1)))
    b = 0.3 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))

    def edge(t):
        return (lc.expm(np.sin(t) * a), lc.expm(np.cos(t) * b))

    return system, solver.CharacteristicData(edge, edge)


def _chain_case():
    """The periodic chain (p=3, r=2), three equal blocks, with unitary edges."""
    chain = toda.build_periodic_chain(3, 2)
    rng = np.random.default_rng(7)
    gens = []
    for _ in range(3):
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        gens.append((h + h.conj().T) / 2)

    def edge(t):
        return tuple(lc.expm(0.25j * np.sin(t + a) * gens[a]) for a in range(3))

    return chain, solver.CharacteristicData(edge, edge)


#: the Richardson systems, a chain of equal blocks and a system of two block sizes
EXACTNESS_CASES = {case[0]: functools.partial(TestRichardson._case, *case) for case in RICHARDSON_SYSTEMS}
EXACTNESS_CASES.update(periodic_chain=_chain_case, mixed_sizes=_mixed_case)


class TestRowKernels:
    """The one-pass scheme's exactness and the run-to-run determinism of the march."""

    @pytest.mark.parametrize("name", EXACTNESS_CASES)
    def test_scheme_is_solved_exactly(self, name):
        # V recomputed from the march's G on every row, logm(inv(G_i) G_{i+1}) / h_minus,
        # steps by exactly h_plus rhs(nw sqrt(inv(nw) se)) from row to row
        system, data = EXACTNESS_CASES[name]()
        grid = solver.Grid(0, 1, 0, 1, 16, 16)
        hist = solver.integrate(system, data, grid)
        assert not hist.halted
        assert np.max(hist.constraint_residuals) <= 1e-13
        v = [lc.logm_near_identity(np.linalg.inv(g[:, :-1]) @ g[:, 1:]) / grid.h_minus for g in hist.gammas]
        centres = [nw @ lc.sqrtm_near_identity(np.linalg.inv(nw) @ se)
                   for nw, se in ((g[1:, :-1], g[:-1, 1:]) for g in hist.gammas)]
        rhs = toda.rhs_dispatch(system, centres)
        gap = max(lc.max_abs(x[1:] - x[:-1] - grid.h_plus * f) for x, f in zip(v, rhs))
        assert gap <= 1e-12, gap

    #: G of the gl (1, 2) run below at (row, column), as the converged
    #: scheme gives it: the 1x1 block, then the 2x2 one
    MIXED_REFERENCE = {
        (8, 8): (1.3204730610686297 + 0.13091300097146732j,
                 [[0.9619880300740211 - 0.198829942984332j, -0.04358782102649221 - 0.04595377305041131j],
                  [-0.008252697808808992 - 0.20384380749553108j, 0.885266990663172 + 0.12523106933655856j]]),
        (16, 16): (1.7568141178697017 - 0.29532666880812136j,
                   [[1.0276854557759991 - 0.29434650946875757j, -0.5510804938940482 - 0.21780085144386752j],
                    [-0.5069111445749164 - 0.4570415772075535j, 0.5752169866770708 + 1.008701704923403j]]),
        (16, 3): (1.3248290446986015 + 0.21565646025666702j,
                  [[0.9782172634038023 - 0.1411328454980843j, -0.041236964565052193 - 0.03961949945768111j],
                   [-0.006494544437882707 - 0.14532036530402465j, 0.9189211565565091 + 0.10153224289500497j]]),
    }

    def test_mixed_block_sizes_march_as_one_stack_per_size(self):
        system, data = _mixed_case()
        assert solver._size_groups(system.independent_sizes) == ((0,), (1,))
        hist = solver.integrate(system, data, solver.Grid(0, 1, 0, 1, 16, 16))
        assert not hist.halted
        for (j, i), (g0, g1) in self.MIXED_REFERENCE.items():
            assert abs(hist.gammas[0][j, i, 0, 0] - g0) <= 1e-13
            assert lc.max_abs(hist.gammas[1][j, i] - np.array(g1)) <= 1e-13
        assert solver.residual(hist) < 1e-2
        assert solver.det_factorization_defect(hist) <= 1e-12

    def test_periodic_chain_runs_bit_identical(self):
        chain, data = _chain_case()
        grid = solver.Grid(0, 1, 0, 1, 24, 24)
        first, second = (solver.integrate(chain, data, grid) for _ in range(2))
        assert not first.halted
        for a, b in zip(first.gammas, second.gammas):
            assert a.tobytes() == b.tobytes()


class TestDiagonalViews:
    """The march reads and writes each anti-diagonal through basic-slice views."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_views_are_the_gathers_and_scatters(self, n):
        # 1x1 and 2x2 stores are batch-last, 3x3 ones C-ordered (lie_core.empty_stack)
        rows, cols = 5, 7
        rng = np.random.default_rng(n)

        def random_stack(shape):
            out = lc.empty_stack(shape)
            out[...] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            return out

        store, v = random_stack((2, rows, cols, n, n)), random_stack((2, cols - 1, n, n))
        flat = solver._flat(store)
        assert np.shares_memory(flat, store)
        for d in range(rows + cols - 3):
            jj = np.arange(max(0, d - cols + 2), min(d, rows - 2) + 1)
            ii = d - jj
            nw, se, new, v_cells = (views[0] for views in solver._cell_views(
                [flat], [v], cols, d, jj[0], jj[-1] + 1))
            assert np.array_equal(nw, store[:, jj + 1, ii])
            assert np.array_equal(se, store[:, jj, ii + 1])
            assert np.array_equal(v_cells, v[:, ii])
            if n == 2:
                assert min(nw.strides[-2:]) > max(nw.strides[:-2])
            x = rng.standard_normal(new.shape) + 1j * rng.standard_normal(new.shape)
            want = store.copy()
            want[:, jj + 1, ii + 1] = x
            new[...] = x
            assert np.array_equal(store, want)

    def test_a_diagonal_whose_cells_pass_alone_halts_at_its_first_row(self, monkeypatch):
        # every batch of two or more cells fails, and every cell alone passes:
        # the march halts on the first such diagonal, at its first row, with
        # the batch's error
        march_cells = solver._march_cells

        def batch_fails(law, groups, nw, *args):
            if nw[0].shape[1] > 1:
                raise lc.ConvergenceError("the batch failed")
            return march_cells(law, groups, nw, *args)

        monkeypatch.setattr(solver, "_march_cells", batch_fails)
        system, data = _chain_case()
        hist = solver.integrate(system, data, solver.Grid(0, 1, 0, 1, 8, 8))
        assert hist.completed_rows == 1
        assert hist.halt_reason == "cell-centre square root failed at row 1 (z^+ = 0.125): the batch failed"


def _sine_gordon_case():
    """The sine-Gordon chain, one 1x1 node with arc caps at both ends, with kink data."""
    return solver.sine_gordon_system(), solver.kink_data(solver.KINK_SLOPE, solver.Grid(0, 1, 0, 1, 16, 16))


#: the exactness cases, with even folds of s = 2 nodes of 2x2 and 4x4 blocks,
#: of one 4x4 node and of one 1x1 node (sine-Gordon), and capped chains of
#: mixed block sizes on three folds
RHS_REFERENCE_CASES = dict(EXACTNESS_CASES, sine_gordon=_sine_gordon_case)
RHS_REFERENCE_CASES.update({case[0]: functools.partial(TestRichardson._case, *case) for case in (
    ("even_fold_2x2_s2", "sp", gr.TYPE_SOSP_I, 4, (2, 2, 2, 2), (1, 1, 1)),
    ("even_fold_4x4_s1", "sp", gr.TYPE_SOSP_I, 2, (4, 4), (1,)),
    ("even_fold_4x4_s2", "sp", gr.TYPE_SOSP_I, 4, (4, 4, 4, 4), (1, 1, 1)),
    ("odd_fold_arc_first_1_2", "so", gr.TYPE_SOSP_I, 3, (1, 2, 1), (1, 1)),
    ("even_fold_2_4", "sp", gr.TYPE_SOSP_I, 4, (2, 4, 4, 2), (1, 1, 1)),
    ("double_fixed_fold_2_2_4", "sp", gr.TYPE_SOSP_II, 4, (2, 2, 4, 2), (1, 1, 1)),
)})


def _reference_law(system):
    """The system's right-hand side, node by node (``oracles.rhs_chain_reference``)."""
    return lambda gammas: oracles.rhs_chain_reference(gammas, system.c_plus, system.c_minus, *system.caps)


def _same_history(a, b):
    assert a.halt_reason == b.halt_reason
    assert len(a.gammas) == len(b.gammas)
    for x, y in zip(a.gammas, b.gammas):
        assert x.tobytes() == y.tobytes()


class TestRhsReference:
    """The right-hand side and the march, bit for bit against the node-by-node chain."""

    @pytest.mark.parametrize("lead", [(3,), (2, 5)], ids=["3", "2x5"])
    @pytest.mark.parametrize("name", RHS_REFERENCE_CASES)
    def test_rhs_dispatch_matches_the_node_loop(self, name, lead):
        system, _ = RHS_REFERENCE_CASES[name]()
        rng = np.random.default_rng(list(name.encode()) + list(lead))
        gammas = [np.eye(na) + 0.3 * (rng.standard_normal(lead + (na, na))
                                      + 1j * rng.standard_normal(lead + (na, na)))
                  for na in system.independent_sizes]
        want = _reference_law(system)(gammas)
        inputs = [gammas]
        if len(set(system.independent_sizes)) == 1:
            inputs.append(np.stack(gammas))
        for given in inputs:
            got = toda.rhs_dispatch(system, given)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", RHS_REFERENCE_CASES)
    def test_march_matches_the_node_loop(self, name):
        system, data = RHS_REFERENCE_CASES[name]()
        grid = solver.Grid(0, 1, 0, 1, 16, 16)
        own = solver.integrate(system, data, grid)
        assert not own.halted
        _same_history(own, solver.integrate(system, data, grid, law=_reference_law(system)))

    @pytest.mark.parametrize("name", ["periodic_chain", "simplest", "mixed_sizes"])
    def test_law_may_return_a_list_or_a_node_stack(self, name):
        # a law maps a sequence of blocks to a sequence of blocks: a list, or
        # on a system of one block size the node stack
        system, data = RHS_REFERENCE_CASES[name]()
        grid = solver.Grid(0, 1, 0, 1, 16, 16)
        own = solver.integrate(system, data, grid)
        as_list = solver.integrate(system, data, grid, law=lambda gs: list(toda.rhs_dispatch(system, gs)))
        _same_history(own, as_list)
        if len(set(system.independent_sizes)) == 1:
            as_stack = solver.integrate(system, data, grid,
                                        law=lambda gs: np.stack(list(toda.rhs_dispatch(system, gs))))
            _same_history(own, as_stack)


def _from_the_other_corner(data, grid):
    """The same edges marched from the other z^- corner: gamma_minus is
    reflected across the grid's z^- range, so the corner still agrees."""
    lo, hi = grid.z_minus_min, grid.z_minus_max
    return solver.CharacteristicData(lambda z: data.gamma_minus(lo + hi - z), data.gamma_plus,
                                     march_minus=-data.march_minus)


#: sha256 over the ``gammas`` bytes of each RHS_REFERENCE_CASES history at
#: 16x16, marched from the data's corner and then from the other z^- corner
MARCH_SHA256 = {
    "general_linear": "7da58920e7a5776d1f0e3d77fc96bd6e99c10b3c54dc672532aaf39318b36466",
    "even_fold": "f2180388b8d6033dccf335bc3a5caf5782f05921ab04e4cce7b9611ca0184757",
    "odd_fold_arc_first": "714c824ee44a6695cf38784d9f94f337e2f2aa34c83848e9a3f87be28e6a083d",
    "odd_fold_node_first": "b7f89a9b55b6edd3548b06f002dd78bc6e77d9f6e376cbd395a297faaf66b581",
    "double_fixed_fold": "5e832be6b5579cc389037f6f5872ac9cf4df46c9611e89d7f9cdc2b4dcf18d45",
    "simplest": "8e2a443169d7fde620c67c3f1a6ef95ff583dede7689f2309120aa7fa6d31bea",
    "periodic_chain": "02d637a361b8ebe5498389286a3efdf2ddd94dc13b99f5dcdc794608ffef70bb",
    "mixed_sizes": "bdb026d26c3f27a16c168eb2cb367464e62a4c9a5c05ed59f51c42ea73a3858f",
    "sine_gordon": "2fa1509e327e6a1d73530cedadbe2944f849974b757f487a9965c976d1fd7b87",
    "even_fold_2x2_s2": "949b6ce9e0ff210ffc6997cd2d0dbe195b611e63e2feae8bfb609fd9a2881995",
    "even_fold_4x4_s1": "5bb6a648f1297b9b625259222a6289b453ea4b2848f2f9c1de8151788e0ae40a",
    "even_fold_4x4_s2": "8bfda8a52103e8090de48af6288211e2c17941320280fb562beee1f019148ff1",
    "odd_fold_arc_first_1_2": "168566ed132926376765ffc1b12ef72c0dd1a879c708cec6c6445ae2a3408359",
    "even_fold_2_4": "eebd7ad3996afef98d04482156502dd83b86d1af0b507a14415699556e7f469f",
    "double_fixed_fold_2_2_4": "01476b0e29fd021ec8b00ff3cfc025f75ede30dd00f612b4066e04bb67a047d3",
}


@pytest.mark.parametrize("name", RHS_REFERENCE_CASES)
def test_histories_from_both_corners_are_pinned(name):
    system, data = RHS_REFERENCE_CASES[name]()
    grid = solver.Grid(0, 1, 0, 1, 16, 16)
    digest = hashlib.sha256()
    for corner in (data, _from_the_other_corner(data, grid)):
        hist = solver.integrate(system, corner, grid)
        assert not hist.halted
        for g in hist.gammas:
            digest.update(g.tobytes())
    assert digest.hexdigest() == MARCH_SHA256[name]


#: 16x16 grids of the presets, on their default domains
PRESET_GRIDS_16 = {
    "sine-gordon-kink": solver.Grid(-5, 5, -5, 5, 16, 16),
    "sinh-gordon": solver.Grid(0, 1, 0, 1, 16, 16),
    "periodic-chain": solver.Grid(0, 1, 0, 1, 16, 16),
    "free-field": solver.Grid(0, 1, 0, 1, 16, 16),
}

#: ``residual`` at 16x16 on the presets and on RHS_REFERENCE_CASES, as the
#: unbanded ``residual`` gave it
RESIDUAL_REFERENCE = {
    "sine-gordon-kink": 0.5596293616021576,
    "sinh-gordon": 4.9391015454071374e-05,
    "periodic-chain": 0.017627500166973904,
    "free-field": 2.0650148258027912e-14,
    "general_linear": 0.002107367458078442,
    "even_fold": 0.0017837573490092128,
    "odd_fold_arc_first": 0.0029203083338712,
    "odd_fold_node_first": 0.006991294723937017,
    "double_fixed_fold": 0.003204390734523024,
    "simplest": 0.0012325525397305077,
    "periodic_chain": 0.011082617703299977,
    "mixed_sizes": 0.0012554313113190268,
    "sine_gordon": 0.010702945322380366,
    "even_fold_2x2_s2": 0.0031092734436882316,
    "even_fold_4x4_s1": 0.0011607665081237602,
    "even_fold_4x4_s2": 0.0013693584862416795,
    "odd_fold_arc_first_1_2": 0.005099487004951103,
    "even_fold_2_4": 0.002853770865052591,
    "double_fixed_fold_2_2_4": 0.0010292854837101403,
}


class TestResidualBands:
    """``residual`` takes the interior in bands of rows: the value does not
    depend on the band, and the memory does not grow with the rows."""

    @pytest.mark.parametrize("name", RESIDUAL_REFERENCE)
    def test_same_value_in_every_band(self, name, monkeypatch):
        if name in PRESET_GRIDS_16:
            hist, _ = cli._run_preset(name, PRESET_GRIDS_16[name])
        else:
            system, data = RHS_REFERENCE_CASES[name]()
            hist = solver.integrate(system, data, solver.Grid(0, 1, 0, 1, 16, 16))
        assert not hist.halted
        assert solver.residual(hist) == RESIDUAL_REFERENCE[name]
        values = []
        for entries in (1, 10 ** 9):  # one row per band, one band
            monkeypatch.setattr(solver, "RESIDUAL_BAND_ENTRIES", entries)
            values.append(solver.residual(hist))
        assert values[0] == values[1] == RESIDUAL_REFERENCE[name]

    def test_memory_does_not_grow_with_the_rows(self, monkeypatch):
        # the kink at 64 x 128 and 64 x 1024 cells, both in bands of 8 rows:
        # the traced peak above what is held before the call is one band's
        monkeypatch.setattr(solver, "RESIDUAL_BAND_ENTRIES", 63 * 8)
        peaks = []
        for rows in (128, 1024):
            grid = solver.Grid(-5, 5, -5, 5, 64, rows)
            hist = solver.integrate(solver.sine_gordon_system(), solver.kink_data(solver.KINK_SLOPE, grid), grid)
            assert not hist.halted
            tracemalloc.start()
            try:
                held = tracemalloc.get_traced_memory()[0]
                solver.residual(hist)
                peaks.append(tracemalloc.get_traced_memory()[1] - held)
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0], peaks
