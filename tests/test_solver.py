import numpy as np
import pytest

from looptoda import folding
from looptoda import gradation as gr
from looptoda import lie_core as lc
from looptoda import solver, toda
from looptoda.toda import FieldState


def kink_error(a, cells, domain=5.0):
    system = solver.sine_gordon_system()
    grid = solver.Grid(-domain, domain, -domain, domain, cells, cells)
    hist = solver.integrate(system, solver.kink_data(a, grid), grid, march_minus=-1)
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

    def test_config_validation(self):
        for kwargs in ({"tol_constraint": 0.0}, {"tol_constraint": -1e-8},
                       {"tol_invertibility": 0.0}, {"tol_invertibility": -1.0}):
            with pytest.raises(ValueError):
                solver.SolverConfig(**kwargs)


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
        state = FieldState(gammas=(np.eye(2, dtype=complex), np.eye(2, dtype=complex)))
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
        assert 3.5 <= err_512 / err_1024 <= 4.5

    def test_unitarity_preserved(self):
        _, hist = kink_error(1.0, 128)
        assert solver.reality_preservation(hist, "compact") < 1e-10

    def test_forward_direction_small_domain(self):
        system = solver.sine_gordon_system()
        a = 1.0
        grid = solver.Grid(-1, 1, -1, 1, 64, 64)
        hist = solver.integrate(system, solver.kink_data(a, grid, march_minus=+1), grid)
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
        assert np.max(np.abs(fd - solver.kink_dminus(zm, zp, a))) < 1e-8

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
        hist = solver.integrate(system, solver.kink_data(1.0, grid, march_minus=+1), grid)
        assert solver.residual(hist) < 5e-3

    def test_residual_order(self):
        system = solver.sine_gordon_system()
        values = []
        for cells in (64, 128):
            grid = solver.Grid(-2, 2, -2, 2, cells, cells)
            hist = solver.integrate(system, solver.kink_data(1.0, grid, march_minus=+1), grid)
            values.append(solver.residual(hist))
        assert 2.5 <= values[0] / values[1] <= 6.0

    def test_residual_detects_corruption(self):
        system = solver.sine_gordon_system()
        grid = solver.Grid(-2, 2, -2, 2, 128, 128)
        hist = solver.integrate(system, solver.kink_data(1.0, grid, march_minus=+1), grid)
        clean = solver.residual(hist)
        hist.gammas[0][64, 64, 0, 0] *= np.exp(1e-3j)
        corrupted = solver.residual(hist)
        assert corrupted >= 1e-3 / grid.h_minus
        assert corrupted >= 5 * clean

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
        one = FieldState(gammas=(np.eye(1, dtype=complex),))
        hist = solver.integrate(system, solver.constant_data(one), grid)
        assert np.max(np.abs(solver.sine_gordon_reduce(hist))) < 1e-12
        # F = pi: Gamma = exp(i pi / 2) = i, the unstable equilibrium
        eq = FieldState(gammas=(1j * np.eye(1),))
        hist2 = solver.integrate(system, solver.constant_data(eq), grid)
        f2 = solver.sine_gordon_reduce(hist2)
        assert np.max(np.abs(f2 - np.pi)) < 1e-10

    def test_reduce_rejects_nonunitary(self):
        system = solver.sine_gordon_system()
        grid = solver.Grid(0, 1, 0, 1, 8, 8)
        state = FieldState(gammas=(1.5 * np.eye(1, dtype=complex),))
        hist = solver.integrate(system, solver.constant_data(state), grid)
        with pytest.raises(ValueError):
            solver.sine_gordon_reduce(hist)

    def test_sinh_reduce_equilibrium_and_domain(self):
        system = solver.sine_gordon_system()
        grid = solver.Grid(0, 1, 0, 1, 8, 8)
        one = FieldState(gammas=(np.eye(1, dtype=complex),))
        hist = solver.integrate(system, solver.constant_data(one), grid)
        assert np.max(np.abs(solver.sinh_gordon_reduce(hist))) < 1e-12
        unit = FieldState(gammas=(1j * np.eye(1),))
        hist2 = solver.integrate(system, solver.constant_data(unit), grid)
        with pytest.raises(ValueError):
            solver.sinh_gordon_reduce(hist2)

    def test_sinh_linearized_match(self):
        system = solver.sine_gordon_system()
        grid = solver.Grid(0, 1, 0, 1, 128, 128)
        eps = 1e-3
        hist = solver.integrate(system, solver.sinh_data(eps, 1.0, grid), grid)
        field = solver.sinh_gordon_reduce(hist)
        zm, zp = np.meshgrid(grid.zm_points(), grid.zp_points())
        lin = solver.sinh_linear_field(zm, zp, eps, 1.0)
        assert np.max(np.abs(field - lin)) / np.max(np.abs(lin)) < 1e-2

    def test_sinh_cubic_amplitude_scaling(self):
        system = solver.sine_gordon_system()
        grid = solver.Grid(0, 1, 0, 1, 128, 128)
        devs = []
        for eps in (1e-3, 2e-3, 4e-3):
            hist = solver.integrate(system, solver.sinh_data(eps, 1.0, grid), grid)
            field = solver.sinh_gordon_reduce(hist)
            lin_run = solver.integrate(system, solver.sinh_data(eps, 1.0, grid), grid,
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
        assert solver.det_product_drift(hist) <= 1e-8

    def test_unknown_tag(self):
        system = solver.sine_gordon_system()
        grid = solver.Grid(0, 1, 0, 1, 4, 4)
        hist = solver.integrate(system, solver.constant_data(
            FieldState(gammas=(np.eye(1, dtype=complex),))), grid)
        with pytest.raises(ValueError):
            solver.reality_preservation(hist, "quaternionic")


class TestBlowUp:
    def test_sinh_runaway_halts(self):
        system = solver.sine_gordon_system()
        grid = solver.Grid(0, 1.5, 0, 1.5, 48, 48)
        hist = solver.integrate(system, solver.sinh_data(1.0, 1.0, grid), grid,
                                solver.SolverConfig(tol_invertibility=1e6))
        assert hist.halted
        assert hist.halt_reason.startswith("invertibility lost at row")
        assert 0 < hist.completed_rows < len(grid.zp_points())
        assert hist.gammas[0].shape[0] == hist.completed_rows
        assert np.all(np.isfinite(hist.gammas[0]))

    def test_square_root_failure_halts_with_its_reason(self):
        # the cell-centre step has an eigenvalue near -3: Denman-Beavers
        # stalls and raises ConvergenceError, which halts the march
        chain = toda.build_periodic_chain(3, 2, c_value=6.0)
        state = toda.random_state(chain, np.random.default_rng(3), scale=0.6)
        hist = solver.integrate(chain, solver.constant_data(state), solver.Grid(0, 3, 0, 3, 32, 32))
        assert hist.halted and hist.completed_rows == 1
        assert hist.halt_reason.startswith("cell-centre square root failed at row 1")

    @staticmethod
    def _chain_and_data():
        chain = toda.build_periodic_chain(3, 2)
        state = toda.random_state(chain, np.random.default_rng(0), scale=0.2)
        return chain, solver.constant_data(state), solver.Grid(0, 1, 0, 1, 8, 8)

    def test_mis_shaped_c_plus_raises(self):
        chain, data, grid = self._chain_and_data()
        with pytest.raises(ValueError, match=r"c_plus_fn\(0\.0625\) block 0 has shape \(3, 3\)"):
            solver.integrate(chain, data, grid, c_plus_fn=lambda w: [np.eye(3)] * 3)

    @staticmethod
    def _four_c_minus(z):
        return [np.eye(2)] * 4

    def test_extra_c_minus_block_raises(self):
        chain, data, grid = self._chain_and_data()
        with pytest.raises(ValueError, match=r"c_minus_fn\(0\.0625\) returned 4 blocks, need 3"):
            solver.integrate(chain, data, grid, c_minus_fn=self._four_c_minus)

    def test_residual_extra_c_minus_block_raises(self):
        chain, data, grid = self._chain_and_data()
        hist = solver.integrate(chain, data, grid)
        with pytest.raises(ValueError, match=r"c_minus_fn\(0\.125\) returned 4 blocks, need 3"):
            solver.residual(hist, c_minus_fn=self._four_c_minus)

    def test_mis_shaped_edge_block_raises(self):
        chain, data, grid = self._chain_and_data()
        good = data.gamma_minus(0.0)

        def edge(t):
            return (good[0], np.ones(2), good[2])

        with pytest.raises(ValueError, match=r"gamma_minus\(0\) block 1 has shape \(2,\), need \(2, 2\)"):
            solver.integrate(chain, solver.CharacteristicData(edge, edge), grid)

    def test_law_hook_runs_the_same_scheme(self):
        system = solver.sine_gordon_system()
        grid = solver.Grid(0, 1, 0, 1, 32, 32)
        data = solver.sinh_data(0.1, 1.0, grid)
        own = solver.integrate(system, data, grid)
        hooked = solver.integrate(system, data, grid, law=lambda gs: toda.rhs_dispatch(
            system, gs, list(system.c_plus), list(system.c_minus)))
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
        bad = FieldState(gammas=(np.eye(2) * 1.5, np.eye(2)))
        grid = solver.Grid(0, 1, 0, 1, 4, 4)
        with pytest.raises(toda.ConstraintViolationError):
            solver.integrate(system, solver.constant_data(bad), grid)


class TestSchemes:
    def test_reference_scheme_agrees_with_main(self):
        # independent 4-point oracle vs the group-variable marcher
        a = 1.0
        grid = solver.Grid(-1, 1, -1, 1, 64, 64)
        system = solver.sine_gordon_system()
        hist = solver.integrate(system, solver.kink_data(a, grid, march_minus=+1), grid)
        main = solver.sine_gordon_reduce(hist)
        ref = solver.integrate_scalar_reference(
            lambda v: 2.0 * np.sin(v),
            lambda z: float(solver.analytic_kink(z, grid.z_plus_min, a)),
            lambda w: float(solver.analytic_kink(grid.z_minus_min, w, a)),
            grid,
        )
        assert np.max(np.abs(main - ref)) < 5e-4


class TestVaryingC:
    """C blocks given as functions of their own characteristic variable."""

    @staticmethod
    def _c_minus(z):
        return (np.array([[1.0 + 0.3 * np.sin(z)]], dtype=complex),
                np.array([[1.0 - 0.1 * z]], dtype=complex))

    @staticmethod
    def _c_plus(w):
        return (np.array([[1.0 - 0.2 * np.cos(w)]], dtype=complex),
                np.array([[1.0 + 0.15 * w]], dtype=complex))

    def _run(self, cells):
        chain = toda.build_periodic_chain(2, 1)
        grid = solver.Grid(0, 1, 0, 1, cells, cells)

        def edge(t):
            return (np.array([[np.exp(0.1 * np.sin(t))]], dtype=complex),
                    np.array([[np.exp(-0.1 * np.sin(t))]], dtype=complex))

        data = solver.CharacteristicData(edge, edge)
        hist = solver.integrate(chain, data, grid,
                                c_plus_fn=self._c_plus, c_minus_fn=self._c_minus)
        return solver.residual(hist, c_plus_fn=self._c_plus, c_minus_fn=self._c_minus)

    def test_residual_converges_second_order(self):
        r64 = self._run(64)
        r128 = self._run(128)
        assert r64 < 1e-2
        assert 2.8 <= r64 / r128 <= 5.5

    def test_varying_c_changes_solution(self):
        chain = toda.build_periodic_chain(2, 1)
        grid = solver.Grid(0, 1, 0, 1, 32, 32)
        state = FieldState(gammas=(np.eye(1, dtype=complex), np.eye(1, dtype=complex)))
        data = solver.constant_data(state)
        base = solver.integrate(chain, data, grid)
        varied = solver.integrate(chain, data, grid, c_minus_fn=self._c_minus)
        diff = lc.max_abs(base.gammas[0][-1] - varied.gammas[0][-1])
        assert diff > 1e-3  # the identity is no longer a critical point


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
        state = FieldState(gammas=(np.eye(1, dtype=complex), np.eye(1, dtype=complex)))
        grid = solver.Grid(0, 1, 0, 1, 4, 4)
        hist = solver.integrate(chain, solver.constant_data(state), grid)
        assert np.all(hist.constraint_residuals == 0)


class TestCsv:
    def test_csv_output(self, tmp_path):
        system = solver.sine_gordon_system()
        grid = solver.Grid(0, 1, 0, 1, 4, 4)
        hist = solver.integrate(system, solver.constant_data(
            FieldState(gammas=(np.eye(1, dtype=complex),))), grid)
        path = tmp_path / "field.csv"
        lines = solver.write_history_csv(hist, str(path))
        content = path.read_text().splitlines()
        assert content[0] == "z_minus,z_plus,alpha,block_row,block_col,re,im"
        assert lines == 25
        assert len(content) == 26

    def test_csv_deterministic(self, tmp_path):
        system = solver.sine_gordon_system()
        grid = solver.Grid(0, 1, 0, 1, 8, 8)
        data = solver.kink_data(1.0, grid, march_minus=+1)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        solver.write_history_csv(solver.integrate(system, data, grid), str(p1))
        solver.write_history_csv(solver.integrate(system, data, grid), str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestRowKernels:
    """The log-depth row rebuild and the shared cell-centre inverses."""

    @staticmethod
    def _fixed_node_row(cells=257, seed=40):
        spec = gr.make_spec("sp", gr.TYPE_SOSP_II, 2, (4, 4), (1,))
        rng = np.random.default_rng(seed)
        cp, cm = toda.random_c_blocks(spec, 1, rng)
        system = toda.build_system(spec, 1, cp, cm)
        gc = system.constraints.gamma_constraints[0]
        g0 = toda.random_state(system, rng).gammas[gc.node]
        na = g0.shape[-1]
        x = rng.standard_normal((cells, na, na)) + 1j * rng.standard_normal((cells, na, na))
        v = (x - lc.kind_transpose(x, gc.b_kind)) / 2.0
        return system, gc, g0, v

    def test_prefix_rebuild_matches_sequential_product(self):
        _, _, g0, v = self._fixed_node_row()
        h = 1.0 / len(v)
        row = solver._row_rebuild([g0], [v], h)[0]
        steps = lc.expm(h * v)
        seq = [g0]
        for step in steps:
            seq.append(seq[-1] @ step)
        seq = np.stack(seq)
        assert row.shape == seq.shape == (258, 4, 4)
        assert lc.max_abs(row - seq) <= 1e-13 * lc.max_abs(seq)

    def test_prefix_rebuild_keeps_fold_constraint(self):
        _, gc, g0, v = self._fixed_node_row()
        row = solver._row_rebuild([g0], [v], 1.0 / len(v))[0]
        defect = lc.kind_transpose(row, gc.b_kind) @ row - np.eye(row.shape[-1])
        assert lc.max_abs(defect) <= 1e-13

    @staticmethod
    def _chain_run():
        chain = toda.build_periodic_chain(3, 2)
        rng = np.random.default_rng(7)
        gens = []
        for _ in range(3):
            h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            gens.append((h + h.conj().T) / 2)

        def edge(t):
            return tuple(lc.expm(0.25j * np.sin(t + a) * gens[a]) for a in range(3))

        grid = solver.Grid(0, 1, 0, 1, 24, 24)
        return solver.integrate(chain, solver.CharacteristicData(edge, edge), grid)

    def test_periodic_chain_runs_bit_identical(self):
        first, second = self._chain_run(), self._chain_run()
        assert not first.halted
        for a, b in zip(first.gammas, second.gammas):
            assert a.tobytes() == b.tobytes()

    def test_shared_centre_inverse(self):
        hist = self._chain_run()
        g_old = [g[10] for g in hist.gammas]
        g_new = [g[11] for g in hist.gammas]
        centers, invs = solver._cell_centers(g_new, g_old, [np.linalg.inv(g) for g in g_old])
        for c, ci in zip(centers, invs):
            direct = np.linalg.inv(c)
            assert lc.max_abs(ci - direct) <= 1e-13 * lc.max_abs(direct)

    def test_shared_inverses_feed_rhs(self):
        hist = self._chain_run()
        g_old = [g[10] for g in hist.gammas]
        g_new = [g[11] for g in hist.gammas]
        centers, invs = solver._cell_centers(g_new, g_old, [np.linalg.inv(g) for g in g_old])
        system = hist.system
        shared = toda.rhs_dispatch(system, centers, system.c_plus, system.c_minus, inv=invs)
        direct = toda.rhs_dispatch(system, centers, system.c_plus, system.c_minus)
        for s, d in zip(shared, direct):
            assert lc.max_abs(s - d) <= 1e-13 * lc.max_abs(d)

    def test_scalar_blocks_keep_their_own_inverse(self):
        g_old = [np.exp(0.1j * np.arange(5.0))[:, None, None]]
        g_new = [np.exp(0.2j * np.arange(5.0))[:, None, None]]
        _, invs = solver._cell_centers(g_new, g_old, [np.linalg.inv(g) for g in g_old])
        assert invs == [None]
