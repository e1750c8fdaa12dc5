import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looptoda import gradation as gr, lie_core as lc


def rand(n, seed=0, cplx=True):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    if cplx:
        m = m + 1j * rng.standard_normal((n, n))
    return m


def E(i, j, n):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


class TestStructureMatrices:
    def test_skew_identity_symmetric(self):
        j4 = lc.skew_identity(4)
        assert np.allclose(j4, j4.T)
        assert np.allclose(j4 @ j4, np.eye(4))

    def test_symplectic_identity(self):
        k4 = lc.symplectic_identity(4)
        assert np.allclose(k4.T, -k4)
        assert np.allclose(k4 @ k4, -np.eye(4))

    def test_k_odd_rejected(self):
        with pytest.raises(ValueError):
            lc.symplectic_identity(3)

    def test_structure_matrix_kinds(self):
        assert np.allclose(lc.structure_matrix("J", 2), [[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            lc.structure_matrix("I", 3)


def solve_oracle(m, b_rows, b_cols):
    """^B m = B_c^-1 m^T B_r by a linear solve, B_r and B_c the structure
    matrices on the rows and the columns of m."""
    m = np.asarray(m, dtype=complex)
    return np.linalg.solve(b_cols, np.swapaxes(m, -1, -2) @ b_rows)


def batch_last(a):
    """The same values with the matrix axes outermost in memory."""
    order = (a.ndim - 2, a.ndim - 1) + tuple(range(a.ndim - 2))
    back = tuple(range(2, a.ndim)) + (0, 1)
    return np.ascontiguousarray(a.transpose(order)).transpose(back)


def structure_matrices():
    """The B of structure_for_spec for one spec of each kind, by kind."""
    found = {}
    for family, n, M in (("so", 4, 4), ("so", 5, 4), ("sp", 4, 4), ("sp", 6, 4), ("gl", 4, 4)):
        for spec in gr.enumerate_specs(family, n, M):
            if isinstance(spec, gr.TrivialSpec) or spec.gradation_type == gr.TYPE_GL_INNER:
                continue
            if spec.gradation_type in gr.PALINDROMIC_TYPES:
                kind = "J" if family == "so" else "K"
            else:
                kind = {"so": "diag(J,J)", "sp": "diag(K,K)", "gl": "diag(J,K)"}[family]
            found.setdefault(kind, gr.structure_for_spec(spec))
    return found


class TestBTranspose:
    def test_identity_fixed(self):
        for b in (lc.skew_identity(4), lc.symplectic_identity(4)):
            assert lc.max_abs(lc.b_transpose(np.eye(4), b) - np.eye(4)) < 1e-14

    def test_involution_for_j(self):
        m = rand(4, seed=1)
        j = lc.skew_identity(4)
        assert lc.max_abs(lc.b_transpose(lc.b_transpose(m, j), j) - m) < 1e-13

    def test_involution_for_k(self):
        m = rand(4, seed=2)
        k = lc.symplectic_identity(4)
        assert lc.max_abs(lc.b_transpose(lc.b_transpose(m, k), k) - m) < 1e-13

    def test_e12_under_j2(self):
        # direct evaluation: J inverse . E21 . J lands back on E12
        out = lc.b_transpose(E(0, 1, 2), lc.skew_identity(2))
        assert lc.max_abs(out - E(0, 1, 2)) < 1e-15

    def test_anti_transpose_matches_b_transpose(self):
        # the kind letter J and the matrix J_5 give the same anti-transpose
        m = rand(5, seed=3)
        j = lc.skew_identity(5)
        assert lc.max_abs(lc.b_transpose(m, "J") - lc.b_transpose(m, j)) < 1e-13

    def test_anti_homomorphism(self):
        m, n = rand(4, seed=4), rand(4, seed=5)
        j = lc.skew_identity(4)
        lhs = lc.b_transpose(m @ n, j)
        rhs = lc.b_transpose(n, j) @ lc.b_transpose(m, j)
        assert lc.max_abs(lhs - rhs) < 1e-12

    def test_singular_b_rejected(self):
        with pytest.raises(lc.SingularMatrixError):
            lc.b_transpose(np.eye(2), np.zeros((2, 2)))
        with pytest.raises(lc.SingularMatrixError):
            lc.b_transpose(np.eye(2), np.diag([1.0, 0.0]))

    def test_non_signed_permutation_rejected(self):
        for b in ([[1, 1], [0, 1]], [[2, 0], [0, 1]], [[1j, 0], [0, 1]]):
            with pytest.raises(ValueError, match="signed permutation"):
                lc.b_transpose(np.eye(2), np.array(b))

    def test_bad_kind_and_shapes_rejected(self):
        with pytest.raises(ValueError):
            lc.b_transpose(np.eye(3), "K")
        with pytest.raises(ValueError):
            lc.b_transpose(np.ones((2, 3)), "K")
        with pytest.raises(ValueError):
            lc.b_transpose(np.eye(2), "I")
        with pytest.raises(lc.ShapeMismatchError):
            lc.b_transpose(np.eye(3), lc.skew_identity(2))
        with pytest.raises(lc.ShapeMismatchError):
            lc.b_transpose(np.eye(2), np.eye(2)[:1])

    def test_rectangular_anti_transpose(self):
        m = np.arange(6, dtype=complex).reshape(2, 3)
        out = lc.b_transpose(m, "J")
        assert out.shape == (3, 2)
        # entry (i, j) comes from m[rows-1-j, cols-1-i]
        for i in range(3):
            for j in range(2):
                assert out[i, j] == m[1 - j, 2 - i]

    @pytest.mark.parametrize("kind, shape", [("J", (2, 3)), ("J", (3, 1)), ("K", (2, 4)),
                                             ("K", (4, 2)), ("K", (6, 4))])
    def test_rectangles_match_solve(self, kind, shape):
        r, c = shape
        rng = np.random.default_rng(r * 10 + c)
        m = rng.standard_normal((3,) + shape) + 1j * rng.standard_normal((3,) + shape)
        out = lc.b_transpose(m, kind)
        want = solve_oracle(m, lc.structure_matrix(kind, r), lc.structure_matrix(kind, c))
        assert out.shape == (3, c, r)
        assert lc.max_abs(out - want) == 0.0

    def test_every_structure_b_matches_solve(self):
        bs = structure_matrices()
        assert sorted(bs) == ["J", "K", "diag(J,J)", "diag(J,K)", "diag(K,K)"]
        for kind, b in bs.items():
            n = b.shape[0]
            rng = np.random.default_rng(n)
            m = rng.standard_normal((2, 5, n, n)) + 1j * rng.standard_normal((2, 5, n, n))
            want = solve_oracle(m, b, b)
            for stack in (m, batch_last(m)):
                assert lc.max_abs(lc.b_transpose(stack, b) - want) == 0.0, kind
            if kind in ("J", "K"):
                assert lc.max_abs(lc.b_transpose(batch_last(m), kind) - want) == 0.0, kind
            assert lc.max_abs(lc.b_transpose(m[0, 0], b) - want[0, 0]) == 0.0, kind


class TestMembership:
    """The algebra of so/sp is cut out by ^B x = -x, its group by ^B g g = I;
    sl by tr x = 0 and det g = 1."""

    def test_zero_in_every_algebra(self):
        for kind, n in (("J", 3), ("K", 4)):
            z = np.zeros((n, n))
            assert lc.max_abs(lc.b_transpose(z, kind) + z) <= lc.DEFAULT_TOL
        assert abs(np.trace(np.zeros((3, 3)))) <= lc.DEFAULT_TOL

    def test_identity_not_in_so(self):
        assert lc.max_abs(lc.b_transpose(np.eye(4), "J") + np.eye(4)) > lc.DEFAULT_TOL

    def test_antisymmetrized_in_so(self):
        m = rand(4, seed=6)
        x = (m - lc.b_transpose(m, "J")) / 2.0
        assert lc.max_abs(lc.b_transpose(x, "J") + x) <= lc.DEFAULT_TOL

    def test_identity_in_every_group(self):
        for kind, n in (("J", 4), ("K", 4)):
            assert lc.max_abs(lc.b_transpose(np.eye(n), kind) @ np.eye(n) - np.eye(n)) <= lc.DEFAULT_TOL
        assert abs(np.linalg.det(np.eye(3)) - 1.0) <= lc.DEFAULT_TOL

    def test_diagonal_so4_element(self):
        h = np.diag([-1j, -1, -1, 1j])
        assert lc.max_abs(lc.b_transpose(h, "J") @ h - np.eye(4)) <= lc.DEFAULT_TOL

    def test_diag_2_1_not_in_so2(self):
        g = np.diag([2.0, 1.0])
        assert lc.max_abs(lc.b_transpose(g, "J") @ g - np.eye(2)) > lc.DEFAULT_TOL

    def test_sl_trace_and_det(self):
        x = rand(3, seed=7)
        x -= np.trace(x) / 3 * np.eye(3)
        assert abs(np.trace(x)) <= lc.DEFAULT_TOL
        assert abs(np.linalg.det(lc.expm(x)) - 1.0) <= 1e-9

    def test_singular_group_element_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            lc.inv(np.zeros((2, 2)))


class TestCommutator:
    def test_so_closure(self):
        m, w = rand(5, seed=9), rand(5, seed=10)
        x = (m - lc.b_transpose(m, "J")) / 2.0
        y = (w - lc.b_transpose(w, "J")) / 2.0
        br = x @ y - y @ x
        assert lc.max_abs(lc.b_transpose(br, "J") + br) <= 1e-12

    def test_sp_closure(self):
        m, w = rand(4, seed=11), rand(4, seed=12)
        x = (m - lc.b_transpose(m, "K")) / 2.0
        y = (w - lc.b_transpose(w, "K")) / 2.0
        br = x @ y - y @ x
        assert lc.max_abs(lc.b_transpose(br, "K") + br) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_b_transpose_involution_property(n, seed):
    m = rand(n, seed=seed)
    j = lc.skew_identity(n)
    assert lc.max_abs(lc.b_transpose(lc.b_transpose(m, j), j) - m) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_anti_homomorphism_property(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    j = lc.skew_identity(n)
    dev = lc.max_abs(lc.b_transpose(m @ w, j) - lc.b_transpose(w, j) @ lc.b_transpose(m, j))
    assert dev < 1e-11


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_diagonal_orthogonal_exactness(seed):
    # diagonal h with h_i * h_{n+1-i} = 1 is exactly in the orthogonal group
    rng = np.random.default_rng(seed)
    half = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
    h = np.diag(np.concatenate([half, 1 / half[::-1]]))
    assert lc.max_abs(lc.b_transpose(h, "J") @ h - np.eye(4)) <= 1e-12


class TestExpLog:
    def test_expm_matches_series_scalar(self):
        a = np.array([[0.3 + 0.2j]])
        assert lc.max_abs(lc.expm(a) - np.exp(a)) < 1e-15

    def test_expm_inverse_logm(self):
        x = 0.4 * rand(3, seed=13)
        g = lc.expm(x)
        assert lc.max_abs(lc.logm_near_identity(g) - x) < 1e-12

    def test_sqrtm(self):
        x = 0.3 * rand(3, seed=14)
        g = lc.expm(x)
        s = lc.sqrtm_near_identity(g)
        assert lc.max_abs(s @ s - g) < 1e-12

    def test_expm_batched(self):
        xs = 0.2 * np.stack([rand(2, seed=15), rand(2, seed=16)])
        out = lc.expm(xs)
        for i in range(2):
            assert lc.max_abs(out[i] - lc.expm(xs[i])) < 1e-13
        empty = lc.expm(np.zeros((0, 2, 2), dtype=complex))
        assert empty.shape == (0, 2, 2)
        assert lc.max_abs(empty) == 0.0
