"""The lie_core kernels against scipy.linalg, used here only as an oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import looptoda
from looptoda import lie_core as lc

sla = pytest.importorskip("scipy.linalg")

SIZES = st.sampled_from((1, 2, 4, 8, 32))
SEEDS = st.integers(min_value=0, max_value=2 ** 31 - 1)


def norm1(x):
    """Largest matrix 1-norm (max column abs sum) over a batch."""
    return float(np.abs(x).sum(axis=-2).max())


def stack(n, batch, norm, seed):
    """A batch of random complex n x n matrices whose largest 1-norm is ``norm``."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, n, n)) + 1j * rng.standard_normal((batch, n, n))
    return x * (norm / norm1(x))


def oracle(fn, xs):
    return np.stack([fn(x) for x in xs])


def rel_err(got, ref):
    return lc.max_abs(got - ref) / lc.max_abs(ref)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(SIZES, st.integers(min_value=1, max_value=4), st.floats(min_value=-3, max_value=1), SEEDS)
def test_expm_matches_scipy(n, batch, log_norm, seed):
    x = stack(n, batch, 10.0 ** log_norm, seed)
    assert rel_err(lc.expm(x), oracle(sla.expm, x)) < 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(SIZES, st.integers(min_value=1, max_value=4), st.floats(min_value=-3, max_value=0.3), SEEDS)
def test_sqrtm_matches_scipy(n, batch, log_dist, seed):
    # exp of a generator with 1-norm up to 2: spectra stay off the negative axis
    a = lc.expm(stack(n, batch, 10.0 ** log_dist, seed))
    root = lc.sqrtm_near_identity(a)
    assert rel_err(root, oracle(sla.sqrtm, a)) < 1e-12
    assert rel_err(root @ root, a) < 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(SIZES, st.integers(min_value=1, max_value=4), st.floats(min_value=-3, max_value=0.45), SEEDS)
def test_logm_matches_scipy(n, batch, log_dist, seed):
    # generators with 1-norm below pi are the principal logarithms of their exponentials
    x = stack(n, batch, 10.0 ** log_dist, seed)
    a = oracle(sla.expm, x)
    log = lc.logm_near_identity(a)
    scale = max(1.0, lc.max_abs(x))
    assert lc.max_abs(log - x) < 1e-12 * scale
    assert lc.max_abs(log - oracle(sla.logm, a)) < 1e-12 * scale


def test_logm_far_32x32_round_trip():
    # one square root brings max|a - I| to 0.21, under 1/4, while ||a - I||_1
    # is still 2.5: a max-abs stopping test sums the series far outside its
    # disc.  The 1-norm test takes four more roots.
    rng = np.random.default_rng(0)
    x = 0.1 * (rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32)))
    a = sla.expm(x)
    root = sla.sqrtm(a)
    assert lc.max_abs(root - np.eye(32)) < 0.25 < 2.0 < norm1(root - np.eye(32))
    log = lc.logm_near_identity(a)
    assert lc.max_abs(sla.expm(log) - a) <= 1e-12
    assert lc.max_abs(log - x) <= 1e-12


def test_logm_raises_when_doublings_run_out():
    # [[1, c], [0, 1]] has every root exact in one step, but ||root - I||_1 = c / 2^k
    # stays above 1/4 after ten roots when c = 1e4
    with pytest.raises(lc.ConvergenceError):
        lc.logm_near_identity(np.array([[1.0, 1e4], [0.0, 1.0]]))


def test_far_input_raises_convergence_error():
    big = np.diag([1e300, 1.0])
    with pytest.raises(lc.ConvergenceError):
        lc.logm_near_identity(big)
    with pytest.raises(lc.ConvergenceError):
        lc.sqrtm_near_identity(big)


def test_convergence_error_is_exported_value_error():
    assert looptoda.ConvergenceError is lc.ConvergenceError
    assert issubclass(lc.ConvergenceError, ValueError)


# ---------------------------------------------------------------------------
# closed-form 2x2 paths and their validity regions


def test_expm_2x2_exact_at_mu_zero():
    # mu = 0 exactly: a scalar matrix and the nilpotent E_12 (and a shift of it)
    for a, ref in ((np.diag([0.3 - 0.2j] * 2), np.exp(0.3 - 0.2j) * np.eye(2)),
                   (np.array([[0.0, 0.4], [0.0, 0.0]]), np.array([[1.0, 0.4], [0.0, 1.0]])),
                   (np.array([[0.1, 0.4], [0.0, 0.1]]), np.exp(0.1) * np.array([[1.0, 0.4], [0.0, 1.0]]))):
        assert rel_err(lc.expm(a), ref) <= 2 ** -52
        assert rel_err(lc.expm(a), sla.expm(a)) <= 1e-15


def test_expm_2x2_mu_to_zero():
    # [[t + e, 1], [e^2, t - e]] has mu^2 = 2 e^2 -> 0 while the matrix stays away from 0
    for eps in (1e-2, 1e-5, 1e-8, 1e-12, 1e-17):
        a = np.array([[0.2 + eps, 0.25], [eps ** 2, 0.2 - eps]], dtype=complex)
        assert rel_err(lc.expm(a), sla.expm(a)) < 1e-15


@pytest.mark.parametrize("norm", [1e-8, 1e-4, 1e-2, 0.1, 0.5, 1.0, 2.0])
def test_expm_2x2_closed_form_region(norm):
    # the closed form holds unit round-off to ||A||_1 = 2 (it loses digits past
    # 5, 6e-15 there and 8e-11 at 10): the region ||A||_1 <= 1/2 keeps a 4x margin
    x = stack(2, 64, norm, 11)
    assert rel_err(lc._expm_2x2(x), oracle(sla.expm, x)) < 2e-15
    if norm <= lc._EXPM_2X2_NORM:
        assert np.array_equal(lc.expm(x), lc._expm_2x2(x))


@pytest.mark.parametrize("norm", [0.51, 1.0, 3.0, 10.0])
def test_expm_2x2_fallback_side(norm):
    x = stack(2, 64, norm, 12)
    assert not np.array_equal(lc.expm(x), lc._expm_2x2(x))
    assert rel_err(lc.expm(x), oracle(sla.expm, x)) < 1e-12


def test_expm_scaling_range():
    # the nilpotent e^A = I + A comes out exact up to a 1-norm of theta_16
    # 2^1023 (about 7.4e307); above it, or at an infinite column sum of
    # finite entries, the scaling 2^s overflows and expm raises
    a = np.array([[0.0, 7e307], [0.0, 0.0]])
    assert np.array_equal(lc.expm(a), np.eye(2) + a)
    for big in (np.array([[0.0, 8e307], [0.0, 0.0]]), np.array([[1e308, 0.0], [1e308, 0.0]])):
        with np.errstate(over="ignore"), pytest.raises(lc.NonFiniteError):
            lc.expm(big)


def test_sqrtm_2x2_exact_at_mu_zero():
    for a, ref in ((np.diag([1.21 + 0.0j] * 2), 1.1 * np.eye(2)),
                   (np.array([[1.0, 0.4], [0.0, 1.0]]), np.array([[1.0, 0.2], [0.0, 1.0]]))):
        assert rel_err(lc.sqrtm_near_identity(a), ref) <= 2 ** -52
        assert rel_err(lc.sqrtm_near_identity(a), sla.sqrtm(a)) <= 1e-15


@pytest.mark.parametrize("dist", [1e-8, 1e-4, 1e-2, 0.1, 0.5, 1.0])
def test_sqrtm_2x2_closed_form_region(dist):
    # the closed form holds round-off to ||A - I||_1 = 1: the region
    # ||A - I||_1 <= 1/2 keeps a 2x margin
    a = np.eye(2) + stack(2, 64, dist, 13)
    root = lc._sqrtm_2x2(a)
    assert rel_err(root, oracle(sla.sqrtm, a)) < 4e-15
    assert rel_err(root @ root, a) < 4e-15
    if dist <= lc._SQRTM_2X2_DIST:
        assert np.array_equal(lc.sqrtm_near_identity(a), root)


def test_sqrtm_2x2_closed_form_breaks_past_the_region():
    # eigenvalues -0.8 + 0.3i and -0.7 + 0.4i, both in the upper half plane:
    # the principal root of their product is minus the product of their
    # principal roots, so delta = sqrt(det a) takes the wrong sign
    a = np.array([[-0.8 + 0.3j, 0.2], [0.0, -0.7 + 0.4j]])
    assert rel_err(lc._sqrtm_2x2(a), sla.sqrtm(a)) > 0.1
    assert rel_err(lc.sqrtm_near_identity(a), sla.sqrtm(a)) < 1e-12


@pytest.mark.parametrize("dist", [0.6, 0.9])
def test_sqrtm_2x2_fallback_side(dist):
    # outside the region Denman-Beavers takes the batch
    a = np.eye(2) + stack(2, 16, dist, 14)
    assert lc._norm1(a - np.eye(2)) > lc._SQRTM_2X2_DIST
    assert rel_err(lc.sqrtm_near_identity(a), oracle(sla.sqrtm, a)) < 1e-12


@pytest.mark.parametrize("big", [1e9, 1e12])
def test_sqrtm_wide_diagonal_matches_scipy(big):
    # Denman-Beavers needs 21 and 26 iterations here
    a = np.diag([big, 1.0])
    assert rel_err(lc.sqrtm_near_identity(a), sla.sqrtm(a)) <= 1e-15


def test_sqrtm_2x2_far_input_still_raises():
    # an eigenvalue near -3 lies outside the region: Denman-Beavers raises
    with pytest.raises(lc.ConvergenceError):
        lc.sqrtm_near_identity(np.diag([-3.0 + 1e-9j, 1.0]))


@pytest.mark.parametrize("eps", [1e-2, 1e-6, 1e-10, 1e-14])
def test_inv_2x2_det_to_zero(eps):
    # cond ~ 4 / eps: the adjugate loses what LU loses, about cond * eps_machine
    a = np.array([[[1.0, 1.0], [1.0, 1.0 + eps]], [[2.0j, 1.0], [4.0, -2.0j + eps]]])
    ref = oracle(sla.inv, a)
    assert rel_err(lc.inv(a), ref) < 1e-15 * 4 / eps
    assert rel_err(lc.inv(a) @ a, np.eye(2)) < 1e-15 * 4 / eps


def test_inv_2x2_matches_scipy():
    a = np.eye(2) + stack(2, 256, 1.0, 15)
    assert rel_err(lc.inv(a), oracle(sla.inv, a)) < 1e-14
    # and the 1x1 path, 1 / a, on the same kind of stack
    a = np.eye(1) + stack(1, 256, 0.5, 15)
    assert rel_err(lc.inv(a), oracle(sla.inv, a)) < 1e-15


def test_inv_raises_at_det_zero():
    singular = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    batch = np.stack([np.eye(2, dtype=complex), singular])
    scalars = np.array([[[2.0 + 1.0j]], [[0.0]], [[-1.0]]])
    for a in (singular, batch, np.zeros((2, 2)), np.zeros((3, 3)), np.zeros((1, 1)), scalars):
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            lc.inv(a)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("scale", [1e200, 1e-155, 1e-170])
def test_inv_of_scaled_identity(n, scale):
    # a 2x2 det of 1e400 overflows, one of 1e-310 is subnormal (its
    # reciprocal overflows) and one of 1e-340 underflows to 0: the adjugate
    # form would give 0, inf and nan, or a false singularity, so these take
    # LAPACK's inverse; the 1x1 reciprocals are in range
    with np.errstate(over="ignore", under="ignore"):
        got = lc.inv(scale * np.eye(n))
    assert rel_err(got, np.eye(n) / scale) <= 1e-15


def test_inv_batch_with_out_of_range_dets():
    # one matrix whose det leaves the float range sends the whole batch to
    # LAPACK, which inverts every matrix of it
    a = np.eye(2) + stack(2, 8, 0.5, 17)
    a[2], a[5], a[6] = 1e200 * np.eye(2), 1e-155 * np.eye(2), 1e-170 * a[6]
    with np.errstate(over="ignore", under="ignore"):
        got = lc.inv(a)
    for x, ref in zip(got, oracle(sla.inv, a)):
        assert rel_err(x, ref) <= 1e-15


@pytest.mark.parametrize("shapes", [((64, 2, 2), (64, 2, 2)), ((64, 2, 2), (2, 2)),
                                    ((2, 2), (64, 2, 2)), ((9, 1, 2, 2), (9, 11, 2, 2)),
                                    ((5, 2, 2), (5, 2, 3)), ((5, 4, 4), (4, 4)), ((1, 1), (7, 1, 1)),
                                    ((64, 1, 1), (64, 1, 1)), ((64, 1, 1), (1, 1))])
def test_mul_matches_matmul(shapes):
    # every broadcast pattern the marcher and residual use; the 2 x 3 and 4 x 4
    # shapes take numpy's product, the 1 x 1 ones the elementwise a * b
    rng = np.random.default_rng(16)
    a, b = (rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes)
    ref = a @ b
    got = lc.mul(a, b)
    assert got.shape == ref.shape
    assert rel_err(got, ref) <= 1e-15


@pytest.mark.parametrize("kernel", [lc.expm, lc.sqrtm_near_identity, lc.logm_near_identity, lc.inv],
                         ids=["expm", "sqrtm_near_identity", "logm_near_identity", "inv"])
def test_kernel_checks_shape_before_dispatch(kernel):
    # a (3, 2) stack of 2-column rows is not a stack of 2x2 matrices
    for bad in (np.ones((3, 2), dtype=complex), np.ones(2, dtype=complex)):
        with pytest.raises(lc.ShapeMismatchError):
            kernel(bad)


#: non-finite entries: every one makes |entry|, and so a 1-norm, NaN or inf
NON_FINITE = (np.nan, np.inf, -np.inf, complex(np.inf, np.nan), complex(np.nan, -np.inf), complex(0.0, np.inf))
#: the kernels from near I, with the distance from I of the finite matrices
#: of each case: inside the 2x2 closed forms' regions at 0.1, outside at 3
NEAR_IDENTITY_KERNELS = {
    "expm": lc.expm,
    "sqrtm_near_identity": lambda x: lc.sqrtm_near_identity(np.eye(x.shape[-1]) + x),
    "logm_near_identity": lambda x: lc.logm_near_identity(np.eye(x.shape[-1]) + x),
}
NON_FINITE_CASES = {"1x1": (1, 0.1), "2x2_inside": (2, 0.1), "2x2_outside": (2, 3.0), "4x4": (4, 0.1)}


@pytest.mark.parametrize("case", sorted(NON_FINITE_CASES))
@pytest.mark.parametrize("kernel", sorted(NEAR_IDENTITY_KERNELS))
def test_kernel_rejects_a_non_finite_entry(kernel, case):
    # one non-finite entry in one matrix of a batch, in either layout: the
    # 2x2 and larger kernels find it through the non-finite 1-norm
    n, dist = NON_FINITE_CASES[case]
    fn = NEAR_IDENTITY_KERNELS[kernel]
    x = stack(n, 4, dist, 0)
    with np.errstate(all="raise"):
        fn(x)  # the finite batch passes with no floating-point warning
    for value in NON_FINITE:
        for k, i, j in ((0, 0, 0), (2, n - 1, 0), (3, 0, n - 1)):
            bad = x.copy()
            bad[k, i, j] = value
            for layout in (lambda a: a, batch_last):
                with pytest.raises(lc.NonFiniteError, match="^matrix entries must be finite$"):
                    fn(layout(bad))


@pytest.mark.parametrize("kernel", [lc.expm, lc.sqrtm_near_identity, lc.logm_near_identity],
                         ids=["expm", "sqrtm_near_identity", "logm_near_identity"])
def test_kernel_checks_finiteness_before_shape(kernel):
    for shape in ((3, 2), (2,), (4, 2, 3)):
        bad = np.ones(shape, dtype=complex)
        bad.flat[-1] = np.nan
        with pytest.raises(lc.NonFiniteError, match="^matrix entries must be finite$"):
            kernel(bad)


@pytest.mark.parametrize("kernel", [lc.sqrtm_near_identity, lc.logm_near_identity],
                         ids=["sqrtm_near_identity", "logm_near_identity"])
def test_overflowing_norm_of_finite_entries_is_not_a_non_finite_input(kernel):
    # a column sum of 2e308 overflows the 1-norm, but every entry is finite:
    # the input leaves the closed form's region for the Denman-Beavers
    # iteration, which cannot converge (expm: test_expm_scaling_range)
    a = np.array([[1e308, 0.0], [1e308, 1.0]])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(lc.ConvergenceError):
        kernel(a)


def test_mul_checks_shapes_before_dispatch():
    for a, b in (((2, 3), (2, 3)), ((3, 2), (2,)), ((2,), (2, 2))):
        with pytest.raises(lc.ShapeMismatchError):
            lc.mul(np.ones(a), np.ones(b))


def batch_last(x):
    """A copy of the stack x with its matrix axes outermost in memory."""
    lead = x.ndim - 2
    out = np.empty(x.shape[-2:] + x.shape[:-2], dtype=x.dtype).transpose(*range(2, lead + 2), 0, 1)
    out[...] = x
    return out


def is_batch_last(x):
    return min(x.strides[-2:]) > max(x.strides[:-2])


#: each kernel on a small stack x (and a second stack y for mul); the
#: ``far`` ones leave the 2x2 closed forms for the general kernels
LAYOUT_KERNELS = {
    "mul": lambda x, y: lc.mul(x, y),
    "inv": lambda x, y: lc.inv(y),
    "expm": lambda x, y: lc.expm(x),
    "expm_far": lambda x, y: lc.expm(30.0 * x),
    "sqrtm_near_identity": lambda x, y: lc.sqrtm_near_identity(np.eye(x.shape[-1]) + x),
    "sqrtm_near_identity_far": lambda x, y: lc.sqrtm_near_identity(np.eye(x.shape[-1]) + 8.0 * x),
    "logm_near_identity": lambda x, y: lc.logm_near_identity(np.eye(x.shape[-1]) + x),
    "logm_near_identity_far": lambda x, y: lc.logm_near_identity(np.eye(x.shape[-1]) + 6.0 * x),
}
#: kernels whose 2x2 case runs the Denman-Beavers iteration, which returns C order
DENMAN_BEAVERS = {"sqrtm_near_identity_far", "logm_near_identity_far"}


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("kernel", sorted(LAYOUT_KERNELS))
def test_kernels_give_the_same_bits_in_either_layout(kernel, n):
    # the marcher's lattice and the right-hand side's operand stacks of 1x1
    # and 2x2 blocks are batch-last (lie_core.empty_stack); the layout must
    # change no value, and a 2x2 closed form keeps its input's
    rng = np.random.default_rng(n)
    x, y = (rng.standard_normal((3, 5, n, n)) + 1j * rng.standard_normal((3, 5, n, n)) for _ in range(2))
    x *= 0.1
    fn = LAYOUT_KERNELS[kernel]
    c_order, last = fn(x, y), fn(batch_last(x), batch_last(y))
    assert np.array_equal(c_order, last)
    if n == 2 and kernel not in DENMAN_BEAVERS:
        assert c_order.flags.c_contiguous
        assert is_batch_last(last)


#: operand shapes of ``mul`` outside its 2x2 closed form: (2x1)(1x2) takes
#: the broadcast product, the others numpy's matmul
MUL_SHAPES = (((1, 2), (2, 2)), ((2, 2), (2, 1)), ((2, 1), (1, 2)), ((3, 3), (3, 3)), ((4, 4), (4, 4)))


@pytest.mark.parametrize("shapes", MUL_SHAPES, ids=lambda s: "x".join(f"{r}{c}" for r, c in s))
def test_mul_gives_the_same_bits_in_every_layout(shapes):
    # numpy's matmul rounds differently on stacks it cannot hand to BLAS,
    # such as batch-last stacks and the march's views of a lattice diagonal
    rng = np.random.default_rng(list(np.ravel(shapes)))
    a, b = (rng.standard_normal((64,) + s) + 1j * rng.standard_normal((64,) + s) for s in shapes)
    want = lc.mul(a, b)
    assert want.flags.c_contiguous

    # batch-last, and every other matrix of a stack twice as long in either layout
    for layout in (batch_last, lambda x: np.repeat(x, 2, axis=0)[::2],
                   lambda x: batch_last(np.repeat(x, 2, axis=0))[::2]):
        assert np.array_equal(lc.mul(layout(a), layout(b)), want)


@pytest.mark.parametrize("shape", [(3, 5, 1, 1), (3, 5, 2, 2), (2, 4, 4)])
def test_empty_stack_layout(shape):
    stack = lc.empty_stack(shape)
    assert stack.shape == shape and stack.dtype == complex
    if shape[-1] > 2:
        assert stack.flags.c_contiguous
    else:
        assert is_batch_last(stack) or shape[-1] == 1
