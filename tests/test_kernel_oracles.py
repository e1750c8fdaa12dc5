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
