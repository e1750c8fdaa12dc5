"""Dense complex matrix algebra for the classical families gl, sl, so, sp.

Conventions used throughout the package:

* ``J_n`` is the symmetric skew-diagonal unit matrix, ``K_n`` (even ``n``)
  the skew-symmetric one with ``K_n @ K_n = -I``.
* ``b_transpose(m, B)`` is the B-transpose ^B m = B^-1 m^T B, for B a
  kind letter ("J", "K") or a block-diagonal matrix of J and K blocks.
  Each such B is a signed permutation, so ^B m is an index gather and a
  sign pattern; with ``B = J`` it is transposition across the
  anti-diagonal.
* The orthogonal/symplectic groups are cut out by ``b_transpose(g, B) ==
  inv(g)`` and their algebras by ``b_transpose(x, B) == -x``.

All operations are pure and accept batched arrays (leading axes before the
matrix axes broadcast).

The marcher's kernels (``expm``, ``sqrtm_near_identity``, ``mul``, ``inv``)
work on stacks of small blocks, mostly 2x2 or 1x1, where numpy spends one
BLAS or LAPACK call per matrix.  The marcher runs one path for every size:
besides these kernels, only ``solver._size_groups``, which groups the
lattice by block size, and ``toda.rhs_chain``, which picks its product
path by block shape, look at the block size.  1x1 stacks take the
scalar functions, elementwise: the product a * b, the inverse 1 / a,
exp, sqrt and log.  2x2 stacks take closed forms on the ``[..., i, j]``
entry slices (Higham, *Functions of Matrices*, SIAM 2008, ch. 5-6 and 10):

* product: two broadcast outer products, column of a times row of b;
* inverse: adjugate over det, for batches whose every det and 1 / det are
  finite and nonzero (1 / a needs the same of every 1x1 entry);
* exponential: Cayley-Hamilton, e^tau (cosh mu I + sinh(mu)/mu (A - tau I))
  with tau = tr A / 2 and mu^2 = ((a00 - a11)/2)^2 + a01 a10, for batches
  with ||A||_1 <= 1/2;
* square root: (A + delta I) / sqrt(tr A + 2 delta) with delta = sqrt(det A),
  for batches with ||A - I||_1 <= 1/2.

Other sizes, and 2x2 batches outside a region, take the general kernels:
for the inverse, LAPACK's, which alone decides that a matrix is singular.
The regions are checked against scipy.linalg in test_kernel_oracles.py.

``expm``, ``sqrtm_near_identity`` and ``logm_near_identity`` reject a NaN
or infinite entry with :class:`NonFiniteError`.  On blocks of 2x2 and up
one pass gives both the 1-norm that picks the region or the scaling and
the finiteness test: such an entry makes the norm non-finite, and only a
non-finite norm scans the entries (``_finite_norm1``).  1x1 blocks, which
take no norm, and the Denman-Beavers square root above 2x2 scan them
first.

``empty_stack`` stores 1x1 and 2x2 stacks batch-last; the 2x2 closed
forms allocate with ``np.empty_like`` and so keep their input's layout.
The layout changes no value.  The closed forms are elementwise, and so
give the same bits in any layout.  numpy's matmul does not: on operands
it cannot hand to BLAS, such as batch-last stacks of (1x2)(2x2) or
(2x2)(2x1), it rounds differently, by up to about 1e-15 (numpy 2.4).
So ``mul`` gives matmul C-ordered copies, and the LAPACK kernels copy
their input anyway.
"""

from __future__ import annotations

import functools
import math

import numpy as np

#: Tolerance of the C-block constraint checks of ``toda.build_system`` and
#: ``toda.build_simplest``, relative to max(1, max|C|): double precision
#: leaves ample headroom over 1e-16 machine epsilon through O(n^3) arithmetic.
DEFAULT_TOL = 1e-10


class ShapeMismatchError(ValueError):
    """Operands have incompatible shapes."""


class SingularMatrixError(ValueError):
    """A matrix required to be invertible is numerically singular."""


class NonFiniteError(ValueError):
    """A matrix entry is infinite or NaN."""


def as_complex(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    _check_finite(a)
    return a


def _check_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise NonFiniteError("matrix entries must be finite")


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def skew_identity(n: int) -> np.ndarray:
    """J_n: unit entries on the anti-diagonal."""
    return np.eye(n, dtype=complex)[::-1].copy()


def symplectic_identity(n: int) -> np.ndarray:
    """K_n = [[0, J], [-J, 0]]; requires even n.  K.T = -K, K @ K = -I."""
    if n % 2:
        raise ValueError(f"K_n requires even n, got {n}")
    m = n // 2
    k = np.zeros((n, n), dtype=complex)
    k[:m, m:] = skew_identity(m)
    k[m:, :m] = -skew_identity(m)
    return k


def structure_matrix(kind: str, n: int) -> np.ndarray:
    """J_n or K_n by one-letter kind."""
    if kind == "J":
        return skew_identity(n)
    if kind == "K":
        return symplectic_identity(n)
    raise ValueError(f"unknown structure matrix kind {kind!r}")


def max_abs(m) -> float:
    """Max-absolute-entry norm; scale-free and cheap, used for all tolerances."""
    m = np.asarray(m)
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(m)))


@functools.lru_cache(maxsize=64)
def _signed_permutation(data: bytes, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(q, flip) for the n x n complex B held in ``data``: column i of B
    holds its one entry, +1 or -1, in row q[i], and flip marks the entries
    of ^B m whose sign those entries change.  Cached on B's bytes, so the
    check runs once for each B."""
    b = np.frombuffer(data, dtype=complex).reshape(n, n)
    nonzero = b != 0
    if not (nonzero.any(axis=0).all() and nonzero.any(axis=1).all()):
        raise SingularMatrixError("structure matrix B is singular")
    rows, cols = np.nonzero(nonzero)
    signs = b[rows, cols]
    if rows.size != n or not ((signs == 1) | (signs == -1)).all():
        raise ValueError("structure matrix B is not a signed permutation")
    q = np.argsort(cols)
    negative = signs[q] < 0
    flip = negative[:, None] != negative[None, :]
    q.flags.writeable = flip.flags.writeable = False
    return q, flip


def b_transpose(m, b) -> np.ndarray:
    """^B m = B^-1 @ m.T @ B, batched over the leading axes of m.

    ``b`` is a kind letter, "J" or "K", which sizes B from each side of m
    (an r x c block gives c x r, with K on even sizes only), or a square
    signed-permutation matrix such as diag(J_{n_1}, K_{n - n_1}).  Every B
    here is a signed permutation, so ^B m is an index gather and a sign
    pattern: ^J m reverses both axes and transposes, ^K m is ^J m with its
    off-diagonal half blocks negated.  A B with a zero row or column raises
    :class:`SingularMatrixError`, any other B that is not a signed
    permutation ``ValueError``.
    """
    m = np.asarray(m)
    if isinstance(b, str):
        if b not in ("J", "K"):
            raise ValueError(f"unknown transpose kind {b!r}")
        out = np.swapaxes(m[..., ::-1, ::-1], -1, -2).copy()
        if b == "K":
            c, r = out.shape[-2:]
            if c % 2 or r % 2:
                raise ValueError(f"K needs even sizes, got a {r} x {c} block")
            for block in (out[..., : c // 2, r // 2:], out[..., c // 2:, : r // 2]):
                np.negative(block, out=block)
        return out
    b = np.asarray(b, dtype=complex)
    if b.ndim != 2 or b.shape[0] != b.shape[1] or m.shape[-2:] != b.shape:
        raise ShapeMismatchError(f"matrix shape {m.shape} incompatible with B shape {b.shape}")
    q, flip = _signed_permutation(b.tobytes(), len(b))
    out = np.swapaxes(m, -1, -2)[..., q[:, None], q]
    return np.negative(out, out=out, where=flip)


#: Unit roundoff of IEEE double precision.
_UNIT_ROUNDOFF = 2.0 ** -53

#: theta_m: the largest 1-norm at which the degree-m Taylor remainder
#: bound theta^(m+1) / (m+1)! stays below unit roundoff, m = 1 .. 16.
_TAYLOR_THETA = tuple(
    (_UNIT_ROUNDOFF * math.factorial(m + 1)) ** (1.0 / (m + 1)) for m in range(1, 17)
)

#: Degree K of the cosh and sinh(mu)/mu series in m = mu^2: the smallest K
#: whose remainder bound |m|^(K+1) / (2K+2)! stays below unit roundoff
#: while |m| <= _COSH_THETA[K], K = 1 .. 16.
_COSH_THETA = tuple(
    (_UNIT_ROUNDOFF * math.factorial(2 * k + 2)) ** (1.0 / (k + 1)) for k in range(1, 17)
)
#: Taylor coefficients 1/(2k)! of cosh mu and 1/(2k+1)! of sinh(mu)/mu, k = 0 .. 16
_COSH_SINHC = np.array([[1.0 / math.factorial(2 * k), 1.0 / math.factorial(2 * k + 1)] for k in range(17)])
#: Validity regions of the 2x2 closed forms, in the 1-norm of the batch:
#: ||A||_1 for expm, ||A - I||_1 for sqrtm_near_identity.
_EXPM_2X2_NORM = 0.5
_SQRTM_2X2_DIST = 0.5
#: the I of the square root's region test, built once
_IDENTITY_2X2 = np.eye(2, dtype=complex)
_IDENTITY_2X2.flags.writeable = False

#: Inverse scaling stops once ||a - I||_1 is below this; the Mercator
#: series then takes the degree its remainder bound asks for.
_LOG_THETA = 0.25
_LOG_MAX_DOUBLINGS = 10
_SQRTM_MAX_ITER = 32


class ConvergenceError(ValueError):
    """An iterative kernel reached its iteration cap without converging."""


def _check_square(a: np.ndarray, name: str) -> None:
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ShapeMismatchError(f"{name} needs square matrices, got shape {a.shape}")


def empty_stack(shape) -> np.ndarray:
    """An uninitialised complex stack of matrices of the given shape (..., n, n).

    Stacks of 1x1 and 2x2 blocks are stored batch-last: the matrix axes
    are outermost in memory, so the elementwise loops of the closed forms
    run along the batch and not along a length-2 axis.  Larger blocks keep
    C order, where each matrix is contiguous for BLAS and LAPACK.  Only
    the strides differ: the shape is the one asked for.
    """
    shape = tuple(shape)
    if shape[-1] > 2:
        return np.empty(shape, dtype=complex)
    return np.empty(shape[-2:] + shape[:-2], dtype=complex).transpose(*range(2, len(shape)), 0, 1)


def mul(a, b) -> np.ndarray:
    """Batched matrix product a @ b.

    An inner dimension of 1 (1x1 blocks among them) is the broadcast
    product a * b; 2x2 by 2x2 takes two broadcast outer products.  Other
    shapes take numpy's matmul on C-ordered copies of the operands: it
    rounds differently on stacks it cannot hand to BLAS, such as
    batch-last ones, so the copies keep the bits independent of layout.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeMismatchError(f"cannot multiply shapes {a.shape} and {b.shape}")
    if a.shape[-1] == 1:
        return a * b
    if a.shape[-2:] != (2, 2) or b.shape[-1] != 2:
        return np.ascontiguousarray(a) @ np.ascontiguousarray(b)
    out = a[..., :, :1] * b[..., :1, :]
    out += a[..., :, 1:] * b[..., 1:, :]
    return out


def inv(a) -> np.ndarray:
    """Batched inverse: 1 / a for 1x1 and adjugate over det for 2x2, on a
    batch whose every det (for 1x1 the entry) and its reciprocal are finite
    and nonzero, where these forms hold to round-off.  Any other batch, such
    as 2x2 stacks of 1e200 I or 1e-170 I, and any larger size take LAPACK's
    inverse, which alone decides singularity: it raises ``LinAlgError``.
    """
    a = np.asarray(a)
    _check_square(a, "inv")
    n = a.shape[-1]
    if n in (1, 2):
        det = a if n == 1 else a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
        r = 1.0 / det if det.all() else det  # a zero det goes to LAPACK undivided
        if r.all() and np.isfinite(r).all():
            if n == 1:
                return r
            out = np.empty_like(a, dtype=r.dtype)
            np.multiply(a[..., 1, 1], r, out=out[..., 0, 0])
            np.multiply(a[..., 0, 0], r, out=out[..., 1, 1])
            r = -r
            np.multiply(a[..., 0, 1], r, out=out[..., 0, 1])
            np.multiply(a[..., 1, 0], r, out=out[..., 1, 0])
            return out
    return np.linalg.inv(a)


def _norm1(a) -> float:
    """Largest 1-norm (max column abs sum) over a batch of matrices; NaN
    or inf if an entry is, or if a column sum overflows.

    A 2x2 batch adds its two row planes, which gives every column sum in
    one addition.  That is the faster form on batch-last stacks and on
    C-ordered stacks of up to about 128 matrices; on larger C-ordered
    stacks the strided planes make it slower than separate column sums.
    The marcher's stacks are batch-last, but for the V of the odd and
    double fixed folds, whose two 2x2 blocks make a C-ordered stack of
    two matrices per cell of the anti-diagonal.
    """
    if a.size == 0:
        return 0.0
    m = np.abs(a)
    if a.shape[-2:] == (2, 2):
        return float((m[..., 0, :] + m[..., 1, :]).max())
    return float(m.sum(axis=-2).max())


def _finite_norm1(x: np.ndarray) -> float:
    """``_norm1(x)``, raising :class:`NonFiniteError` if an entry of x is
    NaN or infinite; x = a - I has the non-finite entries of a.

    Such an entry makes the norm non-finite, so only a non-finite norm
    scans the entries: one pass gives both the region norm and the
    finiteness test.  Finite entries whose column sums overflow return
    the infinite norm.
    """
    norm = _norm1(x)
    if not math.isfinite(norm):
        _check_finite(x)
    return norm


def _square(m, name: str) -> np.ndarray:
    """m as a complex stack of square matrices.  Non-square input is tested
    for finite entries first, so a non-finite one raises
    :class:`NonFiniteError`, not :class:`ShapeMismatchError`."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        _check_finite(a)
        _check_square(a, name)
    return a


def _add_identity(m: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """m + scale * I in place on every matrix of the batch."""
    diagonal = np.einsum("...ii->...i", m)  # a writable view
    diagonal += scale
    return m


def _expm_2x2(a: np.ndarray) -> np.ndarray:
    """e^tau (cosh mu I + sinh(mu)/mu (a - tau I)) on a batch of 2x2 matrices.

    tau = tr a / 2 and mu^2 = ((a00 - a11)/2)^2 + a01 a10, which does not
    cancel as tau^2 - det a would.  cosh mu and sinh(mu)/mu are summed
    together as series in mu^2 by Horner's rule, to the degree
    ``_COSH_THETA`` gives for max|mu^2|.
    """
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    tau = 0.5 * (a00 + a11)
    half_diff = 0.5 * (a00 - a11)
    mu2 = half_diff * half_diff + a01 * a10
    bound = float(np.abs(mu2).max()) if mu2.size else 0.0
    degree = next((k for k, theta in enumerate(_COSH_THETA, start=1) if bound <= theta), 16)
    coef = _COSH_SINHC.reshape(_COSH_SINHC.shape + (1,) * mu2.ndim)
    series = coef[degree] * mu2
    for k in range(degree - 1, 0, -1):
        series += coef[k]
        series *= mu2
    series += coef[0]
    series *= np.exp(tau)
    cosh, sinhc = series
    off = sinhc * half_diff
    out = np.empty_like(a, dtype=complex)
    np.add(cosh, off, out=out[..., 0, 0])
    np.subtract(cosh, off, out=out[..., 1, 1])
    np.multiply(sinhc, a01, out=out[..., 0, 1])
    np.multiply(sinhc, a10, out=out[..., 1, 0])
    return out


def expm(a) -> np.ndarray:
    """Matrix exponential: a closed form for 2x2, else scaling and squaring.

    A 2x2 batch whose largest 1-norm is at most 1/2 takes the
    Cayley-Hamilton form e^tau (cosh mu I + sinh(mu)/mu (A - tau I)),
    tau = tr A / 2, mu^2 = ((a00 - a11)/2)^2 + a01 a10 (``_expm_2x2``).
    Every other batch takes a Taylor polynomial with scaling and squaring.
    The scaling is taken from the largest 1-norm in the batch: it is
    halved until it is at most theta_16, the norm at which the degree-16
    remainder bound theta^17 / 17! falls to unit roundoff.  The degree is
    then the smallest m <= 16 whose bound theta^(m+1) / (m+1)! is below
    unit roundoff at the scaled norm (m = 6 at norm 1e-2), and the
    polynomial is evaluated by Horner's rule in m - 1 batched products.
    A 1-norm above theta_16 2^1023 (about 7.4e307), or an infinite column
    sum of finite entries, raises :class:`NonFiniteError`: its scaling 2^s
    overflows.  The one pass that takes the 1-norm also tests the entries:
    a NaN or infinite entry makes the norm non-finite, and only then are
    the entries scanned, raising :class:`NonFiniteError` ("matrix entries
    must be finite").  1x1 input short-circuits to scalar exp.
    """
    a = _square(a, "expm")
    n = a.shape[-1]
    if n == 1:
        _check_finite(a)
        return np.exp(a)
    norm = _finite_norm1(a)
    if n == 2 and norm <= _EXPM_2X2_NORM:
        return _expm_2x2(a)
    if not norm <= _TAYLOR_THETA[-1] * 2.0 ** 1023:
        raise NonFiniteError(f"expm cannot scale a 1-norm of {norm:.3g}: 2^s overflows")
    squarings = int(np.ceil(np.log2(norm / _TAYLOR_THETA[-1]))) if norm > _TAYLOR_THETA[-1] else 0
    b = a / (2.0 ** squarings)
    norm /= 2.0 ** squarings
    degree = next((m for m, theta in enumerate(_TAYLOR_THETA, start=1) if norm <= theta), 16)
    result = _add_identity(b / degree)
    for k in range(degree - 1, 0, -1):
        result = _add_identity(mul(b, result) / k)
    for _ in range(squarings):
        result = mul(result, result)
    return result


def _sqrtm_2x2(a: np.ndarray) -> np.ndarray:
    """(a + delta I) / sqrt(tr a + 2 delta), delta = sqrt(det a), on a batch of 2x2 matrices."""
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    delta = np.sqrt(a00 * a11 - a01 * a10)
    scale = 1.0 / np.sqrt(a00 + a11 + 2.0 * delta)
    root = np.empty_like(a, dtype=complex)
    np.multiply(a00 + delta, scale, out=root[..., 0, 0])
    np.multiply(a11 + delta, scale, out=root[..., 1, 1])
    np.multiply(a01, scale, out=root[..., 0, 1])
    np.multiply(a10, scale, out=root[..., 1, 0])
    return root


def sqrtm_near_identity(a) -> np.ndarray:
    """Principal square root for matrices near the identity.

    A 2x2 batch whose largest ||a - I||_1 is at most 1/2 takes the closed
    form (a + delta I) / sqrt(tr a + 2 delta), delta = sqrt(det a): there
    both eigenvalues lie within 1/2 of 1, so the principal roots of det a
    and of tr a + 2 delta = (sqrt(l1) + sqrt(l2))^2 are the right ones.
    Every other batch takes the Denman-Beavers iteration,
    Y <- (Y + inv(Z)) / 2, Z <- (Z + inv(Y)) / 2 from Y = a, Z = I;
    quadratically convergent for spectra in the right half plane;
    batched.  It stops as soon as the batch's largest increment
    of Y falls to round-off, max|dY| <= 4 n eps max|Y| (four iterations at
    ||a - I||_1 ~ 5e-2), and raises :class:`ConvergenceError` if that has
    not happened after 32 iterations.  Z_0 = I needs no inverse and the last
    Z update is never used, so k iterations take 2k - 2 inverses.  A
    non-finite entry raises :class:`NonFiniteError`; on a 2x2 batch the
    pass that takes ||a - I||_1 for the region test is also the finiteness
    test, as in :func:`expm`.  1x1 input short-circuits to np.sqrt.
    """
    a = _square(a, "sqrtm_near_identity")
    n = a.shape[-1]
    if n != 2:
        _check_finite(a)  # no norm to take the test from
        if n == 1:
            return np.sqrt(a)
    elif _finite_norm1(a - _IDENTITY_2X2) <= _SQRTM_2X2_DIST:
        return _sqrtm_2x2(a)
    tol = 4 * n * np.finfo(float).eps
    y = a
    z = z_inv = identity(n)
    # max|Y_k| <= max|a| + the increments so far: the exact test runs only
    # once this cheap bound lets it pass
    bound = max_abs(a)
    for _ in range(_SQRTM_MAX_ITER):
        y_next = 0.5 * (y + z_inv)
        step = max_abs(y_next - y)
        bound += step
        if step <= tol * bound and step <= tol * max_abs(y_next):
            return y_next
        z = 0.5 * (z + inv(y))
        z_inv = inv(z)
        y = y_next
    raise ConvergenceError(
        f"Denman-Beavers square root did not converge in {_SQRTM_MAX_ITER} iterations "
        f"(last relative increment {step / max_abs(y):.2e})"
    )


def logm_near_identity(a) -> np.ndarray:
    """Principal logarithm for matrices near the identity.

    Inverse scaling and squaring: square roots are taken until the batch's
    largest ||a - I||_1 is at most 1/4, then the Mercator series is summed
    to the smallest degree m whose remainder bound theta^(m+1) / (m+1)
    is below unit roundoff (m = 7 at theta = 1e-2, 24 at 1/4); batched.
    Raises :class:`ConvergenceError` if 10 square roots do not bring the
    input within 1/4 of I.  The pass that takes the first ||a - I||_1 is
    also the finiteness test, as in :func:`expm`: a non-finite entry
    raises :class:`NonFiniteError`.  1x1 input short-circuits to np.log.
    """
    a = _square(a, "logm_near_identity")
    n = a.shape[-1]
    if n == 1:
        _check_finite(a)
        return np.log(a)
    e = _add_identity(a.copy(order="K"), -1.0)
    theta = _finite_norm1(e)
    doublings = 0
    while theta > _LOG_THETA:
        if doublings == _LOG_MAX_DOUBLINGS:
            raise ConvergenceError(
                f"logarithm needs more than {_LOG_MAX_DOUBLINGS} square roots "
                f"(||a - I||_1 still {theta:.2e})"
            )
        a = sqrtm_near_identity(a)
        e = _add_identity(a.copy(order="K"), -1.0)
        theta = _norm1(e)
        doublings += 1
    degree = 1
    while theta ** (degree + 1) / (degree + 1) > _UNIT_ROUNDOFF:
        degree += 1
    # Horner: log(I + e) = e (c_1 I + e (c_2 I + ... + e c_m I)), c_k = (-1)^(k+1) / k
    r = np.empty_like(e)
    r[...] = identity(n) * ((-1) ** (degree + 1) / degree)
    for k in range(degree - 1, 0, -1):
        r = _add_identity(mul(e, r), (-1) ** (k + 1) / k)
    return mul(e, r) * (2.0 ** doublings)
