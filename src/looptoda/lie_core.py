"""Dense complex matrix algebra for the classical families gl, sl, so, sp.

Conventions used throughout the package:

* ``J_n`` is the symmetric skew-diagonal unit matrix, ``K_n`` (even ``n``)
  the skew-symmetric one with ``K_n @ K_n = -I``.
* ``b_transpose(m, B) = B^-1 @ m.T @ B``; with ``B = J`` this is
  transposition across the anti-diagonal.
* The orthogonal/symplectic groups are cut out by ``b_transpose(g, B) ==
  inv(g)`` and their algebras by ``b_transpose(x, B) == -x``.

All operations are pure and accept batched arrays (leading axes before the
matrix axes broadcast).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Default tolerance for membership tests: double precision leaves ample
#: headroom over 1e-16 machine epsilon through O(n^3) arithmetic.
DEFAULT_TOL = 1e-10

FAMILIES = ("gl", "sl", "so", "sp")


class ShapeMismatchError(ValueError):
    """Operands have incompatible shapes."""


class SingularMatrixError(ValueError):
    """A matrix required to be invertible is numerically singular."""


def as_complex(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


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
    """I_n, J_n or K_n by one-letter kind."""
    if kind == "I":
        return identity(n)
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


def commutator(x, y) -> np.ndarray:
    x = as_complex(x)
    y = as_complex(y)
    if x.shape != y.shape or x.shape[-1] != x.shape[-2]:
        raise ShapeMismatchError(f"commutator needs equal square shapes, got {x.shape} and {y.shape}")
    return x @ y - y @ x


def anti_transpose(m) -> np.ndarray:
    """^J m: transposition across the anti-diagonal, valid for rectangles.

    For an r x c matrix this is J_c^-1 @ m.T @ J_r, returning c x r.
    """
    m = np.asarray(m)
    return np.swapaxes(m[..., ::-1, ::-1], -1, -2).copy()


def k_transpose(m) -> np.ndarray:
    """^K m with K-matrices on both sides (all dimensions even)."""
    m = as_complex(m)
    r, c = m.shape[-2], m.shape[-1]
    kr = symplectic_identity(r)
    kc = symplectic_identity(c)
    return (-kc) @ np.swapaxes(m, -1, -2) @ kr


def kind_transpose(m, kind: str) -> np.ndarray:
    """^B m with B = J (any size) or K (even sizes) on both slots."""
    if kind == "J":
        return anti_transpose(m)
    if kind == "K":
        return k_transpose(m)
    raise ValueError(f"unknown transpose kind {kind!r}")


def b_transpose(m, b) -> np.ndarray:
    """^B m = B^-1 @ m.T @ B for square m and invertible B."""
    m = as_complex(m)
    b = as_complex(b)
    n = b.shape[-1]
    if b.shape[-2] != n:
        raise ShapeMismatchError("B must be square")
    if m.shape[-1] != n or m.shape[-2] != n:
        raise ShapeMismatchError(f"matrix shape {m.shape} incompatible with B shape {b.shape}")
    if np.linalg.cond(b) > 1e14:
        raise SingularMatrixError("structure matrix B is singular")
    return np.linalg.solve(b, np.swapaxes(m, -1, -2) @ b)


@dataclass(frozen=True)
class AlgebraFamily:
    """One of the classical matrix families gl_n, sl_n, so_n, sp_n over C."""

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise ValueError(f"unknown family {self.kind!r}")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.kind == "sp" and self.n % 2:
            raise ValueError("sp_n requires even n")

    def structure(self) -> np.ndarray | None:
        """B matrix defining the family (J for so, K for sp, none for gl/sl)."""
        if self.kind == "so":
            return skew_identity(self.n)
        if self.kind == "sp":
            return symplectic_identity(self.n)
        return None


def is_in_algebra(x, fam: AlgebraFamily, tol: float = DEFAULT_TOL) -> bool:
    """Membership test: ^B x = -x for so/sp, tr x = 0 for sl, always for gl."""
    x = as_complex(x)
    if x.shape != (fam.n, fam.n):
        raise ShapeMismatchError(f"expected {(fam.n, fam.n)}, got {x.shape}")
    if fam.kind == "gl":
        return True
    if fam.kind == "sl":
        return abs(np.trace(x)) <= tol
    return max_abs(b_transpose(x, fam.structure()) + x) <= tol


def is_in_group(g, fam: AlgebraFamily, tol: float = DEFAULT_TOL) -> bool:
    """Membership test: ^B g . g = I for so/sp, det g = 1 for sl."""
    g = as_complex(g)
    if g.shape != (fam.n, fam.n):
        raise ShapeMismatchError(f"expected {(fam.n, fam.n)}, got {g.shape}")
    if np.linalg.cond(g) > 1e14:
        raise SingularMatrixError("group element is singular")
    if fam.kind == "gl":
        return True
    if fam.kind == "sl":
        return abs(determinant(g) - 1.0) <= tol
    return max_abs(b_transpose(g, fam.structure()) @ g - identity(fam.n)) <= tol


def algebra_project(x, fam: AlgebraFamily) -> np.ndarray:
    """Project onto the family algebra: (x - ^B x)/2 for so/sp, traceless part for sl."""
    x = as_complex(x)
    if fam.kind == "gl":
        return x
    if fam.kind == "sl":
        return x - np.trace(x) / fam.n * identity(fam.n)
    return (x - b_transpose(x, fam.structure())) / 2.0


def determinant(m) -> complex:
    """Determinant through LU with partial pivoting (LAPACK getrf)."""
    return complex(np.linalg.det(as_complex(m)))


#: Unit roundoff of IEEE double precision.
_UNIT_ROUNDOFF = 2.0 ** -53

#: theta_m: the largest 1-norm at which the degree-m Taylor remainder
#: bound theta^(m+1) / (m+1)! stays below unit roundoff, m = 1 .. 16.
_TAYLOR_THETA = tuple(
    (_UNIT_ROUNDOFF * math.factorial(m + 1)) ** (1.0 / (m + 1)) for m in range(1, 17)
)

#: Inverse scaling stops once ||a - I||_1 is below this; the Mercator
#: series then takes the degree its remainder bound asks for.
_LOG_THETA = 0.25
_LOG_MAX_DOUBLINGS = 10
_SQRTM_MAX_ITER = 20


class ConvergenceError(ValueError):
    """An iterative kernel reached its iteration cap without converging."""


def _norm1(a) -> float:
    """Largest 1-norm (max column abs sum) over a batch of matrices."""
    if a.size == 0:
        return 0.0
    return float(np.abs(a).sum(axis=-2).max())


def _add_identity(m: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """m + scale * I in place on every matrix of the batch."""
    diagonal = np.einsum("...ii->...i", m)  # a writable view
    diagonal += scale
    return m


def expm(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring on a Taylor polynomial.

    The scaling is taken from the largest 1-norm in the batch: it is
    halved until it is at most theta_16, the norm at which the degree-16
    remainder bound theta^17 / 17! falls to unit roundoff.  The degree is
    then the smallest m <= 16 whose bound theta^(m+1) / (m+1)! is below
    unit roundoff at the scaled norm (m = 6 at norm 1e-2), and the
    polynomial is evaluated by Horner's rule in m - 1 batched products.
    1x1 input short-circuits to scalar exp.
    """
    a = as_complex(a)
    n = a.shape[-1]
    if a.shape[-2] != n:
        raise ShapeMismatchError("expm needs square matrices")
    if n == 1:
        return np.exp(a)
    norm = _norm1(a)
    squarings = int(np.ceil(np.log2(norm / _TAYLOR_THETA[-1]))) if norm > _TAYLOR_THETA[-1] else 0
    b = a / (2.0 ** squarings)
    norm /= 2.0 ** squarings
    degree = next((m for m, theta in enumerate(_TAYLOR_THETA, start=1) if norm <= theta), 16)
    result = _add_identity(b / degree)
    for k in range(degree - 1, 0, -1):
        result = _add_identity(b @ result / k)
    for _ in range(squarings):
        result = result @ result
    return result


def sqrtm_near_identity(a) -> np.ndarray:
    """Principal square root for matrices near the identity.

    Denman-Beavers iteration, Y <- (Y + inv(Z)) / 2, Z <- (Z + inv(Y)) / 2
    from Y = a, Z = I; quadratically convergent for spectra in the right
    half plane; batched.  It stops as soon as the batch's largest increment
    of Y falls to round-off, max|dY| <= 4 n eps max|Y| (four iterations at
    ||a - I||_1 ~ 5e-2), and raises :class:`ConvergenceError` if that has
    not happened after 20 iterations.  Z_0 = I needs no inverse and the last
    Z update is never used, so k iterations take 2k - 2 inverses.  1x1
    input short-circuits to np.sqrt.
    """
    a = as_complex(a)
    n = a.shape[-1]
    if n == 1:
        return np.sqrt(a)
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
        z = 0.5 * (z + np.linalg.inv(y))
        z_inv = np.linalg.inv(z)
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
    input within 1/4 of I.  1x1 input short-circuits to np.log.
    """
    a = as_complex(a)
    n = a.shape[-1]
    if n == 1:
        return np.log(a)
    e = _add_identity(a.copy(), -1.0)
    theta = _norm1(e)
    doublings = 0
    while theta > _LOG_THETA:
        if doublings == _LOG_MAX_DOUBLINGS:
            raise ConvergenceError(
                f"logarithm needs more than {_LOG_MAX_DOUBLINGS} square roots "
                f"(||a - I||_1 still {theta:.2e})"
            )
        a = sqrtm_near_identity(a)
        e = _add_identity(a.copy(), -1.0)
        theta = _norm1(e)
        doublings += 1
    degree = 1
    while theta ** (degree + 1) / (degree + 1) > _UNIT_ROUNDOFF:
        degree += 1
    # Horner: log(I + e) = e (c_1 I + e (c_2 I + ... + e c_m I)), c_k = (-1)^(k+1) / k
    r = np.broadcast_to(identity(n) * ((-1) ** (degree + 1) / degree), e.shape).copy()
    for k in range(degree - 1, 0, -1):
        r = _add_identity(e @ r, (-1) ** (k + 1) / k)
    return (e @ r) * (2.0 ** doublings)
