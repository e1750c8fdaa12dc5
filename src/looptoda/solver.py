"""Light-cone integration of Toda systems and the sine/sinh-Gordon oracles.

The equation d_+(inv(G) d_- G) = rhs(G) is integrated as a Goursat
problem: data on the two characteristics through a corner, solution
filled row by row.  The scheme is the midpoint rule on characteristic
rectangles: the variable V = inv(G) d_- G lives on half-points of each
row and is advanced by the cell-centered right-hand side,

    V[i+1/2] <- V[i+1/2] + h_plus rhs(G at the cell center),

after which G is rebuilt along the row through multiplicative steps
G[i+1] = G[i] expm(h_minus V[i+1/2]), which keeps G inside its group to
scheme order.  The cell center couples the new row to the old one, so the
row update is solved by a fixed-point iteration of ``SWEEPS`` = 3
sweeps.  The coupling is O(h^2): on the periodic-chain preset the third
sweep still moves V by up to 5.0e-6 at 64x64 and 6.6e-7 at 128x128, each
sweep shrinking the increment about 120x and 240x.  The scheme is second order
in both steps and reproduces factorized free fields exactly.  Blocks of every
size take this one path: the products, inverses, exponentials and square
roots come from ``lie_core``, the only module that looks at the block size,
so the 1x1 blocks of the sine- and sinh-Gordon reductions march like any
matrix block.

The marcher holds a row as one stacked array per block size, of shape
(blocks of that size, lattice points, n, n), so a sweep makes one
exponential, one scan, one square root and one inverse call per size and
not per block, and the right-hand side runs every node of a chain of
equal blocks at once.  The arrays come from ``lie_core.empty_stack``,
which stores 1x1 and 2x2 stacks batch-last (matrix axes outermost in
memory), and the 2x2 kernels keep that layout; only strides differ, no
shape.  The history's ``gammas`` stay C-ordered, one array per block.

Scalar reductions: for the p = 2, r = 1 chain with C = I/sqrt(2) the
unit-modulus real form G = exp(i F / 2) carries the field F with
d_+ d_- F = 2 sin F, and the real-positive form G = exp(F / 2) carries
d_+ d_- F = 2 sinh F.  ``analytic_kink`` is the exact single-kink solution
used as the convergence oracle.  Both vacua of d_+ d_- F = 2 sin F are
exponentially unstable towards the (+, +) quadrant, so the kink preset
marches from the opposite z^- corner where error transport is bounded.

A single integration is sequential in the causal order of the lattice;
results are deterministic, and independent runs (parameter sweeps,
refinement studies) parallelize trivially across processes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .lie_core import (
    ConvergenceError,
    NonFiniteError,
    as_complex,
    empty_stack,
    expm,
    inv,
    logm_near_identity,
    max_abs,
    mul,
    sqrtm_near_identity,
)
from .gradation import TYPE_SOSP_I, make_spec
from . import toda
from .toda import FieldState, TodaSystem


@dataclass(frozen=True)
class Grid:
    """Rectangular light-cone lattice; n_minus/n_plus count cells."""

    z_minus_min: float
    z_minus_max: float
    z_plus_min: float
    z_plus_max: float
    n_minus: int
    n_plus: int

    def __post_init__(self):
        if not np.all(np.isfinite((self.z_minus_min, self.z_minus_max,
                                   self.z_plus_min, self.z_plus_max))):
            raise ValueError("grid bounds must be finite")
        if self.z_minus_max <= self.z_minus_min or self.z_plus_max <= self.z_plus_min:
            raise ValueError("grid ranges must be increasing")
        if self.n_minus < 1 or self.n_plus < 1:
            raise ValueError("grids need at least one cell per direction")

    @property
    def h_minus(self) -> float:
        return (self.z_minus_max - self.z_minus_min) / self.n_minus

    @property
    def h_plus(self) -> float:
        return (self.z_plus_max - self.z_plus_min) / self.n_plus

    def zm_points(self) -> np.ndarray:
        return np.linspace(self.z_minus_min, self.z_minus_max, self.n_minus + 1)

    def zp_points(self) -> np.ndarray:
        return np.linspace(self.z_plus_min, self.z_plus_max, self.n_plus + 1)

    def halved(self) -> "Grid":
        return Grid(self.z_minus_min, self.z_minus_max, self.z_plus_min,
                    self.z_plus_max, 2 * self.n_minus, 2 * self.n_plus)

    def to_json(self) -> dict:
        return {
            "z_minus": [self.z_minus_min, self.z_minus_max],
            "z_plus": [self.z_plus_min, self.z_plus_max],
            "n_minus": self.n_minus,
            "n_plus": self.n_plus,
        }


@dataclass(frozen=True)
class SolverConfig:
    tol_constraint: float = 1e-8      # corner/constraint admission tolerance
    tol_invertibility: float = 1e12   # blow-up detector on |G| * |inv G|

    def __post_init__(self):
        if not all(0 < t < np.inf for t in (self.tol_constraint, self.tol_invertibility)):
            raise ValueError("tolerances must be finite and positive")

    def to_json(self) -> dict:
        return {
            "tol_constraint": self.tol_constraint,
            "tol_invertibility": self.tol_invertibility,
        }


@dataclass(frozen=True)
class CharacteristicData:
    """Goursat data: blocks on the two characteristics through the corner.

    ``gamma_minus(z)`` gives the state on the bottom edge (z^+ fixed at its
    minimum), ``gamma_plus(w)`` on the edge of constant z^- (the minimum
    edge, or the maximum one when marching with ``march_minus = -1``).
    """

    gamma_minus: Callable[[float], Sequence[np.ndarray]]
    gamma_plus: Callable[[float], Sequence[np.ndarray]]


def constant_data(state: FieldState) -> CharacteristicData:
    blocks = tuple(state.gammas)
    return CharacteristicData(
        gamma_minus=lambda z: blocks,
        gamma_plus=lambda w: blocks,
    )


@dataclass
class FieldHistory:
    """Solution lattice: ``gammas[b][j, i]`` is independent block b at
    (z^-_i, z^+_j), in ascending coordinates, for the rows j the march
    completed; their count is ``completed_rows``.

    ``constraint_residuals[j]`` holds the max violation of the fixed-node
    group constraints over row j (all zero when the system carries none).
    ``halt_reason`` says why the march stopped early, and is None when it
    completed every row.
    """

    system: TodaSystem
    grid: Grid
    config: SolverConfig
    gammas: list[np.ndarray]
    constraint_residuals: np.ndarray
    halt_reason: str | None = None

    @property
    def completed_rows(self) -> int:
        return self.gammas[0].shape[0]

    @property
    def halted(self) -> bool:
        return self.halt_reason is not None


#: fixed-point sweeps per row of the midpoint scheme
SWEEPS = 3


def _sample(fn, points, shapes, name):
    """Stack ``fn(z)`` over the points: one (len(points), *shape) array per block.

    A wrong block count or block shape raises ValueError naming ``name``,
    the point and the block.
    """
    out = [np.empty((len(points),) + shape, dtype=complex) for shape in shapes]
    for idx, z in enumerate(points):
        values = fn(float(z))
        if len(values) != len(shapes):
            raise ValueError(f"{name}({z:g}) returned {len(values)} blocks, need {len(shapes)}")
        for b, v in enumerate(values):
            v = as_complex(v)
            if v.shape != shapes[b]:
                raise ValueError(f"{name}({z:g}) block {b} has shape {v.shape}, need {shapes[b]}")
            out[b][idx] = v
    return out


def _c_blocks(constants, fn, points, name):
    """The system's C blocks, or ``fn`` sampled on the points in their shapes."""
    if fn is None:
        return list(constants)
    return _sample(fn, points, [c.shape for c in constants], name)


def _size_groups(sizes) -> tuple[tuple[int, ...], ...]:
    """The indices of the blocks of each size, sizes in order of first appearance."""
    groups: dict[int, list[int]] = {}
    for b, na in enumerate(sizes):
        groups.setdefault(na, []).append(b)
    return tuple(tuple(group) for group in groups.values())


def _pack(blocks, groups) -> list[np.ndarray]:
    """One stacked (len(group), ..., n, n) array per size group, laid out by
    ``lie_core.empty_stack``."""
    packs = []
    for group in groups:
        stack = empty_stack((len(group),) + blocks[group[0]].shape)
        for k, b in enumerate(group):
            stack[k] = blocks[b]
        packs.append(stack)
    return packs


def _unpack(packs, groups) -> list[np.ndarray]:
    """The blocks of the stacked arrays, as views in block order."""
    blocks = [None] * sum(map(len, groups))
    for stack, group in zip(packs, groups):
        for k, b in enumerate(group):
            blocks[b] = stack[k]
    return blocks


def _finite(packs) -> bool:
    return all(np.isfinite(g).all() for g in packs)


def _row_invertibility(packs):
    """The row's worst max(|G|, |inv G|, |G| |inv G|), each taken per block.

    An exactly singular block raises ``np.linalg.LinAlgError``.
    """
    worst = 0.0
    for g in packs:
        axes = tuple(range(1, g.ndim))
        size, inv_size = np.abs(g).max(axis=axes), np.abs(inv(g)).max(axis=axes)
        worst = max(worst, size.max(), inv_size.max(), (size * inv_size).max())
    return worst


def _half_point_v(g_row, h_minus):
    """Discrete V on row half-points: logm(inv(G_i) G_{i+1}) / h_minus."""
    return [logm_near_identity(mul(inv(g[:, :-1]), g[:, 1:])) / h_minus for g in g_row]


def _row_rebuild(g_left, v_row, h_minus):
    """Rebuild a row from its left value: G[i+1] = G[i] expm(h V[i+1/2]).

    Each stacked array of ``v_row`` holds the blocks of one size, with the
    cells on axis 1, and ``g_left`` their left values.  The products run
    as a Hillis-Steele inclusive scan in place: after the pass of stride d
    every entry holds the product of up to 2d consecutive factors, so
    ceil(log2(cells + 1)) batched products build the row of every block
    of that size.
    """
    out = []
    for g0, v in zip(g_left, v_row):
        nblocks, ncells = v.shape[:2]
        row = empty_stack((nblocks, ncells + 1) + v.shape[2:])
        row[:, 0] = g0
        row[:, 1:] = expm(h_minus * v)
        stride = 1
        while stride <= ncells:
            row[:, stride:] = mul(row[:, :-stride], row[:, stride:])
            stride *= 2
        out.append(row)
    return out


def _cell_centers(g_new, g_old):
    """Geometric means nw sqrt(inv(nw) se) of the NW and SE corners of each
    cell of a row pair, for the stacked blocks of every size."""
    return [mul(gn[:, :-1], sqrtm_near_identity(mul(inv(gn[:, :-1]), go[:, 1:])))
            for gn, go in zip(g_new, g_old)]


def _solve_row(system, law, groups, left_next, g_row, v_row, cp_vals, cm_vals, hm, dv_scale):
    """The next row's (G, V) by fixed-point sweeps, or None once a value is non-finite."""
    v_next = v_row
    g_next = _row_rebuild(left_next, v_next, hm)
    for _ in range(SWEEPS):
        if not _finite(g_next):
            return None
        centers = _unpack(_cell_centers(g_next, g_row), groups)
        if law is None:
            f = toda.rhs_dispatch(system, centers, cp_vals, cm_vals)
        else:
            f = law(centers)
        v_next = [v + dv_scale * fb for v, fb in zip(v_row, _pack(f, groups))]
        if not _finite(v_next):
            return None
        g_next = _row_rebuild(left_next, v_next, hm)
    return (g_next, v_next) if _finite(g_next) else None


def integrate(system: TodaSystem, data: CharacteristicData, grid: Grid,
              config: SolverConfig = SolverConfig(),
              c_plus_fn: Callable[[float], Sequence[np.ndarray]] | None = None,
              c_minus_fn: Callable[[float], Sequence[np.ndarray]] | None = None,
              march_minus: int = +1,
              law: Callable[[list], Sequence[np.ndarray]] | None = None) -> FieldHistory:
    """March the system over the light-cone lattice from characteristic data.

    ``c_minus_fn``/``c_plus_fn`` optionally override the system constants
    with functions of z^- and z^+ respectively, enforcing the chirality
    conditions d_+ c_- = 0, d_- c_+ = 0 by construction.  ``law``, when
    given, replaces the system's right-hand side: it maps the list of
    cell-centre blocks of a row to the list of d_+ V blocks, so nearby laws
    (an equation and its linearization) run through the same scheme.

    The edge data and the C functions are sampled once, before the march:
    the edges on the lattice points, c_- and c_+ on the cell midpoints.
    A sample with the wrong block count or block shape raises ValueError.

    Returns the :class:`FieldHistory` of G.  On numerical loss it is
    truncated to the completed rows, with ``halt_reason`` naming the row
    and the cause: a non-finite value, a cell-centre square root (or, on
    row 0, a logarithm of a bottom-edge step) that did not converge, a
    singular block, or a row failing the blow-up test
    max(|G|, |inv G|, |G| |inv G|) <= ``config.tol_invertibility``.  Any
    other error propagates.

    ``march_minus`` selects the Goursat corner: +1 takes data on the two
    minimum edges, -1 on the maximum z^- edge and minimum z^+ edge.  The
    -1 orientation reverses the z^- axis internally (the returned history
    is always in ascending coordinates); it is the stable direction for
    fields, like the kink, whose far-field linearization grows towards the
    (+, +) quadrant.
    """
    if march_minus not in (+1, -1):
        raise ValueError("march_minus must be +1 or -1")
    sizes = system.independent_sizes
    zm = grid.zm_points()
    zp = grid.zp_points()
    hm, hp = grid.h_minus, grid.h_plus
    zm_march = zm if march_minus > 0 else zm[::-1]
    zm_mid = 0.5 * (zm_march[:-1] + zm_march[1:])
    zp_mid = 0.5 * (zp[:-1] + zp[1:])
    shapes = [(na, na) for na in sizes]

    bottom = _sample(data.gamma_minus, zm_march, shapes, "gamma_minus")
    left = _sample(data.gamma_plus, zp, shapes, "gamma_plus")
    corner_dev = max(max_abs(b[0] - l[0]) for b, l in zip(bottom, left))
    if corner_dev > max(config.tol_constraint, 1e-7):
        raise ValueError(f"characteristic data disagrees at the corner (dev {corner_dev:.2e})")

    state0 = FieldState(gammas=tuple(b[0] for b in bottom))
    dev0 = toda.state_residual(system, state0)
    if dev0 > config.tol_constraint:
        raise toda.ConstraintViolationError(
            f"initial data violates the system constraints (residual {dev0:.2e})"
        )

    cm_vals = _c_blocks(system.c_minus, c_minus_fn, zm_mid, "c_minus_fn")
    cp_vals = _c_blocks(system.c_plus, c_plus_fn, zp_mid, "c_plus_fn")

    gammas = [np.zeros((len(zp), len(zm), na, na), dtype=complex) for na in sizes]
    groups = _size_groups(sizes)
    left_packs = _pack(left, groups)

    def store(j, g_packs):
        for hg, g in zip(gammas, _unpack(g_packs, groups)):
            hg[j] = g if march_minus > 0 else g[::-1]

    def halt(row, cause, detail=""):
        return f"{cause} at row {row} (z^+ = {zp[row]:g}){detail}"

    g_row = _pack(bottom, groups)
    store(0, g_row)
    rows, halt_reason = 1, None
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            v_row = _half_point_v(g_row, hm)
    except NonFiniteError:
        halt_reason = halt(0, "non-finite value")
    except ConvergenceError:
        halt_reason = halt(0, "edge logarithm failed")
    except np.linalg.LinAlgError:
        halt_reason = halt(0, "singular block")

    for j in range(0 if halt_reason else len(zp) - 1):
        cause, detail = None, ""
        cp_row = cp_vals if c_plus_fn is None else [c[j] for c in cp_vals]
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                row = _solve_row(system, law, groups, [l[:, j + 1] for l in left_packs], g_row, v_row,
                                 cp_row, cm_vals, hm, march_minus * hp)
                if row is None:
                    cause = "non-finite value"
                else:
                    worst = _row_invertibility(row[0])
                    if not worst <= config.tol_invertibility:
                        cause = "invertibility lost"
                        detail = (f": max(|G|, |inv G|, |G| |inv G|) = {worst:.3g}"
                                  f" > {config.tol_invertibility:g}")
        except NonFiniteError:
            # a kernel's input overflowed, such as inv(nw) se in a cell centre
            cause = "non-finite value"
        except ConvergenceError as exc:
            cause, detail = "cell-centre square root failed", f": {exc}"
        except np.linalg.LinAlgError:
            cause = "singular block"
        if cause is not None:
            halt_reason = halt(j + 1, cause, detail)
            break
        g_row, v_row = row
        store(j + 1, g_row)
        rows = j + 2

    gammas = [g[:rows] for g in gammas]
    return FieldHistory(system=system, grid=grid, config=config, gammas=gammas,
                        constraint_residuals=toda.fixed_node_defect(system, gammas).max(axis=1),
                        halt_reason=halt_reason)


#: interior cells per band of rows in which :func:`residual` takes the right-hand side
RESIDUAL_BAND_CELLS = 1024


def residual(history: FieldHistory,
             c_plus_fn: Callable[[float], Sequence[np.ndarray]] | None = None,
             c_minus_fn: Callable[[float], Sequence[np.ndarray]] | None = None) -> float:
    """Max central-difference defect |d_+(inv(G) d_- G) - rhs| over the interior.

    Pass the same ``c_plus_fn``/``c_minus_fn`` that were given to
    :func:`integrate` when the C blocks vary along their characteristics.

    The differences divide the round-off of G by ``h_minus * h_plus``, so
    the defect has a round-off floor near 1e-12 absolute at 64².  Any
    reassociation of the marcher's arithmetic shifts small residuals by
    1e-8 to 2e-7 relative; compare residuals no tighter than ~1e-6
    relative.
    """
    system = history.system
    grid = history.grid
    hm, hp = grid.h_minus, grid.h_plus
    rows = history.completed_rows
    if rows < 3 or grid.n_minus < 2:
        raise ValueError("residual needs at least a 3x3 block of completed points")
    interior = [g[1:-1, 1:-1] for g in history.gammas]
    # one c_+ value per interior row and one c_- per interior column
    cp = _c_blocks(system.c_plus, c_plus_fn, grid.zp_points()[1:rows - 1], "c_plus_fn")
    cm = _c_blocks(system.c_minus, c_minus_fn, grid.zm_points()[1:-1], "c_minus_fn")
    # the right-hand side in bands of rows of about RESIDUAL_BAND_CELLS
    # cells: the bands' blocks run as one stack, in memory of a few rows
    rhs = [np.empty_like(g) for g in interior]
    band = max(1, RESIDUAL_BAND_CELLS // (grid.n_minus - 1))
    for j in range(0, rows - 2, band):
        rows_j = slice(j, j + band)
        cp_j = cp if c_plus_fn is None else [c[rows_j, None] for c in cp]
        f_j = toda.rhs_dispatch(system, [g[rows_j] for g in interior], cp_j, cm)
        for f, f_band in zip(rhs, f_j):
            f[rows_j] = f_band
    worst = 0.0
    # W = inv(G) d_- G one block at a time: only one block's W is held
    for g, f in zip(history.gammas, rhs):
        d_minus = (g[:, 2:] - g[:, :-2]) / (2.0 * hm)
        w = mul(inv(g[:, 1:-1]), d_minus)
        d_plus = (w[2:] - w[:-2]) / (2.0 * hp)
        worst = max(worst, max_abs(d_plus - f))
    return worst


# ---------------------------------------------------------------------------
# scalar reductions and oracles

SG_COUPLING = 2.0 ** -0.5  # C = I/sqrt(2) makes the reduced field satisfy d+d-F = 2 sin F


def sine_gordon_system() -> TodaSystem:
    """The p = 2, r = 1 chain in its symplectic fold, C = I/sqrt(2)."""
    spec = make_spec("sp", TYPE_SOSP_I, 2, (1, 1), (1,))
    c = np.array([[SG_COUPLING]], dtype=complex)
    return toda.build_system(spec, 1, (c, c), (c, c))


def analytic_kink(z_minus, z_plus, a: float) -> np.ndarray:
    """F = 4 arctan exp(a z^- + (2/a) z^+), the exact kink of d+d-F = 2 sin F."""
    if a == 0:
        raise ValueError("kink slope a must be nonzero")
    theta = a * np.asarray(z_minus) + (2.0 / a) * np.asarray(z_plus)
    with np.errstate(over="ignore"):
        return 4.0 * np.arctan(np.exp(theta))


def kink_dminus(z_minus, z_plus, a: float) -> np.ndarray:
    """d_- of the kink: 2 a sech(a z^- + (2/a) z^+)."""
    theta = a * np.asarray(z_minus) + (2.0 / a) * np.asarray(z_plus)
    with np.errstate(over="ignore"):
        return 2.0 * a / np.cosh(theta)


#: Default kink slope of the acceptance preset.  At the symmetric slope
#: sqrt(2) the kink rides the lattice diagonal and the scheme
#: superconverges on it (measured order ~3); slightly off the diagonal the
#: error is plainly second order.  1.44 keeps the second-order signature
#: while the 512-cell error stays under 1e-3 on [-5, 5]^2.
KINK_SLOPE = 1.44


def kink_data(a: float, grid: Grid, march_minus: int = -1) -> CharacteristicData:
    """Characteristic data G = exp(i F/2) of the kink on the grid edges.

    The kink's far field rides the growing branch of the linearization in
    the (+, +) quadrant, so the stable integration marches z^- downward
    from the opposite corner; ``march_minus`` must match the value later
    passed to :func:`integrate`.
    """
    w0 = grid.z_plus_min
    z0 = grid.z_minus_min if march_minus > 0 else grid.z_minus_max

    def bottom(z):
        return (np.array([[np.exp(0.5j * analytic_kink(z, w0, a))]]),)

    def left(w):
        return (np.array([[np.exp(0.5j * analytic_kink(z0, w, a))]]),)

    return CharacteristicData(gamma_minus=bottom, gamma_plus=left)


def sinh_linear_field(z_minus, z_plus, eps: float, a: float = 1.0) -> np.ndarray:
    """Exact product solution eps exp(a z^- + (2/a) z^+) of d+d-F = 2F."""
    return eps * np.exp(a * np.asarray(z_minus) + (2.0 / a) * np.asarray(z_plus))


def sinh_data(eps: float, a: float, grid: Grid) -> CharacteristicData:
    """Real characteristic data G = exp(F/2) seeded by the linearized solution."""
    w0 = grid.z_plus_min
    z0 = grid.z_minus_min

    def bottom(z):
        return (np.array([[np.exp(0.5 * sinh_linear_field(z, w0, eps, a))]], dtype=complex),)

    def left(w):
        return (np.array([[np.exp(0.5 * sinh_linear_field(z0, w, eps, a))]], dtype=complex),)

    return CharacteristicData(gamma_minus=bottom, gamma_plus=left)


def sine_gordon_reduce(history: FieldHistory) -> np.ndarray:
    """Recover F with G = exp(i F/2) from a unit-modulus scalar history.

    The phase is unwrapped along each z^- row and the offsets fixed along
    the z^+ seam, giving one continuous branch.  A history whose |G|
    leaves 1 by more than 1e-6 raises ValueError.
    """
    if history.system.s != 1 or history.system.independent_sizes != (1,):
        raise ValueError("sine-Gordon reduction needs a single scalar block")
    g = history.gammas[0][..., 0, 0]
    drift = float(np.max(np.abs(np.abs(g) - 1.0)))
    if drift > 1e-6:
        raise ValueError(f"history leaves the unit circle (drift {drift:.2e})")
    phi = np.angle(g)
    rows = np.unwrap(phi, axis=1)
    seam = np.unwrap(rows[:, 0])
    return 2.0 * (rows - rows[:, :1] + seam[:, None])


def sinh_gordon_reduce(history: FieldHistory) -> np.ndarray:
    """Recover F with G = exp(F/2) from a real positive scalar history.

    A history with |Im G| above 1e-6 or a non-positive G raises ValueError.
    """
    if history.system.s != 1 or history.system.independent_sizes != (1,):
        raise ValueError("sinh-Gordon reduction needs a single scalar block")
    g = history.gammas[0][..., 0, 0]
    if float(np.max(np.abs(g.imag))) > 1e-6:
        raise ValueError("history is not real")
    if np.min(g.real) <= 0:
        raise ValueError("history is not positive")
    return 2.0 * np.log(g.real)


def reality_preservation(history: FieldHistory, tag: str) -> float:
    """Drift of the tagged reality condition over the whole run.

    ``real_split``: sigma(G) = conj(G) = G, measured by max |Im G|;
    ``compact``: sigma(G) = inv(adjoint(G)) = G, measured by the unitarity
    defect max |adjoint(G) G - I|.
    """
    worst = 0.0
    for g in history.gammas:
        if tag == "real_split":
            worst = max(worst, float(np.max(np.abs(g.imag))))
        elif tag == "compact":
            na = g.shape[-1]
            defect = np.swapaxes(g.conj(), -1, -2) @ g - np.eye(na)
            worst = max(worst, float(np.max(np.abs(defect))))
        else:
            raise ValueError(f"unknown reality tag {tag!r}")
    return worst


def det_factorization_defect(history: FieldHistory) -> float:
    """Max |P(i, j) P(0, 0) / (P(i, 0) P(0, j)) - 1| over the run, with
    P = prod_alpha det Gamma_alpha at lattice point (z^-_i, z^+_j).

    On a gl or sl inner system sum_alpha tr rhs_alpha = 0, so log P solves
    d_+ d_- log P = 0 and P factorizes into a function of z^- times one of
    z^+.  The marcher keeps this exactly: G is rebuilt by products of
    expm(h V), and sum_alpha tr V does not change from row to row, so the
    defect is round-off.  On sl systems with unit-det edge data it is the
    drift of P from 1.  Folded systems, where the mirrored nodes cancel
    from the product, and systems with fixed nodes raise ValueError.
    """
    system = history.system
    if (system.family not in ("gl", "sl") or system.engine is not None
            or system.fixed_nodes):
        raise ValueError("the det factorization holds on gl and sl inner systems only")
    prod = 1.0
    for g in history.gammas:
        prod = prod * np.linalg.det(g)
    ratio = prod * prod[0, 0] / (prod[:, :1] * prod[:1, :])
    return float(np.max(np.abs(ratio - 1.0)))


def integrate_scalar_reference(g_fn, bottom_fn, left_fn, grid: Grid) -> np.ndarray:
    """Independent light-cone scheme for d+d-u = g(u), scalar u.

    Four-point cell average: u_ne = u_nw + u_se - u_sw + h- h+ g((u_nw + u_se)/2).
    Used only as an oracle against the main marcher.
    """
    zm, zp = grid.zm_points(), grid.zp_points()
    u = np.zeros((len(zp), len(zm)))
    u[0, :] = [bottom_fn(z) for z in zm]
    u[:, 0] = [left_fn(w) for w in zp]
    area = grid.h_minus * grid.h_plus
    for j in range(len(zp) - 1):
        for i in range(len(zm) - 1):
            mid = 0.5 * (u[j + 1, i] + u[j, i + 1])
            u[j + 1, i + 1] = u[j + 1, i] + u[j, i + 1] - u[j, i] + area * g_fn(mid)
    return u


# ---------------------------------------------------------------------------
# output

CSV_HEADER = ("z_minus", "z_plus", "alpha", "block_row", "block_col", "re", "im")


def write_history_csv(history: FieldHistory, path: str) -> int:
    """Field output, one line per matrix entry; returns the line count."""
    zm = history.grid.zm_points()
    zp = history.grid.zp_points()
    count = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for j in range(history.completed_rows):
            for i in range(len(zm)):
                for alpha, g in enumerate(history.gammas):
                    block = g[j, i]
                    na = block.shape[0]
                    for r in range(na):
                        for c in range(na):
                            v = block[r, c]
                            writer.writerow(
                                (repr(float(zm[i])), repr(float(zp[j])), alpha + 1,
                                 r, c, repr(float(v.real)), repr(float(v.imag)))
                            )
                            count += 1
    return count
