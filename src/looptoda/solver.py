"""Light-cone integration of Toda systems and the sine/sinh-Gordon oracles.

The equation d_+(inv(G) d_- G) = rhs(G) is integrated as a Goursat
problem: data on the two characteristics through a corner, solution
filled in the causal order of the lattice.  The scheme is the midpoint
rule on characteristic rectangles.  V = inv(G) d_- G lives on the
half-points of each row; the cell between rows j, j+1 and columns i, i+1,
with NW corner nw = G[j+1, i] and SE corner se = G[j, i+1], sets

    V[i+1/2] <- V[i+1/2] + h_plus rhs(nw sqrt(inv(nw) se)),
    G[j+1, i+1] = nw expm(h_minus V[i+1/2]),

which keeps G inside its group to scheme order.  A cell reads only nw, se
and row j's V[i+1/2], so the cells of an anti-diagonal i + j = d depend
only on the anti-diagonal before it: the march solves the discrete scheme
exactly, in one batched pass per anti-diagonal and with no iteration (the
wavefront method: Lamport, "The parallel execution of DO loops", CACM
1974).  The scheme is second order in both steps and reproduces
factorized free fields exactly.  Blocks of every size take this one path:
the products, inverses, exponentials and square roots come from
``lie_core``, the only module that looks at the block size, so the 1x1
blocks of the sine- and sinh-Gordon reductions march like any matrix
block.

The lattice and V are one array per block size, blocks first, so an
anti-diagonal makes one call of each kernel per size, and the right-hand
side takes the centres of a system of one block size as that stack and
runs every node of it at once.  ``lie_core.empty_stack`` allocates them,
so 1x1 and 2x2 blocks are stored batch-last and larger ones C-ordered.
The lattice is stored in the march's order, its z^- axis reversed when
the march starts from the maximum z^- edge.  The march reads an
anti-diagonal's NW and SE corners and V, and writes its new points and V,
through basic-slice views of these arrays, so the kernels get the
lattice's layout, not copies.  The history's ``gammas`` are views of the
lattice arrays, one per block, in ascending coordinates: a reversed view
of the store where the march reversed z^-.

Scalar reductions: for the p = 2, r = 1 chain with C = I/sqrt(2) the
unit-modulus real form G = exp(i F / 2) carries the field F with
d_+ d_- F = 2 sin F, and the real-positive form G = exp(F / 2) carries
d_+ d_- F = 2 sinh F.  ``analytic_kink`` is the exact single-kink solution
used as the convergence oracle.  Both vacua of d_+ d_- F = 2 sin F are
exponentially unstable towards the (+, +) quadrant, so the kink preset
marches from the opposite z^- corner where error transport is bounded.

A single integration runs in one process, in the causal order of the
lattice; results are deterministic, and independent runs (parameter
sweeps, refinement studies) parallelize trivially across processes.  The
rows of ``field.csv`` are independent too: ``write_history_csv`` formats
them in up to one forked process per usable CPU, with bytes that do not
depend on the split.
"""

from __future__ import annotations

import contextlib
import operator
import os
import shutil
import signal
import tempfile
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .lie_core import (
    ConvergenceError,
    NonFiniteError,
    SingularMatrixError,
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
from .toda import TodaSystem


@dataclass(frozen=True)
class Grid:
    """Rectangular light-cone lattice; n_minus/n_plus count cells.

    The counts may be of any integer type and are stored as int, so
    ``to_json`` gives JSON numbers; a bool or a float count is a
    ValueError.  A numpy scalar bound is stored as the Python number its
    ``item()`` gives; other bounds are kept as given."""

    z_minus_min: float
    z_minus_max: float
    z_plus_min: float
    z_plus_max: float
    n_minus: int
    n_plus: int

    def __post_init__(self):
        for name in ("z_minus_min", "z_minus_max", "z_plus_min", "z_plus_max"):
            bound = getattr(self, name)
            if isinstance(bound, np.generic):
                object.__setattr__(self, name, bound.item())
        if not np.all(np.isfinite((self.z_minus_min, self.z_minus_max,
                                   self.z_plus_min, self.z_plus_max))):
            raise ValueError("grid bounds must be finite")
        if self.z_minus_max <= self.z_minus_min or self.z_plus_max <= self.z_plus_min:
            raise ValueError("grid ranges must be increasing")
        for name in ("n_minus", "n_plus"):
            count = getattr(self, name)
            if isinstance(count, (bool, np.bool_)) or not hasattr(count, "__index__"):
                raise ValueError(f"{name} must be an integer cell count, got {count!r}")
            object.__setattr__(self, name, operator.index(count))
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

    def to_json(self) -> dict:
        return {
            "z_minus": [self.z_minus_min, self.z_minus_max],
            "z_plus": [self.z_plus_min, self.z_plus_max],
            "n_minus": self.n_minus,
            "n_plus": self.n_plus,
        }


@dataclass(frozen=True)
class CharacteristicData:
    """Goursat data: blocks on the two characteristics through the corner.

    ``gamma_minus(z)`` gives the state on the bottom edge (z^+ fixed at its
    minimum), ``gamma_plus(w)`` on the edge of constant z^-.  ``march_minus``
    names the corner: +1 puts that edge at the minimum z^-, -1 at the
    maximum, and :func:`integrate` marches z^- away from it.
    """

    gamma_minus: Callable[[float], Sequence[np.ndarray]]
    gamma_plus: Callable[[float], Sequence[np.ndarray]]
    march_minus: int = +1

    def __post_init__(self):
        if self.march_minus not in (+1, -1):
            raise ValueError("march_minus must be +1 or -1")


def constant_data(gammas) -> CharacteristicData:
    """The state ``gammas`` on both characteristics."""
    blocks = tuple(as_complex(g) for g in gammas)
    return CharacteristicData(
        gamma_minus=lambda z: blocks,
        gamma_plus=lambda w: blocks,
    )


@dataclass
class FieldHistory:
    """Solution lattice: ``gammas[b][j, i]`` is independent block b at
    (z^-_i, z^+_j), in ascending coordinates, for the rows j the march
    completed; their count is ``completed_rows``.  Each is a view of the
    march's store, with its z^- axis reversed (a negative stride) when the
    march started from the maximum z^- edge.

    ``constraint_residuals[j]`` holds the max violation of the fixed-node
    group constraints over row j (all zero when the system carries none).
    ``halt_reason`` says why the march stopped early, and is None when it
    completed every row.
    """

    system: TodaSystem
    grid: Grid
    gammas: list[np.ndarray]
    constraint_residuals: np.ndarray
    halt_reason: str | None = None

    @property
    def completed_rows(self) -> int:
        return self.gammas[0].shape[0]

    @property
    def halted(self) -> bool:
        return self.halt_reason is not None


def _sample(fn, points, shapes, name):
    """Stack ``fn(z)`` over the points: one (len(points), *shape) array per block.

    A wrong block count or block shape raises ValueError, and a non-finite
    entry NonFiniteError, naming ``name``, the point and the block.
    """
    out = [np.empty((len(points),) + shape, dtype=complex) for shape in shapes]
    for idx, z in enumerate(points):
        values = fn(float(z))
        if len(values) != len(shapes):
            raise ValueError(f"{name}({z:g}) returned {len(values)} blocks, need {len(shapes)}")
        for b, v in enumerate(values):
            try:
                v = as_complex(v)
            except NonFiniteError:
                raise NonFiniteError(f"{name}({z:g}) block {b} has a non-finite entry") from None
            if v.shape != shapes[b]:
                raise ValueError(f"{name}({z:g}) block {b} has shape {v.shape}, need {shapes[b]}")
            out[b][idx] = v
    return out


def _size_groups(sizes) -> tuple[tuple[int, ...], ...]:
    """The indices of the blocks of each size, sizes in order of first appearance."""
    groups: dict[int, list[int]] = {}
    for b, na in enumerate(sizes):
        groups.setdefault(na, []).append(b)
    return tuple(tuple(group) for group in groups.values())


def _unpack(stacks, groups) -> list:
    """The blocks of the per-size stacks, as views in block order."""
    blocks = [None] * sum(map(len, groups))
    for stack, group in zip(stacks, groups):
        for k, b in enumerate(group):
            blocks[b] = stack[k]
    return blocks


def _check_invertibility(points, inverses) -> None:
    """Raise SingularMatrixError, as ``toda.check_state`` does, at the first
    cell, in per-size stacks (blocks, cells, n, n) of points and inverses,
    with a block whose ``toda.blow_up_value`` exceeds the bound."""
    bound = toda.INVERTIBILITY_BOUND
    # a stack's largest |G| and |inv G| bound each point's value: look closer only if they fail
    sizes = [(np.abs(g).max(), np.abs(g_inv).max()) for g, g_inv in zip(points, inverses)]
    if all(a <= bound and b <= bound and a * b <= bound for a, b in sizes):
        return
    worst = 0.0
    for g, g_inv in zip(points, inverses):
        worst = np.maximum(worst, toda.blow_up_value(g, g_inv).max(axis=0))
    k = np.argmax(~(worst <= bound))
    if not worst[k] <= bound:
        raise SingularMatrixError(toda.blow_up_text(worst[k]))


def _half_point_v(g_row, h_minus):
    """Discrete V on row half-points: logm(inv(G_i) G_{i+1}) / h_minus, in an ``empty_stack``."""
    out = empty_stack(g_row[:, 1:].shape)
    return np.divide(logm_near_identity(mul(inv(g_row[:, :-1]), g_row[:, 1:])), h_minus, out=out)


def _flat(store):
    """The view (blocks, rows * columns, n, n) of a store (blocks, rows, columns, n, n).

    Both ``empty_stack`` layouts keep the rows and columns axes adjacent,
    columns inside rows, so the reshape merges them without a copy."""
    return store.reshape(store.shape[:1] + (-1,) + store.shape[3:])


def _cell_views(flats, v, cols, d, j0, j1):
    """Views of the cells (j, d - j), j0 <= j < j1, of anti-diagonal d, one
    per stack: their NW corners, SE corners, new points and V half-points.

    In a flattened store of ``cols`` columns the points (j + k, i - k) are a
    slice of step cols - 1, and the SE corner and new point of a cell lie
    cols - 1 points before and one point after its NW corner."""
    count, i0 = j1 - j0, d - j0
    step = cols - 1
    start = (j0 + 1) * cols + i0
    nw, se, new = ([f[:, s:s + (count - 1) * step + 1:step] for f in flats] for s in (start, start - step, start + 1))
    return nw, se, new, [x[:, i0 - count + 1:i0 + 1][:, ::-1] for x in v]


def _march_cells(law, groups, nw, se, v, last_column, hm, dv_scale):
    """The new V and G of the cells of one anti-diagonal, one stack per block
    size, from their NW corners, SE corners and V: the blow-up test of the
    NW corners, before any kernel reads them, then the cell rule of the
    module docstring with dv_scale in place of h_plus, then, where
    ``last_column`` puts the first cell's new point in the last column, the
    blow-up test of that point.

    NonFiniteError comes from two gates: the kernels, which reject a
    non-finite input (a non-finite V fails expm(hm V), an overflowing
    inv(nw) se the centre's square root), and the test of the new points,
    which catches a product nw expm(hm V) that overflows."""
    nw_inv = [inv(a) for a in nw]
    _check_invertibility(nw, nw_inv)
    centres = [mul(a, sqrtm_near_identity(mul(b, c))) for a, b, c in zip(nw, nw_inv, se)]
    if len(groups) == 1:
        rhs = [np.asarray(law(centres[0]))]
    else:
        blocks = law(_unpack(centres, groups))
        rhs = [np.stack([blocks[b] for b in group]) for group in groups]
    v_new = [x + dv_scale * f for x, f in zip(v, rhs)]
    g_new = [mul(a, expm(hm * x)) for a, x in zip(nw, v_new)]
    if not all(np.isfinite(x).all() for x in g_new):
        raise NonFiniteError("the diagonal has a non-finite value")
    if last_column:
        # a new point of the last column is no cell's NW corner: it takes an inverse of its own
        _check_invertibility([x[:, :1] for x in g_new], [inv(x[:, :1]) for x in g_new])
    return v_new, g_new


#: errors that fail a cell, and so its row
_CELL_ERRORS = (NonFiniteError, ConvergenceError, np.linalg.LinAlgError, SingularMatrixError)


def _lowest_failure(step, j0, j1, exc):
    """The lowest row j0 <= j < j1 of a failed diagonal whose cell fails
    alone, with its error; j0 and the diagonal's error when no cell fails
    alone."""
    for j in range(j0, j1):
        try:
            step(j, j + 1)
        except _CELL_ERRORS as cell_exc:
            return j, cell_exc
    return j0, exc


def _halt_reason(exc, row, z_plus) -> str:
    """The halt text of the error that stopped the march at the row, where
    row 0 takes only the bottom-edge logarithms."""
    detail = ""
    if isinstance(exc, NonFiniteError):
        # a kernel's input overflowed, such as inv(nw) se in a cell centre
        cause = "non-finite value"
    elif isinstance(exc, np.linalg.LinAlgError):
        cause = "singular block"
    else:
        detail = f": {exc}"
        if row == 0:
            cause = "edge logarithm failed"
        elif isinstance(exc, ConvergenceError):
            cause = "cell-centre square root failed"
        else:
            cause = "invertibility lost"
    return f"{cause} at row {row} (z^+ = {z_plus:g}){detail}"


def integrate(system: TodaSystem, data: CharacteristicData, grid: Grid,
              law: Callable[[list], Sequence[np.ndarray]] | None = None) -> FieldHistory:
    """March the system over the light-cone lattice from characteristic data.

    ``law``, when given, replaces the system's right-hand side with its
    constant C blocks, so nearby laws (an equation and its linearization)
    run through the same scheme.  It maps the sequence of cell-centre
    blocks of an anti-diagonal, one (cells, n, n) array per independent
    block, to the sequence of d_+ V blocks in the same order: a list, or
    on a system of one block size the node stack.  A system of one block
    size passes the centres as that node stack, one of two sizes as a
    list.

    The edge data are sampled once, on the lattice points, before the
    march and after the lattice is allocated, so a lattice too large for
    memory raises MemoryError at once.  A sample with the wrong block count
    or block shape raises ValueError, and the sampled corner must pass
    :func:`toda.check_state`: a corner that fails the blow-up test the
    march applies to every point, or one off the system's constraints,
    raises before any row is marched.

    Returns the :class:`FieldHistory` of G.  On numerical loss it is
    truncated to the rows below the lowest failing row, with
    ``halt_reason`` naming the first failure along that row: a non-finite
    value, a cell-centre square root (or, on row 0, a logarithm of a
    bottom-edge step) that did not converge, a singular block, or a point
    with max(|G|, |inv G|, |G| |inv G|) > ``toda.INVERTIBILITY_BOUND``; a cell
    tests its NW corner with its centre's inverse, before its kernels read
    it, and a new last-column point with an inverse of its own.  Any other
    error propagates.

    The march starts from the data's corner (``data.march_minus``): +1
    takes data on the two minimum edges, -1 on the maximum z^- edge and
    minimum z^+ edge.  The -1 orientation stores the z^- axis reversed
    (the returned history is a view in ascending coordinates); it is the
    stable direction for fields, like the kink, whose far-field
    linearization grows towards the (+, +) quadrant.
    """
    march_minus = data.march_minus
    sizes = system.independent_sizes
    zm = grid.zm_points()
    zp = grid.zp_points()
    hm, hp = grid.h_minus, grid.h_plus
    zm_march = zm if march_minus > 0 else zm[::-1]
    shapes = [(na, na) for na in sizes]

    # ``stores`` in the march's order: z^- descends along a row where march_minus is -1
    groups = _size_groups(sizes)
    stores = [empty_stack((len(group), len(zp), len(zm)) + shapes[group[0]]) for group in groups]

    bottom = _sample(data.gamma_minus, zm_march, shapes, "gamma_minus")
    left = _sample(data.gamma_plus, zp, shapes, "gamma_plus")
    corner_dev = max(max_abs(b[0] - l[0]) for b, l in zip(bottom, left))
    if corner_dev > 1e-7:
        raise ValueError(f"characteristic data disagrees at the corner (dev {corner_dev:.2e})")

    toda.check_state(system, [b[0] for b in bottom])

    if law is None:
        def law(centers):
            # looked up at call time, so a profiler's wrapper of it counts every call
            return toda.rhs_dispatch(system, centers)

    for g, l, b in zip(_unpack(stores, groups), left, bottom):
        g[:, 0] = l
        g[0] = b

    cols = len(zm)
    flats = [_flat(g) for g in stores]
    top, halt_reason = len(zp), None
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            v = [_half_point_v(g[:, 0], hm) for g in stores]
        except _CELL_ERRORS as exc:
            top, halt_reason = 1, _halt_reason(exc, 0, zp[0])

        def step(j0, j1):
            # the cells of rows j0 .. j1 - 1 of anti-diagonal d: the views
            # they write, the new points and V, and the values to write there
            nw, se, new, v_cells = _cell_views(flats, v, cols, d, j0, j1)
            v_new, g_new = _march_cells(law, groups, nw, se, v_cells, d - j0 == cols - 2, hm, march_minus * hp)
            return new + v_cells, g_new + v_new

        # rows from ``top`` up are dropped: ``top`` is the lowest failing row so far
        d = 0
        while (j0 := max(0, d - cols + 2)) < (j1 := min(d + 1, top - 1)):
            try:
                targets, values = step(j0, j1)
            except _CELL_ERRORS as exc:
                j, exc = _lowest_failure(step, j0, j1, exc)
                top, halt_reason = j + 1, _halt_reason(exc, j + 1, zp[j + 1])
                continue
            for target, x in zip(targets, values):
                target[...] = x
            d += 1

    gammas = _unpack([g[:, :top, ::march_minus] for g in stores], groups)
    return FieldHistory(system=system, grid=grid, gammas=gammas,
                        constraint_residuals=toda.fixed_node_defect(system, gammas).max(axis=1),
                        halt_reason=halt_reason)


#: matrix entries (interior cells times the sum of n^2 over the blocks) per band of rows of :func:`residual`
RESIDUAL_BAND_ENTRIES = 12288


def residual(history: FieldHistory) -> float:
    """Max central-difference defect |d_+(inv(G) d_- G) - rhs| over the
    interior, rhs taking the system's constant C blocks.

    It works on one band of interior rows of about ``RESIDUAL_BAND_ENTRIES``
    matrix entries at a time, so the memory it holds is bounded by a band,
    not the lattice; the value does not depend on the band.

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
    band = max(1, RESIDUAL_BAND_ENTRIES // ((grid.n_minus - 1) * sum(n * n for n in system.independent_sizes)))
    worst = 0.0
    for j in range(0, rows - 2, band):
        f_j = toda.rhs_dispatch(system, [g[j:j + band] for g in interior])
        for g, f in zip(history.gammas, f_j):
            # the band's rows of G and the row on each side of it
            g = g[j:j + band + 2]
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


#: Default kink slope of the acceptance preset.  The scheme converges at
#: second order at every slope: the L-inf error falls 4.00x per halving of
#: the step from 256 to 512 cells, both here and at the symmetric slope
#: sqrt(2), where the kink rides the lattice diagonal and the error is
#: about 4x smaller.  At 1.44 the 512-cell error is 8.8e-4 on [-5, 5]^2,
#: under the 1e-3 acceptance tolerance.
KINK_SLOPE = 1.44


def kink_data(a: float, grid: Grid) -> CharacteristicData:
    """Characteristic data G = exp(i F/2) of the kink on the grid edges,
    from the maximum-z^- corner.

    The kink's far field rides the growing branch of the linearization in
    the (+, +) quadrant, so the stable integration marches z^- downward
    from the opposite corner.
    """
    w0, z0 = grid.z_plus_min, grid.z_minus_max

    def bottom(z):
        return (np.array([[np.exp(0.5j * analytic_kink(z, w0, a))]]),)

    def left(w):
        return (np.array([[np.exp(0.5j * analytic_kink(z0, w, a))]]),)

    return CharacteristicData(gamma_minus=bottom, gamma_plus=left, march_minus=-1)


def sinh_linear_field(z_minus, z_plus, eps: float) -> np.ndarray:
    """Exact product solution eps exp(z^- + 2 z^+) of d+d-F = 2F."""
    return eps * np.exp(np.asarray(z_minus) + 2.0 * np.asarray(z_plus))


def sinh_data(eps: float, grid: Grid) -> CharacteristicData:
    """Real characteristic data G = exp(F/2) seeded by the linearized solution."""
    w0 = grid.z_plus_min
    z0 = grid.z_minus_min

    def bottom(z):
        return (np.array([[np.exp(0.5 * sinh_linear_field(z, w0, eps))]], dtype=complex),)

    def left(w):
        return (np.array([[np.exp(0.5 * sinh_linear_field(z0, w, eps))]], dtype=complex),)

    return CharacteristicData(gamma_minus=bottom, gamma_plus=left)


def sine_gordon_reduce(history: FieldHistory) -> np.ndarray:
    """Recover F with G = exp(i F/2) from a unit-modulus scalar history.

    The phase is unwrapped along each z^- row and the offsets fixed along
    the z^+ seam, giving one continuous branch.  A history whose |G|
    leaves 1 by more than 1e-6 raises ValueError.
    """
    if history.system.independent_sizes != (1,):
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
    if history.system.independent_sizes != (1,):
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


# ---------------------------------------------------------------------------
# output

CSV_HEADER = ("z_minus", "z_plus", "alpha", "block_row", "block_col", "re", "im")

#: lines each worker process of ``write_history_csv`` must have to itself:
#: a fork, its wait and the append cost about 2 ms, the time of 1-2k lines
CSV_LINES_PER_WORKER = 2**13


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork or read its affinity."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def write_history_csv(history: FieldHistory, path: str) -> int:
    """Field output, one line per matrix entry; returns the line count.

    Lines run over the completed z^+ rows, then the z^- points, then the
    blocks alpha (1-based), then the entries (r, c).  Floats are written
    as ``repr`` of a Python float, which reads back exactly, and lines end
    in CR LF, as ``csv.writer`` ends them.  Each lattice row is formatted
    and written as one string, so the file is never held in memory whole.

    The rows are split into contiguous ranges, one per usable CPU and at
    most one per ``CSV_LINES_PER_WORKER`` lines.  This process writes the
    header and the first range; each further range is formatted by a
    forked child (``os.fork``) into an anonymous temporary file in the
    output's directory, which is appended once the child has exited.
    Every range runs the same formatting code, so the bytes do not depend
    on the split, and a child that fails raises ``OSError`` here.
    """
    zm = history.grid.zm_points().tolist()
    zp = history.grid.zp_points().tolist()
    tags = [f"{alpha + 1},{r},{c}" for alpha, g in enumerate(history.gammas)
            for r in range(g.shape[-2]) for c in range(g.shape[-1])]
    heads = [(f"{z!r},", f",{tag},") for z in zm for tag in tags]
    rows = history.completed_rows

    def write_rows(fh, start, stop):
        for j in range(start, stop):
            row = np.concatenate([g[j].reshape(len(zm), -1) for g in history.gammas], axis=1).ravel()
            w = repr(zp[j])
            fh.write("".join([f"{a}{w}{b}{re!r},{im!r}\r\n"
                              for (a, b), re, im in zip(heads, row.real.tolist(), row.imag.tolist())]
                             ).encode())

    workers = max(1, min(_usable_cpus(), rows * len(heads) // CSV_LINES_PER_WORKER, rows))
    bounds = [rows * k // workers for k in range(workers + 1)]
    with contextlib.ExitStack() as files:
        fh = files.enter_context(open(path, "wb"))
        pending = []  # (pid, temporary file, first row) of the unreaped children, in row order
        try:
            for start, stop in zip(bounds[1:-1], bounds[2:]):
                part = files.enter_context(
                    tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path))))
                pid = os.fork()
                if pid == 0:
                    # leave only through os._exit, so no inherited buffer is flushed
                    code = 1
                    try:
                        write_rows(part, start, stop)
                        part.flush()
                        code = 0
                    finally:
                        os._exit(code)
                pending.append((pid, part, start))
            fh.write((",".join(CSV_HEADER) + "\r\n").encode())
            write_rows(fh, bounds[0], bounds[1])
            while pending:
                pid, part, start = pending[0]
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del pending[0]
                if code:
                    raise OSError(f"the worker for the rows from {start} of {path} exited with code {code}")
                part.seek(0)
                shutil.copyfileobj(part, fh)
        finally:
            for pid, _, _ in pending:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return rows * len(heads)
