"""Test-only oracles: independent schemes and identities the suite checks
the package against, and the writer of the ``--system`` files the CLI
tests read.  Nothing in ``looptoda`` calls them."""

from __future__ import annotations

import csv
import itertools

import numpy as np

from looptoda.folding import FoldError
from looptoda.gradation import (
    GRADATION_TYPES,
    TYPE_GL_INNER,
    TYPE_GL_OUTER_II,
    TYPE_GL_OUTER_III,
    TYPE_SOSP_I,
    TYPE_SOSP_II,
    TrivialSpec,
    block_index_table,
    data_modulus,
    grading_components,
    make_spec,
    validate_spec,
)
from looptoda.lie_core import as_complex, b_transpose, inv, max_abs, mul
from looptoda.solver import CSV_HEADER, Grid
from looptoda.toda import classify_spec, rhs_chain


def kink_dminus(z_minus, z_plus, a: float) -> np.ndarray:
    """d_- of the kink: 2 a sech(a z^- + (2/a) z^+)."""
    theta = a * np.asarray(z_minus) + (2.0 / a) * np.asarray(z_plus)
    with np.errstate(over="ignore"):
        return 2.0 * a / np.cosh(theta)


def integrate_scalar_reference(g_fn, bottom_fn, left_fn, grid: Grid) -> np.ndarray:
    """Independent light-cone scheme for d+d-u = g(u), scalar u.

    Four-point cell average: u_ne = u_nw + u_se - u_sw + h- h+ g((u_nw + u_se)/2).
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


def grading_support(x, aut) -> list[int]:
    """Residues k whose component of x exceeds 1e-9."""
    parts = grading_components(x, aut)
    return [k for k in range(aut.order) if max_abs(parts[k]) > 1e-9]


def bracket_closure_reference(x, aut) -> float:
    """Largest component of a bracket [x_k, y_l], y = x*, at a residue
    m != k + l (mod M): the (M, M, n, n) bracket stack projected whole, an
    (M, M, M, n, n) array."""
    xs = grading_components(x, aut)
    ys = grading_components(x.T.conj(), aut)
    xk, yl = xs[:, None], ys[None, :]
    parts = grading_components(xk @ yl - yl @ xk, aut)  # [m, k, l]
    res = np.arange(aut.order)
    off_grade = res[:, None, None] != (res[:, None] + res) % aut.order
    return max_abs(parts[off_grade])


def index_table_reference(spec, aut, rng) -> int:
    """Blocks (a, b) of which a residue outside ``residues(a, b)`` carries
    part of a random probe supported on block (a, b): the p^2 probes
    projected as one (p, p, n, n) stack."""
    table = block_index_table(spec)
    offs = np.cumsum((0,) + spec.n_list)
    probes = np.zeros((spec.p, spec.p, spec.n, spec.n), dtype=complex)
    for a in range(spec.p):
        for b in range(spec.p):
            probes[a, b, offs[a]:offs[a + 1], offs[b]:offs[b + 1]] = rng.standard_normal(
                (spec.n_list[a], spec.n_list[b])
            )
    # support[k, a, b]: residue k carries part of probe (a, b)
    support = np.abs(grading_components(probes, aut)).max(axis=(-2, -1)) > 1e-9
    return sum(not set(np.flatnonzero(support[:, a, b])) <= set(table.residues(a, b))
               for a in range(spec.p) for b in range(spec.p))


def _family_types(family: str) -> tuple:
    return ((TYPE_GL_INNER, TYPE_GL_OUTER_II, TYPE_GL_OUTER_III)
            if family in ("gl", "sl") else (TYPE_SOSP_I, TYPE_SOSP_II))


def _compositions(total: int, parts: int):
    for cuts in itertools.combinations(range(1, total), parts - 1):
        edges = (0,) + cuts + (total,)
        yield tuple(b - a for a, b in zip(edges, edges[1:]))


def enumerate_specs_reference(family: str, n: int, M: int) -> list:
    """``gradation.enumerate_specs`` by generate and filter: every
    composition of n and every k with sum(k) <= M, for every type of the
    family, kept if ``validate_spec`` finds no violation, in the same order."""
    found = []
    for t in _family_types(family):
        for p in range(2, n + 1):
            for nl in _compositions(n, p):
                for kl in (k for total in range(p - 1, M + 1) for k in _compositions(total, p - 1)):
                    cand = make_spec(family, t, M, nl, kl)
                    if not validate_spec(cand):
                        found.append(cand)
    rank = {t: i for i, t in enumerate(GRADATION_TYPES)}
    found.sort(key=lambda s: (rank[s.gradation_type], s.p, s.n_list, s.k_list))
    trivial = TrivialSpec(family=family, n=n, M=M)
    return ([] if validate_spec(trivial) else [trivial]) + found


#: the rules of ``validate_spec`` that read only the family, n, M, type and
#: p: a candidate one of them rejects is of a (type, p) rejected whole
WHOLE_PAIR_RULES = ("sp_even_n:", "M_even:", "n_even:", "p_even:")


def enumeration_counts(family: str, n: int, M: int) -> tuple[int, int]:
    """The (candidates, specs) counts that ``gradation.enumerate_specs``
    holds against its caps, counted one candidate at a time.  A candidate
    pairs an n_list that reads the same backwards (past its first entry for
    the fixed-first types; any n_list for gl_inner) with a k_list of p - 1
    positive entries and sum(k) < modulus, unless ``validate_spec`` rejects
    it by one of ``WHOLE_PAIR_RULES``.  A spec is a candidate that
    ``validate_spec`` accepts."""
    candidates = specs = 0
    for t in _family_types(family):
        modulus = data_modulus(t, M)
        for p in range(2, n + 1):
            for nl in _compositions(n, p):
                tail = nl[1:] if t in (TYPE_SOSP_II, TYPE_GL_OUTER_III) else nl
                if t != TYPE_GL_INNER and tail != tail[::-1]:
                    continue
                for total in range(p - 1, modulus):
                    for kl in _compositions(total, p - 1):
                        violations = validate_spec(make_spec(family, t, M, nl, kl))
                        if not any(v.startswith(WHOLE_PAIR_RULES) for v in violations):
                            candidates += 1
                            specs += not violations
    return candidates, specs


def write_history_csv_reference(history, path: str) -> int:
    """The output of ``solver.write_history_csv``, written one ``csv.writer``
    row per matrix entry."""
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


def rhs_chain_reference(gammas, cp, cm, left=None, right=None) -> list:
    """``toda.rhs_chain`` one node at a time: node i's terms are the
    products ((a b) c) d of ``lie_core.mul``, t1 = inv(G_i) C_{+a} G_{i+1}
    C_{-a} across arc a = i+1 and t2 = C_{-i} inv(G_{i-1}) C_{+i} G_i across
    arc i, and the node gets t2 - t1.  An "arc" cap puts ^J G_0 in place of
    inv(G_{-1}) and ^J inv(G_{s-1}) in place of G_s; a B-kind cap replaces
    the end node's term across the end by the B-transpose of its other term.
    """
    s = len(gammas)
    ginv = [inv(g) for g in gammas]

    def t1(i):
        a = (i + 1) % len(cp)
        succ = b_transpose(ginv[i], "J") if i == s - 1 and right == "arc" else gammas[(i + 1) % s]
        return mul(mul(mul(ginv[i], cp[a]), succ), cm[a])

    def t2(i):
        pred = b_transpose(gammas[0], "J") if i == 0 and left == "arc" else ginv[i - 1]
        return mul(mul(mul(cm[i], pred), cp[i]), gammas[i])

    out = []
    for i in range(s):
        first = b_transpose(t2(i), right) if i == s - 1 and right in ("J", "K") else t1(i)
        second = b_transpose(t1(i), left) if i == 0 and left in ("J", "K") else t2(i)
        out.append(second - first)
    return out


def odd_fold_equivalence(gammas, c_plus, c_minus, b_kind: str = "J") -> float:
    """Check the substitution relating the two odd-fold variants.

    Given data of the arc-first system (independent blocks Gamma_1..Gamma_s
    and arcs 0..s-1), the substitution Gamma_i -> ^B inv(Gamma_{s+1-i}),
    C_{+-a} -> ^B C_{+-(s-a)} produces node-first data whose equations are
    the B-transposed negatives of the original ones in reversed order.
    Returns the maximal deviation from that identity.
    """
    gammas = [as_complex(g) for g in gammas]
    c_plus = [as_complex(c) for c in c_plus]
    c_minus = [as_complex(c) for c in c_minus]
    s = len(gammas)
    if len(c_plus) != s or len(c_minus) != s:
        raise FoldError("arc-first data carries arcs 0..s-1")
    left = rhs_chain(gammas, c_plus, c_minus, "arc", b_kind)
    g2, cp2, cm2 = odd_fold_substitution(gammas, c_plus, c_minus, b_kind)
    # the node-first data sits on arcs 1..s
    right = rhs_chain(g2, [None] + cp2, [None] + cm2, b_kind, "arc")
    return max(max_abs(right[i] + b_transpose(left[s - 1 - i], b_kind)) for i in range(s))


def odd_fold_substitution(gammas, c_plus, c_minus, b_kind: str = "J"):
    """The substitution itself; applying it twice returns the input."""
    s = len(gammas)
    g2 = [b_transpose(np.linalg.inv(as_complex(gammas[s - 1 - i])), b_kind) for i in range(s)]
    cp2 = [b_transpose(as_complex(c_plus[s - 1 - a]), b_kind) for a in range(s)]
    cm2 = [b_transpose(as_complex(c_minus[s - 1 - a]), b_kind) for a in range(s)]
    return g2, cp2, cm2


def enumerate_axis_shapes(p: int) -> dict[tuple[int, int], int]:
    """Count reflection axes of the p-circle by (fixed nodes, fixed arcs).

    Nodes sit at integer positions, arc midpoints at half-integers; the
    axis through positions t and t + p/2 fixes whatever it passes through.
    """
    shapes: dict[tuple[int, int], int] = {}
    for j in range(p):
        t = j / 2.0
        nodes = 0
        arcs = 0
        for q in (t, t + p / 2.0):
            if abs(q - round(q)) < 1e-12:
                nodes += 1
            else:
                arcs += 1
        shapes[(nodes, arcs)] = shapes.get((nodes, arcs), 0) + 1
    return shapes


def axis_twist_signs(engine) -> dict:
    """eps of the fold twist on each arc on the axis, read off a random
    block embedded alone in both directions: +-1 where the twist is eps ^J
    there to 1e-12 in both, None where it is not (on an arc whose grading
    misses L the twist is a phase such as e^{i pi/4})."""
    rng = np.random.default_rng(0)
    offs = np.cumsum((0,) + tuple(engine.sizes))
    signs = {}
    for a in range(engine.p):
        if engine.mirror_arc(a) != a:
            continue
        i = (a - 1) % engine.p
        found = set()
        for direction, (r, c) in ((1, (i, a)), (-1, (a, i))):
            rows, cols = slice(offs[r], offs[r + 1]), slice(offs[c], offs[c + 1])
            full = np.zeros((offs[-1], offs[-1]), dtype=complex)
            x = rng.standard_normal(full[rows, cols].shape) + 1j * rng.standard_normal(full[rows, cols].shape)
            full[rows, cols] = x
            image = engine.twist(full, direction)
            found.add(next((eps for eps in (1, -1)
                            if max_abs(image[rows, cols] - eps * b_transpose(x, "J")) <= 1e-12 * max_abs(x)
                            and max_abs(image) == max_abs(image[rows, cols])), None))
        signs[a] = found.pop() if len(found) == 1 else None
    return signs


def fixed_arc_signs(system) -> tuple:
    """The (arc, eps) pairs of a folded system's axis arcs, eps from
    :func:`axis_twist_signs`; raises AssertionError unless both of the
    system's C blocks on each such arc meet ^J C = eps C."""
    signs = tuple(sorted(axis_twist_signs(system.engine).items()))
    for a, eps in signs:
        assert eps is not None, f"the twist on axis arc {a} is not +-^J"
        for c in (system.c_plus[a], system.c_minus[a]):
            assert max_abs(b_transpose(c, "J") - eps * c) <= 1e-14 * max_abs(c), (a, eps)
    return signs


def _rk4_path(start, generators, dt: float, substeps: int) -> np.ndarray:
    """Solutions of dX/dt = X A(t) from X = start at every grid point: RK4
    with ``substeps`` steps of dt per cell, A sampled at every half step,
    so ``generators`` holds 2 substeps + 1 points per cell, ends shared."""
    x = start
    path = [x]
    for k in range(0, len(generators) - 1, 2):
        a0, a1, a2 = (dt * a for a in generators[k:k + 3])
        k1 = x @ a0
        k2 = (x + k1 / 2) @ a1
        k3 = (x + k2 / 2) @ a1
        x = x + (k1 + 2 * k2 + 2 * k3 + (x + k3) @ a2) / 6
        if (k + 2) % (2 * substeps) == 0:
            path.append(x)
    return np.array(path)


def leznov_saveliev(system, data, grid, substeps: int = 4) -> list:
    """The exact solution of a finite-type cyclic chain from its Goursat
    data, at every grid point: one (z^+, z^-, n_a, n_a) array per node, as
    the march's ``gammas``.

    The equation d_+(inv(G) d_- G) = [C_-, inv(G) C_+ G] is the flatness of
    A_+ = inv(G) C_+ G, A_- = inv(G) d_- G + C_- (Leznov and Saveliev 1992).
    With arc 0 free of C, C_+ is strictly block upper triangular, and
    S on the z^+ edge (d_+ S = S A_+ from I) and R on the z^- edge
    (d_- R = R G C_- inv(G) from inv(G(0, 0))) give

        M = G(z^+, 0) inv(S) R G(0, z^-) = N_- G(z^+, z^-) N_+,

    N_-+ block unitriangular, so G is the block diagonal factor of M's
    block LDU decomposition: its successive Schur complements.  The edge
    functions take an array of points and return stacks, so each is called
    once over every RK4 point (``substeps`` RK4 steps per cell); S and R
    then take only products.
    """
    assert system.engine is None and max_abs(system.c_plus[0]) == max_abs(system.c_minus[0]) == 0.0, \
        "the construction needs a cyclic chain whose arc 0 carries no C"
    assert data.march_minus == +1, "the z^+ edge lies at the minimum z^-"
    sizes = system.block_sizes
    offs = np.cumsum((0,) + tuple(sizes))
    c_plus = np.zeros((offs[-1], offs[-1]), dtype=complex)
    c_minus = np.zeros_like(c_plus)
    for a in range(1, len(sizes)):
        c_plus[offs[a - 1]:offs[a], offs[a]:offs[a + 1]] = system.c_plus[a]
        c_minus[offs[a]:offs[a + 1], offs[a - 1]:offs[a]] = system.c_minus[a]

    def edge(fn, lo, hi, cells):
        """The full block-diagonal G at every RK4 point of one edge."""
        points = np.linspace(lo, hi, 2 * substeps * cells + 1)
        g = np.zeros((len(points), offs[-1], offs[-1]), dtype=complex)
        for a, blk in enumerate(fn(points)):
            g[:, offs[a]:offs[a + 1], offs[a]:offs[a + 1]] = blk
        return g, np.linalg.inv(g)

    g_plus, g_plus_inv = edge(data.gamma_plus, grid.z_plus_min, grid.z_plus_max, grid.n_plus)
    g_minus, g_minus_inv = edge(data.gamma_minus, grid.z_minus_min, grid.z_minus_max, grid.n_minus)
    s = _rk4_path(np.eye(offs[-1]), g_plus_inv @ c_plus @ g_plus, grid.h_plus / substeps, substeps)
    r = _rk4_path(g_minus_inv[0], g_minus @ c_minus @ g_minus_inv, grid.h_minus / substeps, substeps)
    step = 2 * substeps
    left = g_plus[::step] @ np.linalg.inv(s)
    bottom = r @ g_minus[::step]
    m = left[:, None] @ bottom[None, :]
    out = []
    for a in range(len(sizes)):
        lo, hi = offs[a], offs[a + 1]
        block = m[..., lo:hi, lo:hi]
        if lo:
            block = block - m[..., lo:hi, :lo] @ np.linalg.solve(m[..., :lo, :lo], m[..., :lo, lo:hi])
        out.append(block)
    return out


def _array_to_json(a: np.ndarray):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.atleast_2d(a)]


def system_to_json(system) -> dict:
    """The system as ``toda.system_from_json`` reads it, such as a
    ``looptoda simulate --system`` file."""
    return {
        "class": system.equation_class,
        "variant": classify_spec(system.spec)[1],
        "family": system.family,
        "L": system.L,
        "block_sizes": list(system.block_sizes),
        "spec": None if system.outer else system.spec.to_json(),
        "simplest_outer": system.outer,
        "c_plus": [_array_to_json(c) for c in system.c_plus],
        "c_minus": [_array_to_json(c) for c in system.c_minus],
    }
