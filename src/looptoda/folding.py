"""Folding the cyclic Toda chain into its capped halves.

A chain with p nodes is drawn as a circle with the blocks Gamma_1..Gamma_p
on small disks (anticlockwise) and the pair C_{+-a} on the arc entering
node a.  Folding the circle across a diameter identifies nodes and arcs in
mirror pairs and keeps the half 0..s-1, a chain whose two ends lie on the
axis.  Each end is a fixed arc (sign epsilon of ^J C = epsilon C) or a
fixed node (B kind J or K), so exactly three axis shapes exist:

* through two arcs        (even p = 2s)      -> ``even_arc_fixed``;
* through two nodes       (even p = 2s - 2)  -> ``even_node_fixed``;
* through a node and an arc (odd p = 2s - 1) -> ``odd_mixed`` (two
  equivalent placements).

:func:`looptoda.toda.fold_ends` derives the ends of every fold, both for
the maps here and for the systems built from gradation specs, and the
folded system's equations are the chain capped at those ends.  Folding an
unrestricted chain produces the constrained equation classes; conversely
the constrained systems built directly from a gradation spec coincide with
folded chains, which this module verifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lie_core import anti_transpose, as_complex, k_transpose, kind_transpose, max_abs
from .gradation import (
    OUTER_TYPES,
    TYPE_GL_INNER,
    TYPE_SOSP_I,
    TYPE_SOSP_II,
    GradationSpec,
    make_spec,
    validate_spec,
)
from . import solver, toda
from .toda import (
    EQ_GENERAL_LINEAR,
    VARIANT_ARC_FIRST,
    VARIANT_NODE_FIRST,
    FieldState,
    TodaSystem,
    rhs_chain,
)

PATTERN_EVEN_ARC_FIXED = "even_arc_fixed"
PATTERN_EVEN_NODE_FIXED = "even_node_fixed"
PATTERN_ODD_MIXED = "odd_mixed"

PATTERNS = (PATTERN_EVEN_ARC_FIXED, PATTERN_EVEN_NODE_FIXED, PATTERN_ODD_MIXED)

FOLD_FAMILIES = tuple(toda.FOLD_ENDS)


class FoldError(ValueError):
    """Fold request incompatible with the chain."""


@dataclass(frozen=True)
class FoldingMap:
    """A fold: node involution plus the fixed-point decorations."""

    pattern: str
    family: str
    p: int
    s: int
    sigma: tuple[int, ...]
    fixed_nodes: tuple[tuple[int, str], ...]   # (node, B kind)
    fixed_arcs: tuple[tuple[int, int], ...]    # (arc, epsilon)
    variant: str = VARIANT_ARC_FIRST

    def mirror_arc(self, a: int) -> int:
        return self.sigma[(a - 1) % self.p]

    def node_pairs(self):
        return [(i, self.sigma[i]) for i in range(self.p) if i < self.sigma[i]]

    def arc_pairs(self):
        return [(a, self.mirror_arc(a)) for a in range(self.p) if a < self.mirror_arc(a)]


def make_fold(p: int, pattern: str, family: str, variant: str = VARIANT_ARC_FIRST) -> FoldingMap:
    """The folding map of the given axis pattern for a p-node circle.

    ``family`` selects the decorations: signs epsilon on fixed arcs and
    J/K on fixed nodes, as carried by the orthogonal, symplectic and the
    two outer general-linear reductions (:data:`looptoda.toda.FOLD_ENDS`).
    """
    if family not in FOLD_FAMILIES:
        raise FoldError(f"unknown fold family {family!r}")
    if pattern == PATTERN_EVEN_ARC_FIXED:
        if p % 2 or p < 2:
            raise FoldError("even_arc_fixed requires even p >= 2")
        if family == "gl_outer_III":
            raise FoldError("gl_outer_III folds fix nodes, not two arcs")
        node0 = False
    elif pattern == PATTERN_EVEN_NODE_FIXED:
        if p % 2 or p < 2:
            raise FoldError("even_node_fixed requires even p >= 2")
        if family == "gl_outer_II":
            raise FoldError("gl_outer_II folds fix arcs, not two nodes")
        node0 = True
    elif pattern == PATTERN_ODD_MIXED:
        if p % 2 == 0 or p < 3:
            raise FoldError("odd_mixed requires odd p >= 3")
        node0 = variant == VARIANT_NODE_FIRST
    else:
        raise FoldError(f"unknown pattern {pattern!r}")
    s, sigma, nodes, arcs = toda.fold_ends(family, p, node0)
    return FoldingMap(
        pattern=pattern, family=family, p=p, s=s, sigma=sigma,
        fixed_nodes=nodes, fixed_arcs=arcs,
        variant=VARIANT_NODE_FIRST if pattern == PATTERN_ODD_MIXED and node0 else VARIANT_ARC_FIRST,
    )


def _folded_spec(fmap: FoldingMap, spec: GradationSpec) -> GradationSpec:
    """Reinterpret the chain data (n, k, M) under the fold family."""
    nl, kl = spec.n_list, spec.k_list
    if fmap.family in OUTER_TYPES:
        # an outer type reads the chain's data mod N = M/2, so its order is 2N
        folded = make_spec("gl", fmap.family, 2 * spec.M, nl, kl)
    else:
        t = TYPE_SOSP_II if fmap.pattern == PATTERN_EVEN_NODE_FIXED else TYPE_SOSP_I
        folded = make_spec(fmap.family, t, spec.M, nl, kl)
    violations = validate_spec(folded)
    if violations:
        raise FoldError(
            "chain data does not close under the fold: " + "; ".join(violations)
        )
    return folded


def fold_constraints(fmap: FoldingMap, system: TodaSystem, tol: float = 1e-9) -> TodaSystem:
    """Restrict an unrestricted chain to the folded class of the map.

    The chain must carry the uniform grading (every k_alpha equal to L);
    its C blocks must already satisfy the fold symmetries, otherwise the
    fold is rejected.  The natural variant is used for each family: the
    odd gl_outer_III fold fixes a node first, all others fix the wrap arc.
    """
    if system.equation_class != EQ_GENERAL_LINEAR:
        raise FoldError("only general linear chains can be folded")
    spec = system.spec
    if not isinstance(spec, GradationSpec) or spec.gradation_type != TYPE_GL_INNER:
        raise FoldError("the chain must come from an inner gl gradation")
    if fmap.p != system.p:
        raise FoldError(f"fold is for p = {fmap.p}, system has p = {system.p}")
    if any(k != system.L for k in spec.k_list):
        raise FoldError("folding requires the uniform chain k_alpha = L")
    folded_spec = _folded_spec(fmap, spec)
    try:
        folded = toda.build_system(folded_spec, system.L, system.c_plus, system.c_minus, tol=tol)
    except toda.ConstraintViolationError as exc:
        raise FoldError(f"incompatible C blocks: {exc}") from exc
    expect_variant = fmap.variant if fmap.pattern == PATTERN_ODD_MIXED else ""
    if fmap.pattern == PATTERN_ODD_MIXED and folded.variant != expect_variant:
        raise FoldError(
            f"the {fmap.family} odd fold is natural in variant {folded.variant!r}; "
            f"relabel through the substitution to use {expect_variant!r}"
        )
    return folded


def verify_fold_invariance(fmap: FoldingMap, system: TodaSystem, state: FieldState,
                           steps: int = 10, step: float = 1e-3) -> float:
    """Evolve the unfolded chain from a fold-constrained state and return
    the maximal constraint violation over the grid.

    The continuum flow preserves the constraint set exactly, so the
    violation is pure scheme error and must shrink at second order in the
    step.
    """
    folded = fold_constraints(fmap, system)
    full = toda.full_state(folded, state)
    grid = solver.Grid(0.0, steps * step, 0.0, steps * step, steps, steps)
    data = solver.constant_data(FieldState(gammas=full))
    history = solver.integrate(system, data, grid, solver.SolverConfig())
    return folded.engine.gamma_residual(history.gammas)


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
    return max(max_abs(right[i] + kind_transpose(left[s - 1 - i], b_kind)) for i in range(s))


def odd_fold_substitution(gammas, c_plus, c_minus, b_kind: str = "J"):
    """The substitution itself; applying it twice returns the input."""
    s = len(gammas)

    def t_node(x):
        return kind_transpose(x, b_kind)

    def t_arc(x):
        return anti_transpose(x) if b_kind == "J" else k_transpose(x)

    g2 = [t_node(np.linalg.inv(as_complex(gammas[s - 1 - i]))) for i in range(s)]
    cp2 = [t_arc(as_complex(c_plus[s - 1 - a])) for a in range(s)]
    cm2 = [t_arc(as_complex(c_minus[s - 1 - a])) for a in range(s)]
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


def shape_to_pattern(shape: tuple[int, int]) -> str:
    if shape == (0, 2):
        return PATTERN_EVEN_ARC_FIXED
    if shape == (2, 0):
        return PATTERN_EVEN_NODE_FIXED
    if shape == (1, 1):
        return PATTERN_ODD_MIXED
    raise FoldError(f"no fold pattern with fixed ({shape[0]} nodes, {shape[1]} arcs)")


def diagram_json(fmap: FoldingMap) -> dict:
    """Small JSON description of the folded circle for documentation."""
    return {
        "p": fmap.p,
        "pattern": fmap.pattern,
        "family": fmap.family,
        "nodes": [f"Gamma_{i + 1}" for i in range(fmap.p)],
        "arcs": [f"C_{a}" for a in range(fmap.p)],
        "node_pairs": [list(pair) for pair in fmap.node_pairs()],
        "arc_pairs": [list(pair) for pair in fmap.arc_pairs()],
        "fixed_nodes": [[i, kind] for i, kind in fmap.fixed_nodes],
        "fixed_arcs": [[a, eps] for a, eps in fmap.fixed_arcs],
    }
