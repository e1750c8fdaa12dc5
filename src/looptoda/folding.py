"""Folding the cyclic Toda chain into its capped halves.

A chain with p nodes is drawn as a circle with the blocks Gamma_1..Gamma_p
on small disks (anticlockwise) and the pair C_{+-a} on the arc entering
node a.  Folding the circle across a diameter identifies nodes and arcs in
mirror pairs and keeps the half 0..s-1, a chain whose two ends lie on the
axis.  Each end is a fixed arc (sign epsilon of ^J C = epsilon C) or a
fixed node (B kind J or K), so exactly three axis shapes exist
(:func:`enumerate_axis_shapes`), one per folded equation class:

* through two arcs        (even p = 2s)      -> ``even_fold``;
* through two nodes       (even p = 2s - 2)  -> ``double_fixed_fold``;
* through a node and an arc (odd p = 2s - 1) -> ``odd_fold`` (two
  equivalent placements, related by :func:`odd_fold_substitution`).

:func:`looptoda.toda.fold_ends` derives the ends of every fold, and
:func:`looptoda.toda.build_system` caps the chain at them.  This module
checks a folded system against the chain it folds: the unrestricted chain
on the same data (:func:`unfolded_chain`) must keep the fold constraints
along its flow (:func:`verify_fold_invariance`).
"""

from __future__ import annotations

import numpy as np

from .lie_core import as_complex, b_transpose, max_abs
from .gradation import TYPE_GL_INNER, data_modulus, make_spec, validate_spec
from . import solver, toda
from .toda import FieldState, TodaSystem, rhs_chain


class FoldError(ValueError):
    """A system that is not the fold of a chain."""


def unfolded_chain(system: TodaSystem) -> TodaSystem:
    """The cyclic chain a folded system is the fold of.

    Its spec is the inner gl gradation on the same n_list/k_list, read mod
    the folded spec's ``data_modulus``, and it carries the folded system's
    full C cycle.  The folded spec must carry the uniform grading (every
    k_alpha equal to L).
    """
    if system.engine is None:
        raise FoldError(f"a {system.equation_class} system is not folded")
    spec = system.spec
    if any(k != system.L for k in spec.k_list):
        raise FoldError("folding requires the uniform chain k_alpha = L")
    chain_spec = make_spec("gl", TYPE_GL_INNER, data_modulus(spec.gradation_type, spec.M),
                           spec.n_list, spec.k_list)
    violations = validate_spec(chain_spec)
    if violations:
        raise FoldError("the fold's data is no chain: " + "; ".join(violations))
    return toda.build_system(chain_spec, system.L, system.c_plus, system.c_minus)


def verify_fold_invariance(system: TodaSystem, state: FieldState,
                           steps: int = 10, step: float = 1e-3) -> float:
    """Evolve the unfolded chain from a folded state and return the maximal
    fold-constraint violation over the grid.

    The continuum flow preserves the constraint set exactly, so the
    violation is pure scheme error and must shrink at second order in the
    step.
    """
    chain = unfolded_chain(system)
    full = toda.full_state(system, state)
    grid = solver.Grid(0.0, steps * step, 0.0, steps * step, steps, steps)
    data = solver.constant_data(FieldState(gammas=full))
    history = solver.integrate(chain, data, grid, solver.SolverConfig())
    return system.engine.gamma_residual(history.gammas)


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
