"""Folding the cyclic Toda chain into its capped halves.

A chain with p nodes is drawn as a circle with the blocks Gamma_1..Gamma_p
on small disks (anticlockwise) and the pair C_{+-a} on the arc entering
node a.  Folding the circle across a diameter identifies nodes and arcs in
mirror pairs and keeps the half 0..s-1, a chain whose two ends lie on the
axis.  Each end is a fixed arc (sign epsilon of ^J C = epsilon C) or a
fixed node (B kind J or K), so exactly three axis shapes exist, one per
folded equation class:

* through two arcs        (even p = 2s)      -> ``even_fold``;
* through two nodes       (even p = 2s - 2)  -> ``double_fixed_fold``;
* through a node and an arc (odd p = 2s - 1) -> ``odd_fold`` (two
  equivalent placements, arc first or node first).

:func:`looptoda.toda.chain_shape` reads every fold's geometry and end caps
(a fixed node's B kind, or a fixed arc) off the spec, whose twist gives a
fixed arc's epsilon; :func:`looptoda.toda.build_system` caps the chain there.
This module checks a folded system against the chain it folds: the
unrestricted chain on the same data (:func:`unfolded_chain`) must keep the
fold constraints along its flow (:func:`verify_fold_invariance`).
"""

from __future__ import annotations

from .gradation import TYPE_GL_INNER, data_modulus, make_spec
from . import solver, toda
from .lie_core import max_abs
from .toda import TodaSystem


class FoldError(ValueError):
    """A system that is not the fold of a chain, or a fold whose unfolded
    march halted."""


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
    return toda.build_system(chain_spec, system.L, system.c_plus, system.c_minus)


#: the grid :func:`verify_fold_invariance` marches: FOLD_STEPS x FOLD_STEPS cells of side FOLD_STEP
FOLD_STEPS = 2
FOLD_STEP = 0.025


def verify_fold_invariance(system: TodaSystem, gammas) -> float:
    """Evolve the unfolded chain from a folded state on the fold grid and
    return the largest fold-constraint violation over it, relative to the
    largest |G| on it.

    The discrete scheme commutes with the fold exactly, so at every step
    size the violation is round-off: at most 1.6e-15 on the 29 fold specs
    of the census ``check`` golden, with ``check``'s states, on the 2 x 2
    cells of step 0.025 (three anti-diagonal passes), against the 1e-12
    that ``check`` allows.  A defect of the flow does not hide under that
    bound: a non-equivariant 1e-6 I on one node reads at least 9.5e-10
    there.  Raises :class:`FoldError` with the halt text when the march
    halts.
    """
    chain = unfolded_chain(system)
    data = solver.constant_data(toda.full_state(system, gammas))
    side = FOLD_STEPS * FOLD_STEP
    grid = solver.Grid(0.0, side, 0.0, side, FOLD_STEPS, FOLD_STEPS)
    history = solver.integrate(chain, data, grid)
    if history.halted:
        raise FoldError(f"the unfolded march halted: {history.halt_reason}")
    return system.engine.gamma_residual(history.gammas) / max(max_abs(g) for g in history.gammas)
