"""Loop-group Toda systems in block-matrix form: one chain with two end caps.

A system is its gradation spec, its grade L and, for each arc ``a``
(= 0..p-1, with arc 0 the wrap-around) of the spec's block cycle of sizes
(n_1..n_p), the pair of blocks ``C_{+a}`` of shape n_{a-1} x n_a and
``C_{-a}`` of shape n_a x n_{a-1}; the spec fixes its equation class,
caps and fold engine.  The right-hand side for node ``i`` of the chain is

    - inv(G_i) C_{+(i+1)} G_{i+1} C_{-(i+1)} + C_{-i} inv(G_{i-1}) C_{+i} G_i

and every equation class is this one chain on its s independent nodes
0..s-1.  The cyclic chain closes on itself through arc 0 (indices mod p):
``general_linear``, and ``simplest`` at p = 1.  The other classes fold the
circle across an axis (see :func:`fold_ends`); the axis passes through an
arc or a node at each end of the kept half, and caps the chain there:

* an ``"arc"`` cap: the term across the fixed arc uses the anti-transpose
  ^J of the end node (of its inverse at the node s-1 end);
* a node cap, the node's B kind ``"J"`` or ``"K"``: the term across the
  folded-away arc is minus the B-transpose of the node's other term.

The classes name the caps: ``even_fold`` (p = 2s, two arcs),
``double_fixed_fold`` (p = 2s - 2, two nodes) and ``odd_fold`` (p = 2s - 1,
one of each; variant ``arc_first`` caps node 0's end with the arc,
``node_first`` with the node).  The blocks beyond node s-1 are
reconstructed from the group and algebra conditions through a
:class:`FoldEngine`.

A state is the tuple of the s independent node blocks at one point, and
:func:`check_state` is its one gate: ``rhs_blocks`` passes its state
through it, and ``solver.integrate`` the corner it marches from.  The
gate and the march share one invertibility rule: a block G is usable
while max(|G|, |inv G|, |G| |inv G|) (:func:`blow_up_value`) is at most
``INVERTIBILITY_BOUND``; LAPACK's ``LinAlgError`` decides exact
singularity.  Systems are immutable values and every operation here is a
pure function; evaluation at independent grid points can run
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .lie_core import (
    DEFAULT_TOL,
    ShapeMismatchError,
    SingularMatrixError,
    as_complex,
    b_transpose,
    empty_stack,
    expm,
    identity,
    inv,
    max_abs,
    mul,
)
from .gradation import (
    FIXED_FIRST_TYPES,
    OUTER_TYPES,
    TYPE_GL_INNER,
    GradationSpec,
    TrivialSpec,
    _json_int,
    _json_number,
    _json_str,
    b_kinds,
    block_index_table,
    build_h,
    check_valid,
    minimal_grade,
    spec_from_json,
    structure_for_spec,
)

EQ_GENERAL_LINEAR = "general_linear"
EQ_EVEN_FOLD = "even_fold"
EQ_ODD_FOLD = "odd_fold"
EQ_DOUBLE_FIXED_FOLD = "double_fixed_fold"
EQ_SIMPLEST = "simplest"
#: The folded class of each fixed-node count (0, 1, 2) of the fold's axis.
FOLD_CLASSES = (EQ_EVEN_FOLD, EQ_ODD_FOLD, EQ_DOUBLE_FIXED_FOLD)

VARIANT_ARC_FIRST = "arc_first"
VARIANT_NODE_FIRST = "node_first"


class BuildError(ValueError):
    """System data violates the spec-imposed structure."""


class ConstraintViolationError(ValueError):
    """A field state or C block breaks its constraint beyond tolerance."""


def _offsets(sizes):
    offs = [0]
    for s in sizes:
        offs.append(offs[-1] + s)
    return offs


def _embed_gamma(sizes, blocks) -> np.ndarray:
    """The block-diagonal matrix of the node blocks; leading axes broadcast."""
    o = _offsets(sizes)
    g = np.zeros(np.shape(blocks[0])[:-2] + (o[-1], o[-1]), dtype=complex)
    for i, blk in enumerate(blocks):
        g[..., o[i]:o[i + 1], o[i]:o[i + 1]] = blk
    return g


def _embed_c(sizes, c_blocks, direction: int) -> np.ndarray:
    """The full c_+ (direction +1) or c_- (direction -1) matrix; None blocks stay zero."""
    o = _offsets(sizes)
    p = len(sizes)
    c = np.zeros((o[-1], o[-1]), dtype=complex)
    for a, blk in enumerate(c_blocks):
        if blk is None:
            continue
        i = (a - 1) % p
        if direction > 0:
            c[o[i]:o[i + 1], o[a]:o[a + 1]] = blk
        else:
            c[o[a]:o[a + 1], o[i]:o[i + 1]] = blk
    return c


@dataclass(frozen=True)
class FoldEngine:
    """Reconstruction machinery for the folded classes.

    Holds the involution sigma on nodes and the one twist of every fold,

        tau(x) = -h (^B x) inv(h) / e^{2 pi i direction turn},

    with h diagonal: the outer gl folds take h from the spec's automorphism
    and turn = L/M, the so/sp folds h = I and turn = 0.  The C blocks of
    each direction are tau-fixed (for so/sp this reads ^B c = -c), and the
    node blocks satisfy ^B gamma inv(h) gamma h = I.
    """

    sizes: tuple[int, ...]
    sigma: tuple[int, ...]
    b_matrix: np.ndarray
    ratio: np.ndarray   # h_i / h_j
    turn: float         # L / M

    @property
    def p(self) -> int:
        return len(self.sizes)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    def mirror_arc(self, a: int) -> int:
        return self.sigma[(a - 1) % self.p]

    def _block(self, mat, i, j):
        o = _offsets(self.sizes)
        return mat[o[i]:o[i + 1], o[j]:o[j + 1]]

    def complete_gammas(self, independent) -> tuple[np.ndarray, ...]:
        """Fill the full node cycle from the independent blocks 0..s-1.

        Paired nodes satisfy Gamma_sigma(i) = ^J inv(Gamma_i) in every
        class (the local structure blocks cancel pairwise); every node
        beyond s-1 is the mirror of an independent one."""
        full = [as_complex(g) for g in independent]
        for j in range(len(full), self.p):
            full.append(b_transpose(np.linalg.inv(full[self.sigma[j]]), "J"))
        return tuple(full)

    def extract_c(self, mat: np.ndarray, a: int, direction: int) -> np.ndarray:
        i = (a - 1) % self.p
        if direction > 0:
            return self._block(mat, i, a)
        return self._block(mat, a, i)

    def twist(self, x, direction: int) -> np.ndarray:
        """tau(x) on full n x n matrices, for c_+ (direction +1) or c_- (-1)."""
        phase = np.exp(2j * np.pi * direction * self.turn)
        return -self.ratio * b_transpose(x, self.b_matrix) / phase

    def gamma_residual(self, full_gammas) -> float:
        """max |^B gamma inv(h) gamma h - I| over the embedded node blocks;
        leading axes of the blocks (a grid of points) are maximised over."""
        g = _embed_gamma(self.sizes, full_gammas)
        return max_abs(b_transpose(g, self.b_matrix) @ (g / self.ratio) - identity(self.n))

    def c_residual(self, c_blocks, direction: int) -> float:
        c = _embed_c(self.sizes, c_blocks, direction)
        return max_abs(self.twist(c, direction) - c)

    def complete_c(self, partial, direction: int) -> tuple[np.ndarray, ...]:
        """Fill the full arc cycle from values on the independent arcs.

        ``partial`` maps arc index -> block, and holds at most one arc of
        each mirror pair.  On an arc on the axis the twist is eps ^J, with
        eps = +-1 read off the twist of an all-ones block; such an arc
        keeps the eps-symmetric part of its block.  The twist of the
        embedded partial cycle fills the arcs outside ``partial`` with
        their mirror images, and with zeros where no given arc mirrors
        onto them.
        """
        given: list = [None] * self.p
        for a, blk in partial.items():
            blk = as_complex(blk)
            if self.mirror_arc(a) == a:
                ones = [np.ones_like(blk) if b == a else None for b in range(self.p)]
                tau = self.twist(_embed_c(self.sizes, ones, direction), direction)
                eps = round(self.extract_c(tau, a, direction)[0, 0].real)
                blk = (blk + eps * b_transpose(blk, "J")) / 2.0
            given[a] = blk
        # + 0.0 turns the -0 that the twist leaves in the zero fill into +0
        image = self.twist(_embed_c(self.sizes, given, direction), direction) + 0.0
        mirrored = [self.extract_c(image, a, direction) for a in range(self.p)]
        return tuple(m if g is None else g for g, m in zip(given, mirrored))


@dataclass(frozen=True)
class TodaSystem:
    """A Toda system: a spec, its grade L and the C blocks of its full arc
    cycle; ``outer`` marks the trivial gl/sl spec twisted by the outer
    automorphism.

    The spec fixes everything else, derived once on construction (and on
    ``dataclasses.replace``): the equation class, the number s of
    independent nodes, the ``fixed_nodes`` as (node, B kind) pairs with
    ^B Gamma = inv(Gamma), and the fold engine whose twist fixes the C
    blocks of a folded system (None on a cyclic or simplest chain).
    """

    spec: GradationSpec | TrivialSpec
    L: int
    c_plus: tuple[np.ndarray, ...]
    c_minus: tuple[np.ndarray, ...]
    outer: bool = False
    equation_class: str = field(init=False)
    s: int = field(init=False)
    fixed_nodes: tuple[tuple[int, str], ...] = field(init=False)
    engine: FoldEngine | None = field(init=False)

    def __post_init__(self):
        trivial = isinstance(self.spec, TrivialSpec)
        if self.outer and not (trivial and self.family in ("gl", "sl")):
            raise BuildError("the outer simplest case lives in gl/sl, on the trivial spec")
        if trivial:
            kind = {"so": "J", "sp": "K"}.get(self.family, "J" if self.outer else None)
            derived = EQ_SIMPLEST, 1, () if kind is None else ((0, kind),), None
        else:
            eq_class, _, s, nodes = _classify(self.spec)
            derived = eq_class, s, nodes, engine_for_spec(self.spec, self.L)
        for name, value in zip(("equation_class", "s", "fixed_nodes", "engine"), derived):
            object.__setattr__(self, name, value)

    @property
    def family(self) -> str:
        return self.spec.family

    @property
    def block_sizes(self) -> tuple[int, ...]:
        if isinstance(self.spec, TrivialSpec):
            return (self.spec.n,)
        return self.spec.n_list

    @property
    def independent_sizes(self) -> tuple[int, ...]:
        return self.block_sizes[: self.s]

    @property
    def caps(self) -> tuple:
        """(left, right): the caps of the chain at node 0 and at node s-1,
        None at both ends of the cyclic chain; on a folded chain the B kind
        of a fixed end node, or "arc" where the axis fixes the end arc."""
        if self.engine is None:
            return None, None
        kinds = dict(self.fixed_nodes)
        return kinds.get(0, "arc"), kinds.get(self.s - 1, "arc")


def _independent_arcs(s: int, left, right) -> range:
    """Arcs with independent C blocks: 0..s-1 on the cyclic chain; a node
    cap at node 0 drops arc 0, an arc cap at node s-1 adds arc s."""
    return range(1 if left in ("J", "K") else 0, s + 1 if right == "arc" else s)


# ---------------------------------------------------------------------------
# right-hand sides (batched: leading axes broadcast)

def rhs_chain(gammas, cp, cm, left=None, right=None):
    """Right-hand sides of the chain on nodes 0..s-1, s = len(gammas).

    Node i's first term t1 (minus sign) pairs it with its successor
    through arc i+1, its second term t2 with its predecessor through arc
    i.  With both caps None the chain is cyclic.  A cap replaces the
    term of its end node that crosses the end: t2 of node 0 (left) and
    t1 of node s-1 (right).  An "arc" cap puts ^J G_0 in place of the
    predecessor's inverse on the left and ^J inv(G_{s-1}) in place of the
    successor on the right, with arc 0 and arc s; a B-kind cap puts minus
    the B-transpose of the node's other term.

    The four factors of every term are gathered once and multiplied as
    ((a b) c) d, so each term has the same bits on either path.  A chain
    of equal blocks, of one node or more, takes its nodes as one stack,
    nodes first, or as a list, copies all its terms into four operand
    stacks of one allocation, multiplies them once and returns the node
    stack.  A chain of mixed block sizes multiplies term by term and
    returns a list.
    """
    s = len(gammas)
    node_caps = ("J", "K")
    stacked = len({g.shape for g in gammas}) == 1
    if stacked:
        gammas = np.asarray(gammas)
        ginv = inv(gammas)
    else:
        ginv = [inv(g) for g in gammas]
    first = range(s - 1 if right in node_caps else s)
    second = range(1 if left in node_caps else 0, s)
    arcs = [(i + 1) % len(cp) for i in first]
    succ = [b_transpose(ginv[i], "J") if i == s - 1 and right == "arc" else gammas[(i + 1) % s]
            for i in first]
    pred = [b_transpose(gammas[0], "J") if i == 0 and left == "arc" else ginv[i - 1] for i in second]
    terms = [(ginv[i], cp[a], g, cm[a]) for i, a, g in zip(first, arcs, succ)]
    terms += [(cm[i], g, cp[i], gammas[i]) for i, g in zip(second, pred)]
    if stacked:
        a, b, c, d = empty_stack((4, len(terms)) + gammas.shape[1:])
        for k, term in enumerate(terms):
            a[k], b[k], c[k], d[k] = term
        products = mul(mul(mul(a, b), c), d)
        # free the operand stacks before the caps and the difference
        # allocate: held, they raise the march's peak RSS pass by pass
        del a, b, c, d
    else:
        products = [mul(mul(mul(a, b), c), d) for a, b, c, d in terms]
    t1, t2 = products[:len(first)], products[len(first):]
    if left in node_caps:
        t2 = [b_transpose(t1[0], left), *t2]
    if right in node_caps:
        t1 = [*t1, b_transpose(t2[-1], right)]
    if stacked:
        return np.subtract(t2, t1)
    return [y - x for x, y in zip(t1, t2)]


def rhs_full(gamma, c_minus, c_plus) -> np.ndarray:
    """The full-matrix right-hand side [c_-, inv(gamma) c_+ gamma]; a
    singular gamma raises ``LinAlgError``."""
    gamma = as_complex(gamma)
    x = np.linalg.inv(gamma) @ as_complex(c_plus) @ gamma
    c_minus = as_complex(c_minus)
    return c_minus @ x - x @ c_minus


# ---------------------------------------------------------------------------
# classification of specs into equation classes

def classify_spec(spec) -> tuple[str, str]:
    """(equation_class, variant) the spec's Toda system will carry."""
    if isinstance(spec, TrivialSpec):
        return EQ_SIMPLEST, ""
    eq_class, variant, _, _ = _classify(spec)
    return eq_class, variant


def _classify(spec: GradationSpec):
    """(equation_class, variant, s, fixed nodes), the fixed nodes as
    (node, B kind) pairs: a fixed node takes the kind of the block of B it
    lies in, the first block's for node 0 (fixed only by the fixed-first
    types), the rest's otherwise."""
    if spec.gradation_type == TYPE_GL_INNER:
        return EQ_GENERAL_LINEAR, "", spec.p, ()
    first, rest = b_kinds(spec)
    s, _, fixed = _spec_fold_ends(spec)
    nodes = tuple((i, first if i == 0 else rest) for i in fixed)
    eq_class = FOLD_CLASSES[len(nodes)]
    variant = ""
    if eq_class == EQ_ODD_FOLD:
        variant = VARIANT_NODE_FIRST if fixed[0] == 0 else VARIANT_ARC_FIRST
    return eq_class, variant, s, nodes


def fold_ends(p: int, node0: bool):
    """(s, sigma, fixed nodes) of a fold of the p-node circle.

    The axis passes through node 0 when ``node0`` is set, else through
    arc 0, and opposite that through node s-1 or arc s.  sigma is the
    involution on nodes; the fixed nodes are those on the axis, node 0
    first.
    """
    s = p // 2 + 1 if node0 else (p + 1) // 2
    sigma = tuple(((p if node0 else p - 1) - i) % p for i in range(p))
    far_node = node0 != (p % 2 == 1)
    return s, sigma, tuple(i for i, on_axis in ((0, node0), (s - 1, far_node)) if on_axis)


def _spec_fold_ends(spec: GradationSpec):
    """fold_ends of a folded spec; the fixed-first types fix node 0."""
    return fold_ends(spec.p, spec.gradation_type in FIXED_FIRST_TYPES)


def engine_for_spec(spec: GradationSpec, L: int) -> FoldEngine | None:
    if spec.gradation_type == TYPE_GL_INNER:
        return None
    n = spec.n
    ratio, turn = np.ones((n, n)), 0.0
    if spec.gradation_type in OUTER_TYPES:
        d = np.diagonal(build_h(spec))
        ratio, turn = d[:, None] / d[None, :], L / spec.M
    return FoldEngine(sizes=spec.n_list, sigma=_spec_fold_ends(spec)[1],
                      b_matrix=structure_for_spec(spec), ratio=ratio, turn=turn)


def arcs_allowed(spec: GradationSpec, L: int) -> list[bool]:
    """Whether each arc's c_+ block carries the residue L (mod M)."""
    table = block_index_table(spec)
    return [L % spec.M in table.residues((a - 1) % spec.p, a) for a in range(spec.p)]


# ---------------------------------------------------------------------------
# system construction

def _check_c_shapes(sizes, cp, cm):
    p = len(sizes)
    if len(cp) != p or len(cm) != p:
        raise ShapeMismatchError(f"need {p} arc blocks, got {len(cp)}/{len(cm)}")
    cp = tuple(as_complex(c) for c in cp)
    cm = tuple(as_complex(c) for c in cm)
    for a in range(p):
        i = (a - 1) % p
        if cp[a].shape != (sizes[i], sizes[a]):
            raise ShapeMismatchError(
                f"C_plus[{a}] must be {sizes[i]}x{sizes[a]}, got {cp[a].shape}"
            )
        if cm[a].shape != (sizes[a], sizes[i]):
            raise ShapeMismatchError(
                f"C_minus[{a}] must be {sizes[a]}x{sizes[i]}, got {cm[a].shape}"
            )
    return cp, cm


def build_system(spec, L: int, c_plus, c_minus) -> TodaSystem:
    """Assemble and validate the Toda system for a gradation spec, which
    must pass ``check_valid``.

    ``c_plus``/``c_minus`` give one block per arc of the full cycle, index 0
    being the wrap-around pair; the trivial spec's one n x n pair builds the
    simplest system, with L = 1.  Blocks on arcs whose grading index differs
    from +-L must be zero; a folded class also requires both directions'
    blocks to be fixed by its engine's twist.
    """
    check_valid(spec)
    if isinstance(spec, TrivialSpec):
        system = build_simplest(spec.family, *_single_blocks(c_plus, c_minus))
        if system.block_sizes != (spec.n,):
            raise ShapeMismatchError(f"C blocks must be {spec.n}x{spec.n}, got {system.c_plus[0].shape}")
        return replace(system, spec=spec)
    if L < 1:
        raise BuildError("L must be a positive integer")
    if L > minimal_grade(spec):
        raise BuildError(
            f"grading subspaces between 0 and L = {L} are nontrivial "
            f"(minimal positive index {minimal_grade(spec)})"
        )
    cp, cm = _check_c_shapes(spec.n_list, c_plus, c_minus)
    allowed = arcs_allowed(spec, L)
    for a in range(spec.p):
        if not allowed[a] and (max_abs(cp[a]) > 0 or max_abs(cm[a]) > 0):
            raise BuildError(
                f"arc {a} has grading index incompatible with L = {L}; its blocks must vanish"
            )
    system = TodaSystem(spec, L, cp, cm)
    if system.engine is not None:
        for blocks, direction, name in ((cp, +1, "c_plus"), (cm, -1, "c_minus")):
            dev = system.engine.c_residual(blocks, direction)
            if dev > DEFAULT_TOL * max(1.0, max(max_abs(b) for b in blocks)):
                raise ConstraintViolationError(
                    f"{name} violates the fold symmetry (residual {dev:.2e})"
                )
    return system


def build_simplest(family: str, c_plus, c_minus, outer: bool = False) -> TodaSystem:
    """The p = 1 system: the whole group for gl/sl, the B-orthogonal group
    for inner so/sp, and SO_n with ^J-symmetric C for the outer twist by
    the identity."""
    cp = as_complex(c_plus)
    cm = as_complex(c_minus)
    if cp.shape != cm.shape or cp.shape[0] != cp.shape[1]:
        raise ShapeMismatchError("C blocks must be square and of equal size")
    system = TodaSystem(TrivialSpec(family=family, n=cp.shape[0]), 1, (cp,), (cm,), outer)
    eps = 1 if outer else -1   # ^kind C = eps C on the one C pair, at a fixed node of that kind
    for blk, name in ((cp, "C_plus"), (cm, "C_minus")):
        bound = DEFAULT_TOL * max(1.0, max_abs(blk))
        for _, kind in system.fixed_nodes:
            dev = max_abs(b_transpose(blk, kind) - eps * blk)
            if dev > bound:
                raise ConstraintViolationError(f"{name}[0] violates ^{kind} C = {eps:+d} C (dev {dev:.2e})")
        if family == "sl" and abs(np.trace(blk)) > bound:
            raise ConstraintViolationError(f"{name} must be traceless for sl")
    return system


def build_periodic_chain(p: int, r: int) -> TodaSystem:
    """The periodic chain: p equal blocks of size r, C_{+-a} = I_r."""
    if p < 2 or r < 1:
        raise BuildError("need p >= 2 and r >= 1")
    spec = GradationSpec(
        family="gl",
        n=r * p,
        gradation_type=TYPE_GL_INNER,
        M=p,
        n_list=(r,) * p,
        k_list=(1,) * (p - 1),
    )
    blocks = tuple(identity(r) for _ in range(p))
    return build_system(spec, 1, blocks, blocks)


# ---------------------------------------------------------------------------
# evaluation

def fixed_node_defect(system: TodaSystem, gammas) -> np.ndarray:
    """max |^B G G - I| over the fixed nodes at every point: the leading axes
    of the independent blocks are kept (zeros when no node is fixed)."""
    out = np.zeros(np.shape(gammas[0])[:-2])
    for node, kind in system.fixed_nodes:
        g = gammas[node]
        defect = mul(b_transpose(g, kind), g) - np.eye(g.shape[-1])
        out = np.maximum(out, np.max(np.abs(defect), axis=(-2, -1)))
    return out


def state_residual(system: TodaSystem, gammas) -> float:
    """Max violation of the group constraints by the state's blocks: the
    fixed-node conditions and, for sl, det = 1 over the full node cycle,
    where each mirrored block ^J inv(G) cancels its partner's det."""
    dev = float(fixed_node_defect(system, gammas))
    if system.family == "sl":
        try:
            prod = math.prod(np.linalg.det(g) for g in full_state(system, gammas))
        except np.linalg.LinAlgError:
            prod = 0.0   # a singular block has det 0 and no mirror
        dev = max(dev, abs(prod - 1.0))
    return dev


#: the largest group-constraint residual (``state_residual``) a state may
#: carry through ``check_state``, into ``rhs_blocks`` or, as the corner of a
#: march, into ``solver.integrate``
TOL_CONSTRAINT = 1e-8

#: the one invertibility rule: a block is usable while its blow-up value
#: (``blow_up_value``) is at most this, in ``check_state`` and at every
#: point ``solver.integrate`` marches
INVERTIBILITY_BOUND = 1e12


def blow_up_value(g, g_inv) -> np.ndarray:
    """max(|G|, |inv G|, |G| |inv G|) of each matrix of a stack and its
    inverses, |.| the largest absolute entry; inf where the inverse is not
    finite, as LAPACK's inverse of a 1x1 block of 1e-320 has a nan part."""
    size, inv_size = np.abs(g).max(axis=(-2, -1)), np.abs(g_inv).max(axis=(-2, -1))
    value = np.maximum(np.maximum(size, inv_size), size * inv_size)
    return np.where(np.isfinite(g_inv).all(axis=(-2, -1)), value, np.inf)


def blow_up_text(value) -> str:
    """Why a blow-up value above ``INVERTIBILITY_BOUND`` fails the rule."""
    return f"max(|G|, |inv G|, |G| |inv G|) = {value:.3g} > {INVERTIBILITY_BOUND:g}"


def _check_count(system: TodaSystem, gammas) -> None:
    if len(gammas) != system.s:
        raise ShapeMismatchError(f"state needs {system.s} independent blocks, got {len(gammas)}")


def check_state(system: TodaSystem, gammas) -> tuple[np.ndarray, ...]:
    """The gate of a state: its blocks as a tuple of complex arrays, once
    there are s of them, of the system's shapes, each invertible with a
    blow-up value at most ``INVERTIBILITY_BOUND``, the march's rule
    (SingularMatrixError), and they meet the system's constraints to
    ``TOL_CONSTRAINT`` (ConstraintViolationError)."""
    gammas = tuple(as_complex(g) for g in gammas)
    _check_count(system, gammas)
    for i, g in enumerate(gammas):
        na = system.block_sizes[i]
        if g.shape[-2:] != (na, na):
            raise ShapeMismatchError(f"block {i} must be {na}x{na}, got {g.shape}")
        # as in the march: the 2x2 det of a block such as 1e200 I overflows
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                g_inv = inv(g)
            except np.linalg.LinAlgError:
                raise SingularMatrixError(f"state block {i} is singular") from None
            value = np.max(blow_up_value(g, g_inv))
        if not value <= INVERTIBILITY_BOUND:
            raise SingularMatrixError(f"state block {i}: {blow_up_text(value)}")
    dev = state_residual(system, gammas)
    if dev > TOL_CONSTRAINT:
        raise ConstraintViolationError(f"state violates constraints (residual {dev:.2e})")
    return gammas


def rhs_dispatch(system: TodaSystem, gammas):
    """Right-hand sides of the system's capped chain, with its C blocks,
    over a raw block list or, on a chain of equal blocks, a node stack
    (see :func:`rhs_chain`).

    Accepts batched arrays.
    """
    return rhs_chain(gammas, system.c_plus, system.c_minus, *system.caps)


def rhs_blocks(system: TodaSystem, gammas):
    """Right-hand sides of the s independent equations of the system at the
    state ``gammas``, which must pass :func:`check_state`."""
    return rhs_dispatch(system, list(check_state(system, gammas)))


def full_state(system: TodaSystem, gammas) -> tuple[np.ndarray, ...]:
    """All p node blocks of the state, reconstructing the mirrored ones where needed."""
    _check_count(system, gammas)
    if system.engine is None:
        return tuple(gammas)
    return system.engine.complete_gammas(gammas)


def rhs_blocks_vs_full(system: TodaSystem, gammas) -> float:
    """Cross-validate the block equations against the full matrix form.

    Embeds the state into the block-diagonal gamma and the C blocks into
    the skeleton c matrices, evaluates [c_-, inv(gamma) c_+ gamma], and
    returns the max deviation of its diagonal blocks from rhs_blocks,
    relative to the largest entry of either, so the bound on its round-off
    does not depend on the size of the terms.
    """
    blocks = rhs_blocks(system, gammas)
    sizes = system.block_sizes
    offs = _offsets(sizes)
    full = rhs_full(
        _embed_gamma(sizes, full_state(system, gammas)),
        _embed_c(sizes, system.c_minus, -1),
        _embed_c(sizes, system.c_plus, +1),
    )
    diagonal = [full[offs[i]:offs[i + 1], offs[i]:offs[i + 1]] for i in range(system.s)]
    dev = max(max_abs(f - b) for f, b in zip(diagonal, blocks))
    scale = max(max(max_abs(f), max_abs(b)) for f, b in zip(diagonal, blocks))
    return dev / scale if dev else 0.0


# ---------------------------------------------------------------------------
# random constrained data (deterministic given the rng)

def random_state(system: TodaSystem, rng: np.random.Generator, scale: float = 0.4) -> tuple:
    """Random invertible state, the tuple of its s blocks, satisfying the fixed-node constraints."""
    fixed = dict(system.fixed_nodes)
    gammas = []
    for i in range(system.s):
        na = system.block_sizes[i]
        x = scale * (rng.standard_normal((na, na)) + 1j * rng.standard_normal((na, na)))
        if i in fixed:
            x = (x - b_transpose(x, fixed[i])) / 2.0
            gammas.append(expm(x))
        elif system.family == "sl":
            x = x - np.trace(x) / na * identity(na)
            gammas.append(expm(x))
        else:
            gammas.append(identity(na) + x)
    return tuple(gammas)


def random_c_blocks(spec: GradationSpec, L: int, rng: np.random.Generator):
    """Random (c_plus, c_minus) full-cycle lists compatible with the spec."""
    check_valid(spec)
    bare = TodaSystem(spec, L, (), ())   # its s, caps and engine need no C
    allowed = arcs_allowed(spec, L)
    sizes = spec.n_list
    p = spec.p
    partial_p, partial_m = {}, {}
    for a in _independent_arcs(bare.s, *bare.caps):
        i = (a - 1) % p
        if not allowed[a]:
            continue
        shape = (sizes[i], sizes[a])
        partial_p[a] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        partial_m[a] = rng.standard_normal(shape[::-1]) + 1j * rng.standard_normal(shape[::-1])
    if bare.engine is None:
        cp = [partial_p.get(a, np.zeros((sizes[(a - 1) % p], sizes[a]), dtype=complex)) for a in range(p)]
        cm = [partial_m.get(a, np.zeros((sizes[a], sizes[(a - 1) % p]), dtype=complex)) for a in range(p)]
        return tuple(cp), tuple(cm)
    return bare.engine.complete_c(partial_p, +1), bare.engine.complete_c(partial_m, -1)


# ---------------------------------------------------------------------------
# serialization and rendering

def _array_from_json(data) -> np.ndarray:
    """A matrix from rows of [re, im] pairs of JSON numbers; a malformed
    entry or rows of unequal length raise TypeError."""
    rows = [[_json_entry(entry) for entry in row] for row in data]
    if len({len(row) for row in rows}) > 1:
        raise TypeError("matrix rows must have equal length")
    return np.array(rows, dtype=complex)


def _json_entry(entry) -> complex:
    if not isinstance(entry, list) or len(entry) != 2:
        raise TypeError(f"a matrix entry must be a [re, im] pair, got {entry!r}")
    return complex(_json_number(entry[0], "re"), _json_number(entry[1], "im"))


def _single_blocks(cp, cm) -> tuple:
    """The one (c_plus, c_minus) pair of a p = 1 system."""
    if len(cp) != 1 or len(cm) != 1:
        raise ShapeMismatchError(f"need 1 arc block, got {len(cp)}/{len(cm)}")
    return cp[0], cm[0]


def system_from_json(data: dict) -> TodaSystem:
    """The system a ``looptoda simulate --system`` file describes: the outer
    simplest system, or what :func:`build_system` builds from its ``spec``,
    ``L`` and C blocks.  Its ``class``, ``variant``, ``block_sizes``,
    ``family`` and ``L`` keys, where given, are read by type (strings, and
    JSON integers for ``L`` and the sizes; any other type raises TypeError)
    and must be what the system carries."""
    readers = {"class": _json_str, "variant": _json_str, "family": _json_str, "L": _json_int,
               "block_sizes": lambda sizes, name: [_json_int(na, f"{name} entry") for na in sizes]}
    given = {key: read(data[key], key) for key, read in readers.items() if key in data}
    cp = [_array_from_json(c) for c in data["c_plus"]]
    cm = [_array_from_json(c) for c in data["c_minus"]]
    outer = data.get("simplest_outer", False)
    if not isinstance(outer, bool):
        raise TypeError(f"simplest_outer must be a JSON bool, got {outer!r}")
    if outer:
        system = build_simplest(given.get("family", "gl"), *_single_blocks(cp, cm), outer=True)
    elif data.get("spec") is None:
        raise BuildError("system JSON without a spec is not reconstructible")
    else:
        system = build_system(spec_from_json(data["spec"]), given["L"], cp, cm)
    built = {"class": system.equation_class, "variant": classify_spec(system.spec)[1],
             "block_sizes": list(system.block_sizes), "family": system.family, "L": system.L}
    for key, value in given.items():
        if value != built[key]:
            raise BuildError(f"system JSON has {key} {value!r}, but the system built is {built[key]!r}")
    return system


def _eq_latex_lines(system: TodaSystem) -> list[str]:
    s = system.s
    left, right = system.caps

    def gam(i):
        return rf"\Gamma_{{{i + 1}}}"

    def transposed(b_kind, term):
        return rf"{{}}^{{{b_kind}}}\!\left({term}\right)"

    lines = []
    for i in range(s):
        j = (i + 1) % s
        minus = rf"{gam(i)}^{{-1}} C_{{+{j}}}\,{gam(j)}\,C_{{-{j}}}"
        plus = rf"C_{{-{i}}}\,{gam((i - 1) % s)}^{{-1}} C_{{+{i}}}\,{gam(i)}"
        if i == 0 and left == "arc":
            plus = rf"C_{{-0}}\,{{}}^{{J}}{gam(0)}\,C_{{+0}}\,{gam(0)}"
        elif i == 0 and left is not None:
            plus = transposed(left, minus)
        if i == s - 1 and right == "arc":
            minus = rf"{gam(i)}^{{-1}} C_{{+{s}}}\,{{}}^{{J}}({gam(i)}^{{-1}})\,C_{{-{s}}}"
        elif i == s - 1 and right is not None:
            minus = transposed(right, plus)
        lhs = rf"\partial_+\left({gam(i)}^{{-1}}\,\partial_-{gam(i)}\right)"
        lines.append(f"{lhs} &= -{minus} + {plus}")
    return lines


def system_to_latex(system: TodaSystem) -> str:
    if system.equation_class == EQ_SIMPLEST:
        return r"\partial_+\left(\Gamma^{-1}\partial_-\Gamma\right) = [C_-,\,\Gamma^{-1} C_+ \Gamma]"
    body = " \\\\\n".join(_eq_latex_lines(system))
    return "\\begin{aligned}\n" + body + "\n\\end{aligned}"


def table_to_latex(table) -> str:
    p = len(table.entries)
    rows = []
    for a in range(p):
        cells = []
        for b in range(p):
            if table.outer:
                lo, hi = table.entries[a][b]
                cells.append(rf"\{{[{lo}]_{{{table.M}}},\,[{hi}]_{{{table.M}}}\}}")
            else:
                cells.append(rf"[{table.entries[a][b]}]_{{{table.M}}}")
        rows.append(" & ".join(cells))
    body = " \\\\\n".join(rows)
    cols = "|".join(["c"] * p)
    return f"\\left(\\begin{{array}}{{{cols}}}\n{body}\n\\end{{array}}\\right)"
