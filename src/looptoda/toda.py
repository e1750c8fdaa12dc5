"""Loop-group Toda systems in block-matrix form: one chain with two end caps.

A system stores the full cyclic block data: sizes (n_1..n_p), and for each
arc ``a`` (= 0..p-1, with arc 0 the wrap-around) the pair of blocks
``C_{+a}`` of shape n_{a-1} x n_a and ``C_{-a}`` of shape n_a x n_{a-1}.
The right-hand side for node ``i`` of the chain is

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

Systems and states are immutable values and every operation here is a
pure function; evaluation at independent grid points can run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    PALINDROMIC_TYPES,
    TYPE_GL_INNER,
    GradationSpec,
    SpecError,
    TrivialSpec,
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


@dataclass(frozen=True)
class FieldState:
    """The tuple of independent invertible blocks at one grid point."""

    gammas: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "gammas", tuple(as_complex(g) for g in self.gammas))


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
        class (the local structure blocks cancel pairwise)."""
        full: list = [None] * self.p
        for i, g in enumerate(independent):
            full[i] = as_complex(g)
        for i in range(len(independent)):
            j = self.sigma[i]
            if j != i:
                if full[j] is None:
                    full[j] = b_transpose(np.linalg.inv(full[i]), "J")
        if any(g is None for g in full):
            raise BuildError("independent blocks do not generate the full cycle")
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

        ``partial`` maps arc index -> block.  The twist of the embedded
        partial cycle holds each arc's mirror image: it fills the arcs
        outside ``partial`` (with zeros where no given arc mirrors onto
        them) and is checked against the given arcs whose mirror is given
        too, self-paired arcs among them.
        """
        given: list = [None] * self.p
        for a, blk in partial.items():
            given[a] = as_complex(blk)
        # + 0.0 turns the -0 that the twist leaves in the zero fill into +0
        image = self.twist(_embed_c(self.sizes, given, direction), direction) + 0.0
        mirrored = [self.extract_c(image, a, direction) for a in range(self.p)]
        for a in partial:
            if self.mirror_arc(a) in partial and (
                    max_abs(mirrored[a] - given[a]) > 1e-9 * max(1.0, max_abs(given[a]))):
                raise ConstraintViolationError(
                    f"arc {self.mirror_arc(a)} violates the fold symmetry on its mirror {a}"
                )
        return tuple(m if g is None else g for g, m in zip(given, mirrored))


@dataclass(frozen=True)
class TodaSystem:
    """A fully assembled Toda system over the block cycle.

    ``fixed_nodes`` holds the (node, B kind) pairs with ^B Gamma = inv(Gamma);
    the C blocks of a folded system are fixed by its engine's twist.
    """

    equation_class: str
    block_sizes: tuple[int, ...]
    s: int
    L: int
    c_plus: tuple[np.ndarray, ...]
    c_minus: tuple[np.ndarray, ...]
    fixed_nodes: tuple[tuple[int, str], ...] = ()
    spec: object = None
    variant: str = ""
    engine: FoldEngine | None = None
    simplest_outer: bool = False
    family: str = "gl"

    @property
    def p(self) -> int:
        return len(self.block_sizes)

    @property
    def independent_sizes(self) -> tuple[int, ...]:
        return self.block_sizes[: self.s]

    @property
    def caps(self) -> tuple:
        """(left, right): the caps of the chain at node 0 and at node s-1."""
        return _chain_caps(self.s, self.fixed_nodes, self.engine is not None)


def _chain_caps(s: int, fixed_nodes, folded: bool) -> tuple:
    """None at both ends of the cyclic chain; on a folded chain the B kind
    of a fixed end node, or "arc" where the axis fixes the end arc."""
    if not folded:
        return None, None
    kinds = dict(fixed_nodes)
    return kinds.get(0, "arc"), kinds.get(s - 1, "arc")


def _independent_arcs(s: int, left, right) -> range:
    """Arcs with independent C blocks: 0..s-1 on the cyclic chain; a node
    cap at node 0 drops arc 0, an arc cap at node s-1 adds arc s."""
    return range(1 if left in ("J", "K") else 0, s + 1 if right == "arc" else s)


# ---------------------------------------------------------------------------
# right-hand sides (batched: leading axes broadcast)

def _stacked(blocks, ndim) -> np.ndarray:
    """The blocks stacked on a new first axis, with unit axes after it up to ndim axes."""
    shape = blocks[0].shape
    out = empty_stack((len(blocks),) + (1,) * (ndim - 1 - len(shape)) + shape)
    for k, block in enumerate(blocks):
        out[k] = block
    return out


def _nodewise(fn, *lists) -> list:
    """[fn(*entries) for entries in zip(*lists)] over lists of node blocks.

    When each list holds several blocks of one shape, as on a chain of
    equal blocks, the lists are stacked and fn runs once for all the nodes.
    """
    if len(lists[0]) > 1 and all(len({x.shape for x in blocks}) == 1 for blocks in lists):
        ndim = 1 + max(blocks[0].ndim for blocks in lists)
        return list(fn(*(_stacked(blocks, ndim) for blocks in lists)))
    return [fn(*entries) for entries in zip(*lists)]


def _product(a, b, c, d):
    return mul(mul(mul(a, b), c), d)


def rhs_chain(gammas, cp, cm, left=None, right=None):
    """Right-hand sides of the chain on nodes 0..s-1, s = len(gammas).

    Node i's first term t1 (minus sign) pairs it with its successor
    through arc i+1, its second term t2 with its predecessor through arc
    i.  With both caps None the chain is cyclic.  A cap replaces the
    term of its end node that crosses the end: t2 of node 0 (left) and
    t1 of node s-1 (right).  An "arc" cap puts ^J G_0 in place of the
    predecessor's inverse on the left and ^J inv(G_{s-1}) in place of the
    successor on the right, with arc 0 and arc s; a B-kind cap puts minus
    the B-transpose of the node's other term.  Every term of a chain of
    equal blocks runs as one batched product over the nodes.
    """
    s = len(gammas)
    ginv = _nodewise(inv, gammas)
    node_caps = ("J", "K")
    first = range(s - 1 if right in node_caps else s)
    second = range(1 if left in node_caps else 0, s)
    arcs = [(i + 1) % len(cp) for i in first]
    succ = [b_transpose(ginv[i], "J") if i == s - 1 and right == "arc" else gammas[(i + 1) % s]
            for i in first]
    pred = [b_transpose(gammas[0], "J") if i == 0 and left == "arc" else ginv[i - 1] for i in second]
    t1 = _nodewise(_product, [ginv[i] for i in first], [cp[a] for a in arcs], succ,
                   [cm[a] for a in arcs])
    t2 = _nodewise(_product, [cm[i] for i in second], pred, [cp[i] for i in second],
                   [gammas[i] for i in second])
    if left in node_caps:
        t2.insert(0, b_transpose(t1[0], left))
    if right in node_caps:
        t1.append(b_transpose(t2[-1], right))
    return [b - a for a, b in zip(t1, t2)]


def rhs_full(gamma, c_minus, c_plus) -> np.ndarray:
    """The full-matrix right-hand side [c_-, inv(gamma) c_+ gamma]."""
    gamma = as_complex(gamma)
    if np.linalg.cond(gamma) > 1e14:
        raise SingularMatrixError("gamma is singular")
    x = np.linalg.inv(gamma) @ as_complex(c_plus) @ gamma
    c_minus = as_complex(c_minus)
    return c_minus @ x - x @ c_minus


# ---------------------------------------------------------------------------
# classification of specs into equation classes

def classify_spec(spec) -> tuple[str, str]:
    """(equation_class, variant) the spec's Toda system will carry."""
    if isinstance(spec, TrivialSpec):
        return EQ_SIMPLEST, ""
    eq_class, variant, _, _, _ = _classify(spec)
    return eq_class, variant


def _classify(spec: GradationSpec):
    """(equation_class, variant, s, fixed nodes, fixed arcs), the last two
    as :func:`fold_ends` gives them."""
    if spec.gradation_type == TYPE_GL_INNER:
        return EQ_GENERAL_LINEAR, "", spec.p, (), ()
    s, _, nodes, arcs = _spec_fold_ends(spec)
    eq_class = FOLD_CLASSES[len(nodes)]
    variant = ""
    if eq_class == EQ_ODD_FOLD:
        variant = VARIANT_NODE_FIRST if nodes[0][0] == 0 else VARIANT_ARC_FIRST
    return eq_class, variant, s, nodes, arcs


#: The decorations at the two ends of each fold family's folded chain: for
#: the end through node 0 / arc 0, then the end through node s-1 / arc s,
#: the B kind of a fixed node and the sign epsilon of ^J C = epsilon C on a
#: fixed arc.  An outer family has one natural odd placement; its row
#: leaves empty what the other, mirrored, placement would read at the
#: first end, and the mirrored placement trades the two ends' decorations.
FOLD_ENDS = {
    "so": (("J", -1), ("J", -1)),
    "sp": (("K", 1), ("K", 1)),
    "gl_outer_II": ((None, -1), ("K", 1)),
    "gl_outer_III": (("J", None), ("K", 1)),
}


def fold_ends(family: str, p: int, node0: bool):
    """(s, sigma, fixed nodes, fixed arcs) of a fold of the p-node circle.

    The axis passes through node 0 when ``node0`` is set, else through
    arc 0, and opposite that through node s-1 or arc s.  sigma is the
    involution on nodes; fixed nodes are (node, B kind) pairs and fixed
    arcs (arc, epsilon) pairs, the node 0 / arc 0 end first.
    """
    near, far = FOLD_ENDS[family]
    far_node = node0 != (p % 2 == 1)
    if near[0 if node0 else 1] is None or far[0 if far_node else 1] is None:
        near, far = far, near
    s = p // 2 + 1 if node0 else (p + 1) // 2
    sigma = tuple(((p if node0 else p - 1) - i) % p for i in range(p))
    nodes, arcs = [], []
    for is_node, node, arc, (b_kind, eps) in ((node0, 0, 0, near), (far_node, s - 1, s, far)):
        if is_node:
            nodes.append((node, b_kind))
        else:
            arcs.append((arc, eps))
    return s, sigma, tuple(nodes), tuple(arcs)


def fold_family(spec: GradationSpec) -> str:
    """The :data:`FOLD_ENDS` row of a folded spec: its family for so/sp, its
    type for the outer gl types."""
    t = spec.gradation_type
    if t not in PALINDROMIC_TYPES + FIXED_FIRST_TYPES:
        raise SpecError(f"cannot classify gradation type {t!r}")
    return t if t in OUTER_TYPES else spec.family


def _spec_fold_ends(spec: GradationSpec):
    """fold_ends of a folded spec; the fixed-first types fix node 0."""
    return fold_ends(fold_family(spec), spec.p, spec.gradation_type in FIXED_FIRST_TYPES)


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
    """Assemble and validate the Toda system for a gradation spec.

    ``c_plus``/``c_minus`` give one block per arc of the full cycle, index 0
    being the wrap-around pair.  Blocks on arcs whose grading index differs
    from +-L must be zero; a folded class also requires both directions'
    blocks to be fixed by its engine's twist.
    """
    if isinstance(spec, TrivialSpec):
        if len(c_plus) != 1 or len(c_minus) != 1:
            raise ShapeMismatchError("the trivial gradation carries a single C pair")
        return build_simplest(spec.family, c_plus[0], c_minus[0])
    check_valid(spec)
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
    eq_class, variant, s, nodes, _ = _classify(spec)
    engine = engine_for_spec(spec, L)
    if engine is not None:
        for blocks, direction, name in ((cp, +1, "c_plus"), (cm, -1, "c_minus")):
            dev = engine.c_residual(blocks, direction)
            if dev > DEFAULT_TOL * max(1.0, max(max_abs(b) for b in blocks)):
                raise ConstraintViolationError(
                    f"{name} violates the fold symmetry (residual {dev:.2e})"
                )
    return TodaSystem(
        equation_class=eq_class,
        block_sizes=spec.n_list,
        s=s,
        L=L,
        c_plus=cp,
        c_minus=cm,
        fixed_nodes=nodes,
        spec=spec,
        variant=variant,
        engine=engine,
        family=spec.family,
    )


def build_simplest(family: str, c_plus, c_minus, outer: bool = False) -> TodaSystem:
    """The p = 1 system: the whole group for gl/sl, the B-orthogonal group
    for inner so/sp, and SO_n with ^J-symmetric C for the outer twist by
    the identity."""
    cp = as_complex(c_plus)
    cm = as_complex(c_minus)
    if cp.shape != cm.shape or cp.shape[0] != cp.shape[1]:
        raise ShapeMismatchError("C blocks must be square and of equal size")
    n = cp.shape[0]
    kind, eps = None, 0   # ^kind C = eps C on the one C pair
    if outer:
        if family not in ("gl", "sl"):
            raise BuildError("the outer simplest case lives in gl/sl")
        kind, eps = "J", 1
    elif family in ("so", "sp"):
        kind, eps = ("J" if family == "so" else "K"), -1
    for blk, name in ((cp, "C_plus"), (cm, "C_minus")):
        bound = DEFAULT_TOL * max(1.0, max_abs(blk))
        dev = 0.0 if kind is None else max_abs(b_transpose(blk, kind) - eps * blk)
        if dev > bound:
            raise ConstraintViolationError(f"{name}[0] violates ^{kind} C = {eps:+d} C (dev {dev:.2e})")
        if family == "sl" and abs(np.trace(blk)) > bound:
            raise ConstraintViolationError(f"{name} must be traceless for sl")
    return TodaSystem(
        equation_class=EQ_SIMPLEST,
        block_sizes=(n,),
        s=1,
        L=1,
        c_plus=(cp,),
        c_minus=(cm,),
        fixed_nodes=() if kind is None else ((0, kind),),
        spec=TrivialSpec(family=family, n=n) if not outer else None,
        simplest_outer=outer,
        family=family,
    )


def build_periodic_chain(p: int, r: int, c_value: complex = 1.0) -> TodaSystem:
    """The periodic chain: p equal blocks of size r, C_{+-a} = c_value * I_r."""
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
    blocks = tuple(c_value * identity(r) for _ in range(p))
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


def state_residual(system: TodaSystem, state: FieldState) -> float:
    """Max violation of the fixed-node group constraints by the state."""
    dev = float(fixed_node_defect(system, state.gammas))
    if system.family == "sl":
        prod = 1.0
        for g in state.gammas:
            prod = prod * np.linalg.det(g)
        dev = max(dev, abs(prod - 1.0))
    return dev


def _check_state(system: TodaSystem, state: FieldState) -> None:
    if len(state.gammas) != system.s:
        raise ShapeMismatchError(
            f"state needs {system.s} independent blocks, got {len(state.gammas)}"
        )
    for i, g in enumerate(state.gammas):
        na = system.block_sizes[i]
        if g.shape[-2:] != (na, na):
            raise ShapeMismatchError(f"block {i} must be {na}x{na}, got {g.shape}")
        if np.linalg.cond(g) > 1e14:
            raise SingularMatrixError(f"state block {i} is singular")
    dev = state_residual(system, state)
    if dev > 1e-8:
        raise ConstraintViolationError(f"state violates constraints (residual {dev:.2e})")


def rhs_dispatch(system: TodaSystem, gammas, cp, cm) -> list[np.ndarray]:
    """Right-hand sides of the system's capped chain over raw block lists.

    Accepts batched arrays.
    """
    return rhs_chain(gammas, cp, cm, *system.caps)


def rhs_blocks(system: TodaSystem, state: FieldState) -> list[np.ndarray]:
    """Right-hand sides of the s independent equations of the system.

    The state must have the system's block shapes, no singular block, and
    satisfy the system's constraints to 1e-8.
    """
    _check_state(system, state)
    return rhs_dispatch(system, list(state.gammas), list(system.c_plus), list(system.c_minus))


def full_state(system: TodaSystem, state: FieldState) -> tuple[np.ndarray, ...]:
    """All p node blocks, reconstructing the mirrored ones where needed."""
    if system.engine is None:
        return tuple(state.gammas)
    return system.engine.complete_gammas(state.gammas)


def rhs_blocks_vs_full(system: TodaSystem, state: FieldState) -> float:
    """Cross-validate the block equations against the full matrix form.

    Embeds the state into the block-diagonal gamma and the C blocks into
    the skeleton c matrices, evaluates [c_-, inv(gamma) c_+ gamma], and
    returns the max deviation of its diagonal blocks from rhs_blocks.
    """
    blocks = rhs_blocks(system, state)
    sizes = system.block_sizes
    offs = _offsets(sizes)
    full = rhs_full(
        _embed_gamma(sizes, full_state(system, state)),
        _embed_c(sizes, system.c_minus, -1),
        _embed_c(sizes, system.c_plus, +1),
    )
    return max(
        max_abs(full[offs[i]:offs[i + 1], offs[i]:offs[i + 1]] - blocks[i]) for i in range(system.s)
    )


# ---------------------------------------------------------------------------
# random constrained data (deterministic given the rng)

def random_state(system: TodaSystem, rng: np.random.Generator, scale: float = 0.4) -> FieldState:
    """Random invertible state satisfying the fixed-node constraints."""
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
    return FieldState(gammas=tuple(gammas))


def random_c_blocks(spec: GradationSpec, L: int, rng: np.random.Generator,
                    scale: float = 1.0):
    """Random (c_plus, c_minus) full-cycle lists compatible with the spec."""
    check_valid(spec)
    _, _, s, nodes, arcs = _classify(spec)
    engine = engine_for_spec(spec, L)
    allowed = arcs_allowed(spec, L)
    sizes = spec.n_list
    p = spec.p
    eps_by_arc = dict(arcs)
    partial_p, partial_m = {}, {}
    for a in _independent_arcs(s, *_chain_caps(s, nodes, engine is not None)):
        i = (a - 1) % p
        if not allowed[a]:
            continue
        bp = scale * (rng.standard_normal((sizes[i], sizes[a])) + 1j * rng.standard_normal((sizes[i], sizes[a])))
        bm = scale * (rng.standard_normal((sizes[a], sizes[i])) + 1j * rng.standard_normal((sizes[a], sizes[i])))
        if a in eps_by_arc:
            bp = (bp + eps_by_arc[a] * b_transpose(bp, "J")) / 2.0
            bm = (bm + eps_by_arc[a] * b_transpose(bm, "J")) / 2.0
        partial_p[a] = bp
        partial_m[a] = bm
    if engine is None:
        cp = [partial_p.get(a, np.zeros((sizes[(a - 1) % p], sizes[a]), dtype=complex)) for a in range(p)]
        cm = [partial_m.get(a, np.zeros((sizes[a], sizes[(a - 1) % p]), dtype=complex)) for a in range(p)]
        return tuple(cp), tuple(cm)
    return engine.complete_c(partial_p, +1), engine.complete_c(partial_m, -1)


# ---------------------------------------------------------------------------
# serialization and rendering

def _array_to_json(a: np.ndarray):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.atleast_2d(a)]


def _array_from_json(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data], dtype=complex)


def system_to_json(system: TodaSystem) -> dict:
    return {
        "class": system.equation_class,
        "variant": system.variant,
        "family": system.family,
        "L": system.L,
        "block_sizes": list(system.block_sizes),
        "spec": system.spec.to_json() if system.spec is not None else None,
        "simplest_outer": system.simplest_outer,
        "c_plus": [_array_to_json(c) for c in system.c_plus],
        "c_minus": [_array_to_json(c) for c in system.c_minus],
    }


def _single_blocks(cp, cm) -> tuple:
    """The one (c_plus, c_minus) pair of a p = 1 system's JSON."""
    if len(cp) != 1 or len(cm) != 1:
        raise ShapeMismatchError(f"need 1 arc block, got {len(cp)}/{len(cm)}")
    return cp[0], cm[0]


def system_from_json(data: dict) -> TodaSystem:
    cp = [_array_from_json(c) for c in data["c_plus"]]
    cm = [_array_from_json(c) for c in data["c_minus"]]
    if data.get("simplest_outer"):
        return build_simplest(data.get("family", "gl"), *_single_blocks(cp, cm), outer=True)
    if data.get("spec") is None:
        raise BuildError("system JSON without a spec is not reconstructible")
    spec = spec_from_json(data["spec"])
    if isinstance(spec, TrivialSpec):
        return build_simplest(spec.family, *_single_blocks(cp, cm))
    return build_system(spec, int(data["L"]), cp, cm)


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
