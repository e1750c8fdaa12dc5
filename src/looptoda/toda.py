"""Loop-group Toda systems in block-matrix form.

A system stores the full cyclic block data: sizes (n_1..n_p), and for each
arc ``a`` (= 0..p-1, with arc 0 the wrap-around) the pair of blocks
``C_{+a}`` of shape n_{a-1} x n_a and ``C_{-a}`` of shape n_a x n_{a-1}.
The right-hand side for node ``i`` of the basic cyclic chain is

    - inv(G_i) C_{+(i+1)} G_{i+1} C_{-(i+1)} + C_{-i} inv(G_{i-1}) C_{+i} G_i

with all indices mod p.  The constrained classes keep nodes 0..s-1 as
independent variables; the remaining blocks are reconstructed from the
group and algebra conditions through a :class:`FoldEngine`.

Equation classes:

* ``general_linear``    -- the unrestricted cyclic chain;
* ``even_fold``         -- p = 2s, two self-paired arcs, the wrap term uses
                           the anti-transpose of G_1;
* ``odd_fold``          -- p = 2s - 1, one self-paired node and one arc;
                           two variants depending on which end is the node;
* ``double_fixed_fold`` -- p = 2s - 2, two self-paired nodes, equations of
                           the B-transpose-difference form at both ends;
* ``simplest``          -- p = 1, the plain commutator equation.

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
    anti_transpose,
    as_complex,
    b_transpose,
    expm,
    identity,
    kind_transpose,
    max_abs,
)
from .gradation import (
    TYPE_GL_INNER,
    TYPE_GL_OUTER_II,
    TYPE_GL_OUTER_III,
    TYPE_SOSP_I,
    TYPE_SOSP_II,
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

VARIANT_ARC_FIRST = "arc_first"
VARIANT_NODE_FIRST = "node_first"


class BuildError(ValueError):
    """System data violates the spec-imposed structure."""


class ConstraintViolationError(ValueError):
    """A field state or C block breaks its constraint beyond tolerance."""


@dataclass(frozen=True)
class GammaConstraint:
    """^B Gamma = inv(Gamma) on one independent node, B of kind J or K."""

    node: int
    b_kind: str


@dataclass(frozen=True)
class ArcConstraint:
    """^B C_{+-a} = epsilon * C_{+-a} on one independent arc."""

    arc: int
    b_kind: str
    epsilon: int


@dataclass(frozen=True)
class ConstraintSet:
    gamma_constraints: tuple[GammaConstraint, ...] = ()
    c_constraints: tuple[ArcConstraint, ...] = ()
    det_product_one: bool = False


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


@dataclass(frozen=True)
class FoldEngine:
    """Reconstruction machinery for the constrained classes.

    Holds the involution sigma on nodes and the global matrices realizing
    the group/algebra conditions: inner classes use ^B c = -c and
    ^B gamma = inv(gamma); outer classes use the twist
    A(x) = -h (^B x) inv(h) with c in the grading eigenspace of index L.
    """

    kind: str  # "inner" | "outer"
    sizes: tuple[int, ...]
    sigma: tuple[int, ...]
    b_matrix: np.ndarray
    h_diag: np.ndarray | None
    L: int
    M: int

    @property
    def p(self) -> int:
        return len(self.sizes)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    def mirror_arc(self, a: int) -> int:
        return self.sigma[(a - 1) % self.p]

    def _offs(self):
        return _offsets(self.sizes)

    def _block(self, mat, i, j):
        o = self._offs()
        return mat[o[i]:o[i + 1], o[j]:o[j + 1]]

    def apply_twist(self, x: np.ndarray) -> np.ndarray:
        """The outer automorphism A(x) = -h (^B x) inv(h); outer engines only."""
        if self.kind == "inner":
            raise RuntimeError("inner engines do not define the twist")
        bx = b_transpose(x, self.b_matrix)
        d = self.h_diag
        return -(d[:, None] / d[None, :]) * bx

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
                    full[j] = anti_transpose(np.linalg.inv(full[i]))
        if any(g is None for g in full):
            raise BuildError("independent blocks do not generate the full cycle")
        return tuple(full)

    def embed_gamma(self, full_gammas) -> np.ndarray:
        g = np.zeros((self.n, self.n), dtype=complex)
        o = self._offs()
        for i, blk in enumerate(full_gammas):
            g[o[i]:o[i + 1], o[i]:o[i + 1]] = blk
        return g

    def embed_c(self, c_blocks, direction: int) -> np.ndarray:
        """Assemble the full c_+ (direction +1) or c_- (direction -1) matrix."""
        c = np.zeros((self.n, self.n), dtype=complex)
        o = self._offs()
        for a, blk in enumerate(c_blocks):
            if blk is None:
                continue
            i = (a - 1) % self.p
            if direction > 0:
                c[o[i]:o[i + 1], o[a]:o[a + 1]] = blk
            else:
                c[o[a]:o[a + 1], o[i]:o[i + 1]] = blk
        return c

    def extract_c(self, mat: np.ndarray, a: int, direction: int) -> np.ndarray:
        i = (a - 1) % self.p
        if direction > 0:
            return self._block(mat, i, a)
        return self._block(mat, a, i)

    def gamma_residual(self, full_gammas) -> float:
        g = self.embed_gamma(full_gammas)
        if self.kind == "inner":
            return max_abs(b_transpose(g, self.b_matrix) @ g - identity(self.n))
        ginv = self.embed_gamma([np.linalg.inv(b) for b in full_gammas])
        d = self.h_diag
        fixed = (d[:, None] / d[None, :]) * b_transpose(ginv, self.b_matrix)
        return max_abs(g - fixed)

    def c_residual(self, c_blocks, direction: int) -> float:
        c = self.embed_c(c_blocks, direction)
        if self.kind == "inner":
            return max_abs(b_transpose(c, self.b_matrix) + c)
        phase = np.exp(2j * np.pi * direction * self.L / self.M)
        return max_abs(self.apply_twist(c) - phase * c)

    def complete_c(self, partial, direction: int) -> tuple[np.ndarray, ...]:
        """Fill the full arc cycle from values on the independent arcs.

        ``partial`` maps arc index -> block.  Mirror arcs are produced by
        the algebra condition (inner) or the grading eigenspace condition
        (outer); self-paired arcs are consistency-checked.
        """
        full: list = [None] * self.p
        phase = np.exp(2j * np.pi * direction * self.L / self.M)
        for a, blk in partial.items():
            full[a] = as_complex(blk)
        for a in sorted(partial):
            ma = self.mirror_arc(a)
            single = [full[a] if t == a else None for t in range(self.p)]
            embedded = self.embed_c(single, direction)
            if self.kind == "inner":
                image = -b_transpose(embedded, self.b_matrix)
            else:
                image = self.apply_twist(embedded) / phase
            mirrored = self.extract_c(image, ma, direction)
            if ma == a or ma in partial:
                if max_abs(mirrored - full[ma]) > 1e-9 * max(1.0, max_abs(full[ma])):
                    raise ConstraintViolationError(
                        f"arc {a} violates the fold symmetry on its mirror {ma}"
                    )
            else:
                full[ma] = mirrored
        for a in range(self.p):
            if full[a] is None:
                i = (a - 1) % self.p
                full[a] = np.zeros(
                    (self.sizes[i], self.sizes[a]) if direction > 0 else (self.sizes[a], self.sizes[i]),
                    dtype=complex,
                )
        return tuple(full)


@dataclass(frozen=True)
class TodaSystem:
    """A fully assembled Toda system over the block cycle."""

    equation_class: str
    block_sizes: tuple[int, ...]
    s: int
    L: int
    c_plus: tuple[np.ndarray, ...]
    c_minus: tuple[np.ndarray, ...]
    constraints: ConstraintSet
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
    def independent_arcs(self) -> tuple[int, ...]:
        if self.equation_class == EQ_GENERAL_LINEAR:
            return tuple(range(self.p))
        if self.equation_class == EQ_EVEN_FOLD:
            return tuple(range(self.s + 1))
        if self.equation_class == EQ_ODD_FOLD:
            if self.variant == VARIANT_NODE_FIRST:
                return tuple(range(1, self.s + 1))
            return tuple(range(self.s))
        if self.equation_class == EQ_DOUBLE_FIXED_FOLD:
            return tuple(range(1, self.s))
        return (0,)


# ---------------------------------------------------------------------------
# right-hand sides (batched: leading axes broadcast)
#
# ``inv`` optionally carries the inverses of ``gammas``; an entry that is
# None (or no list at all) is computed here.

def _inverses(gammas, inv):
    if inv is None:
        return [np.linalg.inv(g) for g in gammas]
    return [np.linalg.inv(g) if gi is None else gi for g, gi in zip(gammas, inv)]


def rhs_general_linear(gammas, cp, cm, inv=None):
    p = len(gammas)
    inv = _inverses(gammas, inv)
    out = []
    for i in range(p):
        ip = (i + 1) % p
        t1 = -inv[i] @ cp[ip] @ gammas[ip] @ cm[ip]
        t2 = cm[i] @ inv[(i - 1) % p] @ cp[i] @ gammas[i]
        out.append(t1 + t2)
    return out


def rhs_even_fold(gammas, cp, cm, inv=None):
    s = len(gammas)
    inv = _inverses(gammas, inv)
    out = []
    for i in range(s):
        if i == s - 1:
            t1 = -inv[i] @ cp[s] @ anti_transpose(inv[i]) @ cm[s]
        else:
            t1 = -inv[i] @ cp[i + 1] @ gammas[i + 1] @ cm[i + 1]
        if i == 0:
            t2 = cm[0] @ anti_transpose(gammas[0]) @ cp[0] @ gammas[0]
        else:
            t2 = cm[i] @ inv[i - 1] @ cp[i] @ gammas[i]
        out.append(t1 + t2)
    return out


def rhs_odd_fold(gammas, cp, cm, b_kind: str, variant: str = VARIANT_ARC_FIRST, inv=None):
    s = len(gammas)
    inv = _inverses(gammas, inv)
    out = []
    if variant == VARIANT_ARC_FIRST:
        for i in range(s):
            if i == s - 1:
                y = cm[s - 1] @ inv[s - 2] @ cp[s - 1] @ gammas[s - 1]
                out.append(-kind_transpose(y, b_kind) + y)
                continue
            t1 = -inv[i] @ cp[i + 1] @ gammas[i + 1] @ cm[i + 1]
            if i == 0:
                t2 = cm[0] @ anti_transpose(gammas[0]) @ cp[0] @ gammas[0]
            else:
                t2 = cm[i] @ inv[i - 1] @ cp[i] @ gammas[i]
            out.append(t1 + t2)
        return out
    for i in range(s):
        if i == 0:
            x = inv[0] @ cp[1] @ gammas[1] @ cm[1]
            out.append(-x + kind_transpose(x, b_kind))
            continue
        if i == s - 1:
            t1 = -inv[i] @ cp[s] @ anti_transpose(inv[i]) @ cm[s]
        else:
            t1 = -inv[i] @ cp[i + 1] @ gammas[i + 1] @ cm[i + 1]
        t2 = cm[i] @ inv[i - 1] @ cp[i] @ gammas[i]
        out.append(t1 + t2)
    return out


def rhs_double_fold(gammas, cp, cm, b1_kind: str, bs_kind: str, inv=None):
    s = len(gammas)
    inv = _inverses(gammas, inv)
    out = []
    for i in range(s):
        if i == 0:
            x = inv[0] @ cp[1] @ gammas[1] @ cm[1]
            out.append(-x + kind_transpose(x, b1_kind))
        elif i == s - 1:
            y = cm[s - 1] @ inv[s - 2] @ cp[s - 1] @ gammas[s - 1]
            out.append(-kind_transpose(y, bs_kind) + y)
        else:
            t1 = -inv[i] @ cp[i + 1] @ gammas[i + 1] @ cm[i + 1]
            t2 = cm[i] @ inv[i - 1] @ cp[i] @ gammas[i]
            out.append(t1 + t2)
    return out


def rhs_simplest(gamma, cp, cm, inv=None):
    x = (np.linalg.inv(gamma) if inv is None else inv) @ cp @ gamma
    return [cm @ x - x @ cm]


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
    """(equation_class, variant, s, gamma constraints, arc constraints)."""
    t = spec.gradation_type
    p = spec.p
    if t == TYPE_GL_INNER:
        return EQ_GENERAL_LINEAR, "", p, (), ()
    if t == TYPE_SOSP_I:
        eps = -1 if spec.family == "so" else 1
        node_kind = "J" if spec.family == "so" else "K"
        if p % 2 == 0:
            s = p // 2
            arcs = (ArcConstraint(0, "J", eps), ArcConstraint(s, "J", eps))
            return EQ_EVEN_FOLD, "", s, (), arcs
        s = (p + 1) // 2
        return (
            EQ_ODD_FOLD,
            VARIANT_ARC_FIRST,
            s,
            (GammaConstraint(s - 1, node_kind),),
            (ArcConstraint(0, "J", eps),),
        )
    if t == TYPE_SOSP_II:
        kind = "J" if spec.family == "so" else "K"
        s = p // 2 + 1
        nodes = (GammaConstraint(0, kind), GammaConstraint(s - 1, kind))
        return EQ_DOUBLE_FIXED_FOLD, "", s, nodes, ()
    if t == TYPE_GL_OUTER_II:
        if p % 2 == 0:
            s = p // 2
            arcs = (ArcConstraint(0, "J", -1), ArcConstraint(s, "J", 1))
            return EQ_EVEN_FOLD, "", s, (), arcs
        s = (p + 1) // 2
        return (
            EQ_ODD_FOLD,
            VARIANT_ARC_FIRST,
            s,
            (GammaConstraint(s - 1, "K"),),
            (ArcConstraint(0, "J", -1),),
        )
    if t == TYPE_GL_OUTER_III:
        if p % 2 == 0:
            s = p // 2 + 1
            nodes = (GammaConstraint(0, "J"), GammaConstraint(s - 1, "K"))
            return EQ_DOUBLE_FIXED_FOLD, "", s, nodes, ()
        s = (p + 1) // 2
        return (
            EQ_ODD_FOLD,
            VARIANT_NODE_FIRST,
            s,
            (GammaConstraint(0, "J"),),
            (ArcConstraint(s, "J", 1),),
        )
    raise SpecError(f"cannot classify gradation type {t!r}")


def _sigma_for_spec(spec: GradationSpec) -> tuple[int, ...]:
    p = spec.p
    if spec.gradation_type in (TYPE_SOSP_I, TYPE_GL_OUTER_II):
        return tuple((p - 1 - i) % p for i in range(p))
    return tuple((p - i) % p for i in range(p))


def engine_for_spec(spec: GradationSpec, L: int) -> FoldEngine | None:
    if spec.gradation_type == TYPE_GL_INNER:
        return None
    b = structure_for_spec(spec)
    outer = spec.gradation_type in (TYPE_GL_OUTER_II, TYPE_GL_OUTER_III)
    h_diag = np.diagonal(build_h(spec)).copy() if outer else None
    return FoldEngine(
        kind="outer" if outer else "inner",
        sizes=spec.n_list,
        sigma=_sigma_for_spec(spec),
        b_matrix=b,
        h_diag=h_diag,
        L=L,
        M=spec.M,
    )


def arc_gradings(spec: GradationSpec) -> list:
    """Grading index of each arc's c_+ block: an int (inner) or pair (outer)."""
    table = block_index_table(spec)
    out = []
    for a in range(spec.p):
        i = (a - 1) % spec.p
        if table.outer:
            out.append(table.pair(i, a))
        else:
            out.append(table.residue(i, a))
    return out


def arcs_allowed(spec: GradationSpec, L: int) -> list[bool]:
    gradings = arc_gradings(spec)
    want = L % spec.M
    out = []
    for g in gradings:
        if isinstance(g, tuple):
            out.append(want in g)
        else:
            out.append(g == want)
    return out


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


def build_system(spec, L: int, c_plus, c_minus, tol: float = DEFAULT_TOL) -> TodaSystem:
    """Assemble and validate the Toda system for a gradation spec.

    ``c_plus``/``c_minus`` give one block per arc of the full cycle, index 0
    being the wrap-around pair.  Blocks on arcs whose grading index differs
    from +-L must be zero; constrained classes additionally require the
    supplied blocks to satisfy the fold symmetries.
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
    eq_class, variant, s, gnodes, garcs = _classify(spec)
    constraints = ConstraintSet(
        gamma_constraints=gnodes,
        c_constraints=garcs,
        det_product_one=(spec.family == "sl"),
    )
    engine = engine_for_spec(spec, L)
    system = TodaSystem(
        equation_class=eq_class,
        block_sizes=spec.n_list,
        s=s,
        L=L,
        c_plus=cp,
        c_minus=cm,
        constraints=constraints,
        spec=spec,
        variant=variant,
        engine=engine,
        family=spec.family,
    )
    _validate_c_constraints(system, tol)
    return system


def _validate_c_constraints(system: TodaSystem, tol: float) -> None:
    for ac in system.constraints.c_constraints:
        for blocks, name in ((system.c_plus, "C_plus"), (system.c_minus, "C_minus")):
            blk = blocks[ac.arc]
            dev = max_abs(kind_transpose(blk, ac.b_kind) - ac.epsilon * blk)
            if dev > tol * max(1.0, max_abs(blk)):
                raise ConstraintViolationError(
                    f"{name}[{ac.arc}] violates ^{ac.b_kind} C = {ac.epsilon:+d} C (dev {dev:.2e})"
                )
    if system.engine is not None:
        for blocks, direction, name in (
            (system.c_plus, +1, "c_plus"),
            (system.c_minus, -1, "c_minus"),
        ):
            dev = system.engine.c_residual(blocks, direction)
            scale = max(1.0, max(max_abs(b) for b in blocks))
            if dev > max(tol, 1e-9) * scale:
                raise ConstraintViolationError(
                    f"{name} violates the fold symmetry (residual {dev:.2e})"
                )
    if system.simplest_outer:
        for blocks, name in ((system.c_plus, "C_plus"), (system.c_minus, "C_minus")):
            dev = max_abs(anti_transpose(blocks[0]) - blocks[0])
            if dev > tol * max(1.0, max_abs(blocks[0])):
                raise ConstraintViolationError(f"{name} must satisfy ^J C = C (dev {dev:.2e})")
    if system.equation_class == EQ_SIMPLEST and system.family in ("so", "sp") and not system.simplest_outer:
        kind = "J" if system.family == "so" else "K"
        for blocks, name in ((system.c_plus, "C_plus"), (system.c_minus, "C_minus")):
            dev = max_abs(kind_transpose(blocks[0], kind) + blocks[0])
            if dev > tol * max(1.0, max_abs(blocks[0])):
                raise ConstraintViolationError(f"{name} must lie in the {system.family} algebra")
    if system.constraints.det_product_one and system.equation_class == EQ_SIMPLEST:
        for blocks, name in ((system.c_plus, "C_plus"), (system.c_minus, "C_minus")):
            if abs(np.trace(blocks[0])) > tol * max(1.0, max_abs(blocks[0])):
                raise ConstraintViolationError(f"{name} must be traceless for sl")


def build_simplest(family: str, c_plus, c_minus, outer: bool = False) -> TodaSystem:
    """The p = 1 system: the whole group for gl/sl, the B-orthogonal group
    for inner so/sp, and SO_n with ^J-symmetric C for the outer twist by
    the identity."""
    cp = as_complex(c_plus)
    cm = as_complex(c_minus)
    if cp.shape != cm.shape or cp.shape[0] != cp.shape[1]:
        raise ShapeMismatchError("C blocks must be square and of equal size")
    n = cp.shape[0]
    gamma_constraints = ()
    c_constraints = ()
    if outer:
        if family not in ("gl", "sl"):
            raise BuildError("the outer simplest case lives in gl/sl")
        gamma_constraints = (GammaConstraint(0, "J"),)
        c_constraints = (ArcConstraint(0, "J", 1),)
    elif family in ("so", "sp"):
        kind = "J" if family == "so" else "K"
        gamma_constraints = (GammaConstraint(0, kind),)
        c_constraints = (ArcConstraint(0, kind, -1),)
    system = TodaSystem(
        equation_class=EQ_SIMPLEST,
        block_sizes=(n,),
        s=1,
        L=1,
        c_plus=(cp,),
        c_minus=(cm,),
        constraints=ConstraintSet(
            gamma_constraints=gamma_constraints,
            c_constraints=c_constraints,
            det_product_one=(family == "sl"),
        ),
        spec=TrivialSpec(family=family, n=n) if not outer else None,
        simplest_outer=outer,
        family=family,
    )
    _validate_c_constraints(system, DEFAULT_TOL)
    return system


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

def state_residual(system: TodaSystem, state: FieldState) -> float:
    """Max violation of the fixed-node group constraints by the state."""
    dev = 0.0
    for gc in system.constraints.gamma_constraints:
        g = state.gammas[gc.node]
        dev = max(dev, max_abs(kind_transpose(g, gc.b_kind) @ g - identity(g.shape[-1])))
    if system.constraints.det_product_one:
        prod = 1.0
        for g in state.gammas:
            prod = prod * np.linalg.det(g)
        dev = max(dev, abs(prod - 1.0))
    return dev


def _check_state(system: TodaSystem, state: FieldState, tol: float) -> None:
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
    if dev > tol:
        raise ConstraintViolationError(f"state violates constraints (residual {dev:.2e})")


def rhs_dispatch(system: TodaSystem, gammas, cp, cm, inv=None) -> list[np.ndarray]:
    """Class dispatch over raw block lists; accepts batched arrays.

    ``inv`` optionally gives the blocks' inverses (None entries are computed).
    """
    cls = system.equation_class
    if cls == EQ_GENERAL_LINEAR:
        return rhs_general_linear(gammas, cp, cm, inv)
    if cls == EQ_EVEN_FOLD:
        return rhs_even_fold(gammas, cp, cm, inv)
    if cls == EQ_ODD_FOLD:
        b_kind = system.constraints.gamma_constraints[0].b_kind
        return rhs_odd_fold(gammas, cp, cm, b_kind, system.variant or VARIANT_ARC_FIRST, inv)
    if cls == EQ_DOUBLE_FIXED_FOLD:
        b1 = system.constraints.gamma_constraints[0].b_kind
        bs = system.constraints.gamma_constraints[1].b_kind
        return rhs_double_fold(gammas, cp, cm, b1, bs, inv)
    if cls == EQ_SIMPLEST:
        return rhs_simplest(gammas[0], cp[0], cm[0], None if inv is None else inv[0])
    raise BuildError(f"unknown equation class {cls!r}")


def rhs_blocks(system: TodaSystem, state: FieldState, check: bool = True,
               tol: float = 1e-8) -> list[np.ndarray]:
    """Right-hand sides of the s independent equations of the system."""
    if check:
        _check_state(system, state, tol)
    return rhs_dispatch(system, list(state.gammas), list(system.c_plus), list(system.c_minus))


def full_state(system: TodaSystem, state: FieldState) -> tuple[np.ndarray, ...]:
    """All p node blocks, reconstructing the mirrored ones where needed."""
    if system.engine is None:
        return tuple(state.gammas)
    return system.engine.complete_gammas(state.gammas)


def rhs_blocks_vs_full(system: TodaSystem, state: FieldState, check: bool = True) -> float:
    """Cross-validate the block equations against the full matrix form.

    Embeds the state into the block-diagonal gamma and the C blocks into
    the skeleton c matrices, evaluates [c_-, inv(gamma) c_+ gamma], and
    returns the max deviation of its diagonal blocks from rhs_blocks.
    """
    blocks = rhs_blocks(system, state, check=check)
    if system.equation_class == EQ_SIMPLEST:
        full = rhs_full(state.gammas[0], system.c_minus[0], system.c_plus[0])
        return max_abs(full - blocks[0])
    sizes = system.block_sizes
    offs = _offsets(sizes)
    gam = full_state(system, state)
    n = sum(sizes)
    gamma = np.zeros((n, n), dtype=complex)
    for i, blk in enumerate(gam):
        gamma[offs[i]:offs[i + 1], offs[i]:offs[i + 1]] = blk
    cplus = np.zeros((n, n), dtype=complex)
    cminus = np.zeros((n, n), dtype=complex)
    p = system.p
    for a in range(p):
        i = (a - 1) % p
        cplus[offs[i]:offs[i + 1], offs[a]:offs[a + 1]] = system.c_plus[a]
        cminus[offs[a]:offs[a + 1], offs[i]:offs[i + 1]] = system.c_minus[a]
    full = rhs_full(gamma, cminus, cplus)
    dev = 0.0
    for i in range(system.s):
        diag = full[offs[i]:offs[i + 1], offs[i]:offs[i + 1]]
        dev = max(dev, max_abs(diag - blocks[i]))
    return dev


# ---------------------------------------------------------------------------
# random constrained data (deterministic given the rng)

def random_state(system: TodaSystem, rng: np.random.Generator, scale: float = 0.4) -> FieldState:
    """Random invertible state satisfying the fixed-node constraints."""
    fixed = {gc.node: gc.b_kind for gc in system.constraints.gamma_constraints}
    gammas = []
    for i in range(system.s):
        na = system.block_sizes[i]
        x = scale * (rng.standard_normal((na, na)) + 1j * rng.standard_normal((na, na)))
        if i in fixed:
            x = (x - kind_transpose(x, fixed[i])) / 2.0
            gammas.append(expm(x))
        elif system.constraints.det_product_one:
            x = x - np.trace(x) / na * identity(na)
            gammas.append(expm(x))
        else:
            gammas.append(identity(na) + x)
    return FieldState(gammas=tuple(gammas))


def random_c_blocks(spec: GradationSpec, L: int, rng: np.random.Generator,
                    scale: float = 1.0):
    """Random (c_plus, c_minus) full-cycle lists compatible with the spec."""
    check_valid(spec)
    eq_class, variant, s, gnodes, garcs = _classify(spec)
    engine = engine_for_spec(spec, L)
    allowed = arcs_allowed(spec, L)
    sizes = spec.n_list
    p = spec.p
    eps_by_arc = {ac.arc: ac.epsilon for ac in garcs}
    if eq_class == EQ_GENERAL_LINEAR:
        independent = range(p)
    elif eq_class == EQ_EVEN_FOLD:
        independent = range(s + 1)
    elif eq_class == EQ_ODD_FOLD and variant == VARIANT_NODE_FIRST:
        independent = range(1, s + 1)
    elif eq_class == EQ_ODD_FOLD:
        independent = range(s)
    else:
        independent = range(1, s)
    partial_p, partial_m = {}, {}
    for a in independent:
        i = (a - 1) % p
        if not allowed[a]:
            continue
        bp = scale * (rng.standard_normal((sizes[i], sizes[a])) + 1j * rng.standard_normal((sizes[i], sizes[a])))
        bm = scale * (rng.standard_normal((sizes[a], sizes[i])) + 1j * rng.standard_normal((sizes[a], sizes[i])))
        if a in eps_by_arc:
            bp = (bp + eps_by_arc[a] * anti_transpose(bp)) / 2.0
            bm = (bm + eps_by_arc[a] * anti_transpose(bm)) / 2.0
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
        "constraints": {
            "gamma": [[gc.node, gc.b_kind] for gc in system.constraints.gamma_constraints],
            "c": [[ac.arc, ac.b_kind, ac.epsilon] for ac in system.constraints.c_constraints],
            "det_product_one": system.constraints.det_product_one,
        },
        "c_plus": [_array_to_json(c) for c in system.c_plus],
        "c_minus": [_array_to_json(c) for c in system.c_minus],
    }


def system_from_json(data: dict) -> TodaSystem:
    cp = [_array_from_json(c) for c in data["c_plus"]]
    cm = [_array_from_json(c) for c in data["c_minus"]]
    if data.get("simplest_outer"):
        return build_simplest(data.get("family", "gl"), cp[0], cm[0], outer=True)
    if data.get("spec") is None:
        raise BuildError("system JSON without a spec is not reconstructible")
    spec = spec_from_json(data["spec"])
    if isinstance(spec, TrivialSpec):
        return build_simplest(spec.family, cp[0], cm[0])
    return build_system(spec, int(data["L"]), cp, cm)


def _eq_latex_lines(system: TodaSystem) -> list[str]:
    s = system.s
    cls = system.equation_class

    def gam(i):
        return rf"\Gamma_{{{i + 1}}}"

    def lhs(i):
        return rf"\partial_+\left({gam(i)}^{{-1}}\,\partial_-{gam(i)}\right)"

    def chain_minus(i):
        return rf"-{gam(i)}^{{-1}} C_{{+{i + 1}}}\,{gam(i + 1)}\,C_{{-{i + 1}}}"

    def chain_plus(i):
        return rf"+ C_{{-{i}}}\,{gam(i - 1)}^{{-1}} C_{{+{i}}}\,{gam(i)}"

    lines = []
    if cls == EQ_SIMPLEST:
        return [r"\partial_+\left(\Gamma^{-1}\partial_-\Gamma\right) = [C_-,\,\Gamma^{-1} C_+ \Gamma]"]
    for i in range(s):
        if cls == EQ_GENERAL_LINEAR:
            p = system.p
            t1 = rf"-{gam(i)}^{{-1}} C_{{+{(i + 1) % p}}}\,{gam((i + 1) % p)}\,C_{{-{(i + 1) % p}}}"
            t2 = rf"+ C_{{-{i}}}\,{gam((i - 1) % p)}^{{-1}} C_{{+{i}}}\,{gam(i)}"
            lines.append(f"{lhs(i)} &= {t1} {t2}")
            continue
        if cls == EQ_EVEN_FOLD:
            t1 = (
                rf"-{gam(i)}^{{-1}} C_{{+{s}}}\,{{}}^{{J}}({gam(i)}^{{-1}})\,C_{{-{s}}}"
                if i == s - 1 else chain_minus(i)
            )
            t2 = (
                rf"+ C_{{-0}}\,{{}}^{{J}}{gam(0)}\,C_{{+0}}\,{gam(0)}"
                if i == 0 else chain_plus(i)
            )
            lines.append(f"{lhs(i)} &= {t1} {t2}")
            continue
        if cls == EQ_ODD_FOLD and (system.variant or VARIANT_ARC_FIRST) == VARIANT_ARC_FIRST:
            b = system.constraints.gamma_constraints[0].b_kind
            if i == s - 1:
                y = rf"C_{{-{s - 1}}}\,{gam(s - 2)}^{{-1}} C_{{+{s - 1}}}\,{gam(s - 1)}"
                lines.append(f"{lhs(i)} &= -{{}}^{{{b}}}\\!\\left({y}\\right) + {y}")
            else:
                t2 = (
                    rf"+ C_{{-0}}\,{{}}^{{J}}{gam(0)}\,C_{{+0}}\,{gam(0)}"
                    if i == 0 else chain_plus(i)
                )
                lines.append(f"{lhs(i)} &= {chain_minus(i)} {t2}")
            continue
        if cls == EQ_ODD_FOLD:
            b = system.constraints.gamma_constraints[0].b_kind
            if i == 0:
                x = rf"{gam(0)}^{{-1}} C_{{+1}}\,{gam(1)}\,C_{{-1}}"
                lines.append(f"{lhs(i)} &= -{x} + {{}}^{{{b}}}\\!\\left({x}\\right)")
            elif i == s - 1:
                t1 = rf"-{gam(i)}^{{-1}} C_{{+{s}}}\,{{}}^{{J}}({gam(i)}^{{-1}})\,C_{{-{s}}}"
                lines.append(f"{lhs(i)} &= {t1} {chain_plus(i)}")
            else:
                lines.append(f"{lhs(i)} &= {chain_minus(i)} {chain_plus(i)}")
            continue
        b1 = system.constraints.gamma_constraints[0].b_kind
        bs = system.constraints.gamma_constraints[1].b_kind
        if i == 0:
            x = rf"{gam(0)}^{{-1}} C_{{+1}}\,{gam(1)}\,C_{{-1}}"
            lines.append(f"{lhs(i)} &= -{x} + {{}}^{{{b1}}}\\!\\left({x}\\right)")
        elif i == s - 1:
            y = rf"C_{{-{s - 1}}}\,{gam(s - 2)}^{{-1}} C_{{+{s - 1}}}\,{gam(s - 1)}"
            lines.append(f"{lhs(i)} &= -{{}}^{{{bs}}}\\!\\left({y}\\right) + {y}")
        else:
            lines.append(f"{lhs(i)} &= {chain_minus(i)} {chain_plus(i)}")
    return lines


def system_to_latex(system: TodaSystem) -> str:
    lines = _eq_latex_lines(system)
    if len(lines) == 1 and system.equation_class == EQ_SIMPLEST:
        return lines[0]
    body = " \\\\\n".join(lines)
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
