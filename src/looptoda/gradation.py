"""Finite-order gradations of the classical Lie algebras from block data.

A gradation of gl/sl/so/sp_n(C) by residues mod M is recorded, up to
conjugation, by the combinatorial spec (family, type, M, n_1..n_p,
k_1..k_{p-1}) plus a half-integer phase offset.  The generating
automorphism is conjugation by a diagonal ``h`` (inner types) or the
outer twist ``x -> -h @ b_transpose(x, B) @ inv(h)``.

Five types are supported:

* ``gl_inner``     -- inner gradations of gl/sl;
* ``sosp_I``       -- so/sp gradations whose unit-circle phases can be
                      ordered without obstruction;
* ``sosp_II``      -- so/sp gradations whose h carries both +1 and -1
                      eigenvalues (even M, even p);
* ``gl_outer_II``  -- outer gl gradations with no +1 eigenvalue of h
                      (B = K, same data as a sosp_I gradation mod N = M/2);
* ``gl_outer_III`` -- outer gl gradations with +1 eigenvalues
                      (B = diag(J, K), same data as sosp_II mod N).

Each outer type is its so/sp twin read modulo N = M/2: the two share one
rule, with the modulus of :func:`data_modulus` (N for the outer types, M
for the others).  The types fall into two shape groups: *palindromic*
(sosp_I, gl_outer_II), where n_1..n_p and k_1..k_{p-1} read the same
backwards and sum(k) < modulus, and *fixed-first* (sosp_II, gl_outer_III),
palindromic after the first block, with sum(k) + k_1 = modulus.  B is block
diagonal over the first block and the rest, with kinds (J, J) for so,
(K, K) for sp and (J, K) for the outer types.

The A = id case (p = 1) is represented by the distinguished
:class:`TrivialSpec`.

The grade-k subspace is the exp(2 pi i k / M)-eigenspace of A, so
:func:`grading_components` returns all M projections of a matrix at once,
as one discrete Fourier transform over its orbit under A;
:func:`grading_component` and :func:`grading_support` read that stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lie_core import (
    ShapeMismatchError,
    as_complex,
    b_transpose,
    identity,
    max_abs,
    structure_matrix,
)

TYPE_GL_INNER = "gl_inner"
TYPE_SOSP_I = "sosp_I"
TYPE_SOSP_II = "sosp_II"
TYPE_GL_OUTER_II = "gl_outer_II"
TYPE_GL_OUTER_III = "gl_outer_III"

GRADATION_TYPES = (TYPE_GL_INNER, TYPE_SOSP_I, TYPE_SOSP_II, TYPE_GL_OUTER_II, TYPE_GL_OUTER_III)

_GL_TYPES = (TYPE_GL_INNER, TYPE_GL_OUTER_II, TYPE_GL_OUTER_III)
_SOSP_TYPES = (TYPE_SOSP_I, TYPE_SOSP_II)
OUTER_TYPES = (TYPE_GL_OUTER_II, TYPE_GL_OUTER_III)
PALINDROMIC_TYPES = (TYPE_SOSP_I, TYPE_GL_OUTER_II)
FIXED_FIRST_TYPES = (TYPE_SOSP_II, TYPE_GL_OUTER_III)

DEFAULT_ENUM_CAP = 20000


class SpecError(ValueError):
    """A gradation spec violates its defining constraints."""


class EnumerationCapError(RuntimeError):
    """Enumeration would exceed the configured cap."""


@dataclass(frozen=True)
class GradationSpec:
    """Combinatorial data of a nontrivial gradation (p >= 2)."""

    family: str
    n: int
    gradation_type: str
    M: int
    n_list: tuple[int, ...]
    k_list: tuple[int, ...]
    phase_offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "n_list", tuple(int(v) for v in self.n_list))
        object.__setattr__(self, "k_list", tuple(int(v) for v in self.k_list))

    @property
    def p(self) -> int:
        return len(self.n_list)

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "type": self.gradation_type,
            "M": self.M,
            "n_list": list(self.n_list),
            "k_list": list(self.k_list),
            "phase_offset": self.phase_offset,
        }


@dataclass(frozen=True)
class TrivialSpec:
    """The A = id gradation: everything sits in residue class zero."""

    family: str
    n: int
    M: int = 1

    @property
    def p(self) -> int:
        return 1

    @property
    def n_list(self) -> tuple[int, ...]:
        return (self.n,)

    def to_json(self) -> dict:
        return {"family": self.family, "n": self.n, "type": "trivial", "M": self.M}


def _json_int(value, name: str) -> int:
    """A JSON integer; a bool or a non-integral number raises TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be a JSON integer, got {value!r}")
    return value


def spec_from_json(data: dict) -> GradationSpec | TrivialSpec:
    if not isinstance(data, dict):
        raise TypeError(f"a spec is a JSON object, got {type(data).__name__}")
    if data.get("type") == "trivial":
        return TrivialSpec(family=data["family"], n=_json_int(data["n"], "n"),
                           M=_json_int(data.get("M", 1), "M"))
    return GradationSpec(
        family=data["family"],
        n=_json_int(data["n"], "n"),
        gradation_type=data["type"],
        M=_json_int(data["M"], "M"),
        n_list=tuple(_json_int(v, "n_list entry") for v in data["n_list"]),
        k_list=tuple(_json_int(v, "k_list entry") for v in data["k_list"]),
        phase_offset=float(data.get("phase_offset", 0.0)),
    )


def data_modulus(gradation_type: str, M: int) -> int:
    """The modulus the block data is read under: N = M/2 for the outer
    types, M for the others."""
    return M // 2 if gradation_type in OUTER_TYPES else M


def _mirrored(gradation_type: str, seq: tuple) -> bool:
    """Whether seq reads the same backwards, past the first entry for the
    fixed-first types; gl_inner imposes no shape."""
    if gradation_type in FIXED_FIRST_TYPES:
        seq = seq[1:]
    elif gradation_type not in PALINDROMIC_TYPES:
        return True
    return seq == seq[::-1]


def required_offset(gradation_type: str, M: int, k_list) -> float:
    """Phase offset forced by the type: 1/2 for a palindromic type whenever
    its modulus minus sum(k) is odd, zero otherwise."""
    if gradation_type in PALINDROMIC_TYPES and (data_modulus(gradation_type, M) - sum(k_list)) % 2:
        return 0.5
    return 0.0


def make_spec(family: str, gradation_type: str, M: int, n_list, k_list) -> GradationSpec:
    """Build a spec with the type-required phase offset filled in."""
    return GradationSpec(
        family=family,
        n=sum(n_list),
        gradation_type=gradation_type,
        M=M,
        n_list=tuple(n_list),
        k_list=tuple(k_list),
        phase_offset=required_offset(gradation_type, M, k_list),
    )


def validate_spec(spec) -> list[str]:
    """Return the list of violated constraints (empty means valid)."""
    if isinstance(spec, TrivialSpec):
        out = []
        if spec.family not in ("gl", "sl", "so", "sp"):
            out.append(f"family: unknown family {spec.family!r}")
        if spec.n < 1:
            out.append("n_positive: n must be positive")
        if spec.M < 1:
            out.append("M_positive: M must be positive")
        if spec.family == "sp" and spec.n % 2:
            out.append("sp_even_n: sp_n requires even n")
        return out

    v: list[str] = []
    t = spec.gradation_type
    p = spec.p
    nl, kl = spec.n_list, spec.k_list
    sk = sum(kl)

    if spec.family not in ("gl", "sl", "so", "sp"):
        v.append(f"family: unknown family {spec.family!r}")
        return v
    if t not in GRADATION_TYPES:
        v.append(f"type: unknown gradation type {t!r}")
        return v
    if t in _GL_TYPES and spec.family not in ("gl", "sl"):
        v.append(f"family_type: type {t} requires family gl or sl")
    if t in _SOSP_TYPES and spec.family not in ("so", "sp"):
        v.append(f"family_type: type {t} requires family so or sp")
    if spec.M < 1:
        v.append("M_positive: M must be positive")
    if p < 2:
        v.append("p_minimum: p >= 2 (p = 1 is the trivial gradation)")
    if len(kl) != p - 1:
        v.append("k_length: k_list must have p - 1 entries")
        return v
    if any(x < 1 for x in nl):
        v.append("n_positive_entries: every n_alpha must be positive")
    if any(x < 1 for x in kl):
        v.append("k_positive_entries: every k_alpha must be positive")
    if sum(nl) != spec.n:
        v.append("n_sum: block sizes must sum to n")
    if spec.family == "sp" and spec.n % 2:
        v.append("sp_even_n: sp_n requires even n")
    if v:
        return v

    if spec.phase_offset not in (0.0, 0.5):
        v.append("phase_offset_value: phase offset must be 0 or 1/2")
    elif spec.phase_offset != required_offset(t, spec.M, kl):
        v.append("phase_offset_mismatch: offset inconsistent with type parity rule")

    if t in OUTER_TYPES and spec.M % 2:
        v.append("M_even: outer gradations require even M")
        return v
    if t == TYPE_SOSP_II:
        if spec.M % 2:
            v.append("M_even: type sosp_II requires even M")
        if p % 2:
            v.append("p_even: type sosp_II requires even p")

    mod = data_modulus(t, spec.M)
    mod_name = "N = M/2" if t in OUTER_TYPES else "M"
    if t in FIXED_FIRST_TYPES:
        if sk + kl[0] != mod:
            v.append(f"k_sum_exact: sum(k) + k_1 = {mod_name} is required")
        if not _mirrored(t, nl):
            v.append("n_palindrome_tail: n_{p-a+2} = n_a (a >= 2) is required")
        if not _mirrored(t, kl):
            v.append("k_palindrome_tail: k_{p-a+1} = k_a (2 <= a <= p-1) is required")
    else:
        if sk >= mod:
            v.append(f"k_sum_bound: sum(k) < {mod_name} is required")
        if not _mirrored(t, nl):
            v.append("n_palindrome: n_{p-a+1} = n_a is required")
        if not _mirrored(t, kl):
            v.append("k_palindrome: k_{p-a} = k_a is required")

    # the parity each family's B form imposes on the blocks it covers
    if t == TYPE_SOSP_I and spec.family == "sp" and p % 2 == 1 and nl[(p - 1) // 2] % 2:
        v.append("sp_middle_even: odd p requires even middle block for sp")
    if t == TYPE_SOSP_II and spec.family == "sp" and p % 2 == 0 and (nl[0] % 2 or nl[p // 2] % 2):
        v.append("sp_fixed_even: blocks carrying the K form must be even for sp")
    if t == TYPE_GL_OUTER_II and spec.n % 2:
        v.append("n_even: B = K_n requires even n")
    if t == TYPE_GL_OUTER_III:
        if (spec.n - nl[0]) % 2:
            v.append("k_block_even: n - n_1 must be even for B = diag(J, K)")
        if p % 2 == 0 and nl[p // 2] % 2:
            v.append("middle_even: even p requires an even self-paired block")
    return v


def check_valid(spec) -> None:
    violations = validate_spec(spec)
    if violations:
        raise SpecError("; ".join(violations))


def compute_m(spec: GradationSpec) -> tuple[int, ...]:
    """The decreasing exponent sequence m_1 > ... > m_p.

    m_alpha = sum(k_alpha..k_{p-1}) + m_p with the base m_p fixed per shape
    group: ceil((modulus - sum(k)) / 2) for the palindromic types, k_1 for
    the fixed-first types; for gl_inner any base gives the same
    automorphism, so 1 is used.
    """
    check_valid(spec)
    t = spec.gradation_type
    kl = spec.k_list
    if t in PALINDROMIC_TYPES:
        mp = (data_modulus(t, spec.M) - sum(kl) + 1) // 2
    elif t in FIXED_FIRST_TYPES:
        mp = kl[0]
    else:
        mp = 1
    tails = [sum(kl[a:]) + mp for a in range(len(kl))]
    return tuple(tails + [mp])


def structure_for_spec(spec: GradationSpec) -> np.ndarray | None:
    """The global structure matrix B tied to the spec's type (None for gl_inner).

    B is block diagonal over the first block and the rest, of kinds (J, J)
    for so, (K, K) for sp and (J, K) for the outer types; a palindromic
    type takes the second kind over the whole: J_n, K_n, or
    diag(J_{n_1}, K_{n-n_1}) for gl_outer_III.
    """
    t = spec.gradation_type
    if t == TYPE_GL_INNER:
        return None
    if t in OUTER_TYPES:
        first, rest = "J", "K"
    else:
        first = rest = "J" if spec.family == "so" else "K"
    if t in PALINDROMIC_TYPES:
        return structure_matrix(rest, spec.n)
    n1 = spec.n_list[0]
    b = np.zeros((spec.n, spec.n), dtype=complex)
    b[:n1, :n1] = structure_matrix(first, n1)
    b[n1:, n1:] = structure_matrix(rest, spec.n - n1)
    return b


def build_h(spec: GradationSpec) -> np.ndarray:
    """Diagonal generator h with mu_alpha = exp(2 pi i (m_alpha + offset)/M).

    For the so/sp and outer types h is rescaled by a unit-modulus constant so
    that b_transpose(h, B) @ h = I exactly; the rescaling does not change the
    generated automorphism since conjugation and the outer twist are both
    insensitive to scaling h.
    """
    check_valid(spec)
    m = compute_m(spec)
    phases = [(mv + spec.phase_offset) / spec.M for mv in m]
    diag = np.concatenate(
        [np.full(na, np.exp(2j * np.pi * ph)) for na, ph in zip(spec.n_list, phases)]
    )
    h = np.diag(diag)
    b = structure_for_spec(spec)
    if b is not None:
        scale = (b_transpose(h, b) @ h)[0, 0]
        h = h / np.sqrt(scale)
    return h


@dataclass(frozen=True)
class Automorphism:
    """Finite-order automorphism generating a gradation.

    Inner (no B): x -> h x h^-1.  Outer: x -> -h (^B x) h^-1.
    """

    h: np.ndarray
    order: int
    B: np.ndarray | None = None

    @property
    def h_diag(self) -> np.ndarray:
        return np.diagonal(self.h)


def build_automorphism(spec) -> Automorphism:
    if isinstance(spec, TrivialSpec):
        return Automorphism(h=identity(spec.n), order=spec.M)
    check_valid(spec)
    h = build_h(spec)
    if spec.gradation_type in OUTER_TYPES:
        return Automorphism(h=h, order=spec.M, B=structure_for_spec(spec))
    return Automorphism(h=h, order=spec.M)


def _operand(aut: Automorphism, x) -> np.ndarray:
    x = as_complex(x)
    n = aut.h.shape[0]
    if x.shape[-2:] != (n, n):
        raise ShapeMismatchError(f"expected trailing shape {(n, n)}, got {x.shape}")
    return x


def apply_automorphism(aut: Automorphism, x) -> np.ndarray:
    x = _operand(aut, x)
    d = aut.h_diag
    ratio = d[:, None] / d[None, :]
    if aut.B is None:
        return ratio * x
    return -ratio * b_transpose(x, aut.B)


def grading_components(x, aut: Automorphism) -> np.ndarray:
    """All M residue components of x, stacked on a new leading axis.

    Component k is the discrete Fourier sum
    P_k(x) = (1/M) sum_j exp(-2 pi i j k / M) A^j(x), computed for every k
    by one contraction of the orbit x, A(x), ..., A^{M-1}(x) with the M x M
    DFT matrix.  Leading axes of x broadcast: the result has shape
    (M, *x.shape).
    """
    x = _operand(aut, x)
    M = aut.order
    orbit = np.empty((M,) + x.shape, dtype=complex)
    orbit[0] = x
    for j in range(1, M):
        orbit[j] = apply_automorphism(aut, orbit[j - 1])
    # jk reduced mod M keeps every phase angle below 2 pi, where exp is
    # accurate to an ulp; the unreduced angle reaches 2 pi (M - 1)^2 / M
    jk = np.outer(np.arange(M), np.arange(M)) % M
    dft = np.exp(-2j * np.pi * jk / M) / M
    return (dft @ orbit.reshape(M, -1)).reshape(orbit.shape)


def grading_component(x, k: int, aut: Automorphism) -> np.ndarray:
    """Projection onto the residue-k subspace (k taken mod M)."""
    return grading_components(x, aut)[k % aut.order]


def grading_support(x, aut: Automorphism) -> list[int]:
    """Residues k whose component of x exceeds 1e-9."""
    parts = grading_components(x, aut)
    return [k for k in range(aut.order) if max_abs(parts[k]) > 1e-9]


@dataclass(frozen=True)
class GradingIndexTable:
    """Block grading indices.

    Inner types carry a single residue per block; outer types carry the
    pair (low, high) with low in [0, N) and high = low + N in [N, 2N),
    N = M/2, the two being distinguished by the symmetry of the block
    under ^B: for alpha <= beta the condition x = -(^B x) selects the low
    index and x = +(^B x) the high one, with the roles swapped for
    alpha > beta.
    """

    M: int
    outer: bool
    entries: tuple  # [p][p] ints (inner) or (low, high) pairs (outer)

    def residues(self, a: int, b: int) -> tuple[int, ...]:
        """The residues block (a, b) carries: one for an inner type, the
        (low, high) pair for an outer type."""
        entry = self.entries[a][b]
        return entry if self.outer else (entry,)


def block_index_table(spec: GradationSpec) -> GradingIndexTable:
    check_valid(spec)
    p = spec.p
    kl = spec.k_list
    outer = spec.gradation_type in OUTER_TYPES
    modulus = spec.M

    def base_index(a: int, b: int) -> int:
        if a == b:
            return 0
        if a < b:
            return sum(kl[a:b]) % modulus
        return (-sum(kl[b:a])) % modulus

    if not outer:
        entries = tuple(tuple(base_index(a, b) for b in range(p)) for a in range(p))
        return GradingIndexTable(M=modulus, outer=False, entries=entries)

    N = data_modulus(spec.gradation_type, modulus)
    rows = []
    for a in range(p):
        row = []
        for b in range(p):
            base = base_index(a, b)
            member = base if base < N else (base + N) % modulus
            row.append((member, member + N))
        rows.append(tuple(row))
    return GradingIndexTable(M=modulus, outer=True, entries=tuple(rows))


def _compositions(total: int, parts: int):
    """Ordered compositions of `total` into `parts` positive integers."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _k_candidates(parts: int, bound: int):
    """Positive integer tuples of given length with sum <= bound."""
    if parts == 0:
        if bound >= 0:
            yield ()
        return
    for first in range(1, bound - parts + 2):
        for rest in _k_candidates(parts - 1, bound - first):
            yield (first,) + rest


def enumerate_specs(family: str, n: int, M: int, cap: int = DEFAULT_ENUM_CAP) -> list:
    """All valid specs for the family at size n and order M, deduplicated.

    The trivial gradation is included whenever it is itself valid.  Inner
    gl specs appear once per (n_list, k_list) since the exponent base is
    canonical.  Output is sorted by (type, p, n_list, k_list).
    """
    if family not in ("gl", "sl", "so", "sp"):
        raise ValueError(f"unknown family {family!r}")
    if n < 1 or M < 1:
        raise ValueError(f"need n >= 1 and M >= 1, got n = {n}, M = {M}")
    types = _GL_TYPES if family in ("gl", "sl") else _SOSP_TYPES
    found: list[GradationSpec] = []
    candidates = 0
    for t in types:
        if t in OUTER_TYPES and M % 2:
            continue
        # sum(k) < modulus, and sum(k) + k_1 = modulus implies the same
        bound = data_modulus(t, M) - 1
        for p in range(2, n + 1):
            for nl in _compositions(n, p):
                if not _mirrored(t, nl):
                    continue
                for klc in _k_candidates(p - 1, bound):
                    candidates += 1
                    if candidates > 200 * cap:
                        raise EnumerationCapError(
                            f"enumeration candidate space exceeds cap of {cap} specs"
                        )
                    cand = make_spec(family, t, M, nl, klc)
                    if not validate_spec(cand):
                        found.append(cand)
                        if len(found) > cap:
                            raise EnumerationCapError(
                                f"enumeration exceeded cap of {cap} specs"
                            )
    type_rank = {t: i for i, t in enumerate(GRADATION_TYPES)}
    found.sort(key=lambda s: (type_rank[s.gradation_type], s.p, s.n_list, s.k_list))
    out: list = []
    trivial = TrivialSpec(family=family, n=n, M=M)
    if not validate_spec(trivial):
        out.append(trivial)
    out.extend(found)
    return out


def minimal_grade(spec) -> int:
    """Smallest positive grading index carried by any block; this is the
    largest admissible L for Toda data on the gradation."""
    if isinstance(spec, TrivialSpec):
        return spec.M
    table = block_index_table(spec)
    positive = [r for a in range(spec.p) for b in range(spec.p) for r in table.residues(a, b) if r > 0]
    return min(positive) if positive else spec.M
