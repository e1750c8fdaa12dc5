import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looptoda import gradation as gr
from looptoda import lie_core as lc


def E(i, j, n):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


S1 = gr.make_spec("gl", gr.TYPE_GL_INNER, 2, (2, 1), (1,))
SO4 = gr.make_spec("so", gr.TYPE_SOSP_I, 4, (1, 2, 1), (1, 1))


class TestValidate:
    def test_s1_valid(self):
        assert gr.validate_spec(S1) == []

    def test_so4_valid(self):
        assert gr.validate_spec(SO4) == []

    def test_broken_palindrome(self):
        bad = gr.make_spec("so", gr.TYPE_SOSP_I, 3, (1, 2), (1,))
        names = [v.split(":")[0] for v in gr.validate_spec(bad)]
        assert "n_palindrome" in names

    def test_k_sum_bound(self):
        bad = gr.make_spec("gl", gr.TYPE_GL_INNER, 2, (1, 1, 1), (1, 1))
        names = [v.split(":")[0] for v in gr.validate_spec(bad)]
        assert "k_sum_bound" in names

    def test_sosp_ii_needs_even_p(self):
        bad = gr.make_spec("so", gr.TYPE_SOSP_II, 3, (1, 1, 1), (1, 1))
        names = [v.split(":")[0] for v in gr.validate_spec(bad)]
        assert "p_even" in names or "M_even" in names

    def test_sosp_ii_exact_sum(self):
        good = gr.make_spec("so", gr.TYPE_SOSP_II, 2, (2, 2), (1,))
        assert gr.validate_spec(good) == []
        bad = gr.make_spec("so", gr.TYPE_SOSP_II, 4, (2, 2), (1,))
        names = [v.split(":")[0] for v in gr.validate_spec(bad)]
        assert "k_sum_exact" in names

    def test_outer_ii_needs_even_n(self):
        bad = gr.make_spec("gl", gr.TYPE_GL_OUTER_II, 6, (1, 1, 1), (1, 1))
        names = [v.split(":")[0] for v in gr.validate_spec(bad)]
        assert "n_even" in names

    def test_sp_odd_middle(self):
        good = gr.make_spec("sp", gr.TYPE_SOSP_I, 4, (1, 2, 1), (1, 1))
        assert gr.validate_spec(good) == []
        # with palindromic sizes an odd middle block forces odd total n
        bad = gr.make_spec("sp", gr.TYPE_SOSP_I, 4, (2, 1, 2), (1, 1))
        assert gr.validate_spec(bad) != []

    def test_family_type_compat(self):
        bad = gr.GradationSpec("so", 3, gr.TYPE_GL_INNER, 2, (2, 1), (1,))
        names = [v.split(":")[0] for v in gr.validate_spec(bad)]
        assert "family_type" in names

    def test_phase_offset_mismatch(self):
        bad = gr.GradationSpec("so", 2, gr.TYPE_SOSP_I, 3, (1, 1), (2,), phase_offset=0.0)
        names = [v.split(":")[0] for v in gr.validate_spec(bad)]
        assert "phase_offset_mismatch" in names

    def test_trivial_spec_valid(self):
        assert gr.validate_spec(gr.TrivialSpec("gl", 3)) == []
        assert gr.validate_spec(gr.TrivialSpec("sp", 3)) != []

    # the full violation list, byte for byte, for one or more invalid specs
    # of each type; outer types name their bound over N = M/2 and stop at odd M
    FULL_VIOLATIONS = [
        (gr.make_spec("gl", gr.TYPE_GL_INNER, 2, (1, 1, 1), (1, 1)), [
            "k_sum_bound: sum(k) < M is required",
        ]),
        (gr.make_spec("sp", gr.TYPE_SOSP_I, 3, (2, 1, 1), (1, 2)), [
            "k_sum_bound: sum(k) < M is required",
            "n_palindrome: n_{p-a+1} = n_a is required",
            "k_palindrome: k_{p-a} = k_a is required",
            "sp_middle_even: odd p requires even middle block for sp",
        ]),
        (gr.make_spec("sp", gr.TYPE_SOSP_II, 5, (1, 2, 3, 4), (1, 2, 3)), [
            "M_even: type sosp_II requires even M",
            "k_sum_exact: sum(k) + k_1 = M is required",
            "n_palindrome_tail: n_{p-a+2} = n_a (a >= 2) is required",
            "k_palindrome_tail: k_{p-a+1} = k_a (2 <= a <= p-1) is required",
            "sp_fixed_even: blocks carrying the K form must be even for sp",
        ]),
        (gr.make_spec("so", gr.TYPE_SOSP_II, 3, (1, 1, 1), (1, 1)), [
            "M_even: type sosp_II requires even M",
            "p_even: type sosp_II requires even p",
        ]),
        (gr.make_spec("gl", gr.TYPE_GL_OUTER_II, 4, (1, 2), (2,)), [
            "k_sum_bound: sum(k) < N = M/2 is required",
            "n_palindrome: n_{p-a+1} = n_a is required",
            "n_even: B = K_n requires even n",
        ]),
        (gr.make_spec("gl", gr.TYPE_GL_OUTER_II, 10, (2, 1, 1), (1, 2)), [
            "n_palindrome: n_{p-a+1} = n_a is required",
            "k_palindrome: k_{p-a} = k_a is required",
        ]),
        (gr.make_spec("gl", gr.TYPE_GL_OUTER_III, 6, (1, 2, 3), (1, 2)), [
            "k_sum_exact: sum(k) + k_1 = N = M/2 is required",
            "n_palindrome_tail: n_{p-a+2} = n_a (a >= 2) is required",
            "k_block_even: n - n_1 must be even for B = diag(J, K)",
        ]),
        (gr.make_spec("gl", gr.TYPE_GL_OUTER_III, 8, (2, 1, 3, 2), (1, 1, 2)), [
            "k_sum_exact: sum(k) + k_1 = N = M/2 is required",
            "n_palindrome_tail: n_{p-a+2} = n_a (a >= 2) is required",
            "k_palindrome_tail: k_{p-a+1} = k_a (2 <= a <= p-1) is required",
            "middle_even: even p requires an even self-paired block",
        ]),
        (gr.make_spec("gl", gr.TYPE_GL_OUTER_II, 5, (1, 2), (3,)), [
            "M_even: outer gradations require even M",
        ]),
        (gr.make_spec("gl", gr.TYPE_GL_OUTER_III, 5, (1, 2, 3), (1, 2)), [
            "M_even: outer gradations require even M",
        ]),
        (gr.GradationSpec("sl", 3, gr.TYPE_GL_OUTER_II, 5, (1, 2), (3,)), [
            "phase_offset_mismatch: offset inconsistent with type parity rule",
            "M_even: outer gradations require even M",
        ]),
    ]

    @pytest.mark.parametrize("spec, expected", FULL_VIOLATIONS)
    def test_full_violation_list(self, spec, expected):
        assert gr.validate_spec(spec) == expected


class TestComputeM:
    def test_gl_inner_base_one(self):
        assert gr.compute_m(S1) == (2, 1)

    def test_so_even_case(self):
        assert gr.compute_m(SO4) == (3, 2, 1)

    def test_sosp_ii_p2(self):
        spec = gr.make_spec("so", gr.TYPE_SOSP_II, 6, (1, 1), (3,))
        assert gr.compute_m(spec) == (6, 3)

    def test_offset_case(self):
        spec = gr.make_spec("so", gr.TYPE_SOSP_I, 3, (1, 1), (2,))
        assert spec.phase_offset == 0.5
        assert gr.compute_m(spec) == (3, 1)


class TestBuildH:
    def test_s1(self):
        assert lc.max_abs(gr.build_h(S1) - np.diag([1, 1, -1])) < 1e-14

    def test_so4(self):
        h = gr.build_h(SO4)
        assert lc.max_abs(h - np.diag([-1j, -1, -1, 1j])) < 1e-14
        assert lc.max_abs(lc.b_transpose(h, "J") @ h - np.eye(4)) <= 1e-12

    def test_sosp_h_in_orthogonal_group(self):
        # including the half-offset representation after rescaling
        for spec in (
            gr.make_spec("so", gr.TYPE_SOSP_I, 3, (1, 1), (2,)),
            gr.make_spec("so", gr.TYPE_SOSP_I, 5, (2, 1, 2), (1, 1)),
            gr.make_spec("sp", gr.TYPE_SOSP_I, 4, (1, 2, 1), (1, 1)),
        ):
            h = gr.build_h(spec)
            b = gr.structure_for_spec(spec)
            assert lc.max_abs(lc.b_transpose(h, b) @ h - np.eye(spec.n)) < 1e-12

    def test_outer_h_unit_modulus_and_b_relation(self):
        spec = gr.make_spec("gl", gr.TYPE_GL_OUTER_II, 4, (1, 1), (1,))
        h = gr.build_h(spec)
        assert lc.max_abs(np.abs(np.diagonal(h)) - 1.0) < 1e-14
        b = gr.structure_for_spec(spec)
        assert lc.max_abs(lc.b_transpose(h, b) @ h - np.eye(2)) < 1e-12

    def test_h_power_m_is_sign(self):
        for spec in (S1, SO4,
                     gr.make_spec("so", gr.TYPE_SOSP_I, 3, (1, 1), (2,)),
                     gr.make_spec("sp", gr.TYPE_SOSP_II, 2, (2, 2), (1,)),
                     gr.make_spec("gl", gr.TYPE_GL_OUTER_II, 4, (1, 1), (1,))):
            h = gr.build_h(spec)
            power = np.linalg.matrix_power(h, spec.M)
            sign = power[0, 0]
            assert abs(abs(sign) - 1.0) < 1e-12
            assert min(lc.max_abs(power - np.eye(spec.n)),
                       lc.max_abs(power + np.eye(spec.n))) < 1e-12


class TestAutomorphism:
    def test_inner_action_on_elementary(self):
        aut = gr.build_automorphism(S1)
        out = gr.apply_automorphism(aut, E(0, 2, 3))
        assert lc.max_abs(out + E(0, 2, 3)) < 1e-14

    def test_finite_order(self):
        rng = np.random.default_rng(0)
        for spec in (S1, SO4,
                     gr.make_spec("sp", gr.TYPE_SOSP_II, 2, (2, 2), (1,)),
                     gr.make_spec("gl", gr.TYPE_GL_OUTER_II, 4, (1, 1), (1,)),
                     gr.make_spec("gl", gr.TYPE_GL_OUTER_III, 6, (1, 1, 1), (1, 1))):
            aut = gr.build_automorphism(spec)
            x = rng.standard_normal((spec.n, spec.n)) + 1j * rng.standard_normal((spec.n, spec.n))
            y = x.copy()
            for _ in range(aut.order):
                y = gr.apply_automorphism(aut, y)
            assert lc.max_abs(y - x) < 1e-12

    def test_outer_simple_twist_negates_symmetric(self):
        # h = I, B = J: elements with ^J x = x are flipped in sign
        n = 3
        aut = gr.Automorphism(h=np.eye(n, dtype=complex), order=2, B=lc.skew_identity(n))
        x = np.random.default_rng(1).standard_normal((n, n))
        x = (x + lc.b_transpose(x, "J")) / 2
        assert lc.max_abs(gr.apply_automorphism(aut, x) + x) < 1e-13

    def test_so_membership_preserved(self):
        # so_4 is cut out by ^J x = -x, and the automorphism keeps it
        aut = gr.build_automorphism(SO4)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 4))
        x = (x - lc.b_transpose(x, "J")) / 2.0
        image = gr.apply_automorphism(aut, x)
        assert lc.max_abs(lc.b_transpose(image, "J") + image) <= 1e-12


class TestGradingComponents:
    def test_resolution_of_identity(self):
        rng = np.random.default_rng(3)
        aut = gr.build_automorphism(SO4)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        total = sum(gr.grading_component(x, k, aut) for k in range(4))
        assert lc.max_abs(total - x) < 1e-13

    def test_s1_projections(self):
        aut = gr.build_automorphism(S1)
        x = E(0, 2, 3)
        assert lc.max_abs(gr.grading_component(x, 1, aut) - x) < 1e-14
        assert lc.max_abs(gr.grading_component(x, 0, aut)) < 1e-14

    def test_trivial_projector(self):
        aut = gr.build_automorphism(gr.TrivialSpec("gl", 3, M=4))
        x = np.random.default_rng(4).standard_normal((3, 3))
        assert lc.max_abs(gr.grading_component(x, 0, aut) - x) < 1e-14
        assert lc.max_abs(gr.grading_component(x, 2, aut)) < 1e-14

    def test_eigenrelation(self):
        rng = np.random.default_rng(5)
        aut = gr.build_automorphism(SO4)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        for k in range(4):
            pk = gr.grading_component(x, k, aut)
            out = gr.apply_automorphism(aut, pk)
            assert lc.max_abs(out - np.exp(2j * np.pi * k / 4) * pk) < 1e-12


ORACLE_SPECS = (
    gr.make_spec("gl", gr.TYPE_GL_INNER, 5, (1, 1, 2), (1, 2)),
    gr.make_spec("sp", gr.TYPE_SOSP_I, 8, (1, 4, 1), (1, 1)),
    gr.make_spec("so", gr.TYPE_SOSP_II, 6, (1, 1, 2, 1), (1, 2, 2)),
    gr.make_spec("gl", gr.TYPE_GL_OUTER_II, 6, (1, 2, 1), (1, 1)),
    gr.make_spec("gl", gr.TYPE_GL_OUTER_III, 8, (1, 2, 2), (1, 2)),
    gr.TrivialSpec("gl", 3, M=4),
)


class TestGradingComponentsOracle:
    """The stacked projector against the defining sum, written out."""

    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.to_json()["type"])
    def test_matches_fourier_sum(self, spec):
        aut = gr.build_automorphism(spec)
        M, n = aut.order, spec.n
        rng = np.random.default_rng(M)
        x = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        parts = gr.grading_components(x, aut)
        assert parts.shape == (M, 3, n, n)
        for k in range(M):
            expected = np.zeros_like(x)
            power = x
            for j in range(M):
                expected = expected + np.exp(-2j * np.pi * j * k / M) * power
                power = gr.apply_automorphism(aut, power)
            assert lc.max_abs(parts[k] - expected / M) < 1e-13
            assert np.array_equal(gr.grading_component(x, k, aut), parts[k])

    def test_rejects_wrong_shape_at_order_one(self):
        aut = gr.build_automorphism(gr.TrivialSpec("gl", 3, M=1))
        with pytest.raises(lc.ShapeMismatchError):
            gr.grading_components(np.zeros((2, 2)), aut)


class TestIndexTable:
    def test_s1_table(self):
        t = gr.block_index_table(S1)
        assert t.entries == ((0, 1), (1, 0))

    def test_so4_entries(self):
        t = gr.block_index_table(SO4)
        assert t.residues(0, 2) == (2,)
        assert t.residues(2, 0) == (2,)  # -2 mod 4

    def test_antisymmetry_mod_m(self):
        spec = gr.make_spec("gl", gr.TYPE_GL_INNER, 5, (1, 2, 1), (1, 2))
        t = gr.block_index_table(spec)
        for a in range(3):
            assert t.residues(a, a) == (0,)
            for b in range(3):
                assert (t.residues(a, b)[0] + t.residues(b, a)[0]) % 5 == 0

    def test_table_matches_projector(self):
        rng = np.random.default_rng(6)
        spec = gr.make_spec("gl", gr.TYPE_GL_INNER, 5, (2, 1, 2), (1, 2))
        aut = gr.build_automorphism(spec)
        t = gr.block_index_table(spec)
        offs = np.cumsum((0,) + spec.n_list)
        for a in range(3):
            for b in range(3):
                z = np.zeros((5, 5), dtype=complex)
                z[offs[a]:offs[a + 1], offs[b]:offs[b + 1]] = rng.standard_normal(
                    (spec.n_list[a], spec.n_list[b]))
                assert gr.grading_support(z, aut) == list(t.residues(a, b))

    def test_outer_pair_ranges(self):
        spec = gr.make_spec("gl", gr.TYPE_GL_OUTER_II, 8, (1, 2, 1), (1, 1))
        t = gr.block_index_table(spec)
        for a in range(3):
            for b in range(3):
                low, high = t.residues(a, b)
                assert 0 <= low < t.M // 2 and high == low + t.M // 2

    def test_outer_sign_rule(self):
        rng = np.random.default_rng(7)
        spec = gr.make_spec("gl", gr.TYPE_GL_OUTER_III, 6, (2, 1, 1), (1, 1))
        aut = gr.build_automorphism(spec)
        t = gr.block_index_table(spec)
        B = gr.structure_for_spec(spec)
        D = np.linalg.inv(B) @ B.T
        offs = np.cumsum((0,) + spec.n_list)
        for a in range(3):
            for b in range(3):
                factor = (D[offs[a], offs[a]] * D[offs[b], offs[b]]).real
                z = np.zeros((4, 4), dtype=complex)
                z[offs[a]:offs[a + 1], offs[b]:offs[b + 1]] = rng.standard_normal(
                    (spec.n_list[a], spec.n_list[b]))
                low, high = t.residues(a, b)
                for sigma in (-1, 1):
                    xs = z + sigma * factor * lc.b_transpose(z, B)
                    if lc.max_abs(xs) < 1e-12:
                        continue
                    # x = -(^B x) selects the low index for a <= b, the high one for a > b
                    want = low if (sigma == -1) == (a <= b) else high
                    assert gr.grading_support(xs, aut) == [want]


class TestEnumerate:
    def test_gl_2_2(self):
        specs = gr.enumerate_specs("gl", 2, 2)
        jsons = [s.to_json() for s in specs]
        assert {"family": "gl", "n": 2, "type": "trivial", "M": 2} in jsons
        assert any(
            s.get("type") == "gl_inner" and s.get("n_list") == [1, 1] and s.get("k_list") == [1]
            for s in jsons
        )

    def test_m1_trivial_only(self):
        for family in ("gl", "so"):
            specs = gr.enumerate_specs(family, 3, 1)
            assert len(specs) == 1
            assert isinstance(specs[0], gr.TrivialSpec)

    def test_so_2_3_admits_solutions(self):
        specs = [s for s in gr.enumerate_specs("so", 2, 3) if isinstance(s, gr.GradationSpec)]
        assert specs  # palindrome and parity constraints admit p = 2 here
        for s in specs:
            assert gr.validate_spec(s) == []

    def test_deterministic_order(self):
        a = gr.enumerate_specs("so", 4, 4)
        b = gr.enumerate_specs("so", 4, 4)
        assert [s.to_json() for s in a] == [s.to_json() for s in b]

    def test_cap(self):
        with pytest.raises(gr.EnumerationCapError):
            gr.enumerate_specs("gl", 6, 6, cap=5)

    @staticmethod
    def _generate_and_filter(family, n, M):
        """Reference enumeration: every composition and every k with
        sum(k) <= M, for every type of the family, kept if valid."""
        types = ((gr.TYPE_GL_INNER, gr.TYPE_GL_OUTER_II, gr.TYPE_GL_OUTER_III)
                 if family in ("gl", "sl") else (gr.TYPE_SOSP_I, gr.TYPE_SOSP_II))
        def compositions(total, parts):
            for cuts in itertools.combinations(range(1, total), parts - 1):
                edges = (0,) + cuts + (total,)
                yield tuple(b - a for a, b in zip(edges, edges[1:]))

        found = []
        for t in types:
            for p in range(2, n + 1):
                for nl in compositions(n, p):
                    for kl in (k for total in range(p - 1, M + 1) for k in compositions(total, p - 1)):
                        cand = gr.make_spec(family, t, M, nl, kl)
                        if not gr.validate_spec(cand):
                            found.append(cand)
        rank = {t: i for i, t in enumerate(gr.GRADATION_TYPES)}
        found.sort(key=lambda s: (rank[s.gradation_type], s.p, s.n_list, s.k_list))
        trivial = gr.TrivialSpec(family=family, n=n, M=M)
        return ([] if gr.validate_spec(trivial) else [trivial]) + found

    def test_matches_generate_and_filter(self):
        for family in ("gl", "sl", "so", "sp"):
            for n in range(1, 8):
                for M in range(1, 9):
                    got = [s.to_json() for s in gr.enumerate_specs(family, n, M)]
                    want = [s.to_json() for s in self._generate_and_filter(family, n, M)]
                    assert got == want, (family, n, M)

    def test_outer_sosp_bijection_even_p(self):
        # outer data coincides with the corresponding so/sp data mod N
        for n, M in ((2, 4), (4, 4), (4, 8), (6, 6)):
            outer = {
                (s.n_list, s.k_list)
                for s in gr.enumerate_specs("gl", n, 2 * M)
                if isinstance(s, gr.GradationSpec)
                and s.gradation_type == gr.TYPE_GL_OUTER_II
                and s.p % 2 == 0 and n % 2 == 0
            }
            sosp = {
                (s.n_list, s.k_list)
                for s in gr.enumerate_specs("so", n, M)
                if isinstance(s, gr.GradationSpec)
                and s.gradation_type == gr.TYPE_SOSP_I and s.p % 2 == 0
            }
            if n % 2 == 0:
                assert outer == sosp

    def test_outer_iii_sosp_ii_correspondence(self):
        # type III data matches so-type-II data mod N, up to the parity of
        # the block carrying the symplectic form
        for n, M in ((4, 4), (4, 8), (6, 4)):
            outer = {
                (s.n_list, s.k_list)
                for s in gr.enumerate_specs("gl", n, 2 * M)
                if isinstance(s, gr.GradationSpec)
                and s.gradation_type == gr.TYPE_GL_OUTER_III and s.p % 2 == 0
            }
            sosp = {
                (s.n_list, s.k_list)
                for s in gr.enumerate_specs("so", n, M)
                if isinstance(s, gr.GradationSpec)
                and s.gradation_type == gr.TYPE_SOSP_II
                and s.n_list[len(s.n_list) // 2] % 2 == 0
            }
            assert outer == sosp


class TestBracketClosure:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_random_spec_closure(self, seed):
        rng = np.random.default_rng(seed)
        pool = [s for s in gr.enumerate_specs("so", 4, 4) + gr.enumerate_specs("gl", 4, 4)
                if isinstance(s, gr.GradationSpec)]
        spec = pool[rng.integers(0, len(pool))]
        aut = gr.build_automorphism(spec)
        n, M = spec.n, aut.order
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        k, l = int(rng.integers(0, M)), int(rng.integers(0, M))
        xk = gr.grading_component(x, k, aut)
        yl = gr.grading_component(y, l, aut)
        br = xk @ yl - yl @ xk
        for m in range(M):
            if m != (k + l) % M:
                assert lc.max_abs(gr.grading_component(br, m, aut)) < 1e-12

    def test_zero_component_is_block_diagonal(self):
        rng = np.random.default_rng(8)
        spec = gr.make_spec("gl", gr.TYPE_GL_INNER, 4, (2, 1, 1), (1, 1))
        aut = gr.build_automorphism(spec)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        p0 = gr.grading_component(x, 0, aut)
        offs = np.cumsum((0,) + spec.n_list)
        mask = np.zeros((4, 4), dtype=bool)
        for a in range(3):
            mask[offs[a]:offs[a + 1], offs[a]:offs[a + 1]] = True
        assert lc.max_abs(p0[~mask]) < 1e-13
        assert lc.max_abs((p0 - x)[mask]) < 1e-13


class TestSerialization:
    def test_round_trip(self):
        for spec in (S1, SO4, gr.TrivialSpec("sl", 4, M=3)):
            again = gr.spec_from_json(spec.to_json())
            assert again == spec

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_round_trip_property(self, seed):
        rng = np.random.default_rng(seed)
        pool = (gr.enumerate_specs("gl", 5, 6) + gr.enumerate_specs("so", 5, 4)
                + gr.enumerate_specs("sp", 4, 4) + gr.enumerate_specs("gl", 4, 8))
        spec = pool[rng.integers(0, len(pool))]
        assert gr.spec_from_json(spec.to_json()) == spec

    def test_minimal_grade(self):
        assert gr.minimal_grade(S1) == 1
        spec = gr.make_spec("gl", gr.TYPE_GL_INNER, 4, (2, 2), (2,))
        assert gr.minimal_grade(spec) == 2
