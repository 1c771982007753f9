import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higherchar.characteristics import (
    InteractionFunction,
    _ball_members_of,
    _ball_wm,
    _dual_sphere_total,
    _eval_terms,
    _face_terms_of,
    _sphere_sets,
    _sphere_wm,
    _star_wm,
    _union_weights,
    curvature_profile,
    dual_sphere_sum,
    energy_sum,
    fermi,
    green,
    local_valuation_check,
    sphere_sum,
    valuation_check,
    valuation_values,
    w_m,
    w_m_energized,
    w_m_multi,
    w_m_naive,
)
from higherchar.complexes import Complex, Simplex, SimplexSubset, closure
from higherchar.errors import DomainError, InputError, ResourceBudgetError
from higherchar.generators import random_whitney
from higherchar.topology import ball, star, unit_sphere

from oracles import star_intersection_by_scan
from strategies import random_complexes


def _union_weights_by_pairwise_fold(g, k):
    """Oracle for _union_weights: fold k-tuples pairwise by their running
    union, dropping a tuple once its union leaves g, in (k-1) * |g|^2 steps."""
    members = g.member_bits
    cur = {s.bits: s.weight for s in g.simplices}
    for _ in range(k - 1):
        nxt = {}
        for u, acc in cur.items():
            for s in g.simplices:
                ub = u | s.bits
                if ub in members:
                    nxt[ub] = nxt.get(ub, 0) + acc * s.weight
        cur = nxt
    return cur


class TestWm:
    def test_octahedron(self, octa):
        assert w_m(octa, 1) == 2
        assert w_m(octa, 2) == 2

    def test_k2_wu(self, k2):
        assert w_m(k2, 2) == -1

    def test_path3_wu(self, p3):
        assert w_m(p3, 2) == -1
        # equals chi minus chi of the two endpoints
        assert w_m(p3, 2) == w_m(p3, 1) - 2

    def test_trivial_cases(self):
        assert w_m(Complex.empty(), 2) == 0
        one = closure([[1]])
        for m in (1, 2, 3, 4):
            assert w_m(one, m) == 1

    def test_m_validation(self, k2):
        with pytest.raises(InputError):
            w_m(k2, 0)

    @given(random_complexes())
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_naive_and_closed_shortcut(self, g):
        for m in (1, 2, 3):
            expected = w_m_naive(g, m)
            assert w_m(g, m) == expected
            assert w_m_naive(g, m, assume_closed=True) == expected

    @given(random_complexes(max_vertices=5, max_edges=5))
    @settings(max_examples=25, deadline=None)
    def test_closed_form_matches_face_terms_and_naive(self, g):
        # on a complex w_m is the sum of w(z) * N(z)^m, not the face terms
        terms = _face_terms_of(s.bits for s in g.simplices)
        for m in (1, 2, 3, 4, 5):
            assert w_m(g, m) == _eval_terms(terms, m) == w_m_naive(g, m, assume_closed=True)

    @given(random_complexes(max_vertices=6, max_edges=9))
    @settings(max_examples=20, deadline=None)
    def test_subset_evaluation_matches_naive(self, g):
        from higherchar.cli import random_open_set
        from higherchar.generators import SplitMix64

        rng = SplitMix64(3)
        for _ in range(4):
            u = random_open_set(g, rng)
            for m in (1, 2, 3):
                assert w_m(u, m) == w_m_naive(u, m)

    @given(random_complexes(max_vertices=6, max_edges=9), st.data())
    @settings(max_examples=50, deadline=None)
    def test_open_and_arbitrary_subsets_match_naive(self, g, data):
        from higherchar.cli import random_open_set
        from higherchar.generators import SplitMix64

        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        mask = data.draw(st.integers(min_value=0, max_value=2 ** len(g) - 1))
        arbitrary = SimplexSubset(
            g, [s for i, s in enumerate(g.simplices) if mask >> i & 1]
        )
        for u in (random_open_set(g, SplitMix64(seed)), arbitrary):
            for m in (1, 2, 3, 4):
                assert w_m(u, m) == w_m_naive(u, m)

    def test_naive_budget(self, octa):
        with pytest.raises(ResourceBudgetError):
            w_m_naive(octa, 8, op_budget=10**6)


class TestFaceTermTables:
    """The cached per-complex tables against w_m_naive of U(z), B(z) and S(z)
    built through topology, and the union weights against a pairwise fold."""

    @given(random_complexes(max_vertices=6, max_edges=10))
    @settings(max_examples=50, deadline=None)
    def test_star_ball_sphere_tables_match_naive(self, g):
        for m in (1, 2, 3, 4):
            stars, balls, spheres = _star_wm(g, m), _ball_wm(g, m), _sphere_wm(g, m)
            for z in g.simplices:
                assert stars[z.bits] == w_m_naive(star_intersection_by_scan(g, [z]), m)
                assert balls[z.bits] == w_m_naive(ball(g, [z]), m)
                assert spheres[z.bits] == w_m_naive(unit_sphere(g, z.bits), m)

    @given(random_complexes())
    @settings(max_examples=40, deadline=None)
    def test_join_sets_match_topology(self, g):
        # the joins list each member of B(z) and S(z) once, without a dedupe set
        balls = _ball_members_of(g)
        for z, sph in zip(g.simplices, _sphere_sets(g)):
            b = balls[z.bits]
            assert len(set(b)) == len(b) and set(b) == ball(g, [z]).member_bits
            assert len(set(sph)) == len(sph)
            assert set(sph) == unit_sphere(g, z.bits).member_bits

    def test_huge_m_tables_match_face_terms(self):
        g = random_whitney(12, 30, 1)
        for m in (8000, 8001):
            balls, spheres = _ball_wm(g, m), _sphere_wm(g, m)
            for z in g.simplices:
                b = ball(g, [z]).member_bits
                s = unit_sphere(g, z.bits).member_bits
                assert balls[z.bits] == _eval_terms(_face_terms_of(b), m)
                assert spheres[z.bits] == _eval_terms(_face_terms_of(s), m)

    @given(random_complexes())
    @settings(max_examples=30, deadline=None)
    def test_union_weights_match_pairwise_fold(self, g):
        for k in (1, 2, 3, 4):
            fold = _union_weights_by_pairwise_fold(g, k)
            assert _union_weights(g, k) == {z: v for z, v in fold.items() if v}


class TestEnergized:
    def test_zero_interaction(self, k2):
        h = InteractionFunction(2, lambda X: 0)
        assert w_m_energized(k2, h) == 0

    def test_delta_counts_once(self, k2):
        z = (Simplex([1]), Simplex([1, 2]))
        assert w_m_energized(k2, InteractionFunction.delta(z)) == 1
        # intersection of the target empty: never counted
        z2 = (Simplex([1]), Simplex([2]))
        assert w_m_energized(k2, InteractionFunction.delta(z2)) == 0

    def test_default_rule_reduces_to_wm(self, k2, octa):
        for g in (k2, octa):
            for m in (1, 2):
                assert w_m_energized(g, InteractionFunction.default(m)) == w_m(g, m)


class TestGreen:
    def test_k2_values(self, k2):
        assert green(k2, [{1}], m=1) == 0
        assert green(k2, [{1, 2}], m=1) == 1

    def test_empty_star_intersection(self, c4):
        assert green(c4, [{1}, {3}], m=2) == 0

    def test_octahedron_vertex_m2(self, octa):
        assert green(octa, [{1}], m=2) == 1


class TestEnergySum:
    def test_k2_small(self, k2):
        for m, k in [(1, 1), (1, 2)]:
            rep = energy_sum(k2, m, k)
            assert (rep.lhs, rep.rhs, rep.passed) == (1, 1, True)

    def test_matches_direct_enumeration(self, small_corpus):
        for g in small_corpus:
            for m, k in [(1, 1), (2, 2), (1, 3)]:
                a = energy_sum(g, m, k)
                b = energy_sum(g, m, k, method="direct")
                assert a.rhs == b.rhs and a.passed and b.passed

    def test_direct_oracle_literal(self, p3):
        # independent oracle: evaluate the definition with library primitives
        for m, k in [(1, 2), (2, 1), (2, 2)]:
            total = 0
            for X in itertools.product(p3.simplices, repeat=k):
                total += green(p3, X, m=m)
            rep = energy_sum(p3, m, k)
            assert rep.rhs == total == w_m(p3, m)

    def test_ball_variant(self, small_corpus):
        for g in small_corpus:
            for m, k in [(1, 1), (2, 2)]:
                rep = energy_sum(g, m, k, variant="ball")
                assert rep.passed, (g, m, k, rep)

    def test_random_interactions(self):
        from higherchar.generators import SplitMix64

        g = random_whitney(6, 9, seed=4)
        rng = SplitMix64(99)
        ss = g.simplices
        for m in (1, 2):
            for k in (1, 2):
                table = {
                    tuple(x.vertices for x in X): rng.below(7) - 3
                    for X in itertools.product(ss, repeat=m)
                }
                h = InteractionFunction.from_table(m, table)
                rep = energy_sum(g, m, k, h)
                assert rep.passed, (m, k, rep)
                direct = energy_sum(g, m, k, h, method="direct")
                assert direct.rhs == rep.rhs

    def test_delta_interactions(self, p3):
        for Z in itertools.product(p3.simplices, repeat=2):
            rep = energy_sum(p3, 2, 2, InteractionFunction.delta(Z))
            assert rep.passed

    def test_ball_variant_with_random_interactions(self):
        from higherchar.generators import SplitMix64

        rng = SplitMix64(55)
        g = random_whitney(6, 8, seed=12)
        ss = g.simplices
        for m in (1, 2):
            for _ in range(5):
                table = {
                    tuple(x.vertices for x in X): rng.below(7) - 3
                    for X in itertools.product(ss, repeat=m)
                }
                h = InteractionFunction.from_table(m, table)
                for k in (1, 2):
                    assert energy_sum(g, m, k, h, variant="ball").passed

    def test_grouped_budget_guard(self, octa):
        with pytest.raises(ResourceBudgetError):
            energy_sum(octa, 1, 10**9, op_budget=10**6)

    def test_higher_k(self, k2, p3):
        for g in (k2, p3):
            for k in (3, 4):
                a = energy_sum(g, 1, k)
                b = energy_sum(g, 1, k, method="direct")
                assert a.passed and b.passed and a.rhs == b.rhs

    @given(random_complexes(max_vertices=6, max_edges=8))
    @settings(max_examples=15, deadline=None)
    def test_grouped_vs_direct_property(self, g):
        for m in (1, 2):
            for k in (1, 2):
                assert (energy_sum(g, m, k).rhs
                        == energy_sum(g, m, k, method="direct").rhs)
                assert (sphere_sum(g, m, k).rhs
                        == sphere_sum(g, m, k, method="direct").rhs)

    def test_budget_guard(self, octa):
        with pytest.raises(ResourceBudgetError):
            energy_sum(octa, 1, 8, method="direct", op_budget=10**6)

    def test_report_shape(self, k2):
        rep = energy_sum(k2, 1, 1)
        d = rep.to_dict()
        assert set(d) == {"suite", "m", "k", "lhs", "rhs", "pass",
                          "n_simplices", "elapsed_ms"}
        assert rep.to_json().startswith("{")


class TestSphereSum:
    def test_k2_m1_k1_terms(self, k2):
        # S({1}) = {2}, S({2}) = {1}, S({12}) = {1},{2}: 1 + 1 - 2 = 0
        rep = sphere_sum(k2, 1, 1)
        assert rep.rhs == 0 and rep.passed

    def test_empty(self):
        assert sphere_sum(Complex.empty(), 1, 1).passed

    def test_corpus_zero(self, small_corpus):
        for g in small_corpus:
            for m in (1, 2):
                for k in (1, 2):
                    assert sphere_sum(g, m, k).passed

    def test_grouped_equals_direct(self, octa):
        for m, k in [(1, 1), (2, 2)]:
            assert sphere_sum(octa, m, k).rhs == sphere_sum(octa, m, k, method="direct").rhs


def _dual_sphere_walk(sph, ws, m, k):
    """Oracle for _dual_sphere_total: every multiset of k sphere indices, the
    w_m of the intersection of its sets, times the weight and k!/prod(c!)."""
    total = 0
    for combo in itertools.combinations_with_replacement(range(len(sph)), k):
        inter = frozenset(sph[combo[0]]).intersection(*(sph[i] for i in combo[1:]))
        if not inter:
            continue
        mult = math.factorial(k)
        for c in Counter(combo).values():
            mult //= math.factorial(c)
        w = math.prod(ws[i] for i in combo)
        total += mult * w * _eval_terms(_face_terms_of(inter), m)
    return total


class TestDualSphereSum:
    def test_k1_identical_to_sphere_sum(self, small_corpus):
        for g in small_corpus:
            for m in (1, 2):
                assert dual_sphere_sum(g, m, 1).rhs == sphere_sum(g, m, 1).rhs

    def test_k2_zero(self, k2, octa):
        assert dual_sphere_sum(k2, 1, 2).passed
        assert dual_sphere_sum(octa, 1, 2).passed

    def test_brute_force_oracle(self, p3, c4):
        from higherchar.topology import config_weight, dual_sphere

        for g in (p3, c4):
            for m, k in [(1, 2), (2, 2), (1, 3)]:
                total = 0
                for X in itertools.product(g.simplices, repeat=k):
                    total += config_weight(X) * w_m(dual_sphere(g, X), m)
                assert dual_sphere_sum(g, m, k).rhs == total == 0

    @given(random_complexes())
    @settings(max_examples=30, deadline=None)
    def test_exchanged_sum_equals_walk(self, g):
        sph = _sphere_sets(g)
        ws = [s.weight for s in g.simplices]
        for m in (1, 2, 3):
            for k in (1, 2, 3):
                assert dual_sphere_sum(g, m, k).rhs == _dual_sphere_walk(sph, ws, m, k)

    @pytest.mark.parametrize("seed", range(6))
    def test_corrupted_spheres(self, seed):
        # every other member dropped: the sets are no longer closed and the
        # totals are no longer 0, but the exchanged sum tests p in S(x)
        g = random_whitney(8, 14, seed)
        sph = [frozenset(sorted(s)[::2]) for s in _sphere_sets(g)]
        ws = [s.weight for s in g.simplices]
        for m in (1, 2, 3):
            for k in (2, 3):
                total = _dual_sphere_walk(sph, ws, m, k)
                assert total != 0, (m, k)
                assert _dual_sphere_total(sph, ws, m, k) == total

    def test_budget_charges_covered_tuples(self, octa):
        # 18 of the 26 simplices (vertices and edges) lie in a unit sphere:
        # C(18+2, 2) - 1 prefixes, plus 2k per simplex for the powers
        cost = math.comb(20, 2) - 1 + 4 * len(octa)
        with pytest.raises(ResourceBudgetError):
            dual_sphere_sum(octa, 2, 2, op_budget=cost - 1)
        assert dual_sphere_sum(octa, 2, 2, op_budget=cost).passed
        with pytest.raises(ResourceBudgetError):
            dual_sphere_sum(octa, 3, 1, op_budget=len(octa) - 1)
        assert dual_sphere_sum(octa, 3, 1, op_budget=len(octa)).passed

    def test_huge_m_recursion_depth(self):
        # the walk recurses once per covered simplex, not once per entry of Y
        g = closure([[1, 2]])
        sph = _sphere_sets(g)
        ws = [s.weight for s in g.simplices]
        for m in (5000, 5001):
            assert dual_sphere_sum(g, m, 2).rhs == _dual_sphere_walk(sph, ws, m, 2) == 0

    def test_huge_m_without_covered_simplices(self):
        # a point has an empty unit sphere, so L = 0 and the walk has nothing
        # to visit; the multiplicities are built per entry, not from m!
        assert dual_sphere_sum(Complex([[1]]), 10**9, 2).rhs == 0


class TestValuation:
    def test_equal_sets_trivial(self, c4):
        u = star(c4, {1})
        assert valuation_check(u, u, 2).passed

    def test_disjoint_stars(self, c4):
        u = star(c4, {1})
        v = star(c4, {3})
        for m in (1, 2, 3):
            assert valuation_check(u, v, m).passed

    def test_closed_rejected_without_override(self, p3):
        a = SimplexSubset(p3, [{1}, {2}, {1, 2}])
        with pytest.raises(DomainError):
            valuation_check(a, a, 2)

    def test_closed_interval_counterexample(self, p3):
        # two closed intervals overlapping in one vertex break the identity
        a = SimplexSubset(p3, [{1}, {2}, {1, 2}])
        b = SimplexSubset(p3, [{2}, {3}, {2, 3}])
        assert w_m(a, 2) == -1
        assert w_m(b, 2) == -1
        lhs, rhs = valuation_values(a, b, 2)
        assert (lhs, rhs) == (-2, 0)
        rep = valuation_check(a, b, 2, allow_closed=True)
        assert not rep.passed

    def test_octahedron_hemispheres(self, octa):
        # the two closed hemispheres meet in the equator circle; the pairwise
        # bookkeeping of the open-set proof breaks down, yet the totals agree
        a = SimplexSubset(octa, [s for s in octa.simplices if 5 not in s])
        b = SimplexSubset(octa, [s for s in octa.simplices if 6 not in s])
        equator = a.intersection(b)
        assert w_m(equator, 1) == 0 and len(equator) == 8
        for m in (1, 2, 3):
            assert valuation_check(a, b, m, allow_closed=True).passed
        # witness that the patching property fails for closed sets: a pair of
        # simplices whose intersection lies in A ∩ B while neither simplex does
        x = Simplex([1, 5])  # in b only
        y = Simplex([1, 6])  # in a only
        zb = x.bits & y.bits
        assert zb in equator.member_bits
        assert x not in equator.members and y not in equator.members
        assert x in b.members and x not in a.members
        assert y in a.members and y not in b.members

    def test_different_ambients_rejected(self, k2, c4):
        with pytest.raises(DomainError):
            valuation_check(star(k2, {1}), star(c4, {1}), 1)

    @given(random_complexes(max_vertices=6, max_edges=9))
    @settings(max_examples=15, deadline=None)
    def test_random_open_pairs(self, g):
        from higherchar.cli import random_open_set
        from higherchar.generators import SplitMix64

        rng = SplitMix64(17)
        for _ in range(6):
            u = random_open_set(g, rng)
            v = random_open_set(g, rng)
            for m in (1, 2, 3):
                assert valuation_check(u, v, m).passed


class TestLocalValuation:
    def test_c4_vertex(self, c4):
        rep = local_valuation_check(c4, [{1}], 1)
        assert rep.passed and rep.lhs == 1
        rep2 = local_valuation_check(c4, [{1}], 2)
        assert rep2.passed and rep2.lhs == -1

    def test_octahedron_vertex_m2(self, octa):
        rep = local_valuation_check(octa, [{1}], 2)
        assert rep.passed and rep.lhs == 1

    @given(random_complexes(max_vertices=6, max_edges=8))
    @settings(max_examples=10, deadline=None)
    def test_pairs(self, g):
        for X in itertools.islice(itertools.product(g.simplices, repeat=2), 0, 60):
            for m in (1, 2, 3):
                assert local_valuation_check(g, X, m).passed


class TestMulti:
    def test_all_slots_whole_complex(self, p3):
        whole = SimplexSubset(p3, p3.simplices)
        for m in (1, 2, 3):
            assert w_m_multi([whole] * m) == w_m(p3, m)

    def test_empty_slot(self, p3):
        whole = SimplexSubset(p3, p3.simplices)
        none = SimplexSubset(p3, [])
        assert w_m_multi([whole, none]) == 0

    def test_k2_mixed_slots(self, k2):
        a = SimplexSubset(k2, [{1}])
        whole = SimplexSubset(k2, k2.simplices)
        assert w_m_multi([a, whole]) == 0

    def test_naive_oracle(self, c4):
        import random

        rnd = random.Random(5)
        ss = c4.simplices
        for _ in range(10):
            slots = [
                SimplexSubset(c4, rnd.sample(ss, rnd.randint(0, len(ss))))
                for _ in range(2)
            ]
            expected = 0
            for x in sorted(slots[0].members):
                for y in sorted(slots[1].members):
                    z = x.bits & y.bits
                    if z and c4.contains_bits(z):
                        expected += x.weight * y.weight
            assert w_m_multi(slots) == expected

    def test_slot_linearity(self, c4):
        import random

        rnd = random.Random(9)
        ss = c4.simplices
        fixed = SimplexSubset(c4, rnd.sample(ss, 5))
        for _ in range(10):
            a = SimplexSubset(c4, rnd.sample(ss, rnd.randint(0, len(ss))))
            b = SimplexSubset(c4, rnd.sample(ss, rnd.randint(0, len(ss))))
            lhs = w_m_multi([a, fixed]) + w_m_multi([b, fixed])
            rhs = w_m_multi([a.union(b), fixed]) + w_m_multi([a.intersection(b), fixed])
            assert lhs == rhs

    def test_mismatched_ambients(self, k2, c4):
        with pytest.raises(DomainError):
            w_m_multi([SimplexSubset(k2, [{1}]), SimplexSubset(c4, [{1}])])


class TestFermi:
    def test_k2(self, k2):
        assert fermi(k2) == -1

    def test_empty(self):
        assert fermi(Complex.empty()) == 1

    def test_parity(self, octa):
        odd = sum(1 for s in octa.simplices if s.dim % 2 == 1)
        assert fermi(octa) == (-1) ** odd


class TestCurvature:
    def test_octahedron_m1(self, octa):
        prof = curvature_profile(octa, 1)
        assert len(prof) == 26
        assert sum(v for _, v in prof) == 2

    def test_one_point(self):
        one = closure([[1]])
        prof = curvature_profile(one, 1)
        assert [(s.vertices, v) for s, v in prof] == [((1,), 1)]

    @given(random_complexes())
    @settings(max_examples=20, deadline=None)
    def test_sums_to_wm(self, g):
        for m in (1, 2):
            assert sum(v for _, v in curvature_profile(g, m)) == w_m_naive(g, m)


class TestPositivity:
    def test_delta_green_matrix_is_outer_product(self, k2, p3):
        for g in (k2, p3):
            ss = g.simplices
            for m in (1, 2):
                for Z in itertools.product(ss, repeat=m):
                    zb = Z[0].bits
                    for z in Z[1:]:
                        zb &= z.bits
                    h = InteractionFunction.delta(Z)
                    v = [
                        s.weight if (zb and s.bits & zb == s.bits) else 0
                        for s in ss
                    ]
                    for i, x in enumerate(ss):
                        for j, y in enumerate(ss):
                            assert green(g, (x, y), h=h) == v[i] * v[j]


class TestFockSum:
    def test_truncated_geometric_combination(self, p3):
        for m in (1, 2):
            target = w_m(p3, m)
            for kmax in (1, 2, 3):
                total = sum(
                    Fraction(1, 2**k) * energy_sum(p3, m, k).rhs
                    for k in range(1, kmax + 1)
                )
                assert total == (1 - Fraction(1, 2**kmax)) * target
