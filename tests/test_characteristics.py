import itertools
import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higherchar import characteristics as ch
from higherchar import linalg
from higherchar.characteristics import (
    InteractionFunction,
    _ball_members_of,
    _ball_wm,
    _dual_sphere_total,
    _energized_wm,
    _eval_terms,
    _sphere_sets,
    _sphere_wm,
    _star_weight_table,
    _star_weights,
    _star_wm,
    _stars_of,
    _terms,
    _union_count,
    curvature_profile,
    dual_sphere_sum,
    energy_sum,
    fermi,
    green,
    local_valuation_check,
    local_valuation_sum,
    sphere_sum,
    valuation_check,
    valuation_values,
    w_m,
    w_m_energized,
    w_m_multi,
    w_m_naive,
)
from higherchar.cli import main
from higherchar.complexes import Complex, Simplex, SimplexSubset, _masks_of, closure
from higherchar.errors import DomainError, InputError, ResourceBudgetError
from higherchar.files import save_complex
from higherchar.generators import cross_polytope, cycle, path3, random_whitney
from higherchar.product import topological_product
from higherchar.topology import ball, barycentric, star, unit_sphere

from oracles import (
    configuration_sum_by_walk,
    dual_sphere,
    dual_sphere_total_by_walk,
    face_passes_by_scan,
    face_terms_by_subset_walk,
    local_valuation_by_walk,
    star_intersection_by_scan,
    star_weights_by_face_table,
    star_weights_by_subsets,
)
from strategies import random_complexes, wide_complexes


def _union_weights_by_pairwise_fold(g, k):
    """Weighted count of the k-tuples of g by their union: fold k-tuples
    pairwise by their running union, dropping a tuple once its union leaves
    g, in (k-1) * |g|^2 steps."""
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
        terms = face_terms_by_subset_walk(g.member_bits)
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


class TestStarWeights:
    """The per-vertex superset sum N(z) against the literal subset pass, key
    order included."""

    @staticmethod
    def _check(g):
        got, want = _star_weights(g), star_weights_by_subsets(g)
        assert list(got.items()) == list(want.items())

    @given(random_complexes(max_vertices=9, max_edges=24))
    @settings(max_examples=60, deadline=None)
    def test_matches_subset_pass(self, g):
        self._check(g)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_subset_pass_on_products(self, seed):
        # 13 591 and 12 696 simplices, up to 6 vertices each
        self._check(topological_product(random_whitney(12, 30, seed), path3()))

    def test_matches_subset_pass_on_refinement(self):
        self._check(barycentric(random_whitney(12, 30, 1)))

    def test_void_and_point(self):
        assert _star_weights(Complex.empty()) == {}
        assert _star_weights(closure([[4]])) == {1 << 4: 1}

    @pytest.mark.parametrize("masks,face", [
        ([0b1, 0b10, 0b111], "Simplex(1,2)"), ([0b1, 0b11], "Simplex(1)"),
        ([0b11], "Simplex(0)"), ([0b1, 0b10, 0b100, 0b110, 0b111], "Simplex(0,2)"),
        ([0b111, 0b11, 0b101, 0b1, 0b10], "Simplex(2)")],
        ids=["edges missing", "vertex missing", "no vertices", "two edges missing",
             "out of order"])
    def test_non_closed_member_list_refused(self, masks, face):
        # Complex._of_bits checks nothing; the pass meets the missing face.
        # Where several are missing, the first met is named: the passes take
        # each member's highest vertex first, so {0, 1} lacks {0} first
        with pytest.raises(DomainError) as exc:
            w_m(Complex._of_bits(masks), 2)
        assert str(exc.value) == (f"not closed under subsets: {face},"
                                  " a face of a member, is missing")


class TestWideMasks:
    """The vertex passes on masks several hundred bits wide, as a product's
    are, with the vertex ids sparse and in shuffled order."""

    @given(wide_complexes(max_vertices=9, max_edges=24))
    @settings(max_examples=60, deadline=None)
    def test_star_weights_match_subset_pass(self, g):
        assert max(g.member_bits).bit_length() > 300
        got, want = _star_weights(g), star_weights_by_subsets(g)
        assert list(got.items()) == list(want.items())

    @given(wide_complexes())
    @settings(max_examples=60, deadline=None)
    def test_face_table_matches_pair_listing(self, g):
        # each pass lists its pairs (x, x - v) in the order of the masks
        masks = g.masks
        table = ch._build_face_table(masks)
        assert table.masks == masks
        assert table.weights == tuple(s.weight for s in g.simplices)
        by_vertex = {}
        for v, pairs in zip(table.vertices, table.passes, strict=True):
            assert all(masks[x] - v == masks[face] for x, face in pairs)
            assert [x for x, _ in pairs] == sorted(x for x, _ in pairs)
            by_vertex[v] = set(pairs)
        assert len(by_vertex) == len(table.vertices)
        assert by_vertex == face_passes_by_scan(g)


def _n_routes_agree(g):
    """The two routes to N agree on the whole complex: face by face, the n
    pass over the face table gives ``_star_weights``; grouped, the
    ``_subset_terms`` of the table give the (N, C) pairs of ``_terms``."""
    table = ch._face_table(g)
    return (star_weights_by_face_table(table) == _star_weights(g)
            and dict(ch._subset_terms(table, g.member_bits)) == dict(_terms(g)))


class TestNRoutes:
    """A standing cross-check of the two routes to N: ``verify valuation``
    cannot see a wrong face table, whose errors balance over a pair, and
    the grouped pairs can hide one too, so the faces are compared first."""

    @given(st.one_of(random_complexes(max_vertices=9, max_edges=24), wide_complexes()))
    @settings(max_examples=60, deadline=None)
    def test_routes_agree(self, g):
        assert _n_routes_agree(g)

    def test_routes_agree_on_a_product(self):
        g = topological_product(random_whitney(12, 30, 1), path3())
        assert max(g.member_bits).bit_length() > 300
        assert _n_routes_agree(g)

    def test_routes_agree_on_a_refinement(self):
        assert _n_routes_agree(barycentric(random_whitney(12, 30, 1)))

    def test_zero_groups_dropped(self):
        # N = -1 has C = 0 on cp(3); neither route lists it
        g = cross_polytope(3)
        assert all(n and c for n, c in _terms(g))
        assert -1 not in dict(_terms(g)) and _n_routes_agree(g)


class TestSubsetTerms:
    """The two passes over a face table against the subset walk and the
    tuple sum, on any subset: open, closed, neither, empty or whole."""

    @staticmethod
    def _check(a, ms=(1, 2, 3)):
        # the terms as a dict: equal groups in any order
        want = dict(face_terms_by_subset_walk(_masks_of(a)))
        assert dict(_terms(a)) == want
        for m in ms:
            assert w_m(a, m) == _eval_terms(tuple(want.items()), m) == w_m_naive(a, m)

    @given(random_complexes(max_vertices=6, max_edges=10), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_and_subset_walk(self, g, data):
        mask = data.draw(st.integers(min_value=0, max_value=2 ** len(g) - 1))
        drawn = [s for i, s in enumerate(g.simplices) if mask >> i & 1]
        subsets = [drawn, [], g.simplices, *([s] for s in g.simplices[:3])]
        for members in subsets:
            self._check(SimplexSubset(g, members))
            # a plain list is read over the table of its closure, in any order
            self._check(data.draw(st.permutations(members)))

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.data())
    @settings(max_examples=10, deadline=None)
    def test_product_subsets_match(self, seed, data):
        # the vertices of a product are its face pairs, here at least 10 * 8
        g = topological_product(random_whitney(5, 5, seed), cycle(4))
        mask = data.draw(st.integers(min_value=0, max_value=2 ** len(g) - 1))
        a = SimplexSubset._of_bits(g, [b for i, b in enumerate(g.masks) if mask >> i & 1])
        assert max(g.member_bits).bit_length() > 64
        self._check(a, ms=(1, 2))

    def test_neither_open_nor_closed(self, octa):
        a = SimplexSubset(octa, [{1}, {1, 3, 5}, {2, 4}])
        assert not a.is_open_set() and not a.is_closed_set()
        self._check(a, ms=(1, 2, 3, 4))

    def test_table_built_once_per_complex(self, monkeypatch, octa):
        calls = []
        build = ch._build_face_table
        monkeypatch.setattr(ch, "_build_face_table", lambda masks: calls.append(1) or build(masks))
        ch._face_table.cache_clear()
        u, v = star(octa, {1}), star(octa, {2, 3})
        for m in (1, 2, 3):
            valuation_check(u, v, m)
        green(octa, [Simplex([1])], 2)
        linalg.det_via_faces(octa, linalg.connection_matrix(octa))
        assert len(calls) == 1
        table = ch._face_table(octa)
        assert table.masks == octa.masks and linalg._face_passes(octa) is table.passes
        assert all(isinstance(p, tuple) for p in table.passes)
        # a plain list builds the table of its closure on each call, kept by no cache
        w_m([Simplex([1])], 2)
        w_m([Simplex([1])], 2)
        assert len(calls) == 3 and ch._face_table.cache_info().currsize == 1

    @pytest.mark.parametrize("fn", [w_m, w_m_naive,
                                    lambda a, m: w_m_energized(a, InteractionFunction.default(m))],
                             ids=["w_m", "w_m_naive", "w_m_energized"])
    def test_repeated_simplex_refused(self, fn):
        # counted once, 0; counted twice, 1: neither is the w_1 of a collection
        with pytest.raises(InputError, match="listed twice"):
            fn([Simplex([1]), Simplex([1]), Simplex([1, 2])], 1)
        assert fn([Simplex([1]), Simplex([1, 2])], 1) == 0

    def test_repeated_simplex_refused_by_fermi(self):
        # fermi reads the same member masks as w_m and w_m_naive
        with pytest.raises(InputError, match="listed twice"):
            fermi([Simplex([1]), Simplex([1])])
        assert fermi([Simplex([1]), Simplex([1, 2])]) == -1


class TestFaceTermTables:
    """The cached per-complex tables against w_m_naive of U(z), B(z) and S(z)
    built through topology, and the union lemma against a pairwise fold."""

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
                assert balls[z.bits] == _eval_terms(face_terms_by_subset_walk(b), m)
                assert spheres[z.bits] == _eval_terms(face_terms_by_subset_walk(s), m)

    @given(random_complexes())
    @settings(max_examples=30, deadline=None)
    def test_union_lemma_by_pairwise_fold(self, g):
        # the k-tuples with union z weigh w(z) in all, whatever k is
        weights = {s.bits: s.weight for s in g.simplices}
        for k in (1, 2, 3, 4):
            assert _union_weights_by_pairwise_fold(g, k) == weights


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
                b = configuration_sum_by_walk(g, k, _star_wm(g, m))
                assert a.rhs == b == a.lhs and a.passed

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
                walk = configuration_sum_by_walk(g, k, _energized_wm(g, _stars_of(g), h))
                assert walk == rep.rhs

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

    def test_huge_k_is_answered(self, octa):
        # the configuration sum folds to one pass over G whatever k is
        rep = energy_sum(octa, 1, 10**9, op_budget=10**6)
        assert (rep.lhs, rep.rhs, rep.passed) == (2, 2, True)

    def test_fold_charges_simplex_count(self, octa):
        n = len(octa)
        checks = (
            lambda k, b: energy_sum(octa, 2, k, op_budget=b),
            lambda k, b: energy_sum(octa, 2, k, variant="ball", op_budget=b),
            lambda k, b: sphere_sum(octa, 2, k, op_budget=b),
            lambda k, b: dual_sphere_sum(octa, 2, 1, op_budget=b),
        )
        for check in checks:
            for k in (1, 5, 10**9):
                with pytest.raises(ResourceBudgetError):
                    check(k, n - 1)
                assert check(k, n).passed

    def test_higher_k(self, k2, p3):
        for g in (k2, p3):
            for k in (3, 4):
                a = energy_sum(g, 1, k)
                assert a.passed and a.rhs == configuration_sum_by_walk(g, k, _star_wm(g, 1))

    @given(random_complexes(max_vertices=6, max_edges=8))
    @settings(max_examples=15, deadline=None)
    def test_fold_matches_walk_property(self, g):
        for m in (1, 2):
            for k in (1, 2, 3):
                assert (energy_sum(g, m, k).rhs
                        == configuration_sum_by_walk(g, k, _star_wm(g, m)))
                assert (energy_sum(g, m, k, variant="ball").rhs
                        == configuration_sum_by_walk(g, k, _ball_wm(g, m)))
                assert (sphere_sum(g, m, k).rhs
                        == configuration_sum_by_walk(g, k, _sphere_wm(g, m)))

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

    def test_fold_equals_walk(self, octa):
        for m, k in [(1, 1), (2, 2)]:
            walk = configuration_sum_by_walk(octa, k, _sphere_wm(octa, m))
            assert sphere_sum(octa, m, k).rhs == walk


class TestDualSphereSum:
    def test_k1_identical_to_sphere_sum(self, small_corpus):
        for g in small_corpus:
            for m in (1, 2):
                assert dual_sphere_sum(g, m, 1).rhs == sphere_sum(g, m, 1).rhs

    def test_k2_zero(self, k2, octa):
        assert dual_sphere_sum(k2, 1, 2).passed
        assert dual_sphere_sum(octa, 1, 2).passed

    def test_brute_force_oracle(self, p3, c4):
        from higherchar.topology import config_weight

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
                assert dual_sphere_sum(g, m, k).rhs == dual_sphere_total_by_walk(sph, ws, m, k)

    @pytest.mark.parametrize("seed", range(6))
    def test_corrupted_spheres(self, seed):
        # every other member dropped: the sets are no longer closed and the
        # totals are no longer 0, but the exchanged sum tests p in S(x)
        g = random_whitney(8, 14, seed)
        sph = [frozenset(sorted(s)[::2]) for s in _sphere_sets(g)]
        ws = [s.weight for s in g.simplices]
        for m in (1, 2, 3):
            for k in (2, 3):
                total = dual_sphere_total_by_walk(sph, ws, m, k)
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
            assert dual_sphere_sum(g, m, 2).rhs == dual_sphere_total_by_walk(sph, ws, m, 2) == 0

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

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_union_outside_the_complex(self, octa, m):
        # 1 and 2 are opposite vertices: U, B and S of {1, 2} are all empty,
        # although a join with the empty link would be the closed edge
        rep = local_valuation_check(octa, [{1}, {2}], m)
        assert (rep.lhs, rep.rhs, rep.passed, rep.k) == (0, 0, True, 2)

    @given(random_complexes(max_vertices=6, max_edges=8))
    @settings(max_examples=10, deadline=None)
    def test_pairs(self, g):
        for X in itertools.islice(itertools.product(g.simplices, repeat=2), 0, 60):
            for m in (1, 2, 3):
                assert local_valuation_check(g, X, m).passed


def _or(bits):
    u = 0
    for b in bits:
        u |= b
    return u


def _failing_where(pred):
    """The per-union check ``_local_at`` with its verdict turned to a failure
    on the unions u that have pred(g, u); ``local_valuation_check``, and so
    the walk, reads it as the sum does."""
    check = ch._local_at

    def failing(g, u, m):
        lhs, rhs = check(g, u, m)
        return (lhs, rhs + 1) if pred(g, u) else (lhs, rhs)

    return failing


# (max_vertices, max_edges) by k, so that the |G|^k walk stays small
WALK_SIZES = {1: (7, 12), 2: (6, 8), 3: (4, 5)}


class TestLocalValuationSum:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_matches_the_walk(self, k, data):
        g = data.draw(random_complexes(*WALK_SIZES[k]))
        z = data.draw(st.sampled_from(g.masks))
        ways = {
            "as is": None,
            "one union": lambda g, u: u == z,
            "outside": lambda g, u: u not in g.member_bits,
        }
        for way, pred in ways.items():
            with pytest.MonkeyPatch.context() as mp:
                if pred is not None:
                    mp.setattr(ch, "_local_at", _failing_where(pred))
                for m in (1, 2):
                    rep = local_valuation_sum(g, m, k)
                    assert (rep.lhs, rep.rhs) == local_valuation_by_walk(g, m, k), (way, m)
                    assert rep.lhs == len(g) ** k and rep.passed == (rep.lhs == rep.rhs)
                    if pred is None:
                        assert rep.passed

    def test_no_simplex_objects_built(self):
        g = closure([[1, 2, 3], [2, 3, 4], [4, 5]])
        assert local_valuation_sum(g, 2, 2).passed
        assert g._simplices is None

    def test_union_count_closed_forms(self):
        for s in range(1, 12):
            assert _union_count(s, 1) == 1
            assert _union_count(s, 2) == 3**s - 2

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_counts_and_outside_remainder_add_up(self, k):
        # the outside class is nonempty exactly when k >= 2 and G has two facets
        for g in (closure([[1]]), closure([[1, 2, 3]]), path3(), cycle(4),
                  closure([[1, 2, 3], [3, 4]]), random_whitney(6, 8, seed=2)):
            inside = sum(_union_count(len(z), k) for z in g.simplices)
            outside = sum(1 for X in itertools.product(g.masks, repeat=k)
                          if _or(X) not in g.member_bits)
            assert inside + outside == len(g) ** k
            assert (outside > 0) == (k >= 2 and len(g.facets()) >= 2)


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
                    if z in c4.member_bits:
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

    def test_powers_charged_against_default_budget(self):
        g = random_whitney(12, 30, 1)
        t0 = time.perf_counter()
        with pytest.raises(ResourceBudgetError):
            curvature_profile(g, 10**7)
        assert time.perf_counter() - t0 < 1.0


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


class TestOneStarPass:
    """N(z) is computed once per complex on the info and energy paths, and is
    not kept for a transient complex."""

    @staticmethod
    def _count_passes(monkeypatch):
        calls = []
        real = ch._star_weights

        def counting(g):
            calls.append(len(g))
            return real(g)

        monkeypatch.setattr(ch, "_star_weights", counting)
        for table in (_star_weight_table, _star_wm, _ball_wm, _sphere_wm):
            table.cache_clear()
        return calls

    def test_info_runs_one_pass(self, monkeypatch, capsys, tmp_path):
        g = random_whitney(12, 30, 1)
        p = tmp_path / "rw.facets"
        save_complex(g, p)
        calls = self._count_passes(monkeypatch)
        assert main(["info", str(p), "--json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert calls == [len(g)]
        assert [d["w1"], d["w2"], d["w3"]] == [w_m_naive(g, m) for m in (1, 2, 3)]

    @pytest.mark.parametrize("variant", ["star", "ball"])
    def test_energy_sum_runs_one_pass(self, monkeypatch, variant):
        g = random_whitney(12, 30, 1)
        calls = self._count_passes(monkeypatch)
        rep = energy_sum(g, 3, 2, variant=variant)
        assert calls == [len(g)]
        assert rep.passed and rep.lhs == w_m_naive(g, 3)

    def test_w_m_of_a_product_is_not_kept(self):
        g = random_whitney(8, 14, 1)
        assert energy_sum(g, 2, 2).passed
        before = _star_weight_table.cache_info().currsize
        gh = topological_product(g, path3())
        assert w_m(gh, 2) == w_m(g, 2) * w_m(path3(), 2)
        assert _star_weight_table.cache_info().currsize == before

    def test_powers_charged_before_they_are_raised(self):
        # N takes the values -3 .. 1 on this complex; 3**10**7 alone takes seconds
        g = random_whitney(12, 30, 1)
        for run in (lambda: w_m(g, 10**7), lambda: energy_sum(g, 10**7, 1),
                    lambda: sphere_sum(g, 10**7, 1), lambda: dual_sphere_sum(g, 10**7, 1),
                    lambda: energy_sum(g, 8000, 1, op_budget=1000)):
            with pytest.raises(ResourceBudgetError, match="to the power"):
                run()
        assert energy_sum(g, 8000, 1).passed
        # powers of 0, 1 and -1 cost nothing
        assert w_m(closure([[1, 2]]), 10**9 + 1, op_budget=0) == 1
