import itertools
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higherchar.complexes import (
    Complex,
    Simplex,
    SimplexSubset,
    closure,
    join,
    whitney,
    _join_bits,
    _mask_key,
    _position_stars,
)
from higherchar.errors import DomainError, InputError, ResourceBudgetError
from higherchar.files import MAX_SIMPLICES, format_facets, parse_edge_list, parse_facets
from higherchar.generators import cross_polytope, cycle, path3
from higherchar.product import product_simplex_count, topological_product
from higherchar.topology import barycentric

from oracles import (
    canonical_key,
    cliques_by_brute_force,
    cliques_by_search,
    closure_by_simplices,
    facets_text_by_simplices,
    is_complex,
    join_by_pairs,
    product_by_chains,
    refinement_by_flags,
    vertex_stars_by_filter,
)
from strategies import random_complexes, wide_complexes


@st.composite
def graphs(draw):
    """A graph on at most 9 vertices with ids from 0..40, isolated vertices
    allowed; each edge in a random orientation, sometimes twice, as a tuple,
    a list or a frozenset."""
    vertices = draw(st.lists(st.integers(0, 40), min_size=1, max_size=9, unique=True))
    pairs = list(itertools.combinations(vertices, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = []
    for u, v in chosen:
        for _ in range(draw(st.integers(1, 2))):
            e = (u, v) if draw(st.booleans()) else (v, u)
            edges.append(draw(st.sampled_from([tuple, list, frozenset]))(e))
    return vertices, edges


def verts(g):
    return [s.vertices for s in g]


def literal_is_closed(members: frozenset) -> bool:
    """Every nonempty proper face of every member is again a member."""
    return all(
        Simplex(f) in members
        for s in members
        for r in range(1, len(s))
        for f in itertools.combinations(s.vertices, r)
    )


class TestSimplex:
    def test_basic(self):
        s = Simplex([2, 1])
        assert s.vertices == (1, 2)
        assert s.dim == 1
        assert s.weight == -1
        assert Simplex([5]).weight == 1

    def test_duplicates_collapse(self):
        assert Simplex([1, 1, 2]) == Simplex([1, 2])

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            Simplex([])

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            Simplex([-1, 2])

    def test_from_bits_zero_rejected(self):
        with pytest.raises(InputError):
            Simplex.from_bits(0)

    def test_canonical_order(self):
        ss = sorted([Simplex([1, 2]), Simplex([3]), Simplex([1]), Simplex([1, 3])])
        assert [s.vertices for s in ss] == [(1,), (3,), (1, 2), (1, 3)]


class TestClosure:
    def test_void(self):
        assert len(closure([])) == 0

    def test_single_edge(self):
        assert verts(closure([{1, 2}])) == [(1,), (2,), (1, 2)]  # canonical: dim, then lex

    def test_two_edges(self):
        # all nonempty subsets of each facet, deduplicated
        got = verts(closure([{1, 2}, {2, 3}]))
        assert got == [(1,), (2,), (3,), (1, 2), (2, 3)]

    def test_idempotent_and_monotone(self):
        a = closure([{1, 2, 3}])
        assert closure(a.simplices) == a
        b = closure([{1, 2, 3}, {3, 4}])
        assert set(a.simplices) <= set(b.simplices)

    def test_budget(self):
        with pytest.raises(ResourceBudgetError):
            closure([range(1, 12)], simplex_budget=100)

    def test_budget_refuses_a_large_simplex_before_building(self):
        with pytest.raises(ResourceBudgetError) as exc:
            closure([[1, 2], range(40)], simplex_budget=10**6)
        assert exc.value.partial == 3


class TestComplex:
    def test_validation(self):
        with pytest.raises(InputError):
            Complex([{1, 2}])
        Complex([{1}, {2}, {1, 2}])  # fine

    def test_empty_is_allowed(self):
        g = Complex.empty()
        assert len(g) == 0 and g.dim == -1 and g.f_vector == ()

    def test_facets(self):
        g = closure([{1, 2}, {2, 3}])
        assert sorted(s.vertices for s in g.facets()) == [(1, 2), (2, 3)]

    def test_equality(self):
        g = closure([{1, 2}, {2, 3}])
        assert g == g and not g != g
        assert g == closure([{2, 3}, {1, 2}]) and g is not closure([{2, 3}, {1, 2}])
        assert g != closure([{1, 2}]) and not g == closure([{1, 2}])
        assert Complex.empty() == Complex.empty() != g
        # a foreign type is left to the other side, which has no equality either
        for other in (g.member_bits, list(g.simplices), None, 0):
            assert g.__eq__(other) is NotImplemented
            assert g != other and not g == other
        assert SimplexSubset(g, [{1}]) == SimplexSubset(g, [{1}]) != SimplexSubset(g, [{2}])

    @pytest.mark.parametrize("value,member", [
        ([-1], False), ([], False), (1.5, False), ([1.5], False), ("12", False), (1, False),
        (Simplex([1, 2]), True), (Simplex([3]), False), ([2, 1], True),
    ], ids=["negative-id", "no-id", "float", "float-id", "string", "int",
            "simplex", "foreign-simplex", "id-list"])
    def test_membership_of_any_value(self, value, member):
        g = closure([[1, 2]])
        assert (value in g) is member
        assert (value in SimplexSubset(g, g.simplices)) is member

    def test_huge_id_answers_before_its_bit_is_built(self):
        # a mask holding vertex 2**26 takes 8 MB; every id of g is below 3
        g = closure([[1, 2]])
        tracemalloc.start()
        try:
            assert [2**26] not in g and [1, 2**26] not in SimplexSubset(g, g.simplices)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert [2**26] not in Complex.empty()

    def test_is_complex(self):
        assert is_complex([{1}, {2}, {1, 2}])
        assert not is_complex([{1, 2}])
        assert is_complex([])


class TestFVector:
    def test_octahedron(self):
        assert cross_polytope(2).f_vector == (6, 12, 8)

    def test_k2(self):
        assert closure([{1, 2}]).f_vector == (2, 1)

    def test_c4(self):
        assert cycle(4).f_vector == (4, 4)

    @given(random_complexes())
    @settings(max_examples=100, deadline=None)
    def test_alternating_sum_is_euler(self, g):
        from higherchar.characteristics import w_m

        fv = g.f_vector
        assert sum((-1) ** i * c for i, c in enumerate(fv)) == w_m(g, 1)
        assert sum(fv) == len(g)


class TestWhitney:
    def test_triangle(self):
        g = whitney([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
        assert g.f_vector == (3, 3, 1)

    def test_four_cycle(self):
        g = whitney([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (1, 4)])
        assert g.f_vector == (4, 4)

    def test_isolated_vertices(self):
        g = whitney([1, 2, 3], [(1, 2)])
        assert verts(g) == [(1,), (2,), (3,), (1, 2)]

    def test_unknown_vertex_rejected(self):
        with pytest.raises(InputError):
            whitney([1, 2], [(1, 3)])

    def test_self_loop_rejected(self):
        with pytest.raises(InputError):
            whitney([1, 2], [(1, 1)])

    @pytest.mark.parametrize("edge", [frozenset({3}), (1, 2, 3), 3],
                             ids=["one id", "three ids", "not a pair"])
    def test_malformed_edge_rejected(self, edge):
        with pytest.raises(InputError, match=re.escape(repr(edge))):
            whitney([1, 2, 3], [(1, 2), edge])

    @pytest.mark.parametrize("edge", [(1.0, 2), (True, 2), (1, 2.0)],
                             ids=["float first", "bool first", "float second"])
    def test_non_integer_edge_id_rejected(self, edge):
        # 1.0 and True hash like the vertex 1, and 2.0 cannot be shifted
        with pytest.raises(InputError, match=re.escape(repr(edge))):
            whitney([1, 2, 3], [(2, 3), edge])

    def test_against_brute_force_clique_oracle(self):
        # oracle: test every vertex subset for pairwise adjacency
        edges = [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5), (1, 5)]
        vs = [1, 2, 3, 4, 5]
        adj = {frozenset(e) for e in edges}
        expected = []
        for r in range(1, len(vs) + 1):
            for sub in itertools.combinations(vs, r):
                if all(frozenset(p) in adj for p in itertools.combinations(sub, 2)):
                    expected.append(sub)
        got = whitney(vs, edges)
        assert verts(got) == sorted(expected, key=lambda t: (len(t), t))

    @given(random_complexes())
    @settings(max_examples=25, deadline=None)
    def test_random_whitney_is_complex(self, g):
        assert is_complex(g.simplices)

    def test_simplex_budget(self):
        with pytest.raises(ResourceBudgetError):
            whitney(range(12), [(i, j) for i in range(12) for j in range(i + 1, 12)],
                    simplex_budget=50)

    def test_complete_graph_at_its_budget(self):
        # K8 has 2^8 - 1 = 255 simplices: a budget of 255 builds it, 254 stops the listing
        k8 = [(i, j) for i in range(8) for j in range(i + 1, 8)]
        assert len(whitney(range(8), k8, simplex_budget=255)) == 255
        with pytest.raises(ResourceBudgetError) as exc:
            whitney(range(8), k8, simplex_budget=254)
        assert exc.value.partial <= 255

    def test_edge_list_refusal_stops_one_past_the_cap(self):
        edges = "".join(f"{u} {v}\n" for u in range(24) for v in range(u + 1, 24))
        with pytest.raises(ResourceBudgetError) as exc:
            parse_edge_list("graph\n" + edges)
        assert exc.value.partial == MAX_SIMPLICES + 1

    @given(graphs())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_brute_force_clique_oracle(self, graph):
        vertices, edges = graph
        assert whitney(vertices, edges).member_bits == cliques_by_brute_force(vertices, edges)


class TestJoin:
    def test_zero_spheres_make_circle(self):
        s0a = Complex([[1], [2]])
        s0b = Complex([[3], [4]])
        j = join(s0a, s0b)
        assert j.f_vector == (4, 4)
        assert j == cross_polytope(1)

    def test_circle_plus_points_is_octahedron(self):
        c4 = cross_polytope(1)
        poles = Complex([[5], [6]])
        octa = join(c4, poles)
        assert octa.f_vector == (6, 12, 8)
        assert octa == cross_polytope(2)

    def test_void_is_neutral(self):
        g = closure([{1, 2}])
        assert join(Complex.empty(), g) == g
        assert join(g, Complex.empty()) == g

    def test_overlap_rejected_and_relabel(self):
        g = Complex([[1], [2]])
        with pytest.raises(InputError):
            join(g, g)
        j = join(g, g, relabel=True)
        assert j.f_vector == (4, 4)

    def test_associative_on_disjoint_labels(self):
        a = Complex([[1], [2]])
        b = Complex([[3], [4]])
        c = Complex([[5], [6]])
        assert join(join(a, b), c) == join(a, join(b, c))


class TestSimplexSubset:
    def test_membership_enforced(self):
        g = closure([{1, 2}])
        with pytest.raises(DomainError):
            SimplexSubset(g, [{3}])

    def test_open_closed_classification(self):
        g = closure([{1, 2}])
        assert SimplexSubset(g, [{1, 2}]).is_open_set()
        assert not SimplexSubset(g, [{1, 2}]).is_closed_set()
        assert SimplexSubset(g, [{1}]).is_closed_set()
        assert not SimplexSubset(g, [{1}]).is_open_set()
        whole = SimplexSubset(g, g.simplices)
        assert whole.is_open_set() and whole.is_closed_set()

    def test_complement_union_intersection(self):
        g = closure([{1, 2}])
        a = SimplexSubset(g, [{1}])
        c = a.complement()
        assert len(c) == 2
        assert len(a.union(c)) == 3
        assert len(a.intersection(c)) == 0

    @given(random_complexes(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_frozenset_oracle(self, g, data):
        # the oracle holds fresh Simplex objects, not the ambient's
        universe = frozenset(Simplex(s.vertices) for s in g.simplices)
        draw = st.frozensets(st.sampled_from(sorted(universe)))
        a, b = data.draw(draw), data.draw(draw)
        u, v = SimplexSubset(g, a), SimplexSubset(g, b)
        for sub, lit in (
            (u, a),
            (v, b),
            (u.union(v), a | b),
            (u.intersection(v), a & b),
            (u.complement(), universe - a),
        ):
            assert sub.members == lit
            assert list(sub) == sorted(lit)
            assert len(sub) == len(lit)
            assert sub.is_closed_set() == literal_is_closed(lit)
            for s in universe:
                assert (s in sub) == (s in lit) == (s.vertices in sub)
        assert Simplex([99]) not in u and "x" not in u


vertex_sets = st.lists(st.sets(st.integers(0, 70), min_size=1, max_size=5), max_size=20)


def assert_same_as_oracle(g, oracle):
    """g against a canonically ordered Simplex tuple built one face at a time."""
    assert g.masks == tuple(s.bits for s in oracle)
    assert [s.vertices for s in g.simplices] == [s.vertices for s in oracle]
    assert g == Complex(oracle) and len(g) == len(oracle)
    assert g.dim == (oracle[-1].dim if oracle else -1)
    assert sum(g.f_vector) == len(oracle) and all(g.f_vector)
    assert format_facets(g) == facets_text_by_simplices(oracle)


class TestMaskStorage:
    @given(vertex_sets)
    @settings(max_examples=60, deadline=None)
    def test_mask_key_sorts_as_the_simplex_key(self, sets):
        ss = [Simplex(s) for s in sets]
        by_mask = sorted((s.bits for s in ss), key=_mask_key)
        assert by_mask == [s.bits for s in sorted(ss, key=canonical_key)]
        assert [a <= b for a, b in zip(ss, ss[1:])] == [
            canonical_key(a) <= canonical_key(b) for a, b in zip(ss, ss[1:])]

    @given(vertex_sets)
    @settings(max_examples=60, deadline=None)
    def test_closure_and_parse_facets_match_the_simplex_closure(self, sets):
        oracle = closure_by_simplices(sets)
        assert_same_as_oracle(closure(sets), oracle)
        text = "".join(" ".join(map(str, sorted(s))) + "\n" for s in sets)
        assert_same_as_oracle(parse_facets(text), oracle)

    @given(random_complexes(max_vertices=5, max_edges=7),
           st.one_of(st.just(path3()), random_complexes(max_vertices=3, max_edges=2)))
    @settings(max_examples=25, deadline=None)
    def test_whitney_refinement_and_product_match_the_simplex_closure(self, g, h):
        edges = [s.vertices for s in g.simplices if len(s) == 2]
        cliques = cliques_by_search(g.vertex_ids, edges)
        assert_same_as_oracle(whitney(g.vertex_ids, edges), closure_by_simplices(cliques))
        assert_same_as_oracle(barycentric(g), refinement_by_flags(g))
        gh = topological_product(g, h)
        assert_same_as_oracle(gh, product_by_chains(g, h))
        assert len(gh) == product_simplex_count(g, h)

    def test_views_are_built_once_on_first_use(self):
        g = closure([[1, 2, 3]])
        assert g._masks is None and g._simplices is None
        assert g.f_vector == (3, 3, 1) and g.dim == 2 and len(g) == 7
        assert g._masks is None and g._simplices is None
        assert g.masks is g.masks and g.simplices is g.simplices


@st.composite
def ordered_masks(draw, max_vertices=7, max_edges=12, complexes=random_complexes):
    """The masks of a random complex, in canonical order or shuffled."""
    masks = draw(complexes(max_vertices=max_vertices, max_edges=max_edges)).masks
    return list(masks) if draw(st.booleans()) else draw(st.permutations(masks))


class TestStarAndJoinBuilders:
    """The shared per-vertex star and join builders against their literal
    versions, on masks in canonical and in shuffled order, and on masks
    several hundred bits wide."""

    @given(st.one_of(ordered_masks(), ordered_masks(complexes=wide_complexes)))
    @settings(max_examples=80, deadline=None)
    def test_position_stars_match_filter(self, masks):
        stars = [(1 << (p - 1), ys) for p, ys in _position_stars(masks).items()]
        assert stars == vertex_stars_by_filter(masks)

    @given(ordered_masks(max_vertices=5, max_edges=7), ordered_masks(max_vertices=4, max_edges=5))
    @settings(max_examples=80, deadline=None)
    def test_join_bits_match_pairs(self, a, b):
        shift = max(a).bit_length()
        b = [y << shift for y in b]
        joined = _join_bits(a, b)
        assert len(joined) == len(set(joined))
        assert set(joined) == join_by_pairs(a, b)
        assert join(Complex._of_bits(a), Complex._of_bits(b)).member_bits == set(joined)

    def test_join_bits_with_an_empty_side(self):
        assert _join_bits([1, 2, 3], []) == [1, 2, 3]
        assert _join_bits([], [4]) == [4]
