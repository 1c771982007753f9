import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higherchar.characteristics import w_m
from higherchar.complexes import SimplexSubset, closure
from higherchar.errors import DomainError, InputError, ResourceBudgetError
from higherchar.topology import (
    OpenSet,
    ball,
    barycentric,
    configuration,
    core,
    open_hull,
    open_refinement,
    sphere,
    star,
    star_intersection,
)

from oracles import (
    DEFAULT_TOPOLOGY_BUDGET,
    dual_sphere,
    generate_topology,
    is_complex,
    star_intersection_by_scan,
)
from strategies import random_complexes


def members_of(subset):
    return sorted(s.vertices for s in subset.members)


class TestStarAndCore:
    def test_star_k2(self, k2):
        assert members_of(star(k2, {1})) == [(1,), (1, 2)]

    def test_locally_maximal_star_is_singleton(self, k2):
        assert members_of(star(k2, {1, 2})) == [(1, 2)]

    def test_octahedron_vertex_star(self, octa):
        u = star(octa, {1})
        fv = [0, 0, 0]
        for s in u.members:
            fv[s.dim] += 1
        assert fv == [1, 4, 4]
        assert w_m(u, 1) == 1

    def test_star_requires_membership(self, k2):
        with pytest.raises(DomainError):
            star(k2, {3})

    def test_core(self, k2):
        assert core(k2, {1, 2}) == k2
        assert len(core(k2, {1})) == 1

    def test_core_always_contractible_euler(self, octa):
        for s in octa.simplices:
            assert w_m(core(octa, s), 1) == 1

    @given(random_complexes())
    @settings(max_examples=25, deadline=None)
    def test_anti_monotone(self, g):
        for x, y in itertools.combinations(g.simplices, 2):
            if x.is_face_of(y):
                sy = set(star(g, y).members)
                sx = set(star(g, x).members)
                assert sy <= sx


class TestStarIntersection:
    def test_single_point_is_star(self, c4):
        assert star_intersection(c4, [{1}]) == star(c4, {1})

    def test_inseparable_vertices_in_edge(self, k2):
        u = star_intersection(k2, [{1}, {2}])
        assert members_of(u) == [(1, 2)]

    def test_far_vertices_empty(self, c4):
        assert len(star_intersection(c4, [{1}, {3}])) == 0

    def test_empty_configuration_rejected(self, c4):
        with pytest.raises(InputError):
            configuration(c4, [])

    @given(random_complexes(max_vertices=6, max_edges=9))
    @settings(max_examples=20, deadline=None)
    def test_fast_path_agrees_with_scan(self, g):
        ss = g.simplices
        for X in itertools.islice(itertools.product(ss, repeat=2), 0, 120):
            assert star_intersection(g, X) == star_intersection_by_scan(g, X)
        for X in itertools.islice(itertools.product(ss, repeat=3), 0, 120):
            assert star_intersection(g, X) == star_intersection_by_scan(g, X)


class TestBallSphere:
    def test_k2_vertex(self, k2):
        assert ball(k2, [{1}]) == k2
        assert members_of(SimplexSubset(k2, sphere(k2, [{1}]).simplices)) == [(2,)]

    def test_octahedron_vertex(self, octa):
        b = ball(octa, [{1}])
        assert b.f_vector == (5, 8, 4)
        s = sphere(octa, [{1}])
        assert s.f_vector == (4, 4)

    def test_empty_intersection_gives_empty(self, c4):
        assert len(ball(c4, [{1}, {3}])) == 0
        assert len(sphere(c4, [{1}, {3}])) == 0

    @given(random_complexes())
    @settings(max_examples=25, deadline=None)
    def test_ball_is_disjoint_union_of_star_and_sphere(self, g):
        for x in g.simplices:
            u = star_intersection(g, [x])
            b = ball(g, [x])
            s = sphere(g, [x])
            ub = {m.bits for m in u.members}
            sb = {m.bits for m in s.simplices}
            assert not (ub & sb)
            assert ub | sb == b.member_bits

    @given(random_complexes(max_vertices=6, max_edges=9), st.data())
    @settings(max_examples=25, deadline=None)
    def test_sphere_matches_literal_definition(self, g, data):
        # S(X) = closure(U(X)) minus U(X), with U(X) intersected star by star
        vertices = [x for x in g.simplices if x.dim == 0]
        # a pair of non-adjacent vertices has a union that is not a simplex
        configs = list(itertools.combinations(vertices, 2))
        points = st.sampled_from(g.simplices)
        for k in (1, 2, 3):
            configs += data.draw(st.lists(st.lists(points, min_size=k, max_size=k), max_size=8))
        for X in configs:
            u = star_intersection_by_scan(g, X).members
            literal = closure(u).member_bits - {x.bits for x in u}
            assert sphere(g, X).member_bits == literal

    @given(random_complexes())
    @settings(max_examples=20, deadline=None)
    def test_spheres_and_balls_are_complexes(self, g):
        for x in g.simplices:
            assert is_complex(sphere(g, [x]).simplices)
            assert is_complex(ball(g, [x]).simplices)
            assert star(g, x).is_open_set()


class TestDualSphere:
    def test_k1_equals_unit_sphere(self, octa):
        for x in octa.simplices[:6]:
            assert dual_sphere(octa, [x]) == sphere(octa, [x])

    def test_octahedron_adjacent_vertices(self, octa):
        ds = dual_sphere(octa, [{1}, {3}])
        assert ds.f_vector == (2,)

    def test_c4_opposite_vertices(self, c4):
        # not covered by any sphere statement; the computed value is frozen
        ds = dual_sphere(c4, [{1}, {3}])
        assert sorted(s.vertices for s in ds) == [(2,), (4,)]


class TestIsOpen:
    def test_star_open(self, c4):
        assert star(c4, {1}).is_open_set()

    def test_core_not_open(self, p3):
        # the core of a positive-dimensional simplex is not open once the
        # ambient complex extends past it
        assert not SimplexSubset(p3, core(p3, {1, 2}).simplices).is_open_set()

    def test_locally_maximal_singleton_open(self, k2):
        assert SimplexSubset(k2, [{1, 2}]).is_open_set()

    def test_openset_constructor_validates(self, k2):
        with pytest.raises(DomainError):
            OpenSet(k2, [{1}])


def upward_closed(g, member_bits):
    """The literal definition of an open set: every coface in g of a member
    is a member."""
    return all(y.bits in member_bits
               for b in member_bits for y in g.simplices if b & y.bits == b)


def union_of_stars(g, xs):
    members = set()
    for x in xs:
        members |= star(g, x).members
    return members


class TestOpenHull:
    def test_k2(self, k2):
        assert members_of(open_hull(k2, [{1}])) == [(1,), (1, 2)]
        assert members_of(open_hull(k2, [{1}, {2}])) == [(1,), (1, 2), (2,)]
        assert len(open_hull(k2, [])) == 0

    def test_requires_membership(self, k2):
        with pytest.raises(DomainError):
            open_hull(k2, [{1}, {3}])

    @given(random_complexes(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_union_of_stars(self, g, data):
        xs = data.draw(st.lists(st.sampled_from(g.simplices), max_size=4))
        u = open_hull(g, xs)
        assert isinstance(u, OpenSet) and u.ambient == g
        assert u.members == union_of_stars(g, xs)


class TestIsOpenSetLiteral:
    @given(random_complexes(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_unions_of_stars_and_their_punctures(self, g, data):
        xs = data.draw(st.lists(st.sampled_from(g.simplices), min_size=1, max_size=3))
        union = union_of_stars(g, xs)
        assert SimplexSubset(g, union).is_open_set()
        for y in sorted(union):
            rest = union - {y}
            assert SimplexSubset(g, rest).is_open_set() == upward_closed(
                g, {s.bits for s in rest})

    @given(random_complexes(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_subsets(self, g, data):
        sub = data.draw(st.sets(st.sampled_from(g.simplices)))
        assert SimplexSubset(g, sub).is_open_set() == upward_closed(
            g, {s.bits for s in sub})


class TestGenerateTopology:
    def test_point(self):
        g = closure([[1]])
        assert len(generate_topology(g)) == 2

    def test_k2_has_five_open_sets(self, k2):
        tops = generate_topology(k2)
        assert len(tops) == 5
        sizes = sorted(len(t) for t in tops)
        assert sizes == [0, 1, 2, 2, 3]

    def test_c4_count_matches_brute_force(self, c4):
        # oracle: filter all 2^8 subsets by upward closure
        ss = c4.simplices
        count = 0
        for mask in range(1 << len(ss)):
            sub = [ss[i] for i in range(len(ss)) if mask >> i & 1]
            if SimplexSubset(c4, sub).is_open_set():
                count += 1
        tops = generate_topology(c4)
        assert count == len(tops) == 47

    def test_budget(self, octa):
        with pytest.raises(ResourceBudgetError):
            generate_topology(octa, budget=10)

    def test_all_results_open(self, k2):
        for t in generate_topology(k2):
            assert t.is_open_set()


class TestPatching:
    @given(random_complexes(max_vertices=6, max_edges=9))
    @settings(max_examples=15, deadline=None)
    def test_intersection_in_two_opens_forces_points_in(self, g):
        tops = generate_topology(g, budget=DEFAULT_TOPOLOGY_BUDGET)
        opens = [t for t in tops if len(t)][:8]
        for u, v in itertools.combinations(opens, 2):
            uv = u.members & v.members
            uvb = {s.bits for s in uv}
            for x, y in itertools.product(sorted(u.members), sorted(v.members)):
                z = x.bits & y.bits
                if z and z in uvb:
                    assert x.bits in uvb and y.bits in uvb


class TestBarycentric:
    def test_edge_subdivides(self, k2):
        assert barycentric(k2).f_vector == (3, 2)

    def test_cycle_doubles(self, c4):
        g1 = barycentric(c4)
        assert g1.f_vector == (8, 8)

    def test_vertex_count_is_simplex_count(self, octa):
        assert barycentric(octa).f_vector[0] == len(octa)

    @given(random_complexes(max_vertices=6, max_edges=8))
    @settings(max_examples=15, deadline=None)
    def test_characteristics_invariant(self, g):
        g1 = barycentric(g)
        for m in (1, 2, 3):
            assert w_m(g1, m) == w_m(g, m)


class TestOpenRefinement:
    def test_whole_complex(self, k2):
        u = SimplexSubset(k2, k2.simplices)
        assert open_refinement(k2, u).member_bits == barycentric(k2).member_bits

    def test_empty(self, k2):
        u = SimplexSubset(k2, [])
        assert len(open_refinement(k2, u)) == 0

    def test_open_interval(self, k2):
        u1 = open_refinement(k2, SimplexSubset(k2, [{1, 2}]))
        dims = sorted(s.dim for s in u1.members)
        assert dims == [0, 1, 1]
        assert w_m(u1, 1) == -1

    def test_non_open_rejected(self, k2):
        with pytest.raises(DomainError):
            open_refinement(k2, SimplexSubset(k2, [{1}]))

    @given(random_complexes(max_vertices=6, max_edges=8))
    @settings(max_examples=10, deadline=None)
    def test_w1_w2_preserved(self, g):
        from higherchar.cli import random_open_set
        from higherchar.generators import SplitMix64

        rng = SplitMix64(7)
        for _ in range(5):
            u = random_open_set(g, rng)
            u1 = open_refinement(g, u)
            assert w_m(u1, 1) == w_m(u, 1)
            assert w_m(u1, 2) == w_m(u, 2)
