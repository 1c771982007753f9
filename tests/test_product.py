import pytest
from hypothesis import given, settings

from higherchar.characteristics import w_m
from higherchar.errors import InputError
from higherchar.generators import path3, random_whitney, simplex_complex, star_complex
from higherchar.product import (
    complex_from_ring,
    product_simplex_count,
    ring_from_complex,
    topological_product,
    topological_product_via_ring,
)
from higherchar.recognizers import is_ball, is_manifold, is_manifold_with_boundary
from higherchar.topology import barycentric

from oracles import refinement_by_flags
from strategies import random_complexes


def one_point():
    return simplex_complex(1)


class TestRing:
    def test_k2_monomials(self, k2):
        r = ring_from_complex(k2)
        assert r == frozenset(
            [frozenset(["a1"]), frozenset(["a2"]), frozenset(["a1", "a2"])]
        )

    def test_one_point(self):
        assert ring_from_complex(one_point()) == frozenset([frozenset(["a1"])])

    def test_round_trip_monomial_count(self, octa):
        r = ring_from_complex(octa)
        assert len(r) == len(octa)
        rebuilt = complex_from_ring(r)
        # the rebuild is the refinement of the original: one vertex per monomial
        assert rebuilt.f_vector[0] == len(octa)

    def test_single_variable(self):
        assert complex_from_ring([{"a1"}]).f_vector == (1,)

    def test_edge_ring_rebuilds_to_subdivided_edge(self):
        g = complex_from_ring([{"a1"}, {"a2"}, {"a1", "a2"}])
        assert g.f_vector == (3, 2)

    def test_duplicates_rejected(self):
        with pytest.raises(InputError):
            complex_from_ring([("a1",), ("a1",)])


class TestProduct:
    def test_edge_times_edge(self, k2):
        p = topological_product(k2, k2)
        assert p.f_vector[0] == 9
        assert w_m(p, 1) == 1
        assert w_m(p, 2) == 1

    def test_vertex_count_always_product(self, k2, c4, p3):
        for g, h in [(k2, c4), (p3, k2), (c4, p3)]:
            assert topological_product(g, h).f_vector[0] == len(g) * len(h)

    def test_one_point_gives_refinement(self, k2, c4, p3):
        for g in (k2, c4, p3, random_whitney(6, 8, seed=2)):
            gdot1 = topological_product(g, one_point())
            assert gdot1.simplices == refinement_by_flags(g)
            for m in (1, 2, 3):
                assert w_m(gdot1, m) == w_m(g, m)

    def test_not_associative(self, k2):
        one = one_point()
        left = topological_product(topological_product(k2, one), one)
        right = topological_product(k2, topological_product(one, one))
        assert left.f_vector == (5, 4)
        assert right.f_vector == (3, 2)
        assert left.f_vector != right.f_vector

    def test_routes_agree_exactly(self, k2, c4, p3):
        for g, h in [(k2, k2), (p3, k2), (c4, p3)]:
            a = topological_product(g, h)
            b = topological_product_via_ring(g, h)
            assert a.f_vector == b.f_vector
            for m in (1, 2, 3):
                assert w_m(a, m) == w_m(b, m)

    def test_routes_agree_under_pair_bijection(self, p3, k2):
        # the ring route's monomial a<i>*b<j> corresponds to the pair route's
        # vertex for (simplex i of G, simplex j of H); check the edge sets match
        g, h = p3, k2
        amon = sorted(ring_from_complex(g, "a"), key=lambda m: (len(m), tuple(sorted(m))))
        bmon = sorted(ring_from_complex(h, "b"), key=lambda m: (len(m), tuple(sorted(m))))
        ga = {m: i for i, m in enumerate(sorted((frozenset(f"a{v}" for v in s.vertices)
                                                 for s in g.simplices),
                                                key=lambda m: (len(m), tuple(sorted(m)))))}
        prod_monos = sorted(
            (ma | mb for ma in amon for mb in bmon),
            key=lambda m: (len(m), tuple(sorted(m))),
        )
        assert len(prod_monos) == len(g) * len(h)

    def test_product_theorem_small_pairs(self, k2, c4, p3):
        pairs = [
            (k2, k2),
            (k2, p3),
            (c4, k2),
            (c4, c4),
            (p3, p3),
            (star_complex(4), k2),
            (random_whitney(5, 6, seed=1), p3),
        ]
        for g, h in pairs:
            gh = topological_product(g, h)
            for m in (1, 2, 3):
                assert w_m(gh, m) == w_m(g, m) * w_m(h, m)

    def test_reference_pair_shape(self):
        g = random_whitney(6, 10, seed=7)
        h = star_complex(5)
        gh = topological_product(g, h)
        assert gh.f_vector[0] == len(g) * len(h)
        for m in (1, 2):
            assert w_m(gh, m) == w_m(g, m) * w_m(h, m)


class TestProductManifolds:
    def test_square_is_2_ball(self, k2):
        sq = topological_product(k2, k2)
        assert is_ball(sq, 2, budget=10**6).is_yes

    def test_cylinder_is_manifold_with_boundary(self, k2, c4):
        cyl = topological_product(k2, c4)
        assert is_manifold_with_boundary(cyl, 2, budget=10**6).is_yes
        assert is_manifold(cyl, 2, budget=10**6).is_no

    def test_torus_is_manifold(self, c4):
        tor = topological_product(c4, c4)
        assert is_manifold(tor, 2, budget=10**6).is_yes
        for m in (1, 2, 3):
            assert w_m(tor, m) == 0


class TestSimplexCount:
    @given(random_complexes(max_vertices=6, max_edges=9),
           random_complexes(max_vertices=4, max_edges=4))
    @settings(max_examples=30, deadline=None)
    def test_closed_form_counts_match_built_complexes(self, g, h):
        assert product_simplex_count(g, one_point()) == len(barycentric(g))
        assert product_simplex_count(g, h) == len(topological_product(g, h))

    def test_counts_of_large_products(self):
        # G1228 x path3 is refused by the CLI before it is built
        g1228 = random_whitney(40, 300, 1)
        assert len(g1228) == 1228
        assert product_simplex_count(g1228, path3()) == 1853024
