import sys

import pytest

from higherchar import recognizers
from higherchar.characteristics import w_m
from higherchar.complexes import Complex, join
from higherchar.errors import DomainError
from higherchar.generators import (
    cross_polytope,
    cycle,
    simplex_complex,
    star_complex,
)
from higherchar.topology import barycentric
from higherchar.recognizers import (
    is_ball,
    is_contractible,
    is_dehn_sommerville,
    is_manifold,
    is_manifold_with_boundary,
    is_sphere,
    manifold_boundary,
)


class TestContractible:
    def test_one_point(self):
        assert is_contractible(simplex_complex(1)).is_yes

    def test_empty(self):
        assert is_contractible(Complex.empty()).is_no

    def test_simplex_closures(self):
        for n in (2, 3, 4, 5):
            assert is_contractible(simplex_complex(n)).is_yes

    def test_star_complexes(self):
        assert is_contractible(star_complex(6)).is_yes

    def test_cycle_not_contractible(self):
        assert is_contractible(cycle(4)).is_no
        assert is_contractible(cycle(6)).is_no

    def test_two_points_not_contractible(self):
        assert is_contractible(Complex([[1], [2]])).is_no

    def test_wedge_of_triangles(self):
        # two filled triangles sharing one vertex: contractible, no manifold
        from higherchar.complexes import closure

        bowtie = closure([{1, 2, 3}, {3, 4, 5}])
        assert is_contractible(bowtie).is_yes
        assert is_manifold(bowtie, 2).is_no

    def test_budget_exhaustion_unknown(self):
        v = is_contractible(cross_polytope(2), budget=3)
        assert v.is_unknown

    def test_verdicts_stable_across_repeat_calls(self):
        g = cross_polytope(2)
        assert is_sphere(g, 2).status == is_sphere(g, 2).status
        a = is_contractible(g)
        b = is_contractible(g)
        assert a.status == b.status and a.calls_used == b.calls_used

    def test_certificate_is_vertex_trace(self, tetra):
        v = is_contractible(tetra)
        assert v.is_yes
        assert len(v.certificate) >= 1
        assert all(isinstance(x, int) for x in v.certificate)


class TestSphere:
    def test_void_is_minus_one_sphere(self):
        assert is_sphere(Complex.empty(), -1).is_yes
        assert is_sphere(Complex.empty(), 0).is_no

    def test_zero_sphere(self):
        assert is_sphere(Complex([[1], [2]]), 0).is_yes
        assert is_sphere(Complex([[1], [2], [3]]), 0).is_no

    def test_cycles(self):
        for n in (4, 5, 7):
            assert is_sphere(cycle(n), 1).is_yes

    def test_cross_polytopes(self):
        for d in (0, 1, 2, 3):
            assert is_sphere(cross_polytope(d), d).is_yes

    def test_k2_is_not_a_sphere(self, k2):
        assert is_sphere(k2, 1).is_no

    def test_wrong_dimension(self, octa):
        assert is_sphere(octa, 1).is_no

    def test_budget_exhaustion_unknown(self, octa):
        assert is_sphere(octa, 2, budget=4).is_unknown
        assert is_manifold(octa, 2, budget=2).is_unknown


class TestBall:
    def test_k2_is_1_ball(self, k2):
        assert is_ball(k2, 1).is_yes

    def test_point_is_0_ball(self):
        assert is_ball(simplex_complex(1), 0).is_yes

    def test_tetra_closure_is_3_ball(self, tetra):
        assert is_ball(tetra, 3).is_yes

    def test_sphere_is_not_a_ball(self, octa):
        assert is_ball(octa, 2).is_no

    def test_path3(self, p3):
        assert is_ball(p3, 1).is_yes


class TestManifold:
    def test_cycles_are_1_manifolds(self):
        for n in (4, 5, 6):
            assert is_manifold(cycle(n), 1).is_yes

    def test_octahedron(self, octa):
        assert is_manifold(octa, 2).is_yes

    def test_k2_has_boundary(self, k2):
        assert is_manifold(k2, 1).is_no
        assert is_manifold_with_boundary(k2, 1).is_yes

    def test_boundaryless_counts_as_with_boundary(self, c4):
        assert is_manifold_with_boundary(c4, 1).is_yes

    def test_not_a_manifold(self, p3):
        assert is_manifold(p3, 1).is_no


class TestBoundary:
    def test_k2_endpoints(self, k2):
        b = manifold_boundary(k2, 1)
        assert sorted(s.vertices for s in b) == [(1,), (2,)]

    def test_tetra_boundary_is_2_sphere(self, tetra):
        b = manifold_boundary(tetra, 3)
        assert b.f_vector == (4, 6, 4)
        assert is_sphere(b, 2).is_yes

    def test_octahedron_boundary_empty(self, octa):
        assert len(manifold_boundary(octa, 2)) == 0

    def test_requires_certification(self, p3):
        with pytest.raises(DomainError):
            manifold_boundary(p3, 2)

    def test_boundary_is_manifold_without_boundary(self, tetra):
        b = manifold_boundary(tetra, 3)
        assert is_manifold(b, 2).is_yes


class TestDehnSommerville:
    def test_void(self):
        assert is_dehn_sommerville(Complex.empty(), -1).is_yes

    def test_c4(self, c4):
        assert is_dehn_sommerville(c4, 1).is_yes

    def test_k2(self, k2):
        assert is_dehn_sommerville(k2, 1).is_no

    def test_spheres_are_ds(self):
        for d in (0, 1, 2, 3):
            assert is_dehn_sommerville(cross_polytope(d), d).is_yes

    def test_join_preserves_ds(self, c4):
        j = join(c4, Complex([[5], [6]]))
        assert is_dehn_sommerville(j, 2).is_yes
        jj = join(cycle(4), cycle(4), relabel=True)
        assert is_dehn_sommerville(jj, 3).is_yes


class TestSphereTheorems:
    def test_certified_spheres_have_constant_characteristics(self):
        for d in (0, 1, 2):
            g = cross_polytope(d)
            assert is_sphere(g, d).is_yes
            expected = 1 + (-1) ** d
            for m in (1, 2, 3):
                assert w_m(g, m) == expected

    def test_join_of_spheres_is_sphere(self):
        for p, q in [(0, 0), (0, 1), (1, 1)]:
            a = cross_polytope(p)
            b = cross_polytope(q)
            j = join(a, b, relabel=True)
            assert is_sphere(j, p + q + 1).is_yes

    def test_odd_manifolds_have_vanishing_characteristics(self):
        for g in (cycle(4), cycle(5), cycle(6)):
            assert is_manifold(g, 1).is_yes
            for m in (1, 2, 3):
                assert w_m(g, m) == 0


# (complex, recognizer, status, certificate, calls_used) with d = dim of the
# complex and the default budget.  The certificates and call counts pin the
# search order and the memoization, not only the verdicts.
PINNED = [
    # cross_polytope(2), d = 2
    ("cross_polytope(2)", "is_contractible", "no", (), 7),
    ("cross_polytope(2)", "is_sphere", "yes", (1, 3, 5, 2, 4), 98),
    ("cross_polytope(2)", "is_ball", "no", (), 102),
    ("cross_polytope(2)", "is_manifold", "yes", (), 94),
    ("cross_polytope(2)", "is_manifold_with_boundary", "yes", (), 94),
    ("cross_polytope(2)", "is_dehn_sommerville", "yes", (), 39),
    # cross_polytope(3), d = 3
    ("cross_polytope(3)", "is_contractible", "no", (), 15),
    ("cross_polytope(3)", "is_sphere", "yes", (1, 3, 5, 7, 2, 4, 6), 633),
    ("cross_polytope(3)", "is_ball", "no", (), 644),
    ("cross_polytope(3)", "is_manifold", "yes", (), 628),
    ("cross_polytope(3)", "is_manifold_with_boundary", "yes", (), 628),
    ("cross_polytope(3)", "is_dehn_sommerville", "yes", (), 239),
    # simplex_complex(3), d = 2
    ("simplex_complex(3)", "is_contractible", "yes", (1, 2), 2),
    ("simplex_complex(3)", "is_sphere", "no", (), 6),
    ("simplex_complex(3)", "is_ball", "yes", (1, 2), 53),
    ("simplex_complex(3)", "is_manifold", "no", (), 5),
    ("simplex_complex(3)", "is_manifold_with_boundary", "yes", (), 51),
    ("simplex_complex(3)", "is_dehn_sommerville", "no", (), 1),
    # barycentric(cross_polytope(2)), d = 2
    ("barycentric(cross_polytope(2))", "is_contractible", "no", (), 75),
    ("barycentric(cross_polytope(2))", "is_sphere", "yes",
     (6, 18, 8, 14, 0, 7, 9, 19, 15, 2, 10, 20, 16, 4, 22, 12, 21, 17, 3, 24, 11, 1, 23, 5, 13),
     770),
    ("barycentric(cross_polytope(2))", "is_ball", "no", (), 773),
    ("barycentric(cross_polytope(2))", "is_manifold", "yes", (), 697),
    ("barycentric(cross_polytope(2))", "is_manifold_with_boundary", "yes", (), 697),
    ("barycentric(cross_polytope(2))", "is_dehn_sommerville", "yes", (), 267),
]

PINNED_COMPLEXES = {
    "cross_polytope(2)": lambda: cross_polytope(2),
    "cross_polytope(3)": lambda: cross_polytope(3),
    "simplex_complex(3)": lambda: simplex_complex(3),
    "barycentric(cross_polytope(2))": lambda: barycentric(cross_polytope(2)),
}


class TestPinnedVerdicts:
    @pytest.mark.parametrize("name,fn,status,certificate,calls", PINNED)
    def test_verdict_certificate_and_calls(self, name, fn, status, certificate, calls):
        g = PINNED_COMPLEXES[name]()
        if fn == "is_contractible":
            v = is_contractible(g)
        else:
            v = getattr(recognizers, fn)(g, g.dim)
        assert (v.status.value, v.certificate, v.calls_used) == (status, certificate, calls)

    def test_small_budget_unknown(self):
        # the refused 51st call ends the search
        v = is_sphere(cross_polytope(3), 3, budget=50)
        assert (v.status.value, v.certificate, v.calls_used) == ("unknown", (), 51)

    def test_spent_budget_ends_search(self):
        g = barycentric(barycentric(cross_polytope(2)))
        v = is_ball(g, 2, budget=50)
        assert (v.status.value, v.certificate, v.calls_used) == ("unknown", (), 51)


class TestProcessState:
    def test_recursion_limit_restored(self, tetra):
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1500)  # below what the recognizers ask for
        try:
            assert is_sphere(cross_polytope(2), 2).is_yes
            assert sys.getrecursionlimit() == 1500
            manifold_boundary(tetra, 3)
            assert sys.getrecursionlimit() == 1500
        finally:
            sys.setrecursionlimit(old)
