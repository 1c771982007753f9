import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higherchar import recognizers
from higherchar.characteristics import w_m
from higherchar.complexes import Complex, Simplex, closure, join
from higherchar.errors import DomainError
from higherchar.generators import (
    cross_polytope,
    cycle,
    path3,
    random_whitney,
    simplex_complex,
    star_complex,
)
from higherchar.product import topological_product
from higherchar.topology import barycentric
from higherchar.recognizers import (
    Status,
    is_ball,
    is_contractible,
    is_dehn_sommerville,
    is_manifold,
    is_manifold_with_boundary,
    is_sphere,
    manifold_boundary,
)

from oracles import (
    ball_by_every_link,
    dehn_sommerville_by_every_link,
    manifold_by_every_link,
    sphere_by_every_link,
    unit_sphere_by_scan,
    vertex_stars_by_filter,
    vertices_by_popcount,
)
from strategies import random_complexes


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
        bowtie = closure([{1, 2, 3}, {3, 4, 5}])
        assert is_contractible(bowtie).is_yes
        assert is_manifold(bowtie, 2).is_no

    def test_budget_exhaustion_unknown(self):
        # chi = 1 passes, and the search needs 10 calls
        v = is_contractible(barycentric(simplex_complex(3)), budget=3)
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

    def test_spent_budget_refused(self, tetra):
        with pytest.raises(DomainError, match="ran out of budget"):
            manifold_boundary(tetra, 3, budget=5)

    def test_boundary_is_manifold_without_boundary(self, tetra):
        b = manifold_boundary(tetra, 3)
        assert is_manifold(b, 2).is_yes

    # built from masks unchecked: the manifold-with-boundary verdict is what
    # closes the boundary under subsets
    @pytest.mark.parametrize("name,g,d", [
        ("k2", simplex_complex(2), 1),
        ("p3", closure([{1, 2}, {2, 3}]), 1),
        ("c4", cycle(4), 1),
        ("tri", simplex_complex(3), 2),
        ("octa", cross_polytope(2), 2),
        ("tetra", simplex_complex(4), 3),
        ("bary(tri)", barycentric(simplex_complex(3)), 2),
        ("cone(c5)", join(simplex_complex(1), cycle(5), relabel=True), 2),
    ])
    def test_equals_validated_construction(self, name, g, d):
        b = manifold_boundary(g, d)
        validated = Complex(map(Simplex.from_bits, b.masks))
        assert b == validated and b.masks == validated.masks


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
# search order, the memoization and the refutations by chi, not only the
# verdicts.
PINNED = [
    # cross_polytope(2), d = 2
    ("cross_polytope(2)", "is_contractible", "no", (), 1),
    ("cross_polytope(2)", "is_sphere", "yes", (1, 3, 5, 2, 4), 23),
    ("cross_polytope(2)", "is_ball", "no", (), 1),
    ("cross_polytope(2)", "is_manifold", "yes", (), 19),
    ("cross_polytope(2)", "is_manifold_with_boundary", "yes", (), 94),
    ("cross_polytope(2)", "is_dehn_sommerville", "yes", (), 7),
    # cross_polytope(3), d = 3
    ("cross_polytope(3)", "is_contractible", "no", (), 1),
    ("cross_polytope(3)", "is_sphere", "yes", (1, 3, 5, 7, 2, 4, 6), 58),
    ("cross_polytope(3)", "is_ball", "no", (), 1),
    ("cross_polytope(3)", "is_manifold", "yes", (), 53),
    ("cross_polytope(3)", "is_manifold_with_boundary", "yes", (), 520),
    ("cross_polytope(3)", "is_dehn_sommerville", "yes", (), 15),
    # simplex_complex(3), d = 2
    ("simplex_complex(3)", "is_contractible", "yes", (1, 2), 2),
    ("simplex_complex(3)", "is_sphere", "no", (), 1),
    ("simplex_complex(3)", "is_ball", "yes", (1, 2), 44),
    ("simplex_complex(3)", "is_manifold", "no", (), 2),
    ("simplex_complex(3)", "is_manifold_with_boundary", "yes", (), 42),
    ("simplex_complex(3)", "is_dehn_sommerville", "no", (), 1),
    # barycentric(cross_polytope(2)), d = 2
    ("barycentric(cross_polytope(2))", "is_contractible", "no", (), 1),
    ("barycentric(cross_polytope(2))", "is_sphere", "yes",
     (6, 18, 8, 14, 0, 7, 9, 19, 15, 2, 10, 20, 16, 4, 22, 12, 21, 17, 3, 24, 11, 1, 23, 5, 13),
     284),
    ("barycentric(cross_polytope(2))", "is_ball", "no", (), 1),
    ("barycentric(cross_polytope(2))", "is_manifold", "yes", (), 233),
    ("barycentric(cross_polytope(2))", "is_manifold_with_boundary", "yes", (), 697),
    ("barycentric(cross_polytope(2))", "is_dehn_sommerville", "yes", (), 75),
    # the heavy recognizer queries of the benchmark's corpus workload
    # (cross_polytope(3), is_ball is pinned above)
    ("cross_polytope(4)", "is_sphere", "yes", (1, 3, 5, 7, 9, 2, 4, 6, 8), 137),
    ("cross_polytope(4)", "is_contractible", "no", (), 1),
    ("barycentric(barycentric(cross_polytope(2)))", "is_sphere", "yes",
     (26, 98, 30, 74, 6, 42, 75, 99, 31, 114, 46, 115, 47, 102, 28, 78,
      8, 58, 79, 103, 32, 130, 62, 18, 90, 118, 44, 131, 63, 134, 60, 14,
      91, 119, 48, 135, 64, 100, 27, 76, 0, 29, 33, 101, 77, 7, 50, 104,
      80, 105, 81, 9, 66, 122, 54, 20, 94, 123, 55, 126, 52, 136, 61, 16,
      95, 127, 56, 137, 65, 4, 59, 132, 86, 133, 87, 12, 36, 110, 38, 22,
      82, 106, 34, 111, 40, 24, 84, 108, 35, 116, 43, 10, 83, 107, 39, 117,
      49, 2, 45, 120, 92, 19, 138, 70, 121, 93, 15, 142, 68, 124, 51, 11,
      85, 109, 41, 1, 37, 112, 88, 23, 143, 72, 113, 89, 13, 140, 67, 125,
      57, 3, 53, 128, 96, 21, 139, 71, 129, 97, 17, 144, 69, 5, 141, 25,
      73),
     1787),
    ("barycentric(barycentric(cross_polytope(2)))", "is_dehn_sommerville", "yes", (), 435),
    ("barycentric(barycentric(cross_polytope(2)))", "is_contractible", "no", (), 1),
    # the manifold test reads the unit spheres of the vertices only: 10 of
    # the 242 simplices of cross_polytope(4), 12 of the 728 of cross_polytope(5)
    ("cross_polytope(4)", "is_manifold", "yes", (), 131),
    ("cross_polytope(5)", "is_sphere", "yes", (1, 3, 5, 7, 9, 11, 2, 4, 6, 8, 10), 312),
    # chi = 2 refutes a ball at once; the manifold-with-boundary walk took 12 282
    ("cross_polytope(5)", "is_ball", "no", (), 1),
]

PINNED_COMPLEXES = {
    "cross_polytope(2)": lambda: cross_polytope(2),
    "cross_polytope(3)": lambda: cross_polytope(3),
    "simplex_complex(3)": lambda: simplex_complex(3),
    "barycentric(cross_polytope(2))": lambda: barycentric(cross_polytope(2)),
    "cross_polytope(4)": lambda: cross_polytope(4),
    "cross_polytope(5)": lambda: cross_polytope(5),
    "barycentric(barycentric(cross_polytope(2)))":
        lambda: barycentric(barycentric(cross_polytope(2))),
}


class TestPinnedVerdicts:
    @pytest.mark.parametrize("name,fn,status,certificate,calls", PINNED,
                             ids=[f"{name}-{fn}" for name, fn, *_ in PINNED])
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
        # a 2-ball, so chi = 1 passes; the whole query takes 132 calls
        g = barycentric(simplex_complex(3))
        v = is_ball(g, 2, budget=50)
        assert (v.status.value, v.certificate, v.calls_used) == ("unknown", (), 51)


class TestStarIndex:
    """Stars and links read from the star index equal the literal filter and
    scan, order included."""

    @staticmethod
    def _check(g):
        idx = recognizers._StarIndex(g)
        assert [(1 << (p - 1), ys) for p, ys in idx.st.items()] == vertex_stars_by_filter(g)
        assert idx.vertices_by_star_size() == vertices_by_popcount(g)
        members = set(g)
        for xb in g:
            assert idx.unit_sphere(xb) == unit_sphere_by_scan(g, members, xb)

    @given(random_complexes(max_vertices=8, max_edges=18), st.data())
    @settings(max_examples=40, deadline=None)
    def test_links_match_scan(self, g, data):
        g = tuple(s.bits for s in g.simplices)
        self._check(g)
        xb = data.draw(st.sampled_from(g))
        link = unit_sphere_by_scan(g, set(g), xb)
        puncture = tuple(s for s in g if s & xb != xb)
        self._check(link)
        self._check(puncture)

    def test_links_match_scan_on_refinement(self):
        self._check(tuple(s.bits for s in barycentric(cross_polytope(3)).simplices))

    @given(st.one_of(random_complexes(max_vertices=8, max_edges=18),
                     st.just(barycentric(cross_polytope(2))),
                     random_complexes(max_vertices=4, max_edges=4).map(
                         lambda g: topological_product(g, path3()))))
    @settings(max_examples=40, deadline=None)
    def test_stars_and_links_match_oracles(self, g):
        # a product's masks are |G|·|H| bits wide
        self._check(g.masks)


class TestDerivedStarIndex:
    """The index of a vertex puncture p = g - U(v), derived from g's, equals
    the index built from p: every star list in order, the candidate order and
    every unit sphere, along a random chain of punctures."""

    @staticmethod
    def _check_chain(g, data):
        idx = recognizers._StarIndex(g)
        for _ in range(data.draw(st.integers(min_value=1, max_value=len(idx.st)))):
            vb = 1 << (data.draw(st.sampled_from(sorted(idx.st))) - 1)
            p = tuple(b for b in idx.g if not b & vb)
            idx = idx.punctured(vb, p)
            fresh = recognizers._StarIndex(p)
            assert list(idx.st.items()) == list(fresh.st.items())
            assert idx.vertices_by_star_size() == fresh.vertices_by_star_size()
            for xb in p:
                assert idx.unit_sphere(xb) == fresh.unit_sphere(xb)
            if not p:
                break

    @given(random_complexes(max_vertices=8, max_edges=18), st.data())
    @settings(max_examples=60, deadline=None)
    def test_chain_matches_fresh_index(self, g, data):
        self._check_chain(g.masks, data)

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_chain_matches_fresh_index_on_refinement(self, data):
        self._check_chain(barycentric(cross_polytope(2)).masks, data)


class TestIndexBuilds:
    """How many star indexes a query builds afresh and how many it
    derives from a parent's, pinned per query; a memo hit builds none."""

    @pytest.fixture
    def builds(self, monkeypatch):
        counts = {"fresh": 0, "derived": 0}
        stars = recognizers._StarIndex._stars

        def counting(idx):
            counts["derived" if idx._parent is not None else "fresh"] += 1
            return stars(idx)

        monkeypatch.setattr(recognizers._StarIndex, "_stars", counting)
        return counts

    @pytest.mark.parametrize("query,fresh,derived,calls", [
        (lambda: is_sphere(barycentric(barycentric(cross_polytope(2))), 2), 549, 732, 1787),
        # chi refutes these two before any star is built
        (lambda: is_contractible(random_whitney(12, 30, 2)), 0, 0, 1),
        (lambda: is_ball(cross_polytope(3), 3), 0, 0, 1),
        (lambda: is_dehn_sommerville(cross_polytope(3), 3), 15, 0, 15),
        (lambda: is_contractible(barycentric(simplex_complex(4))), 22, 24, 46),
        (lambda: is_ball(barycentric(simplex_complex(3)), 2), 45, 16, 132),
    ], ids=["sphere-bary2-cp2", "contractible-rw12", "ball-cp3", "dehn-sommerville-cp3",
            "contractible-bary-sx4", "ball-bary-sx3"])
    def test_builds_per_query(self, builds, query, fresh, derived, calls):
        assert query().calls_used == calls
        assert (builds["fresh"], builds["derived"]) == (fresh, derived)

    def test_memo_hit_builds_nothing(self, builds, monkeypatch):
        # the antipodal vertices 1 and 2 of cp(2) have one link, a 4-cycle,
        # so the second sub-query on it is a memo hit inside one query
        g = cross_polytope(2)
        link = unit_sphere_by_scan(g.masks, g.member_bits, 1 << 1)
        assert unit_sphere_by_scan(g.masks, g.member_bits, 1 << 2) == link
        built = []
        counting = recognizers._StarIndex._stars
        monkeypatch.setattr(recognizers._StarIndex, "_stars",
                            lambda i: built.append(i.g) or counting(i))
        assert is_manifold(g, 2).calls_used == 19
        assert built.count(link) == 1
        assert (builds["fresh"], builds["derived"]) == (7, 6)


def _puncture(g, xb):
    return Complex._of_bits(b for b in g.masks if b & xb != xb)


def _boundary_of_simplex(k):
    """The boundary of the simplex on vertices 1..k, a (k-2)-sphere."""
    return Complex([c for r in range(1, k) for c in combinations(range(1, k + 1), r)])


_JOIN_FACTORS = st.one_of(
    st.sampled_from([Complex.empty(), simplex_complex(1), simplex_complex(2),
                     cross_polytope(0), cycle(4)]),
    random_complexes(max_vertices=4, max_edges=4),
)


@st.composite
def recognizer_complexes(draw):
    """Random, cross-polytope and refined complexes, then maybe a join with a
    small factor, then maybe a puncture.  Joins stay at dimension 3 or less:
    the oracle tests every simplex, and a 5-dimensional join of
    cross_polytope(3) and a cycle takes it some 25 s."""
    g = draw(st.one_of(
        random_complexes(max_vertices=8, max_edges=16),
        st.integers(min_value=-1, max_value=3).map(cross_polytope),
        random_complexes(max_vertices=4, max_edges=5).map(barycentric),
        st.sampled_from([cycle(4), cross_polytope(1), cross_polytope(2)]).map(barycentric),
    ))
    if draw(st.booleans()):
        h = draw(_JOIN_FACTORS)
        if g.dim + h.dim + 1 <= 3:
            g = join(g, h, relabel=True)
    if g.masks and draw(st.booleans()):
        g = _puncture(g, draw(st.sampled_from(g.masks)))
    return g


def _status(truth):
    return "yes" if truth else "no"


class TestEveryLinkOracle:
    """The vertex-only manifold test against the literal test over every
    simplex (the theorem in the recognizers module docstring)."""

    @given(recognizer_complexes())
    @settings(max_examples=60, deadline=None)
    def test_recognizers_match_oracle(self, g):
        for d in (g.dim - 1, g.dim, g.dim + 1):
            if d >= -1:
                assert is_sphere(g, d).status.value == _status(sphere_by_every_link(g, d))
            if d >= 0:
                assert is_manifold(g, d).status.value == _status(manifold_by_every_link(g, d))
            assert is_ball(g, d).status.value == _status(ball_by_every_link(g, d))


def _disjoint_union(*gs):
    """The complexes side by side, each relabelled past the ones before it."""
    masks, shift = [], 0
    for g in gs:
        masks.extend(b << shift for b in g.masks)
        shift += max(g.vertex_ids) + 1
    return Complex._of_bits(masks)


_S0 = cross_polytope(0)

# (name, constructor, d) of Dehn-Sommerville d-spaces, 54 YES queries:
# spheres, refined spheres, joins, and the disjoint unions of cycles and
# their suspensions, which are not spheres
_DS_SPACES = (
    [(f"cp({k})", lambda k=k: cross_polytope(k), k) for k in range(5)]
    + [(f"bary(cp({k}))", lambda k=k: barycentric(cross_polytope(k)), k) for k in range(4)]
    + [(f"bary(bary(cp({k})))", lambda k=k: barycentric(barycentric(cross_polytope(k))), k)
       for k in range(3)]
    + [(f"c{n}", lambda n=n: cycle(n), 1) for n in range(4, 10)]
    + [(f"c{n}*S0", lambda n=n: join(cycle(n), _S0, relabel=True), 2) for n in range(4, 10)]
    + [(f"c{m}*c{n}", lambda m=m, n=n: join(cycle(m), cycle(n), relabel=True), 3)
       for m in range(4, 7) for n in range(m, 7)]
    + [(f"c{m}+c{n}", lambda m=m, n=n: _disjoint_union(cycle(m), cycle(n)), 1)
       for m in range(4, 8) for n in range(m, 8)]
    + [(f"(c{m}+c{n})*S0",
        lambda m=m, n=n: join(_disjoint_union(cycle(m), cycle(n)), _S0, relabel=True), 2)
       for m in range(4, 7) for n in range(m, 7)]
    + [("c4+c4+c4", lambda: _disjoint_union(cycle(4), cycle(4), cycle(4)), 1),
       ("(c4+c4+c4)*S0",
        lambda: join(_disjoint_union(cycle(4), cycle(4), cycle(4)), _S0, relabel=True), 2),
       ("(c4+c4)*c4", lambda: join(_disjoint_union(cycle(4), cycle(4)), cycle(4), relabel=True), 3),
       ("(c4+c5)*c5", lambda: join(_disjoint_union(cycle(4), cycle(5)), cycle(5), relabel=True), 3)]
    + [(f"S0 x c{n}", lambda n=n: topological_product(_S0, cycle(n)), 1) for n in range(4, 7)]
    + [("(S0 x cp(1))*S0",
        lambda: join(topological_product(_S0, cross_polytope(1)), _S0, relabel=True), 2)]
)

# closed 2-manifolds whose Euler characteristic is not 2
_NOT_DS = [
    ("torus c4 x c4", lambda: topological_product(cycle(4), cycle(4))),
    ("two 2-spheres S0 x cp(2)", lambda: topological_product(_S0, cross_polytope(2))),
]


class TestDehnSommervilleOracle:
    """The vertex-only Dehn-Sommerville test against the literal test over
    every simplex ((F) of the recognizers module docstring)."""

    @given(random_complexes())
    @settings(max_examples=60, deadline=None)
    def test_random_complexes_match_oracle(self, g):
        for d in range(-1, g.dim + 2):
            assert (is_dehn_sommerville(g, d).status.value
                    == _status(dehn_sommerville_by_every_link(g, d)))

    @pytest.mark.parametrize("name,make,d", _DS_SPACES + [(n, m, None) for n, m in _NOT_DS],
                             ids=[n for n, _, _ in _DS_SPACES] + [n for n, _ in _NOT_DS])
    def test_family_matches_oracle(self, name, make, d):
        g = make()
        dims = range(-1, g.dim + 2)
        fast = [is_dehn_sommerville(g, e).status.value for e in dims]
        assert fast == [_status(e == d) for e in dims]
        assert fast == [_status(dehn_sommerville_by_every_link(g, e)) for e in dims]


def _verdicts(g, dims):
    """Contractible, then sphere, ball, manifold and manifold with boundary at
    each d of dims."""
    out = [is_contractible(g)]
    for d in dims:
        out.append(is_sphere(g, d))
        out.append(is_ball(g, d))
        if d >= 0:
            out.append(is_manifold(g, d))
            out.append(is_manifold_with_boundary(g, d))
    return out


def _chi_of_yes(dims):
    """The Euler characteristic each query of ``_verdicts(g, dims)`` requires
    of a YES by (H) of the recognizers module docstring; None for manifolds."""
    out = [1]
    for d in dims:
        out += [0 if d % 2 else 2, 1] + [None, None] * (d >= 0)
    return out


class TestChiRefutation:
    """The chi check of (H) in the recognizers module docstring only ends
    searches early: with it never refuting, every status and certificate is
    the same, and no query takes fewer calls.  Dehn-Sommerville spaces are
    left out, as chi is part of their definition, not a shortcut.  Where
    the search without chi spends its budget, the NO with chi is checked
    against chi computed from the f-vector instead."""

    @staticmethod
    def _check(g, dims):
        fast = _verdicts(g, dims)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(recognizers, "_chi_refutes", lambda g, chi: False)
            slow = _verdicts(g, dims)
        chi = sum((-1) ** i * f for i, f in enumerate(g.f_vector))
        for a, b, want in zip(fast, slow, _chi_of_yes(dims)):
            if b.status is Status.UNKNOWN:
                assert a.status is Status.NO and want is not None and chi != want
            else:
                assert (a.status, a.certificate) == (b.status, b.certificate)
        assert all(a.calls_used <= b.calls_used for a, b in zip(fast, slow))
        return fast, slow

    @given(recognizer_complexes())
    @settings(max_examples=60, deadline=None)
    def test_random_complexes(self, g):
        self._check(g, range(max(g.dim - 1, -1), g.dim + 2))

    def test_budget_spent_without_chi(self):
        # a Hypothesis draw: the cone over bary(cp(2)) less one open facet,
        # chi = 2, which the search without chi cannot show non-contractible
        g = join(barycentric(cross_polytope(2)), simplex_complex(1), relabel=True)
        g = _puncture(g, max(g.masks, key=int.bit_count))
        assert (len(g), g.f_vector) == (292, (27, 98, 120, 47))
        fast, slow = self._check(g, range(2, 5))
        assert (fast[0].status, slow[0].status) == (Status.NO, Status.UNKNOWN)

    @pytest.mark.parametrize("name", list(PINNED_COMPLEXES))
    def test_pinned_complexes(self, name):
        g = PINNED_COMPLEXES[name]()
        fast, slow = self._check(g, (g.dim,))
        assert sum(v.calls_used for v in fast) < sum(v.calls_used for v in slow)

    @pytest.mark.parametrize("name,make,d", _DS_SPACES, ids=[n for n, _, _ in _DS_SPACES])
    def test_dehn_sommerville_family(self, name, make, d):
        self._check(make(), (d,))


# (constructor, dimension) of small spheres: void, two points, cycles, cross
# polytopes, boundaries of simplices and refinements of some of them
_SPHERES = (
    [(Complex.empty, -1), (lambda: Complex([[1], [2]]), 0)]
    + [(lambda n=n: cycle(n), 1) for n in (4, 5, 6)]
    + [(lambda k=k: cross_polytope(k), k) for k in (0, 1, 2)]
    + [(lambda k=k: _boundary_of_simplex(k), k - 2) for k in (1, 2, 3, 4)]
    + [(lambda: barycentric(cycle(4)), 1), (lambda: barycentric(cross_polytope(2)), 2),
       (lambda: barycentric(_boundary_of_simplex(4)), 2)]
)


@st.composite
def sphere_pairs(draw):
    """Two spheres whose join has dimension at most 3."""
    a, p = draw(st.sampled_from(_SPHERES))
    b, q = draw(st.sampled_from([(b, q) for b, q in _SPHERES if p + q + 1 <= 3]))
    return a(), p, b(), q


class TestJoinLemma:
    """Instances of lemma (D) of the recognizers module docstring; they
    support the written proof and do not replace it."""

    @given(sphere_pairs())
    @settings(max_examples=40, deadline=None)
    def test_join_of_spheres_is_sphere(self, pair):
        a, p, b, q = pair
        j = join(a, b, relabel=True)
        assert is_sphere(j, p + q + 1).is_yes
        assert sphere_by_every_link(j, p + q + 1)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_boundary_of_simplex_is_sphere(self, k):
        g = _boundary_of_simplex(k)
        assert is_sphere(g, k - 2).is_yes
        assert sphere_by_every_link(g, k - 2)


class TestProcessState:
    """A query runs on its own stack, so it never touches the interpreter's
    recursion limit, and a search deeper than that limit still ends."""

    def test_no_recursion_limit_needed(self, tetra, monkeypatch):
        def refuse(limit):
            raise AssertionError("sys.setrecursionlimit called")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        n = 1500
        assert n > sys.getrecursionlimit()
        v = is_contractible(closure([i, i + 1] for i in range(n - 1)))
        assert (v.status, v.calls_used) == (Status.YES, n - 1)
        assert manifold_boundary(tetra, 3) == closure(combinations(range(1, 5), 3))
