import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higherchar.characteristics import w_m
from higherchar.cohomology import (
    betti,
    betti_relative,
    coboundary,
    support_kind,
)
from higherchar.complexes import Complex, Simplex, SimplexSubset
from higherchar.errors import DomainError
from higherchar.files import parse_complex
from higherchar.linalg import rank
from higherchar.topology import OpenSet, core

from oracles import coboundary_by_incidence, incidence_sign
from strategies import random_complexes


def _mat_mul_is_zero(d_hi, d_lo):
    if not d_hi or not d_lo or not d_lo[0]:
        return True
    rows, mid, cols = len(d_hi), len(d_lo), len(d_lo[0])
    for r in range(rows):
        for c in range(cols):
            if sum(d_hi[r][t] * d_lo[t][c] for t in range(mid)) != 0:
                return False
    return True


def betti_relative_by_incidence(u):
    """The literal relative route: every entry of the ambient coboundaries
    from ``incidence_sign``, then the rows and columns of u."""
    g, keep = u.ambient, u.member_bits
    top = max(s.dim for s in u.members)
    levels = [[s for s in g.simplices if s.dim == i] for i in range(top + 1)]
    ranks = [0]
    for lo, hi in zip(levels, levels[1:]):
        full = [[incidence_sign(y, x) for x in lo] for y in hi]
        sub = [[e for x, e in zip(lo, row) if x.bits in keep]
               for y, row in zip(hi, full) if y.bits in keep]
        ranks.append(rank(sub) if sub and sub[0] else 0)
    ranks.append(0)
    counts = [sum(1 for s in lv if s.bits in keep) for lv in levels]
    return tuple(c - ranks[i] - ranks[i + 1] for i, c in enumerate(counts))


class TestIncidenceSign:
    def test_removed_first_vertex(self):
        assert incidence_sign(Simplex([1, 2]), Simplex([2])) == 1

    def test_removed_second_vertex(self):
        assert incidence_sign(Simplex([1, 2]), Simplex([1])) == -1

    def test_non_incident(self):
        assert incidence_sign(Simplex([1, 2]), Simplex([3])) == 0
        assert incidence_sign(Simplex([1, 2, 3]), Simplex([1])) == 0


class TestCoboundary:
    def test_closed_k2(self, k2):
        assert coboundary(k2, 0) == [[-1, 1]]

    def test_open_edge_has_no_vertex_cochains(self, k2):
        u = OpenSet(k2, [{1, 2}])
        assert coboundary(u, 0) == [[]]

    @given(random_complexes(max_vertices=6, max_edges=9))
    @settings(max_examples=20, deadline=None)
    def test_dd_zero_closed(self, g):
        for i in range(3):
            assert _mat_mul_is_zero(coboundary(g, i + 1), coboundary(g, i))

    @given(random_complexes(max_vertices=6, max_edges=9))
    @settings(max_examples=15, deadline=None)
    def test_dd_zero_open(self, g):
        from higherchar.cli import random_open_set
        from higherchar.generators import SplitMix64

        rng = SplitMix64(21)
        for _ in range(4):
            u = random_open_set(g, rng)
            if len(u) == 0:
                continue
            for i in range(3):
                assert _mat_mul_is_zero(coboundary(u, i + 1), coboundary(u, i))


class TestCoboundaryOracle:
    @given(random_complexes(max_vertices=7, max_edges=12),
           st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_incidence_sign_entrywise(self, g, seed):
        from higherchar.cli import random_open_set
        from higherchar.generators import SplitMix64

        u = random_open_set(g, SplitMix64(seed))
        for support in (g, u, u.complement()):
            for i in range(4):
                assert coboundary(support, i) == coboundary_by_incidence(support, i)

    def test_signs_above_edges(self, tetra):
        # columns 123, 124, 134, 234 drop vertex 4, 3, 2, 1 at position 3, 2, 1, 0
        assert coboundary(tetra, 2) == [[-1, 1, -1, 1]]


class TestMaskPath:
    def test_no_simplex_objects_built(self):
        g = parse_complex("1 2 3\n2 3 4\n4 5\n")
        assert betti(g) == (1, 0, 0)
        coboundary(g, 1)
        coboundary(SimplexSubset(g, [{2, 3}, {1, 2, 3}, {2, 3, 4}]), 1)
        assert g._simplices is None


class TestBetti:
    def test_closed_3_ball(self, tetra):
        assert betti(tetra) == (1, 0, 0, 0)

    def test_open_3_ball(self, tetra):
        interior = OpenSet(tetra, [{1, 2, 3, 4}])
        assert betti(interior) == (0, 0, 0, 1)

    def test_single_open_cell_basis_vector(self, k2):
        u = OpenSet(k2, [{1, 2}])
        assert betti(u) == (0, 1)

    def test_circle(self, c4):
        assert betti(c4) == (1, 1)

    def test_two_sphere(self, octa):
        assert betti(octa) == (1, 0, 1)

    def test_empty(self):
        assert betti(Complex.empty()) == ()

    def test_mixed_support_rejected(self, p3):
        # {2} is missing one coface and {1,2} is missing a vertex: neither
        # upward nor downward closed
        with pytest.raises(DomainError):
            betti(SimplexSubset(p3, [{2}, {1, 2}]))

    def test_homeomorphic_open_intervals_agree(self, k2, p3):
        a = OpenSet(k2, [{1, 2}])
        b = OpenSet(p3, [{2}, {1, 2}, {2, 3}])
        assert betti(a) == betti(b) == (0, 1)

    @given(random_complexes(max_vertices=6, max_edges=9))
    @settings(max_examples=15, deadline=None)
    def test_euler_poincare_closed(self, g):
        bv = betti(g)
        assert sum((-1) ** i * b for i, b in enumerate(bv)) == w_m(g, 1)

    @given(random_complexes(max_vertices=6, max_edges=9))
    @settings(max_examples=15, deadline=None)
    def test_euler_poincare_open_and_relative_route(self, g):
        from higherchar.cli import random_open_set
        from higherchar.generators import SplitMix64

        rng = SplitMix64(8)
        for _ in range(4):
            u = random_open_set(g, rng)
            bv = betti(u) if len(u) else ()
            assert sum((-1) ** i * b for i, b in enumerate(bv)) == w_m(u, 1)
            if len(u):
                assert betti_relative(u) == betti_relative_by_incidence(u) == bv


    @given(random_complexes(max_vertices=7, max_edges=12),
           st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=40, deadline=None)
    def test_relative_route_on_random_open_sets(self, g, seed):
        from higherchar.cli import random_open_set
        from higherchar.generators import SplitMix64

        u = random_open_set(g, SplitMix64(seed))
        if len(u):
            assert betti(u) == betti_relative_by_incidence(u)


    @given(random_complexes(max_vertices=7, max_edges=12),
           st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=40, deadline=None)
    def test_relative_route_matches_incidence_sign_oracle(self, g, seed):
        from higherchar.cli import random_open_set
        from higherchar.generators import SplitMix64

        u = random_open_set(g, SplitMix64(seed))
        if len(u):
            assert betti_relative(u) == betti_relative_by_incidence(u)


class TestRelativeRefusals:
    def test_closed_subset_refused(self, p3):
        with pytest.raises(DomainError, match="^betti_relative expects an open set$"):
            betti_relative(SimplexSubset(p3, core(p3, {1, 2})))

    def test_mixed_subset_refused(self, p3):
        with pytest.raises(DomainError):
            betti_relative(SimplexSubset(p3, [{2}, {1, 2}]))

    def test_complex_refused(self, p3):
        with pytest.raises(DomainError, match="^betti_relative expects an open set$"):
            betti_relative(p3)

    def test_empty_subset(self, p3):
        assert betti_relative(SimplexSubset(p3, [])) == ()


class TestSupportKind:
    def test_kinds(self, p3):
        assert support_kind(p3) == "closed"
        assert support_kind(OpenSet(p3, [{1, 2}])) == "open"
        assert support_kind(SimplexSubset(p3, [{1}])) == "closed"
