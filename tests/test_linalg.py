from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higherchar.characteristics import fermi
from higherchar.complexes import Complex
from higherchar.errors import DomainError, ResourceBudgetError, SingularMatrixError
from higherchar.generators import simplex_complex
from higherchar.linalg import (
    MAX_DENSE_SIZE,
    char_poly,
    connection_matrix,
    connection_matrix_via_cores,
    det,
    green_matrix,
    identity_matrix,
    inverse,
    mat_mul,
    rank,
)

from strategies import random_complexes

K2_L = [[1, 0, 1], [0, 1, 1], [1, 1, 1]]
K2_G = [[0, -1, 1], [-1, 0, 1], [1, 1, -1]]


class TestConnection:
    def test_one_point(self):
        assert connection_matrix(simplex_complex(1)) == [[1]]

    def test_k2_worked_example(self, k2):
        assert connection_matrix(k2) == K2_L

    def test_c4_row_sums(self, c4):
        # every vertex meets itself and its 2 edges; every edge meets itself,
        # its 2 vertices and the 2 edges sharing a vertex with it
        sums = [sum(row) for row in connection_matrix(c4)]
        assert sums == [3, 3, 3, 3, 5, 5, 5, 5]

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            connection_matrix(Complex.empty())

    @given(random_complexes(max_vertices=6, max_edges=9))
    @settings(max_examples=20, deadline=None)
    def test_two_formulas_agree(self, g):
        if len(g) == 0:
            return
        assert connection_matrix(g) == connection_matrix_via_cores(g)


class TestGreen:
    def test_one_point(self):
        assert green_matrix(simplex_complex(1)) == [[1]]

    def test_k2_worked_example(self, k2):
        assert green_matrix(k2) == K2_G

    def test_diagonal_is_star_euler(self, octa):
        from higherchar.characteristics import w_m
        from higherchar.topology import star

        g = green_matrix(octa)
        for i, s in enumerate(octa.simplices):
            assert g[i][i] == w_m(star(octa, s), 1)

    @given(random_complexes(max_vertices=6, max_edges=10))
    @settings(max_examples=20, deadline=None)
    def test_inverse_pair(self, g):
        if len(g) == 0:
            return
        n = len(g)
        prod = mat_mul(connection_matrix(g), green_matrix(g))
        assert prod == identity_matrix(n)


class TestDet:
    def test_identity(self):
        assert det(identity_matrix(4)) == 1

    def test_k2(self, k2):
        assert det(connection_matrix(k2)) == -1

    def test_singular(self):
        assert det([[1, 2], [2, 4]]) == 0

    def test_known_3x3(self):
        assert det([[2, 0, 1], [1, 3, 2], [0, 1, 4]]) == 21

    def test_non_square(self):
        with pytest.raises(DomainError):
            det([[1, 2, 3], [4, 5, 6]])

    @given(random_complexes(max_vertices=6, max_edges=10))
    @settings(max_examples=25, deadline=None)
    def test_unimodular_and_equals_fermi(self, g):
        if len(g) == 0:
            return
        d = det(connection_matrix(g))
        assert d in (1, -1)
        assert d == fermi(g)


class TestInverse:
    def test_identity(self):
        assert inverse(identity_matrix(3)) == identity_matrix(3)

    def test_connection_inverse_is_green(self, k2, octa):
        for g in (k2, octa):
            assert inverse(connection_matrix(g)) == green_matrix(g)

    def test_involution(self, k2):
        L = connection_matrix(k2)
        assert inverse(inverse(L)) == L

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            inverse([[1, 2], [2, 4]])

    def test_rational_case(self):
        inv = inverse([[2, 0], [0, 2]])
        assert inv == [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]


class TestCharPoly:
    def test_identity_2(self):
        assert char_poly(identity_matrix(2)) == [1, -2, 1]

    def test_k2_connection(self, k2):
        assert char_poly(connection_matrix(k2)) == [1, -3, 1, 1]

    def test_constant_coefficient_is_signed_det(self, c4):
        m = connection_matrix(c4)
        coeffs = char_poly(m)
        n = len(m)
        assert coeffs[-1] == (-1) ** n * det(m)

    def test_non_square(self):
        with pytest.raises(DomainError):
            char_poly([[1, 2, 3], [4, 5, 6]])

    def test_spectra_comparison_stays_informational(self, k2):
        # the two polynomials differ already here; no identity is asserted
        pl = char_poly(connection_matrix(k2))
        pg = char_poly(green_matrix(k2))
        assert pl != pg
        assert pl == list(reversed(pg))


class TestSizeCap:
    def test_dense_cap_enforced(self):
        big = [[0] * (MAX_DENSE_SIZE + 1)] * (MAX_DENSE_SIZE + 1)
        with pytest.raises(ResourceBudgetError):
            det(big)

    def test_rank_cap_enforced(self):
        with pytest.raises(ResourceBudgetError):
            rank([[1]] * (MAX_DENSE_SIZE + 1))


class TestRank:
    def test_zero(self):
        assert rank([[0, 0], [0, 0]]) == 0

    def test_full(self):
        assert rank([[1, 0], [0, 1]]) == 2

    def test_rectangular(self):
        assert rank([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == 2

    def test_integer_entries_only(self):
        with pytest.raises(DomainError):
            rank([[Fraction(1, 2), 1]])


# Literal oracles for the one elimination behind det, rank and inverse.

def laplace_det(m) -> int:
    """Cofactor expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * a * laplace_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j, a in enumerate(m[0]) if a)


def minor_rank(m) -> int:
    """The largest k such that some k x k minor is nonzero."""
    nrows, ncols = len(m), len(m[0]) if m else 0
    for k in range(min(nrows, ncols), 0, -1):
        for rows in combinations(range(nrows), k):
            for cols in combinations(range(ncols), k):
                if laplace_det([[m[i][j] for j in cols] for i in rows]):
                    return k
    return 0


# mostly zeros, so rank-deficient and singular matrices are common
ENTRIES = st.sampled_from((0, 0, 0, 0, 1, -1, 2, -3, 5))


@st.composite
def int_matrices(draw, square=False):
    nrows = draw(st.integers(min_value=0, max_value=5))
    ncols = nrows if square else draw(st.integers(min_value=1, max_value=5))
    return [[draw(ENTRIES) for _ in range(ncols)] for _ in range(nrows)]


class TestEliminationAgainstOracles:
    @given(int_matrices(square=True))
    @settings(max_examples=300, deadline=None)
    def test_det_is_laplace(self, m):
        assert det(m) == laplace_det(m)

    @given(int_matrices())
    @settings(max_examples=300, deadline=None)
    def test_rank_is_largest_nonzero_minor(self, m):
        assert rank(m) == minor_rank(m)

    @given(int_matrices(square=True))
    @settings(max_examples=300, deadline=None)
    def test_inverse_or_singular(self, m):
        if laplace_det(m) == 0:
            with pytest.raises(SingularMatrixError):
                inverse(m)
            return
        inv = inverse(m)
        assert mat_mul(m, inv) == identity_matrix(len(m))
        integral = all(Fraction(x).denominator == 1 for row in inv for x in row)
        assert all(type(x) is int for row in inv for x in row) == integral
