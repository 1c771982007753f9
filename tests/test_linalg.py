import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higherchar.characteristics import fermi
from higherchar.complexes import Complex
from higherchar.errors import DomainError, ResourceBudgetError, SingularMatrixError
from higherchar.generators import cross_polytope, random_whitney, simplex_complex
from higherchar.linalg import (
    MAX_DENSE_SIZE,
    _connection_rows,
    _det_of_rows,
    _face_passes,
    _green_rows,
    _mat_mul_of_rows,
    _sparse_rows,
    char_poly,
    connection_matrix,
    connection_matrix_via_cores,
    det,
    det_via_faces,
    green_matrix,
    inverse,
    mat_mul,
    mat_mul_via_faces,
    rank,
)

from oracles import char_poly_by_faddeev_leverrier, face_passes_by_scan, identity_matrix
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


@st.composite
def integer_matrices(draw):
    """Square integer matrices of order 0..10, not symmetric in general,
    with entries of either sign up to 10^40 in size, where the CRT needs up
    to 23 primes; some are made singular by a repeated row, and some have a
    first column that is zero below the diagonal, where the first pivot
    search finds nothing."""
    n = draw(st.integers(0, 10))
    size = draw(st.sampled_from([1, 10**4, 10**40]))
    entry = st.integers(-size, size)
    mat = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    shape = draw(st.sampled_from(["any", "singular", "no first pivot"]))
    if shape == "singular" and n >= 2:
        mat[-1] = list(mat[draw(st.integers(0, n - 2))])
    elif shape == "no first pivot":
        for row in mat[1:]:
            row[0] = 0
    return mat


class TestCharPolyAgainstFaddeevLeVerrier:
    @given(integer_matrices())
    @settings(max_examples=200, deadline=None)
    def test_random_integer_matrices(self, mat):
        assert char_poly(mat) == char_poly_by_faddeev_leverrier(mat)

    def test_non_integer_entries_rejected(self):
        with pytest.raises(DomainError):
            char_poly([[1, 2], [3, 4.0]])

    def test_zero_column_below_the_diagonal(self):
        mat = [[5, -1, 2, 0], [0, 3, 1, 7], [0, -2, 0, 4], [0, 6, 1, -3]]
        assert char_poly(mat) == char_poly_by_faddeev_leverrier(mat)

    @pytest.mark.parametrize("g", [cross_polytope(2), cross_polytope(3),
                                   *(random_whitney(12, 30, s) for s in range(1, 6))],
                             ids=["cp2", "cp3", *(f"rw:12:30:{s}" for s in range(1, 6))])
    @pytest.mark.parametrize("matrix", [connection_matrix, green_matrix], ids=["L", "g"])
    def test_connection_and_green_matrices(self, g, matrix):
        mat = matrix(g)
        assert char_poly(mat) == char_poly_by_faddeev_leverrier(mat)


class TestSizeCap:
    def test_dense_cap_enforced(self):
        big = [[0] * (MAX_DENSE_SIZE + 1)] * (MAX_DENSE_SIZE + 1)
        with pytest.raises(ResourceBudgetError):
            det(big)

    def test_rank_cap_enforced(self):
        with pytest.raises(ResourceBudgetError):
            rank([[1]] * (MAX_DENSE_SIZE + 1))

    @pytest.mark.parametrize("build", [_connection_rows, _green_rows, connection_matrix,
                                       green_matrix])
    def test_row_builders_capped(self, monkeypatch, octa, build):
        monkeypatch.setattr("higherchar.linalg.MAX_DENSE_SIZE", len(octa) - 1)
        with pytest.raises(ResourceBudgetError):
            build(octa)

    @pytest.mark.parametrize("build", [_connection_rows, _green_rows])
    def test_row_builders_refuse_the_empty_complex(self, build):
        with pytest.raises(DomainError):
            build(Complex.empty())


class TestRank:
    def test_zero(self):
        assert rank([[0, 0], [0, 0]]) == 0

    def test_full(self):
        assert rank([[1, 0], [0, 1]]) == 2

    def test_rectangular(self):
        assert rank([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == 2

    def test_integer_entries_only(self):
        # zeros are dropped from the sparse rows, so the dense rows are checked
        for row in ([Fraction(1, 2), 1], [0.0, 1], [Fraction(0), 1]):
            with pytest.raises(DomainError):
                rank([row])


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


# -- the face-poset route against Bareiss det and mat_mul ------------------

def densify(rows, ncols):
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


def mismatches(prod) -> int:
    return sum(1 for i, row in enumerate(prod) for j, x in enumerate(row) if x != (i == j))


@st.composite
def complex_and_matrix(draw):
    """A small random complex and a square integer matrix indexed by its
    simplices."""
    g = draw(random_complexes(max_vertices=5, max_edges=7))
    return g, [[draw(ENTRIES) for _ in g.simplices] for _ in g.simplices]


class TestFaceRoutes:
    def test_k2_worked_example(self, k2):
        assert det_via_faces(k2, K2_L) == -1
        assert densify(mat_mul_via_faces(k2, K2_L, K2_G), 3) == identity_matrix(3)

    def test_budget_charges_the_face_passes(self, octa):
        # one pass: 12 edges with 2 vertices and 8 triangles with 3
        one = 12 * 2 + 8 * 3
        L, G = connection_matrix(octa), green_matrix(octa)
        assert det_via_faces(octa, L, op_budget=2 * one) == 1
        with pytest.raises(ResourceBudgetError):
            det_via_faces(octa, L, op_budget=2 * one - 1)
        mat_mul_via_faces(octa, L, G, op_budget=4 * one)
        with pytest.raises(ResourceBudgetError):
            mat_mul_via_faces(octa, L, G, op_budget=4 * one - 1)

    def test_wrong_shape_rejected(self, k2):
        with pytest.raises(DomainError):
            det_via_faces(k2, identity_matrix(2))
        with pytest.raises(DomainError):
            mat_mul_via_faces(k2, K2_L, identity_matrix(2))
        with pytest.raises(DomainError):
            mat_mul_via_faces(k2, K2_L, [[1, 0], [0, 1], [1]])

    def test_integer_entries_only(self, k2):
        with pytest.raises(DomainError):
            det_via_faces(k2, [[Fraction(1, 2), 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_input_left_unchanged(self, octa):
        L = connection_matrix(octa)
        G = green_matrix(octa)
        copies = [list(r) for r in L], [list(r) for r in G]
        det_via_faces(octa, L)
        mat_mul_via_faces(octa, L, G)
        assert (L, G) == copies

    @given(random_complexes(max_vertices=7, max_edges=12))
    @settings(max_examples=60, deadline=None)
    def test_face_passes_match_scan(self, g):
        # one pass per vertex, compared as pair sets; the vertex of a pass is
        # read from any of its pairs
        masks = g.masks
        by_vertex = {}
        for pairs in _face_passes(g):
            (v,) = {masks[x] ^ masks[face] for x, face in pairs}
            assert v not in by_vertex
            by_vertex[v] = set(pairs)
            assert len(pairs) == len(by_vertex[v])
        assert by_vertex == face_passes_by_scan(g)

    @given(random_complexes(max_vertices=7, max_edges=12))
    @settings(max_examples=60, deadline=None)
    def test_det_of_connection_matrix_is_bareiss(self, g):
        L = connection_matrix(g)
        assert det_via_faces(g, L) == det(L)

    @given(complex_and_matrix())
    @settings(max_examples=120, deadline=None)
    def test_det_of_any_integer_matrix_is_bareiss(self, gm):
        g, a = gm
        assert det_via_faces(g, a) == det(a)

    @given(complex_and_matrix(), st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_product_of_any_integer_matrices_is_mat_mul(self, gm, m, seed):
        g, a = gm
        rng = random.Random(seed)
        b = [[rng.choice((0, 0, 1, -1, 3)) for _ in range(m)] for _ in a]
        assert densify(mat_mul_via_faces(g, a, b), m) == mat_mul(a, b)

    @given(random_complexes(max_vertices=7, max_edges=12), st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_connection_matrix_times_random_factor(self, g, m, seed):
        L = connection_matrix(g)
        rng = random.Random(seed)
        b = [[rng.randint(-4, 4) for _ in range(m)] for _ in L]
        assert densify(mat_mul_via_faces(g, L, b), m) == mat_mul(L, b)

    @given(random_complexes(max_vertices=7, max_edges=12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_corrupted_green_mismatches_as_dense(self, g, data):
        n = len(g)
        L, G = connection_matrix(g), green_matrix(g)
        assert densify(mat_mul_via_faces(g, L, G), n) == identity_matrix(n)
        i = data.draw(st.integers(min_value=0, max_value=n - 1))
        j = data.draw(st.integers(min_value=0, max_value=n - 1))
        G[i][j] += data.draw(st.sampled_from((-2, -1, 1, 5)))
        prod = densify(mat_mul_via_faces(g, L, G), n)
        assert prod == mat_mul(L, G)
        assert mismatches(prod) > 0


class TestSparseRank:
    def test_dependent_rows_with_common_factors(self):
        m = [[2, 4, 6], [3, 6, 9], [4, 0, 2], [6, 4, 8]]
        assert rank(m) == minor_rank(m) == 2

    @given(random_complexes(max_vertices=8, max_edges=18))
    @settings(max_examples=40, deadline=None)
    def test_coboundary_ranks_match_rational_elimination(self, g):
        from higherchar.cohomology import coboundary

        for i in range(g.dim):
            d = coboundary(g, i)
            assert rank(d) == fraction_rank(d)


def fraction_rank(m) -> int:
    """Textbook Gaussian elimination over the rationals."""
    rows = [[Fraction(x) for x in row] for row in m]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


# -- the sparse rows against independent dense routes ----------------------

class TestSparseRows:
    @given(random_complexes(max_vertices=7, max_edges=12))
    @settings(max_examples=60, deadline=None)
    def test_connection_rows_are_the_core_formula(self, g):
        if len(g) == 0:
            return
        rows = _connection_rows(g)
        assert all(row and 0 not in row.values() for row in rows)
        assert densify(rows, len(g)) == connection_matrix_via_cores(g)

    @given(random_complexes(max_vertices=7, max_edges=12))
    @settings(max_examples=60, deadline=None)
    def test_green_rows_are_the_exact_inverse_of_l(self, g):
        # L from the core formula, inverted by Bareiss elimination
        if len(g) == 0:
            return
        rows = _green_rows(g)
        assert all(0 not in row.values() for row in rows)
        assert densify(rows, len(g)) == inverse(connection_matrix_via_cores(g))

    @given(complex_and_matrix())
    @settings(max_examples=120, deadline=None)
    def test_det_from_sparse_and_dense_rows(self, gm):
        g, a = gm
        rows = _sparse_rows(a)
        copies = [dict(r) for r in rows], [list(r) for r in a]
        assert _det_of_rows(g, rows) == det_via_faces(g, a) == det(a)
        assert (rows, a) == copies

    @given(complex_and_matrix(), st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_product_from_sparse_and_dense_rows(self, gm, m, seed):
        g, a = gm
        rng = random.Random(seed)
        b = [[rng.choice((0, 0, 1, -1, 3)) for _ in range(m)] for _ in a]
        rows, brows = _sparse_rows(a), _sparse_rows(b)
        copies = ([dict(r) for r in rows], [dict(r) for r in brows], [list(r) for r in a],
                  [list(r) for r in b])
        sparse = _mat_mul_of_rows(g, rows, brows)
        assert sparse == mat_mul_via_faces(g, a, b)
        assert densify(sparse, m) == mat_mul(a, b)
        assert (rows, brows, a, b) == copies

    @given(random_complexes(max_vertices=7, max_edges=12))
    @settings(max_examples=40, deadline=None)
    def test_duality_on_the_row_builders(self, g):
        # the two suites' inputs, and both left as built
        if len(g) == 0:
            return
        L, G = _connection_rows(g), _green_rows(g)
        copies = [dict(r) for r in L], [dict(r) for r in G]
        assert _det_of_rows(g, L) == fermi(g)
        assert densify(_mat_mul_of_rows(g, L, G), len(g)) == identity_matrix(len(g))
        assert (L, G) == copies
