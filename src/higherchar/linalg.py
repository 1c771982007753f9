"""Exact integer matrices: connection and Green matrices, determinants,
inverses, characteristic polynomials and ranks.

Determinant, rank and inverse share one fraction-free (Bareiss)
elimination, so all arithmetic is over Python's arbitrary-precision
integers.  The only rational step is the final division of d * M^-1 by
d = det M inside ``inverse``, and only when |d| != 1; nothing here ever
rounds.
"""

from __future__ import annotations

from fractions import Fraction

from .complexes import Complex
from .errors import DomainError, ResourceBudgetError, SingularMatrixError

__all__ = [
    "MAX_DENSE_SIZE",
    "connection_matrix",
    "connection_matrix_via_cores",
    "green_matrix",
    "det",
    "inverse",
    "char_poly",
    "rank",
    "identity_matrix",
    "mat_mul",
]

MAX_DENSE_SIZE = 2048


def _check_square(mat) -> int:
    n = len(mat)
    for row in mat:
        if len(row) != n:
            raise DomainError("matrix must be square")
    return n


def _check_size(n: int) -> None:
    if n > MAX_DENSE_SIZE:
        raise ResourceBudgetError(
            f"dense exact arithmetic is capped at {MAX_DENSE_SIZE} rows, got {n}"
        )


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b) -> list[list[int]]:
    n, mid, m = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(mid):
            x = ai[t]
            if x:
                bt = b[t]
                for j in range(m):
                    oi[j] += x * bt[j]
    return out


def connection_matrix(g: Complex) -> list[list[int]]:
    """L(x,y) = 1 iff the simplices x and y share a vertex; symmetric 0/1.

    Rows and columns follow the canonical simplex order of g.
    """
    if len(g) == 0:
        raise DomainError("the connection matrix of the empty complex is undefined")
    _check_size(len(g))
    bits = [s.bits for s in g.simplices]
    return [[1 if a & b else 0 for b in bits] for a in bits]


def connection_matrix_via_cores(g: Complex) -> list[list[int]]:
    """Same matrix computed as the Euler characteristic of core intersections.

    The members of core(x) ∩ core(y) are the nonempty subsets of x ∩ y, whose
    alternating count is evaluated literally here; it agrees with the
    share-a-vertex indicator entrywise.
    """
    if len(g) == 0:
        raise DomainError("the connection matrix of the empty complex is undefined")
    bits = [s.bits for s in g.simplices]

    def chi_core(b: int) -> int:
        total = 0
        sub = b
        while sub:
            total += 1 if sub.bit_count() & 1 else -1
            sub = (sub - 1) & b
        return total

    return [[chi_core(a & b) for b in bits] for a in bits]


def green_matrix(g: Complex) -> list[list[int]]:
    """g(x,y) = weight(x) weight(y) * Euler characteristic of U(x) ∩ U(y).

    Exact integer matrix; satisfies L * g = g * L = identity.
    """
    if len(g) == 0:
        raise DomainError("the Green matrix of the empty complex is undefined")
    _check_size(len(g))
    bits = [s.bits for s in g.simplices]
    ws = [s.weight for s in g.simplices]
    members = g.member_bits
    n = len(bits)

    # chi of the star of z, for every union z that is a simplex
    chi_star: dict[int, int] = {}
    for z in members:
        chi_star[z] = 0
    for y, wy in zip(bits, ws):
        sub = y
        while sub:
            if sub in chi_star:
                chi_star[sub] += wy
            sub = (sub - 1) & y
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            u = bits[i] | bits[j]
            chi = chi_star.get(u, 0)
            if chi:
                out[i][j] = ws[i] * ws[j] * chi
    return out


def _eliminate(
    rows: list[list[int]], ncols: int, *, full: bool = False, skip: bool = False
) -> tuple[int, int, int]:
    """Fraction-free (Bareiss) elimination of the integer ``rows``, in place.

    Pivots are taken column by column over the first ``ncols`` columns.  A
    column with no pivot is skipped when ``skip``; otherwise elimination
    stops there, since a square left block is then singular, which is all
    that det and inverse need to know.  After a pivot p in column c, each row
    below it (each other row when ``full``) becomes
    (p * row - row[c] * pivot row) / previous pivot.  Every entry is then a
    minor of the input up to sign, so every division is exact.  With
    ``full`` and full rank on a square left block, [M | B] ends as
    [d * I | d * M^-1 B], d the last pivot.  Returns the number of pivots
    (the rank, unless it stopped early), the sign of the row swaps and the
    last pivot; sign * last pivot is det M at full rank.
    """
    _check_size(len(rows))
    if not all(isinstance(x, int) for row in rows for x in row):
        raise DomainError("exact elimination needs integer entries")
    n = len(rows)
    r, sign, prev = 0, 1, 1
    for c in range(ncols):
        if r == n:
            break
        piv = next((i for i in range(r, n) if rows[i][c]), None)
        if piv is None:
            if skip:
                continue
            break
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        top = rows[r]
        p = top[c]
        for i in range(0 if full else r + 1, n):
            if i == r:
                continue
            row = rows[i]
            f = row[c]
            # rows below the pivot are zero before column c; rows above are not
            lo = c if i > r else 0
            if f:
                row[lo:] = [(p * x - f * y) // prev for x, y in zip(row[lo:], top[lo:])]
            elif p != prev:
                row[lo:] = [p * x // prev for x in row[lo:]]
        prev = p
        r += 1
    return r, sign, prev


def det(mat) -> int:
    """Exact determinant of an integer matrix by Bareiss elimination."""
    n = _check_square(mat)
    rk, sign, last = _eliminate([list(row) for row in mat], n)
    return sign * last if rk == n else 0


def inverse(mat) -> list[list[int]] | list[list[Fraction]]:
    """Exact inverse of an integer matrix.

    Bareiss elimination of [M | I] leaves [d * I | d * M^-1]; each entry is
    then divided once by d.  Returns an integer matrix when every entry is
    integral (always the case when det = +-1); otherwise the exact rational
    inverse.  Raises on singular input.
    """
    n = _check_square(mat)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    rk, _, d = _eliminate(a, n, full=True)
    if rk < n:
        raise SingularMatrixError("matrix is singular")
    inv = [row[n:] for row in a]
    if all(x % d == 0 for row in inv for x in row):
        return [[x // d for x in row] for row in inv]
    return [[Fraction(x, d) for x in row] for row in inv]


def char_poly(mat) -> list[int]:
    """Coefficients of det(lambda*I - M), descending powers, leading 1.

    Faddeev-LeVerrier recurrence; the trace divisions are exact over the
    integers and asserted so.
    """
    n = _check_square(mat)
    _check_size(n)
    coeffs = [1]
    if n == 0:
        return coeffs
    mk = [list(row) for row in mat]
    for k in range(1, n + 1):
        tr = sum(mk[i][i] for i in range(n))
        if tr % k != 0:
            raise ArithmeticError("Faddeev-LeVerrier trace division was not exact")
        c = -(tr // k)
        coeffs.append(c)
        if k == n:
            break
        for i in range(n):
            mk[i][i] += c
        mk = mat_mul(mat, mk)
    return coeffs


def rank(mat) -> int:
    """Exact rank of an integer matrix."""
    rows = [list(row) for row in mat if any(row)]
    return _eliminate(rows, len(rows[0]), skip=True)[0] if rows else 0
