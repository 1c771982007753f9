"""Exact integer matrices: connection and Green matrices, determinants,
inverses, characteristic polynomials and ranks.

Dense determinant and inverse share one fraction-free (Bareiss)
elimination, so all arithmetic is over Python's arbitrary-precision
integers.  The only rational step is the final division of d * M^-1 by
d = det M inside ``inverse``, and only when |d| != 1; nothing here ever
rounds.

The characteristic polynomial takes one modular route, exact and
deterministic: the matrix is reduced to upper Hessenberg form modulo primes
below 2^61 (each proven prime by Miller-Rabin with the first 12 primes as
bases), the polynomial is read off the Hessenberg recurrence, and the
residues are combined by the Chinese remainder theorem until the product of
the primes is over twice the Hadamard bound on the coefficients (Cohen,
GTM 138, 2.2).  The reduction is elimination by elementary similarities in
its direct, column by column form, O(n^3) word-size work per prime, in
which every multiply-add is part of a dot product and the matrix itself is
read through the nonzeros of its rows.

Rank runs a sparse fraction-free elimination over rows stored as dicts
(column -> nonzero entry); it prefers unit pivots and divides each reduced
row by the gcd of its entries.

Matrices indexed by the simplices of a complex g have a second route, on
the same sparse rows.  L is listed from the vertex stars and the Green
matrix from the face pairs of each simplex, so neither costs n^2.  With
K(x, z) = [z ⊆ x], unitriangular in canonical order, the congruence
M = K^-1 A K^-T is computed exactly by Möbius passes over the face poset:
for each vertex v, row[x] -= row[x minus v] for every x ∋ v other than {v},
first on the sparse rows and then on the sparse columns, which is sum |x|
row operations rather than n^3.  Then det A = det M (``det_via_faces``) and
A B = K (M (K^T B)) (``mat_mul_via_faces``), where K^T is a superset pass
on the sparse rows of B and K a subset pass.  Both are exact for every
integer A and B; their dense forms, like ``connection_matrix`` and
``green_matrix``, are adapters onto the sparse rows.  For the connection
matrix L = K W K^T, so M is the diagonal of the Fermi weights and the
sparse elimination of M costs O(n); nothing here assumes that, and L is
built from the share-a-vertex relation itself.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain, compress, repeat
from math import comb, gcd, isqrt
from operator import mul

from . import characteristics
from .complexes import Complex, _position_stars
from .errors import DomainError, ResourceBudgetError, SingularMatrixError, charge

__all__ = [
    "MAX_DENSE_SIZE",
    "connection_matrix",
    "connection_matrix_via_cores",
    "green_matrix",
    "det",
    "inverse",
    "char_poly",
    "rank",
    "mat_mul",
    "det_via_faces",
    "mat_mul_via_faces",
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


def _check_integer(rows) -> None:
    if not all(map(isinstance, chain.from_iterable(rows), repeat(int))):
        raise DomainError("exact elimination needs integer entries")


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


def _simplex_index(g: Complex, what: str) -> dict[int, int]:
    """mask -> position in g's canonical order, for a matrix indexed by the
    simplices of g; the empty complex and the dense cap are refused."""
    if len(g) == 0:
        raise DomainError(f"the {what} matrix of the empty complex is undefined")
    _check_size(len(g))
    return {b: i for i, b in enumerate(g.masks)}


def _connection_rows(g: Complex) -> list[dict[int, int]]:
    """L as sparse rows: row x holds a 1 in the column of every simplex that
    shares a vertex with x, the union of the vertex stars of x's vertices.
    In canonical order x minus its lowest vertex v comes first, so row x is
    that row joined with the star of v."""
    index = _simplex_index(g, "connection")
    stars = {p: dict.fromkeys([index[y] for y in ys], 1)
             for p, ys in _position_stars(index).items()}
    rows: dict[int, dict[int, int]] = {}
    for x in index:
        v = x & -x
        star = stars[v.bit_length()]
        rows[x] = star if x == v else rows[x ^ v] | star
    return list(rows.values())


def _densify(rows: list[dict[int, int]], n: int) -> list[list[int]]:
    out = [[0] * n for _ in rows]
    for dense, row in zip(out, rows):
        for j, x in row.items():
            dense[j] = x
    return out


def connection_matrix(g: Complex) -> list[list[int]]:
    """L(x,y) = 1 iff the simplices x and y share a vertex; symmetric 0/1.

    Rows and columns follow the canonical simplex order of g.
    """
    return _densify(_connection_rows(g), len(g))


def connection_matrix_via_cores(g: Complex) -> list[list[int]]:
    """Same matrix computed as the Euler characteristic of core intersections.

    The members of core(x) ∩ core(y) are the nonempty subsets of x ∩ y, whose
    alternating count is evaluated literally here; it agrees with the
    share-a-vertex indicator entrywise.
    """
    if len(g) == 0:
        raise DomainError("the connection matrix of the empty complex is undefined")
    bits = g.masks

    def chi_core(b: int) -> int:
        total = 0
        sub = b
        while sub:
            total += 1 if sub.bit_count() & 1 else -1
            sub = (sub - 1) & b
        return total

    return [[chi_core(a & b) for b in bits] for a in bits]


def _green_rows(g: Complex) -> list[dict[int, int]]:
    """The Green matrix as sparse rows, one entry per pair of faces x, y of a
    simplex z with x ∪ y = z and N(z) != 0: fewer than Σ 3^|z| pairs, each
    written once, since x ∪ y determines z.  y runs over (z minus x) ∪ t
    for the subsets t of x."""
    index = _simplex_index(g, "Green")
    rows: list[dict[int, int]] = [{} for _ in index]
    for z, n in characteristics._star_weights(g).items():
        if not n:
            continue
        x = z
        while x:
            row = rows[index[x]]
            wn = n if x.bit_count() & 1 else -n  # w(x) N(z)
            rest, t = z ^ x, x
            while True:
                y = rest | t
                if y:
                    row[index[y]] = wn if y.bit_count() & 1 else -wn
                if not t:
                    break
                t = (t - 1) & x
            x = (x - 1) & z
    return rows


def green_matrix(g: Complex) -> list[list[int]]:
    """g(x,y) = weight(x) weight(y) * Euler characteristic of U(x) ∩ U(y).

    U(x) ∩ U(y) is the star of x ∪ y, so its Euler characteristic is the
    star weight N(x ∪ y) when x ∪ y is a simplex and 0 otherwise.  Exact
    integer matrix; satisfies L * g = g * L = identity.
    """
    return _densify(_green_rows(g), len(g))


def _eliminate(rows: list[list[int]], ncols: int, *, full: bool = False) -> tuple[int, int, int]:
    """Fraction-free (Bareiss) elimination of the integer ``rows``, in place.

    Pivots are taken column by column over the first ``ncols`` columns.
    Elimination stops at the first column with no pivot, since a square left
    block is then singular, which is all that det and inverse need to know.
    After a pivot p in column c, each row below it (each other row when
    ``full``) becomes (p * row - row[c] * pivot row) / previous pivot.  Every
    entry is then a minor of the input up to sign, so every division is
    exact.  With ``full`` and full rank on a square left block, [M | B] ends
    as [d * I | d * M^-1 B], d the last pivot.  Returns the number of pivots
    (all n of them exactly when the square left block is nonsingular), the
    sign of the row swaps and the last pivot; sign * last pivot is det M at
    full rank.
    """
    _check_size(len(rows))
    _check_integer(rows)
    n = len(rows)
    r, sign, prev = 0, 1, 1
    for c in range(ncols):
        if r == n:
            break
        piv = next((i for i in range(r, n) if rows[i][c]), None)
        if piv is None:
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


def _sparse_eliminate(rows: list[dict[int, int]]) -> tuple[list[tuple[int, int]], Fraction]:
    """Fraction-free elimination of sparse integer rows, in place.

    Each row is a dict column -> nonzero entry.  Row by row, the row is
    reduced against the pivot rows found before it, in the order they were
    found, so it ends with a zero in every earlier pivot column: with pivot
    p and entry f in the pivot's column, row <- row - (f / p) * pivot row
    when p divides f, else row <- (p * row - f * pivot row) / gcd(p, f).
    The reduced row is divided by the gcd of its entries and, unless it
    vanished, becomes the next pivot row on an entry of least absolute
    value, so a unit pivot is taken whenever the row has one.

    Returns the pivots as (column, entry) in the order found, whose count
    is the rank, and the factor s = (contents divided out) / (scalings).
    When the input is the n rows of an n x n matrix and there are n pivots,
    det = sign(pivot columns as a permutation) * product of pivots * s,
    since row i then has zeros in the pivot columns of rows 0..i-1.
    """
    pivot_of: dict[int, int] = {}  # pivot column -> index into found
    found: list[tuple[int, dict[int, int]]] = []
    contents = scalings = 1
    for row in rows:
        heap = [pivot_of[c] for c in row if c in pivot_of]
        heapify(heap)
        while heap:
            c, top = found[heappop(heap)]
            f = row.get(c)
            if f is None:
                continue
            p = top[c]
            q, r = divmod(f, p)
            if r:
                h = gcd(p, f)
                a, q = p // h, f // h
                for j in row:
                    row[j] *= a
                scalings *= a
            for j, y in top.items():
                x = row.get(j, 0) - q * y
                if x:
                    if j not in row and j in pivot_of:
                        heappush(heap, pivot_of[j])
                    row[j] = x
                else:
                    del row[j]
        if not row:
            continue
        h = gcd(*row.values())
        if h != 1:
            for j in row:
                row[j] //= h
            contents *= h
        c = min(row, key=lambda j: (abs(row[j]), j))
        pivot_of[c] = len(found)
        found.append((c, row))
    return [(c, top[c]) for c, top in found], Fraction(contents, scalings)


def _permutation_sign(perm: list[int]) -> int:
    sign, seen = 1, [False] * len(perm)
    for i in range(len(perm)):
        length = 0
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


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


# Miller-Rabin with the first 12 primes as bases is exact for every q below
# 3.18 * 10^23 (Sorenson and Webster, Math. Comp. 86, 2017), so for every
# candidate below 2^61.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(q: int) -> bool:
    for a in _MR_BASES:
        if q % a == 0:
            return q == a
    s = ((q - 1) & (1 - q)).bit_length() - 1
    d = (q - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, q)
        if x == 1 or x == q - 1:
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def _primes():
    """The primes below 2^61, from 2^61 - 1 down."""
    q = (1 << 61) - 1
    while True:
        if _is_prime(q):
            yield q
        q -= 2


def _hadamard_bound(mat) -> int:
    """B with |c_k| <= B for every coefficient of the characteristic
    polynomial of the integer matrix ``mat``: c_k is, up to sign, the sum of
    the C(n, k) principal k x k minors, and by Hadamard each is at most the
    product of its k row norms, so at most the product of the k largest row
    norms of ``mat``.  The norms are square roots rounded up, in integers."""
    norms = []
    for row in mat:
        s = sum(x * x for x in row)
        r = isqrt(s)
        norms.append(r + (r * r < s))
    norms.sort(reverse=True)
    n, bound, prod = len(norms), 1, 1
    for k, r in enumerate(norms, 1):
        prod *= r
        bound = max(bound, comb(n, k) * prod)
    return bound


def _char_poly_mod(mat, p: int) -> list[int]:
    """The characteristic polynomial of the nonempty square ``mat`` modulo
    the prime p, ascending powers, with entries in [0, p).

    An upper Hessenberg H similar to the matrix A is found by the direct
    (column by column) form of elimination by elementary similarities:
    A X = X H, where the columns x_0, x_1, ... of X are unit lower
    triangular in a pivot order i_0, i_1, ... of the indices, that is
    x_j[i_j] = 1 and x_j[i_k] = 0 for k < j, and x_0 is the unit vector at
    i_0 = 0.  Column j of H comes from v = A x_j, each entry a dot product
    over the nonzeros of a row of A.  H[k][j] for k <= j follows from
    v[i_k] = sum over k' <= k of x_k'[i_k] H[k'][j], by forward
    substitution, and w = v - sum over k <= j of H[k][j] x_k on the indices
    not yet in the order.  The first of them with w != 0 becomes i_{j+1},
    H[j+1][j] is its entry of w and x_{j+1} = w / H[j+1][j].  When w is
    zero, H[j+1][j] = 0 and the first unordered index starts a new block,
    x_{j+1} being the unit vector there.  Each entry of v, H and w is one
    dot product, reduced once.

    The polynomial p_m of the leading m x m block of H then follows from
    those of the smaller blocks: p_m = (x - H[m-1][m-1]) p_{m-1} - sum over
    j < m - 1 of H[j][m-1] * (H[j+1][j] ... H[m-1][m-2]) * p_j.
    """
    n = len(mat)
    rows = []
    for row in mat:
        row = [a % p for a in row]
        rows.append((list(compress(range(n), row)), list(compress(row, row))))
    # xs[i] lists x_0[i], x_1[i], ... up to the column that puts i in order
    xs = [[1]] + [[0] for _ in range(1, n)]
    order, rest = [0], list(range(1, n))
    x = [1] + [0] * (n - 1)
    hcols, sub = [], []
    while True:
        get = x.__getitem__
        v = [sum(map(mul, vals, map(get, cols))) for cols, vals in rows]
        hcol: list[int] = []
        for i in order:
            hcol.append((v[i] - sum(map(mul, xs[i], hcol))) % p)
        hcols.append(hcol)
        if not rest:
            break
        w = [(v[i] - sum(map(mul, xs[i], hcol))) % p for i in rest]
        at = next((at for at, wr in enumerate(w) if wr), None)
        x = [0] * n
        if at is None:
            sub.append(0)
            i = rest.pop(0)
            for r in rest:
                xs[r].append(0)
        else:
            piv = w.pop(at)
            i = rest.pop(at)
            sub.append(piv)
            inv = pow(piv, -1, p)
            for r, wr in zip(rest, w):
                x[r] = xr = wr * inv % p
                xs[r].append(xr)
        x[i] = 1
        xs[i].append(1)
        order.append(i)
    # cols[k] lists coefficient k of p_k, p_{k+1}, ..., so the sum over j
    # for coefficient k is one dot product with the scalars from j = k on
    cols: list[list[int]] = [[1]]
    poly = [1]
    for m, hcol in enumerate(hcols, 1):
        scal = [0] * m
        t = 1
        for j in range(m - 1, -1, -1):
            scal[j] = hcol[j] * t % p
            if not j:
                break
            t = t * sub[j - 1] % p
            if not t:
                break
        poly = [((poly[k - 1] if k else 0) - sum(map(mul, cols[k], scal[k:]))) % p
                for k in range(m)] + [1]
        for col, c in zip(cols, poly):
            col.append(c)
        cols.append([1])
    return poly


def char_poly(mat) -> list[int]:
    """Coefficients of det(lambda*I - M), descending powers, leading 1.

    Exact and deterministic for every square integer matrix: the polynomial
    is computed modulo primes below 2^61 (``_char_poly_mod``) until their
    product is over 2B + 1, B the Hadamard bound of ``_hadamard_bound``;
    the residues are combined by the Chinese remainder theorem and each
    coefficient is lifted to the symmetric range, where it is the only
    value of absolute value at most B.
    """
    n = _check_square(mat)
    _check_size(n)
    _check_integer(mat)
    if n == 0:
        return [1]
    limit = 2 * _hadamard_bound(mat) + 1
    coeffs, modulus = [0] * (n + 1), 1
    for p in _primes():
        inv = pow(modulus, -1, p)
        coeffs = [x + modulus * ((y - x) * inv % p)
                  for x, y in zip(coeffs, reversed(_char_poly_mod(mat, p)))]
        modulus *= p
        if modulus > limit:
            break
    half = modulus >> 1
    return [x - modulus if x > half else x for x in coeffs]


def _sparse_rank(rows: list[dict[int, int]]) -> int:
    """Exact rank of integer rows given as dicts column -> entry; the rows
    are eliminated in place."""
    rows = [row for row in rows if row]
    _check_size(len(rows))
    _check_integer(row.values() for row in rows)
    return len(_sparse_eliminate(rows)[0])


def rank(mat) -> int:
    """Exact rank of an integer matrix, by sparse fraction-free elimination."""
    rows = [row for row in mat if any(row)]
    _check_size(len(rows))
    _check_integer(rows)
    return _sparse_rank(_sparse_rows(rows))


# -- the face-poset route: M = K^-1 A K^-T, K(x, z) = [z ⊆ x] -------------


def _face_passes(g: Complex) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per vertex v, the index pairs (x, x minus v) over the simplices x ∋ v
    with another vertex, in canonical order: the cached face table's passes."""
    return characteristics._face_table(g).passes


def _add_scaled(target: dict[int, int], src: dict[int, int], f: int) -> None:
    """target += f * src on sparse rows, dropping zeros; f is nonzero."""
    for j, y in src.items():
        x = target.get(j, 0) + f * y
        if x:
            target[j] = x
        else:
            del target[j]


def _sparse_rows(mat, n: int | None = None) -> list[dict[int, int]]:
    """The rows of a dense matrix as dicts, column -> nonzero entry; with n,
    the matrix must be n x n, one row per simplex."""
    if n is not None and _check_square(mat) != n:
        raise DomainError(f"matrix must be {n} x {n}, one row per simplex")
    return [{j: row[j] for j in compress(range(len(row)), row)} for row in mat]


def _face_congruence(rows: list[dict[int, int]], passes) -> list[dict[int, int]]:
    """The columns of M = K^-1 A K^-T as sparse dicts, column y ->
    {x: M[x][y]}, for A given by its sparse ``rows``.  The row pass copies
    each row it writes to, so ``rows`` is left as it is; the column pass
    runs on the sparse transpose."""
    rows = list(rows)
    for x in {x for pairs in passes for x, _ in pairs}:
        rows[x] = dict(rows[x])
    for pairs in passes:
        for x, face in pairs:
            _add_scaled(rows[x], rows[face], -1)
    cols: list[dict[int, int]] = [{} for _ in rows]
    for i, row in enumerate(rows):
        for j, x in row.items():
            cols[j][i] = x
    del rows
    for pairs in passes:
        for y, face in pairs:
            _add_scaled(cols[y], cols[face], -1)
    return cols


def _det_of_rows(g: Complex, rows: list[dict[int, int]], op_budget: int | None = None) -> int:
    """``det_via_faces`` of the integer matrix with these sparse rows."""
    passes = _face_passes(g)
    charge("2 face passes", 2 * sum(map(len, passes)), op_budget, "row operations")
    cols = _face_congruence(rows, passes)
    n = len(cols)
    pivots, scale = _sparse_eliminate(cols)
    if len(pivots) < n:
        return 0
    value = Fraction(_permutation_sign([c for c, _ in pivots]))
    for _, p in pivots:
        value *= p
    value *= scale
    if value.denominator != 1:
        raise ArithmeticError("sparse determinant was not integral")
    return int(value)


def det_via_faces(g: Complex, mat, *, op_budget: int | None = None) -> int:
    """det of the integer matrix ``mat``, indexed by g's simplices in
    canonical order, as det of M = K^-1 mat K^-T; equals ``det(mat)``.
    The two face passes are charged against ``op_budget`` before they run;
    one pass is sum |x| row operations over the simplices x with two or
    more vertices."""
    _check_integer(mat)
    return _det_of_rows(g, _sparse_rows(mat, len(g)), op_budget)


def _mat_mul_of_rows(g: Complex, rows: list[dict[int, int]], b: list[dict[int, int]],
                     op_budget: int | None = None) -> list[dict[int, int]]:
    """``mat_mul_via_faces`` on sparse rows; the K^T pass copies each row of
    b it writes to, so neither input is modified."""
    passes = _face_passes(g)
    charge("4 face passes", 4 * sum(map(len, passes)), op_budget, "row operations")
    mt = _face_congruence(rows, passes)
    c = list(b)
    for face in {face for pairs in passes for _, face in pairs}:
        c[face] = dict(c[face])
    for pairs in passes:
        for x, face in pairs:
            _add_scaled(c[face], c[x], 1)
    out: list[dict[int, int]] = [{} for _ in mt]
    for y, col in enumerate(mt):
        for x, f in col.items():
            _add_scaled(out[x], c[y], f)
    for pairs in passes:
        for x, face in pairs:
            _add_scaled(out[x], out[face], 1)
    return out


def mat_mul_via_faces(g: Complex, mat, b, *, op_budget: int | None = None) -> list[dict[int, int]]:
    """mat * b as sparse rows (column -> nonzero entry), computed as
    K (M (K^T b)) with M = K^-1 mat K^-T; mat is indexed by g's simplices in
    canonical order and b has one row per simplex.  Densified, it equals
    ``mat_mul(mat, b)``.  The four face passes (two for M, one for K^T and
    one for K) are charged against ``op_budget`` before they run, as in
    ``det_via_faces``."""
    rows = _sparse_rows(mat, len(g))
    m = len(b[0]) if b else 0
    if len(b) != len(g) or any(len(row) != m for row in b):
        raise DomainError(f"the right factor must have {len(g)} rows of one length")
    return _mat_mul_of_rows(g, rows, _sparse_rows(b), op_budget)
