"""Budgeted recognizers for contractibility, spheres, balls, manifolds and
Dehn-Sommerville spaces.

The definitions are mutually recursive in the dimension: the void complex is
the (-1)-sphere and the one-point complex is the smallest contractible
complex.  A complex is contractible when some vertex has both its unit
sphere and the complement of its star contractible; a d-manifold has every
unit sphere a (d-1)-sphere, which the test checks on the unit spheres of the
vertices alone (see "Vertex links suffice" below); a d-sphere is a
d-manifold that some puncture makes contractible; a d-ball is recognized as
a contractible d-manifold with boundary whose boundary is a (d-1)-sphere.
The manifold-with-boundary step asks, for every simplex x, whether S(x) is a
(d-1)-sphere and, if not, whether it is a (d-1)-ball; it returns the
simplices of the second kind, the boundary, so nothing walks the unit
spheres again to find it.  A Dehn-Sommerville d-space has Euler
characteristic 1 + (-1)^d and every unit sphere a Dehn-Sommerville
(d-1)-space; the test reads the vertices' unit spheres alone, by (F) below.
The Euler characteristic also refutes: a contractible complex and a ball have
chi = 1 and a d-sphere has chi = 1 + (-1)^d, by (H) below, so those four
tests answer NO on any other chi before they build a link or a puncture.

These are semi-decision procedures: YES and NO are sound, and UNKNOWN is
returned only when the call budget runs out before the search is exhausted;
a spent budget ends the whole search at once.

The recursion of the definitions runs on one explicit stack (Ganz,
Friedman and Wand, "Trampolined style", ICFP 1999).  A step body is a
generator: it yields each sub-query as (step, index, *args) and is sent
back its (status, certificate).  The driver ``_run`` runs a sub-query's
base case, looks up the memo, charges one call and pushes the new body; a
body's result is memoized and sent to the body below.  The query order is
a recursive call's, and no recursion limit bounds the depth.

A sub-complex g is the tuple of its members' bit masks in canonical order
(by size, then by vertex list).  Each step is passed g's star index: g and
its stars, st[v] holding the members that contain v, in g's order, keyed by
the position of v's bit as ``complexes._position_stars`` groups them.  Unit
spheres are read from these stars, never from a scan of g.  An index builds
its stars the first time a body reads them, so a memo hit builds nothing,
and the bodies that run on one sub-complex share its index because they are
passed the same one: _sphere and its _manifold; _ball, its
_manifold_with_boundary and its _contractible; the _sphere and the _ball of
one unit sphere.  The index of a vertex puncture
p = g - U(v), which _contractible and the vertex candidates of _sphere
query, is derived from g's: v's star is dropped, the stars of the
vertices of lk(v) keep their members without v, and every other star holds
no member with v and is shared as it is.  A filter keeps g's order and p is
a filter of g, so each list is the one a scan of p would build: the
candidate order, the unit spheres, the certificates and the call counts are
those of an index built from p.  For a vertex,
S(v) = {y - v : y in st[v], y != v} is already canonical: two members of
equal size are ordered by which holds the smallest vertex of their symmetric
difference, and taking v out of two members that both hold v shrinks both by
one and leaves that difference as it was.  For a larger simplex x,
S(x) = dx * lk(x): the joins a | b, with a a proper face of x or empty and
b in lk(x) or empty, except the empty join.  The link
lk(x) = {y - x : y in st[v], x < y} is read from the smallest star st[v]
among the vertices v of x, and the joins are sorted by their position in g.
A puncture is a filter of g, so it stays canonical unsorted.  Results are
memoized on the tuple, the exact labeled complex (no isomorphism
canonicalization), so repeated sub-complexes are checked once per query.

Vertex links suffice
--------------------
``_manifold(g, d)`` and ``_dehn_sommerville(g, d)`` test S(v) only for the
vertices v of g; manifolds with boundary still test every simplex, whose
classification is also the boundary.  The vertex test gives the YES/NO of
the test over every simplex, by the theorems (E) and (F) below, proved for
the definitions this module implements.

Notation.  A complex is a finite set of nonempty finite sets (simplices)
closed under nonempty subsets; the void complex is the empty set.  For x in
G: the star U(x) = {y in G : x <= y}, the unit sphere
S(x) = {y in G : not x <= y, x | y in G}, the link
lk(x) = {y in G : y & x empty, x | y in G}, and lk(empty) = G.  The
boundary of a simplex is dx = {a : a nonempty, a < x}, void for a vertex.
For A and B on disjoint vertex sets the join is
A * B = A u B u {a | b : a in A, b in B}, so A * void = A; it is commutative
and associative, and |A * B| = (|A| + 1)(|B| + 1) - 1 grows with |A| and |B|.
S(x), lk(x), dx, G - U(x) and A * B are complexes.

Definitions, as the code implements them:
  contractible   |G| = 1, or some vertex v has S(v) and G - U(v)
                 contractible (so a contractible complex is nonempty);
  (-1)-sphere    the void complex;
  d-sphere       (d >= 0) a nonempty d-manifold G with some x in G whose
                 puncture G - U(x) is contractible;
  d-manifold     (d >= 0) S(x) is a (d-1)-sphere for every x in G;
  DS_{-1}        the void complex alone;
  DS_d           (d >= 0) the nonempty G with chi(G) = 1 + (-1)^d and
                 S(x) in DS_{d-1} for every x in G, where
                 chi(G) = sum of w(x) over x in G and w(x) = (-1)^(|x|-1).
A sphere of dimension >= 0 is a manifold by definition.

Two formulas.  (S) Write y in S(x) as a | b with a = y & x and b = y - x:
"not x <= y" says a < x, and x | y = x | b in G says b in lk(x) or b empty;
so S(x) = dx * lk(x), and S(v) = lk(v) for a vertex v.
(J) Let x = a | b in A * B, with a in A or empty and b in B or empty.  A
simplex a' | b' is disjoint from x with x | a' | b' in A * B exactly when
a' is in lk_A(a) or empty and b' in lk_B(b) or empty, so
lk_{A*B}(a | b) = lk_A(a) * lk_B(b).  If b is empty, a' | b' contains x
exactly when a <= a', so (A * B) - U(a) = (A - U_A(a)) * B.

(A) Link of a face.  For x in G, |x| >= 2 and w in x: lk(x) = S_L(w) with
L = lk(x - w), and w is a vertex of L.  Indeed {w} is in L as x is in G.
By (S), S_L(w) = lk_L(w), and y is in it exactly when y is in L, w is not
in y and y | w is in L: y & (x - w) is empty, y | (x - w) is in G, w is not
in y and y | x is in G.  The last implies the second by closure, so this
says y & x is empty and y | x is in G: y is in lk(x).

(B) Joins with a contractible complex.  If C is contractible, C * B is
contractible for every B.  Induction on |C * B|.  For a vertex v of C, (J)
gives S_{C*B}(v) = S_C(v) * B and (C * B) - U(v) = (C - U_C(v)) * B.  If
|C| >= 2, some vertex v of C has S_C(v) and C - U_C(v) contractible; both
have fewer members than C, so by induction both joins are contractible,
and v shows that C * B is.  If |C| = 1 and B is void, C * B = C.  If
|C| = 1 and B is not void, take a vertex u of B: by (J) with the factors
swapped, S_{C*B}(u) = C * S_B(u) and (C * B) - U(u) = C * (B - U_B(u)),
where S_B(u) and B - U_B(u) are smaller than B (they miss {u}); both joins
are contractible by induction, and u shows that C * B is.  So the cone
{c} * B over any B is contractible, and so is the closure of a simplex s,
the cone over the closure of s - c for a vertex c of s (a point if |s| = 1).

(C) Links in a manifold.  If d >= 0 and S(v) is a (d-1)-sphere for every
vertex v of G, then lk(x) is a (d-|x|)-sphere for every x in G, so
|x| <= d + 1.  Induction on |x|.  For |x| = 1, lk(x) = S(x) by (S).  For
|x| >= 2 and w in x, L = lk(x - w) is a (d-|x|+1)-sphere by induction; it
holds {w}, so it is not void, d - |x| + 1 >= 0, and L is a manifold.  By
(A) lk(x) = S_L(w), a (d-|x|)-sphere.

(D) Join lemma, with the boundary of a simplex.  For p, q >= -1, the join
of a p-sphere A and a q-sphere B is a (p+q+1)-sphere, and ds is an
(|s|-2)-sphere for every simplex s.  Strong induction on the dimension n
claimed (n = p + q + 1 for a join, n = |s| - 2 for ds): both statements are
assumed for every dimension below n.
  Join, n = -1: A and B are void, and so is A * B.  Join, n >= 0: one
factor is not void, say A (the join commutes), so p >= 0.  Unit spheres:
take x = a | b in A * B.  A is a p-manifold, so by (C) lk_A(a) is a
(p-|a|)-sphere when a is not empty, and lk_A(empty) = A is a p-sphere;
likewise lk_B(b) is a (q-|b|)-sphere, so |x| = |a| + |b| <= n + 1.  By (S)
and (J), S_{A*B}(x) = dx * (lk_A(a) * lk_B(b)).  The inner join has
dimension n - |x| < n, so it is an (n-|x|)-sphere; dx is an
(|x|-2)-sphere as |x| - 2 < n; their join has dimension n - 1 < n, so
S_{A*B}(x) is an (n-1)-sphere, and A * B is an n-manifold.  Puncture: A has
some x_A with A - U_A(x_A) contractible, and by (J)
(A * B) - U(x_A) = (A - U_A(x_A)) * B, contractible by (B).  A * B is not
void, so it is an n-sphere.
  Boundary, n = -1: ds is void for a vertex s.  Boundary, n >= 0: ds is not
void.  For x in ds, y disjoint from x has x | y < s exactly when y is a
nonempty proper subset of s - x, so lk_{ds}(x) = d(s - x) and, by (S),
S_{ds}(x) = dx * d(s - x).  As 1 <= |x| <= |s| - 1, the factors are spheres
of dimensions |x| - 2 and |s| - |x| - 2, both below n, and their join has
dimension |s| - 3 = n - 1 < n: S_{ds}(x) is an (n-1)-sphere, and ds is an
n-manifold.  Puncture: for a vertex v of s, ds - U(v) is the closure of
s - v, contractible by (B).  So ds is an n-sphere.

(E) Conclusion.  Let d >= 0 and S(v) be a (d-1)-sphere for every vertex v
of G.  For x in G with |x| >= 2, S(x) = dx * lk(x) by (S), where dx is an
(|x|-2)-sphere by (D) and lk(x) a (d-|x|)-sphere by (C); by (D), S(x) is a
(d-1)-sphere.  So G is a d-manifold; the converse is immediate.  Call
M_d, Sigma_d the manifolds and spheres of the definitions above, and M'_d,
Sigma'_d those that the vertex-only test yields.  Sigma'_{-1} = Sigma_{-1};
if Sigma'_{d-1} = Sigma_{d-1}, then M'_d = M_d by what was just shown, and
Sigma'_d = Sigma_d, since a sphere reads only M_d and contractibility.  By
induction on d the two tests agree on every complex, and so do the balls
and manifolds with boundary built on them.  The budgeted search may settle
with fewer calls, so an UNKNOWN at some budget can become YES or NO, but no
YES or NO changes.

(F) Dehn-Sommerville spaces by vertex links.  The same steps, with the Euler
characteristic in place of the puncture.
  Join.  w(a | b) = -w(a) w(b) for disjoint a and b, as
|a | b| - 1 = (|a| - 1) + (|b| - 1) + 1.  So
chi(A * B) = chi(A) + chi(B) - chi(A) chi(B), that is
1 - chi(A * B) = (1 - chi(A))(1 - chi(B)).
  Boundary.  The nonempty subsets a of s have weights summing to 1, since
the sum of (-1)^|a| over all subsets is 0; ds omits s, so
chi(ds) = 1 - (-1)^(|s|-1) = 1 + (-1)^(|s|-2), which is 0 for a vertex.
  (C') If d >= 0 and S(v) is in DS_{d-1} for every vertex v of G, then
lk(x) is in DS_{d-|x|} for every x in G, so |x| <= d + 1.  Induction on |x|
as in (C): lk(x) = S(x) for |x| = 1; for |x| >= 2 and w in x,
L = lk(x - w) is in DS_{d-|x|+1} and holds {w}, so it is not void,
d - |x| + 1 >= 0, and every unit sphere of L is in DS_{d-|x|}; by (A),
lk(x) = S_L(w) is one of them.
  (D') For p, q >= -1 the join of A in DS_p and B in DS_q is in
DS_{p+q+1}, and ds is in DS_{|s|-2} for every simplex s.  Strong induction
on the dimension n claimed, as in (D).  Join, n = -1: A and B are void, and
so is A * B.  Join, n >= 0: say A is not void, so p >= 0 and A * B is not
void.  Its characteristic: 1 - chi(A * B) = (-(-1)^p)(-(-1)^q) by the join
formula, so chi(A * B) = 1 + (-1)^n.  Its unit spheres: for x = a | b,
(C') and lk_A(empty) = A, lk_B(empty) = B put lk_A(a) in DS_{p-|a|} and
lk_B(b) in DS_{q-|b|}, so |x| <= n + 1.  In
S_{A*B}(x) = dx * (lk_A(a) * lk_B(b)) the inner join is in DS_{n-|x|} and
dx in DS_{|x|-2}, by induction as both dimensions are below n, and so their
join, of dimension n - 1, is in DS_{n-1}.  So A * B is in DS_n.  Boundary,
n = -1: ds is void.  Boundary, n >= 0: ds is not void,
chi(ds) = 1 + (-1)^n by the boundary formula, and
S_{ds}(x) = dx * d(s - x), as in (D), is in DS_{n-1} by induction.  So ds is
in DS_n.
  Conclusion.  Let d >= 0, G be nonempty with chi(G) = 1 + (-1)^d, and S(v)
be in DS_{d-1} for every vertex v.  For |x| >= 2, S(x) = dx * lk(x) with dx
in DS_{|x|-2} by (D') and lk(x) in DS_{d-|x|} by (C'), so S(x) is in
DS_{d-1} by (D'), and G is in DS_d; the converse is immediate.  The
induction on d of (E) carries over word for word: the vertex-only test and
the test over every simplex agree on every complex, and only the number of
calls a query uses can change.

(H) The Euler characteristic refutes.  For x in G,
U(x) = {x | b : b in lk(x) or b empty}, and w(x | b) = -w(x) w(b) as in (F),
so chi(G) = chi(G - U(x)) + w(x) (1 - chi(lk(x))); for a vertex this is
chi(G) = chi(G - U(v)) + 1 - chi(S(v)), the Poincare-Hopf index of Knill,
"A graph theoretical Poincare-Hopf theorem" (2012).
  Contractible.  chi(G) = 1, by induction on |G|: a one-point complex has
chi = 1, and if S(v) and G - U(v) are contractible, chi(G) = 1 + 1 - 1.
  Sphere.  A d-sphere has chi = 1 + (-1)^d, by induction on d.  The void
complex has chi = 0.  For d >= 0, G is a d-manifold and G - U(x) is
contractible for some x in G.  By (C), lk(x) is a (d-|x|)-sphere, of
dimension below d, so 1 - chi(lk(x)) = -(-1)^(d-|x|), and
w(x) (1 - chi(lk(x))) = -(-1)^(|x|-1) (-1)^(d-|x|) = (-1)^d.  So
chi(G) = 1 + (-1)^d.
  A d-ball is contractible, so chi = 1, and DS_d has chi = 1 + (-1)^d by
definition.  A complex with any other chi has no witness for the search of
its body to find, which could only have answered NO.  So the body answers NO
at once, and every sub-query answers as before or, where a spent budget
ended it, NO: no YES, NO or certificate changes, only the number of calls.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import takewhile
from typing import Generator

from .complexes import Complex, _join_bits, _position_stars, vertices_of
from .errors import DEFAULT_CALL_BUDGET as DEFAULT_BUDGET, DomainError, InputError

__all__ = [
    "DEFAULT_BUDGET",
    "Status",
    "Verdict",
    "is_contractible",
    "is_sphere",
    "is_ball",
    "is_manifold",
    "is_manifold_with_boundary",
    "manifold_boundary",
    "is_dehn_sommerville",
]

# a step body: yields sub-queries, is sent and returns (status, certificate)
_Body = Generator[tuple, tuple, tuple]


class Status(str, Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


YES, NO, UNKNOWN = Status.YES, Status.NO, Status.UNKNOWN


@dataclass(frozen=True)
class Verdict:
    status: Status
    certificate: tuple = ()
    calls_used: int = 0

    @property
    def is_yes(self) -> bool:
        return self.status is YES

    @property
    def is_no(self) -> bool:
        return self.status is NO

    @property
    def is_unknown(self) -> bool:
        return self.status is UNKNOWN


def _step(base):
    """Attach ``base(g, *args)`` to a step body: it settles trivial cases of
    the sub-complex g free of charge, and returns None otherwise."""

    def wrap(body):
        body.base = base
        return body

    return wrap


def _minus_star(g: tuple[int, ...], xb: int) -> tuple[int, ...]:
    """G minus U(x), a filter of g."""
    return tuple(s for s in g if s & xb != xb)


def _chi_refutes(g: tuple[int, ...], chi: int) -> bool:
    """True when the Euler characteristic of g is not chi, a NO by (H) of the
    module docstring.  The sizes of a canonical tuple do not decrease, so
    each level is found by bisection."""
    total = lo = 0
    k, n = 1, len(g)
    while lo < n:
        hi = bisect_left(g, k + 1, lo, key=int.bit_count)
        total += hi - lo if k & 1 else lo - hi
        lo, k = hi, k + 1
    return total != chi


def _void_sphere(g: tuple[int, ...], d: int):
    if d == -1:
        return (NO if g else YES), ()
    if not g:
        return NO, ()
    return None


def _nonnegative(g: tuple[int, ...], d: int):
    if d < 0:
        raise InputError("manifold dimension must be non-negative")


class _StarIndex:
    """A sub-complex g and its stars st: for each vertex position p, the
    members of g that contain the vertex bit 1 << (p - 1), in g's order.
    Unit spheres and the order of vertex candidates are read from here.  The
    stars are built the first time they are read: from the parent's stars
    for a vertex puncture made by ``punctured``, which then drops the
    parent, and from g otherwise."""

    __slots__ = ("g", "_st", "_parent", "_rank")

    def __init__(self, g: tuple[int, ...]):
        self.g = g
        self._st: dict[int, list[int]] | None = None
        self._parent: tuple[_StarIndex, int] | None = None
        self._rank: dict[int, int] | None = None

    @property
    def st(self) -> dict[int, list[int]]:
        st = self._st
        return self._stars() if st is None else st

    def _stars(self) -> dict[int, list[int]]:
        parent = self._parent
        if parent is None:
            st = _position_stars(self.g)
        else:
            # g = parent - U(v): only the vertices u of lk(v) lose members,
            # those that hold v; every other star is shared as it is
            idx, vb = parent
            pst = idx.st
            p = vb.bit_length()
            near = 0
            for y in pst[p]:
                near |= y
            near ^= vb
            st = dict(pst)
            del st[p]
            while near:
                q = near.bit_length()
                st[q] = [y for y in pst[q] if not y & vb]
                near -= 1 << (q - 1)
            self._parent = None
        self._st = st
        return st

    def punctured(self, vb: int, p: tuple[int, ...]) -> _StarIndex:
        """The index of p = g - U(v) for a vertex bit v of g, whose stars are
        derived from this one's when first read."""
        idx = _StarIndex(p)
        idx._parent = (self, vb)
        return idx

    def vertices_by_star_size(self) -> list[int]:
        """The vertex bits by (star size, bit)."""
        st = self.st
        return [1 << (p - 1) for p in sorted(st, key=lambda p: (len(st[p]), p))]

    def unit_sphere(self, xb: int) -> tuple[int, ...]:
        """S(x), canonical: lk(v) for a vertex, dx * lk(x) otherwise."""
        st = self._st  # the slot, not the property: this is the hot path
        if st is None:
            st = self._stars()
        p = xb.bit_length()
        smallest = st[p]
        r = xb - (1 << (p - 1))
        if not r:
            return tuple([y ^ xb for y in smallest if y != xb])
        while r:
            p = r.bit_length()
            if len(st[p]) < len(smallest):
                smallest = st[p]
            r -= 1 << (p - 1)
        # x comes first among the members that contain it, so link[0] is 0
        link = [y ^ xb for y in smallest if y & xb == xb]
        faces = []
        a = (xb - 1) & xb
        while a:
            faces.append(a)
            a = (a - 1) & xb
        rank = self._rank
        if rank is None:
            rank = self._rank = {b: i for i, b in enumerate(self.g)}
        joins = _join_bits(faces, link[1:])
        joins.sort(key=rank.__getitem__)
        return tuple(joins)


def _every_link(s: _StarIndex, d: int, test) -> _Body:
    """YES when the sub-query (test, S(v), d - 1) is YES for every vertex v
    of s.g, the leading members of size 1."""
    for xb in takewhile(lambda b: not b & (b - 1), s.g):
        if (yield test, _StarIndex(s.unit_sphere(xb)), d - 1)[0] is NO:
            return NO, ()
    return YES, ()


@_step(lambda g: ((YES if g else NO), ()) if len(g) <= 1 else None)
def _contractible(s: _StarIndex) -> _Body:
    if _chi_refutes(s.g, 1):
        return NO, ()
    for vbit in s.vertices_by_star_size():
        if (yield _contractible, _StarIndex(s.unit_sphere(vbit)))[0] is not YES:
            continue
        s2, cert2 = yield _contractible, s.punctured(vbit, _minus_star(s.g, vbit))
        if s2 is YES:
            return YES, (vbit.bit_length() - 1,) + cert2
    return NO, ()


@_step(_void_sphere)
def _sphere(s: _StarIndex, d: int) -> _Body:
    if _chi_refutes(s.g, 1 + (-1) ** d) or (yield _manifold, s, d)[0] is NO:
        return NO, ()
    # puncture candidates: vertices with small stars first, then everything else
    g = s.g
    candidates = s.vertices_by_star_size()
    candidates.extend(b for b in g if b & (b - 1))
    for xb in candidates:
        p = _minus_star(g, xb)
        st, cert = yield _contractible, (_StarIndex(p) if xb & (xb - 1) else s.punctured(xb, p))
        if st is YES:
            return YES, vertices_of(xb) + cert
    return NO, ()


@_step(_nonnegative)
def _manifold(s: _StarIndex, d: int) -> _Body:
    # vertex unit spheres suffice, by (E) of the module docstring
    return (yield from _every_link(s, d, _sphere))


@_step(_nonnegative)
def _manifold_with_boundary(s: _StarIndex, d: int) -> _Body:
    """YES with the boundary, the members whose unit sphere is a (d-1)-ball
    and not a (d-1)-sphere, when every unit sphere is one or the other."""
    boundary = []
    for xb in s.g:
        h = _StarIndex(s.unit_sphere(xb))
        if (yield _sphere, h, d - 1)[0] is YES:
            continue
        if (yield _ball, h, d - 1)[0] is NO:
            return NO, ()
        boundary.append(xb)
    return YES, tuple(boundary)


@_step(lambda g, d: (NO, ()) if d < 0 else None)
def _ball(s: _StarIndex, d: int) -> _Body:
    if _chi_refutes(s.g, 1):
        return NO, ()
    mb, boundary = yield _manifold_with_boundary, s, d
    if mb is NO:
        return NO, ()
    ct, cert = yield _contractible, s
    if ct is NO:
        return NO, ()
    sb, _ = yield _sphere, _StarIndex(boundary), d - 1
    return sb, (cert if sb is YES else ())


@_step(_void_sphere)
def _dehn_sommerville(s: _StarIndex, d: int) -> _Body:
    if _chi_refutes(s.g, 1 + (-1) ** d):
        return NO, ()
    # vertex unit spheres suffice, by (F) of the module docstring
    return (yield from _every_link(s, d, _dehn_sommerville))


def _run(step, g: Complex, *args, budget: int) -> Verdict:
    """Answer the query (step, g, *args) on one stack of step bodies; the
    body on top is sent the answer to its last sub-query, or None to start."""
    if budget < 1:
        raise InputError("recognizer budget must be positive")
    memo: dict = {}
    stack: list = []
    recall, push = memo.get, stack.append
    used = 0
    query = (step, _StarIndex(g.masks)) + args
    while True:
        step, s, args = query[0], query[1], query[2:]
        res = step.base(s.g, *args)
        if res is None:
            key = (step, s.g) + args
            res = recall(key)
            if res is None:
                used += 1
                if used > budget:
                    return Verdict(UNKNOWN, (), used)
                push((step(s, *args), key))
        while stack:
            body, key = stack[-1]
            try:
                query = body.send(res)
                break
            except StopIteration as done:
                res = memo[key] = done.value
                stack.pop()
        else:
            return Verdict(res[0], res[1], used)


def is_contractible(g: Complex, budget: int = DEFAULT_BUDGET) -> Verdict:
    """YES when a chain of vertex reductions collapses g to a point."""
    return _run(_contractible, g, budget=budget)


def is_sphere(g: Complex, d: int, budget: int = DEFAULT_BUDGET) -> Verdict:
    """YES when g is a d-manifold some puncture of which is contractible.

    The empty complex is the (-1)-sphere.
    """
    if d < -1:
        raise InputError("sphere dimension must be at least -1")
    return _run(_sphere, g, d, budget=budget)


def is_ball(g: Complex, d: int, budget: int = DEFAULT_BUDGET) -> Verdict:
    """YES when g is a contractible d-manifold with boundary a (d-1)-sphere."""
    return _run(_ball, g, d, budget=budget)


def is_manifold(g: Complex, d: int, budget: int = DEFAULT_BUDGET) -> Verdict:
    """YES when every unit sphere of g is a (d-1)-sphere (no boundary allowed).

    Only the vertices' unit spheres are tested, which suffices by (E) of the
    module docstring.
    """
    return _run(_manifold, g, d, budget=budget)


def is_manifold_with_boundary(g: Complex, d: int, budget: int = DEFAULT_BUDGET) -> Verdict:
    """YES when every unit sphere is a (d-1)-sphere or a (d-1)-ball."""
    v = _run(_manifold_with_boundary, g, d, budget=budget)
    return Verdict(v.status, (), v.calls_used)


def manifold_boundary(g: Complex, d: int, budget: int = DEFAULT_BUDGET) -> Complex:
    """The closed subcomplex of simplices whose unit sphere is a ball.

    Requires g to be certified as a d-manifold with boundary first; the
    result is itself a (d-1)-manifold without boundary (possibly empty).
    """
    v = _run(_manifold_with_boundary, g, d, budget=budget)
    if v.is_unknown:
        raise DomainError("boundary classification ran out of budget")
    if v.is_no:
        raise DomainError(
            "boundary extraction needs a manifold-with-boundary verdict of yes, got no"
        )
    return Complex._of_bits(v.certificate)


def is_dehn_sommerville(g: Complex, d: int, budget: int = DEFAULT_BUDGET) -> Verdict:
    """YES when chi(g) = 1 + (-1)^d and every unit sphere is recursively so.

    The recursion is anchored at the void complex for d = -1.  Only the
    vertices' unit spheres are tested, which suffices by (F) of the module
    docstring.
    """
    if d < -1:
        raise InputError("dimension must be at least -1")
    return _run(_dehn_sommerville, g, d, budget=budget)
