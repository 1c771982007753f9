"""Budgeted recursive recognizers for contractibility, spheres, balls and
manifolds.

The definitions are mutually recursive in the dimension: the void complex is
the (-1)-sphere and the one-point complex is the smallest contractible
complex.  A complex is contractible when some vertex has both its unit
sphere and the complement of its star contractible; a d-manifold has every
unit sphere a (d-1)-sphere; a d-sphere is a d-manifold that some puncture
makes contractible; a d-ball is recognized as a contractible d-manifold with
boundary whose boundary is a (d-1)-sphere.

These are semi-decision procedures: YES and NO are sound, and UNKNOWN is
returned only when the call budget runs out before the search is exhausted;
a spent budget ends the whole search at once.
A sub-complex g is the tuple of its members' bit masks in canonical order
(by size, then by vertex list), and each step body indexes it once by
vertex: st[v] holds the members that contain v, in g's order.  Unit spheres
are read from these stars, never from a scan of g.  For a vertex,
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
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum

from .complexes import Complex, Simplex, vertices_of
from .errors import DomainError, InputError

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

DEFAULT_BUDGET = 100_000


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


class _OutOfBudget(Exception):
    """The call budget of one query is spent."""


class _Ctx:
    __slots__ = ("budget", "used", "memo")

    def __init__(self, budget: int):
        if budget < 1:
            raise InputError("recognizer budget must be positive")
        self.budget = budget
        self.used = 0
        self.memo: dict = {}

    def charge(self) -> None:
        self.used += 1
        if self.used > self.budget:
            raise _OutOfBudget


def _step(base):
    """Make a recognizer body one budgeted, memoized step.

    ``base(g, *args)`` settles trivial cases free of charge and returns None
    otherwise.  Each evaluation of the body costs one call, and its YES or NO
    is memoized on g, the canonical tuple of member bit masks.
    """

    def wrap(body):
        def step(ctx: _Ctx, g: tuple[int, ...], *args) -> tuple[Status, tuple]:
            res = base(g, *args)
            if res is not None:
                return res
            key = (body, g, *args)
            hit = ctx.memo.get(key)
            if hit is not None:
                return hit
            ctx.charge()
            res = ctx.memo[key] = body(ctx, g, *args)
            return res

        return step

    return wrap


def _minus_star(g: tuple[int, ...], xb: int) -> tuple[int, ...]:
    """G minus U(x), a filter of g."""
    return tuple(s for s in g if s & xb != xb)


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
    """The stars of a sub-complex g: for each vertex bit, the members of g
    that contain it, in g's order.  Unit spheres and the order of vertex
    candidates are read from here."""

    __slots__ = ("st", "_rank", "_g")

    def __init__(self, g: tuple[int, ...]):
        st: dict[int, list[int]] = {}
        for b in g:
            r = b
            while r:
                low = r & -r
                lst = st.get(low)
                if lst is None:
                    st[low] = [b]
                else:
                    lst.append(b)
                r ^= low
        self.st = st
        self._g = g
        self._rank: dict[int, int] | None = None

    def vertices_by_star_size(self) -> list[int]:
        st = self.st
        return sorted(st, key=lambda vb: (len(st[vb]), vb))

    def unit_sphere(self, xb: int) -> tuple[int, ...]:
        """S(x), canonical: lk(v) for a vertex, dx * lk(x) otherwise."""
        st = self.st
        if not xb & (xb - 1):
            return tuple([y ^ xb for y in st[xb] if y != xb])
        low = xb & -xb
        smallest = st[low]
        r = xb ^ low
        while r:
            low = r & -r
            if len(st[low]) < len(smallest):
                smallest = st[low]
            r ^= low
        # x comes first among the members that contain it, so link[0] is 0
        link = [y ^ xb for y in smallest if y & xb == xb]
        faces = []
        a = (xb - 1) & xb
        while a:
            faces.append(a)
            a = (a - 1) & xb
        # a | b for every nonempty face a and every b, the empty link[0]
        # included; then b alone for every nonempty b
        joins = [a | b for b in link for a in faces]
        joins += link[1:]
        rank = self._rank
        if rank is None:
            rank = self._rank = {b: i for i, b in enumerate(self._g)}
        joins.sort(key=rank.__getitem__)
        return tuple(joins)


def _every_link(ctx: _Ctx, g: tuple[int, ...], d: int, test) -> tuple[Status, tuple]:
    """YES when ``test(ctx, S(x), d - 1)`` is YES for every simplex x of g."""
    idx = _StarIndex(g)
    for xb in g:
        if test(ctx, idx.unit_sphere(xb), d - 1)[0] is NO:
            return NO, ()
    return YES, ()


@_step(lambda g: ((YES if g else NO), ()) if len(g) <= 1 else None)
def _contractible(ctx: _Ctx, g: tuple[int, ...]) -> tuple[Status, tuple]:
    idx = _StarIndex(g)
    for vbit in idx.vertices_by_star_size():
        if _contractible(ctx, idx.unit_sphere(vbit))[0] is not YES:
            continue
        s2, cert2 = _contractible(ctx, _minus_star(g, vbit))
        if s2 is YES:
            return YES, (vbit.bit_length() - 1,) + cert2
    return NO, ()


@_step(_void_sphere)
def _sphere(ctx: _Ctx, g: tuple[int, ...], d: int) -> tuple[Status, tuple]:
    if _manifold(ctx, g, d)[0] is NO:
        return NO, ()
    # puncture candidates: vertices with small stars first, then everything else
    candidates = _StarIndex(g).vertices_by_star_size()
    seen = set(candidates)
    candidates.extend(s for s in g if s not in seen)
    for xb in candidates:
        st, cert = _contractible(ctx, _minus_star(g, xb))
        if st is YES:
            return YES, vertices_of(xb) + cert
    return NO, ()


@_step(_nonnegative)
def _manifold(ctx: _Ctx, g: tuple[int, ...], d: int) -> tuple[Status, tuple]:
    return _every_link(ctx, g, d, _sphere)


def _sphere_or_ball(ctx: _Ctx, h: tuple[int, ...], d: int) -> tuple[Status, tuple]:
    if _sphere(ctx, h, d)[0] is YES or _ball(ctx, h, d)[0] is YES:
        return YES, ()
    return NO, ()


@_step(_nonnegative)
def _manifold_with_boundary(ctx: _Ctx, g: tuple[int, ...], d: int) -> tuple[Status, tuple]:
    return _every_link(ctx, g, d, _sphere_or_ball)


@_step(lambda g, d: (NO, ()) if d < 0 else None)
def _ball(ctx: _Ctx, g: tuple[int, ...], d: int) -> tuple[Status, tuple]:
    if _manifold_with_boundary(ctx, g, d)[0] is NO:
        return NO, ()
    ct, cert = _contractible(ctx, g)
    if ct is NO:
        return NO, ()
    sb, _ = _sphere(ctx, _boundary_members(ctx, g, d), d - 1)
    return sb, (cert if sb is YES else ())


def _boundary_members(ctx: _Ctx, g: tuple[int, ...], d: int) -> tuple[int, ...]:
    """Simplices whose unit sphere is a (d-1)-ball; valid once g is a
    certified manifold with boundary, where every unit sphere is a
    (d-1)-sphere or a (d-1)-ball."""
    idx = _StarIndex(g)
    out = []
    for xb in g:
        sph = idx.unit_sphere(xb)
        if _sphere(ctx, sph, d - 1)[0] is NO and _ball(ctx, sph, d - 1)[0] is YES:
            out.append(xb)
    return tuple(out)


@_step(_void_sphere)
def _dehn_sommerville(ctx: _Ctx, g: tuple[int, ...], d: int) -> tuple[Status, tuple]:
    if sum(1 if s.bit_count() & 1 else -1 for s in g) != 1 + (-1) ** d:
        return NO, ()
    return _every_link(ctx, g, d, _dehn_sommerville)


def _deep(fn, *args):
    """fn(*args) with room for the recursion; the caller's limit is restored."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20000))
    try:
        return fn(*args)
    finally:
        sys.setrecursionlimit(limit)


def _run(fn, g: Complex, *args, budget: int) -> Verdict:
    ctx = _Ctx(budget)
    try:
        status, cert = _deep(fn, ctx, g.masks, *args)
    except _OutOfBudget:
        return Verdict(UNKNOWN, (), ctx.used)
    return Verdict(status, cert, ctx.used)


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
    """YES when every unit sphere of g is a (d-1)-sphere (no boundary allowed)."""
    return _run(_manifold, g, d, budget=budget)


def is_manifold_with_boundary(g: Complex, d: int, budget: int = DEFAULT_BUDGET) -> Verdict:
    """YES when every unit sphere is a (d-1)-sphere or a (d-1)-ball."""
    return _run(_manifold_with_boundary, g, d, budget=budget)


def _boundary(ctx: _Ctx, g: tuple[int, ...], d: int) -> tuple[int, ...]:
    if _manifold_with_boundary(ctx, g, d)[0] is NO:
        raise DomainError(
            "boundary extraction needs a manifold-with-boundary verdict of yes, got no"
        )
    return _boundary_members(ctx, g, d)


def manifold_boundary(g: Complex, d: int, budget: int = DEFAULT_BUDGET) -> Complex:
    """The closed subcomplex of simplices whose unit sphere is a ball.

    Requires g to be certified as a d-manifold with boundary first; the
    result is itself a (d-1)-manifold without boundary (possibly empty).
    """
    try:
        bd = _deep(_boundary, _Ctx(budget), g.masks, d)
    except _OutOfBudget:
        raise DomainError("boundary classification ran out of budget") from None
    return Complex(map(Simplex.from_bits, bd))


def is_dehn_sommerville(g: Complex, d: int, budget: int = DEFAULT_BUDGET) -> Verdict:
    """YES when chi(g) = 1 + (-1)^d and every unit sphere is recursively so.

    The recursion is anchored at the void complex for d = -1.
    """
    if d < -1:
        raise InputError("dimension must be at least -1")
    return _run(_dehn_sommerville, g, d, budget=budget)
