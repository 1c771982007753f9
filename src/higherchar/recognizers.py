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
returned only when the call budget runs out before the search is exhausted.
Results are memoized on the exact labeled complex (no isomorphism
canonicalization), so repeated sub-complexes are checked once per query.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum

from .complexes import Complex, Simplex
from .errors import DomainError, InputError
from .topology import star_complement, unit_sphere

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


class _Ctx:
    __slots__ = ("budget", "used", "memo")

    def __init__(self, budget: int):
        if budget < 1:
            raise InputError("recognizer budget must be positive")
        self.budget = budget
        self.used = 0
        self.memo: dict = {}

    def charge(self) -> bool:
        self.used += 1
        return self.used <= self.budget


def _step(base):
    """Make a recognizer body one budgeted, memoized step.

    ``base(g, *args)`` settles trivial cases free of charge and returns None
    otherwise.  Each evaluation of the body costs one call; a YES or NO is
    memoized on the exact member set, UNKNOWN never is, so a later visit can
    still decide.
    """

    def wrap(body):
        def step(ctx: _Ctx, g: Complex, *args) -> tuple[Status, tuple]:
            res = base(g, *args)
            if res is not None:
                return res
            key = (body, g.member_bits, *args)
            hit = ctx.memo.get(key)
            if hit is not None:
                return hit
            if not ctx.charge():
                return UNKNOWN, ()
            res = body(ctx, g, *args)
            if res[0] is not UNKNOWN:
                ctx.memo[key] = res
            return res

        return step

    return wrap


def _void_sphere(g: Complex, d: int):
    if d == -1:
        return (YES if len(g) == 0 else NO), ()
    if len(g) == 0:
        return NO, ()
    return None


def _nonnegative(g: Complex, d: int):
    if d < 0:
        raise InputError("manifold dimension must be non-negative")


def _vertices_by_star_size(g: Complex) -> list[int]:
    count: dict[int, int] = {}
    for s in g.simplices:
        b = s.bits
        while b:
            low = b & -b
            count[low] = count.get(low, 0) + 1
            b ^= low
    return sorted(count, key=lambda vb: (count[vb], vb))


def _every_link(ctx: _Ctx, g: Complex, d: int, test) -> tuple[Status, tuple]:
    """YES when ``test(ctx, S(x), d - 1)`` is YES for every simplex x of g, NO as
    soon as one is NO, UNKNOWN otherwise."""
    saw_unknown = False
    for x in g.simplices:
        st, _ = test(ctx, unit_sphere(g, x.bits), d - 1)
        if st is NO:
            return NO, ()
        saw_unknown = saw_unknown or st is UNKNOWN
    return (UNKNOWN if saw_unknown else YES), ()


@_step(lambda g: ((YES if len(g) else NO), ()) if len(g) <= 1 else None)
def _contractible(ctx: _Ctx, g: Complex) -> tuple[Status, tuple]:
    saw_unknown = False
    for vbit in _vertices_by_star_size(g):
        s1, _ = _contractible(ctx, unit_sphere(g, vbit))
        if s1 is not YES:
            saw_unknown = saw_unknown or s1 is UNKNOWN
            continue
        s2, cert2 = _contractible(ctx, star_complement(g, vbit))
        if s2 is YES:
            return YES, (vbit.bit_length() - 1,) + cert2
        saw_unknown = saw_unknown or s2 is UNKNOWN
    return (UNKNOWN if saw_unknown else NO), ()


@_step(_void_sphere)
def _sphere(ctx: _Ctx, g: Complex, d: int) -> tuple[Status, tuple]:
    man, _ = _manifold(ctx, g, d)
    if man is not YES:
        return man, ()
    saw_unknown = False
    # puncture candidates: vertices with small stars first, then everything else
    candidates = [Simplex.from_bits(vb) for vb in _vertices_by_star_size(g)]
    seen = {c.bits for c in candidates}
    candidates.extend(s for s in g.simplices if s.bits not in seen)
    for x in candidates:
        st, cert = _contractible(ctx, star_complement(g, x.bits))
        if st is YES:
            return YES, x.vertices + cert
        saw_unknown = saw_unknown or st is UNKNOWN
    return (UNKNOWN if saw_unknown else NO), ()


@_step(_nonnegative)
def _manifold(ctx: _Ctx, g: Complex, d: int) -> tuple[Status, tuple]:
    return _every_link(ctx, g, d, _sphere)


def _sphere_or_ball(ctx: _Ctx, h: Complex, d: int) -> tuple[Status, tuple]:
    st, _ = _sphere(ctx, h, d)
    if st is YES:
        return YES, ()
    bt, _ = _ball(ctx, h, d)
    if bt is YES:
        return YES, ()
    return (UNKNOWN if UNKNOWN in (st, bt) else NO), ()


@_step(_nonnegative)
def _manifold_with_boundary(ctx: _Ctx, g: Complex, d: int) -> tuple[Status, tuple]:
    return _every_link(ctx, g, d, _sphere_or_ball)


@_step(lambda g, d: (NO, ()) if d < 0 else None)
def _ball(ctx: _Ctx, g: Complex, d: int) -> tuple[Status, tuple]:
    mwb, _ = _manifold_with_boundary(ctx, g, d)
    if mwb is not YES:
        return mwb, ()
    ct, cert = _contractible(ctx, g)
    if ct is not YES:
        return ct, ()
    bd, st = _boundary_members(ctx, g, d)
    if st is not YES:
        return st, ()
    sb, _ = _sphere(ctx, Complex(bd, _validated=True), d - 1)
    return sb, (cert if sb is YES else ())


def _boundary_members(ctx: _Ctx, g: Complex, d: int) -> tuple[list[Simplex], Status]:
    """Simplices whose unit sphere is a (d-1)-ball; valid once g is a
    certified manifold with boundary."""
    out = []
    for x in g.simplices:
        sph = unit_sphere(g, x.bits)
        st, _ = _sphere(ctx, sph, d - 1)
        if st is YES:
            continue
        bt, _ = _ball(ctx, sph, d - 1)
        if bt is YES:
            out.append(x)
            continue
        return [], (UNKNOWN if UNKNOWN in (st, bt) else NO)
    return out, YES


@_step(_void_sphere)
def _dehn_sommerville(ctx: _Ctx, g: Complex, d: int) -> tuple[Status, tuple]:
    if sum(s.weight for s in g.simplices) != 1 + (-1) ** d:
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


def _run(fn, *args, budget: int) -> Verdict:
    ctx = _Ctx(budget)
    status, cert = _deep(fn, ctx, *args)
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


def _boundary(ctx: _Ctx, g: Complex, d: int) -> list[Simplex]:
    mwb, _ = _manifold_with_boundary(ctx, g, d)
    if mwb is not YES:
        raise DomainError(
            f"boundary extraction needs a manifold-with-boundary verdict of yes, got {mwb.value}"
        )
    members, st = _boundary_members(ctx, g, d)
    if st is not YES:
        raise DomainError("boundary classification ran out of budget")
    return members


def manifold_boundary(g: Complex, d: int, budget: int = DEFAULT_BUDGET) -> Complex:
    """The closed subcomplex of simplices whose unit sphere is a ball.

    Requires g to be certified as a d-manifold with boundary first; the
    result is itself a (d-1)-manifold without boundary (possibly empty).
    """
    return Complex(_deep(_boundary, _Ctx(budget), g, d))


def is_dehn_sommerville(g: Complex, d: int, budget: int = DEFAULT_BUDGET) -> Verdict:
    """YES when chi(g) = 1 + (-1)^d and every unit sphere is recursively so.

    The recursion is anchored at the void complex for d = -1.
    """
    if d < -1:
        raise InputError("dimension must be at least -1")
    return _run(_dehn_sommerville, g, d, budget=budget)
