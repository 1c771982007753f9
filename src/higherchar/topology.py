"""The finite star topology of a complex.

The stars U(x) = {y : x is a face of y} form the base of a non-Hausdorff
topology on the set of simplices.  Closed sets are exactly the subcomplexes;
an arbitrary union of stars is open, and ``open_hull`` builds one in a
single pass over the complex.  Balls, spheres and the refinement of
complexes and open sets live here.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import product
from .complexes import (Complex, Simplex, SimplexSubset, _close, _coerce_simplex, _vertex_mask,
                        closure)
from .errors import DomainError, InputError

__all__ = [
    "OpenSet",
    "configuration",
    "config_weight",
    "star",
    "open_hull",
    "core",
    "star_intersection",
    "ball",
    "sphere",
    "unit_sphere",
    "barycentric",
    "open_refinement",
]


class OpenSet(SimplexSubset):
    """A SimplexSubset that is upward closed in its ambient complex."""

    def __init__(self, ambient: Complex, members: Iterable):
        super().__init__(ambient, members)
        if not self.is_open_set():
            raise DomainError("the given simplices do not form an open set")


def configuration(g: Complex, xs) -> tuple[Simplex, ...]:
    """Validate a k-point configuration: a nonempty tuple of simplices of g."""
    if isinstance(xs, Simplex):
        xs = (xs,)
    X = tuple(_coerce_simplex(x) for x in xs)
    if not X:
        raise InputError("a configuration needs at least one point (k >= 1)")
    return tuple(_require_member(g, x) for x in X)


def config_weight(xs: Sequence[Simplex]) -> int:
    """Product of the simplex weights of a configuration, in {+1, -1}."""
    w = 1
    for x in xs:
        w *= x.weight
    return w


def _require_member(g: Complex, x) -> Simplex:
    x = _coerce_simplex(x)
    if x.bits not in g.member_bits:
        raise DomainError(f"{x!r} is not a simplex of the complex")
    return x


def star(g: Complex, x) -> OpenSet:
    """U(x): all simplices having x as a face; the smallest open set containing x."""
    return star_intersection(g, (x,))


def open_hull(g: Complex, xs) -> OpenSet:
    """The smallest open set holding every simplex of xs: the union of their stars.

    One pass over g by size, faces before cofaces: y is kept when it is one of
    xs or when one of its codimension-one faces was kept.
    """
    return _open_hull_of_masks(g, {_require_member(g, x).bits for x in xs})


def _open_hull_of_masks(g: Complex, kept: set[int]) -> OpenSet:
    """open_hull of the members of g whose masks are ``kept``, a set it fills."""
    for yb in sorted(g.member_bits, key=int.bit_count):
        if yb in kept:
            continue
        rest = yb
        while rest:
            low = rest & -rest
            if yb ^ low in kept:
                kept.add(yb)
                break
            rest ^= low
    return OpenSet._of_bits(g, kept)


def core(g: Complex, x) -> Complex:
    """K(x): the closure of {x}, i.e. all nonempty subsets of x."""
    x = _require_member(g, x)
    return closure((x,))


def _union_bits(g: Complex, xs) -> int:
    return _vertex_mask(x.bits for x in configuration(g, xs))


def star_intersection(g: Complex, xs) -> OpenSet:
    """U(X), the intersection of the stars of the points of a configuration.

    U(X) is the star of the union of the points: the members that contain
    it.  It is empty when that union is not a simplex of g, as a superset of
    a non-member cannot be a member of a closed family.
    """
    u = _union_bits(g, xs)
    return OpenSet._of_bits(g, (b for b in g.member_bits if u & b == u))


def ball(g: Complex, xs) -> Complex:
    """B(X): the closure of the star intersection U(X); a complex."""
    return _close(star_intersection(g, xs).member_bits)


def sphere(g: Complex, xs) -> Complex:
    """S(X) = B(X) minus U(X): the boundary of the star intersection; a complex.

    It is the unit sphere of the union of the points, and empty when that
    union is not a simplex of g.
    """
    return unit_sphere(g, _union_bits(g, xs))


def unit_sphere(g: Complex, xb: int) -> Complex:
    """S(x) = B(x) minus U(x) for the vertex set x given by its bit mask xb.

    As g is closed, a simplex s lies in the ball B(x) exactly when s ∪ x is a
    simplex of g, and in the star U(x) when x ⊆ s.  Empty when x is not a
    simplex of g.
    """
    members = g.member_bits
    return Complex._of_bits(b for b in members if b & xb != xb and b | xb in members)


def barycentric(g: Complex) -> Complex:
    """The refinement of g, G * 1: the complex of chains of its face poset,
    the i-th simplex of g in canonical order being vertex i."""
    return product.topological_product(g, product.POINT)


def open_refinement(g: Complex, u: SimplexSubset) -> OpenSet:
    """Refine an open set: complement of the refined closed complement.

    The closed complement refines to the full subcomplex of the refinement
    induced on its simplices; the refined open set is everything else, i.e.
    the chains that touch at least one member of u.
    """
    if not isinstance(u, SimplexSubset) or u.ambient != g:
        u = SimplexSubset(g, u)
    if not u.is_open_set():
        raise DomainError("open_refinement requires an open set")
    g1 = barycentric(g)
    closed_mask = 0
    ub = u.member_bits
    for i, b in enumerate(g.masks):
        if b not in ub:
            closed_mask |= 1 << i
    return OpenSet._of_bits(g1, (b for b in g1.member_bits if b & ~closed_mask))
