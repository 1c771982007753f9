"""The topological product of complexes and its squarefree monomial encoding.

A complex G with vertices labeled by variables becomes the set of squarefree
monomials {t(x) : x in G}; the face relation is divisibility.  The simplices
of the product G * H are the chains of the pairs (x, y) in G x H ordered
componentwise by inclusion; equivalently, G * H is the complex rebuilt from
the products of the two monomial sets.  It multiplies all higher
characteristics, and G * 1, with ``POINT`` the one-point complex 1, is the
barycentric refinement of G (Knill, *The Künneth formula for graphs*, 2015).

A chain is its top pair p = (x, y) alone, or a chain topped by a pair of
faces of x and y other than p, then p.  So the chains topped by p are built
from those of its face pairs, each chain once, and counted from the
f-vectors alone: with |x| = a and |y| = b there are c(a, b) of them,
c(a, b) = 1 + sum C(a, i) C(b, j) c(i, j) over 1 <= i <= a, 1 <= j <= b,
(i, j) != (a, b).
"""

from __future__ import annotations

from math import comb
from typing import Iterable

from .complexes import Complex, closure, vertices_of, whitney
from .errors import InputError

__all__ = [
    "POINT",
    "ring_from_complex",
    "complex_from_ring",
    "topological_product",
    "topological_product_via_ring",
    "product_simplex_count",
]

Monomial = frozenset

POINT = closure([[1]])  # the one-point complex 1


def ring_from_complex(g: Complex, prefix: str = "a") -> frozenset[Monomial]:
    """One squarefree monomial per simplex, vertex v becoming variable prefix+v."""
    return frozenset(
        frozenset(f"{prefix}{v}" for v in vertices_of(b)) for b in g.member_bits
    )


def _canonical_monomials(monomials: Iterable) -> list[Monomial]:
    monos = [frozenset(m) for m in monomials]
    if len(set(monos)) != len(monos):
        raise InputError("duplicate monomials in the ring description")
    return sorted(monos, key=lambda m: (len(m), tuple(sorted(m))))


def complex_from_ring(monomials: Iterable) -> Complex:
    """Clique complex of the divisibility graph on a set of squarefree monomials.

    Vertex i is the i-th monomial in canonical (degree, name) order; two
    vertices are adjacent when one monomial divides the other.
    """
    monos = _canonical_monomials(monomials)
    n = len(monos)
    edges = []
    for i in range(n):
        mi = monos[i]
        for j in range(i + 1, n):
            mj = monos[j]
            if mi <= mj or mj <= mi:
                edges.append((i, j))
    return whitney(range(n), edges)


def _faces(bits: int, index: dict[int, int]) -> list[int]:
    """Positions of the nonempty faces of a member, itself included."""
    out = []
    a = bits
    while a:
        out.append(index[a])
        a = (a - 1) & bits
    return out


def topological_product(g: Complex, h: Complex) -> Complex:
    """G * H: the chains of the pairs (x, y) in G x H, (x, y) <= (x', y') iff
    both components are faces.  The pair (i-th simplex of g, j-th simplex of
    h), in canonical order, is vertex i * |H| + j, so a face pair has a smaller
    number than its coface pair and its chains are listed first."""
    gb, hb = g.masks, h.masks
    nh = len(hb)
    gidx = {b: i for i, b in enumerate(gb)}
    hidx = {b: j for j, b in enumerate(hb)}
    hfaces = [_faces(b, hidx) for b in hb]
    topped: list[list[int]] = []  # topped[p]: the chains whose top pair is p
    for x in gb:
        xfaces = [fi * nh for fi in _faces(x, gidx)]
        for yfaces in hfaces:
            top = len(topped)
            bit = 1 << top
            chains = [bit]
            for f in xfaces:
                for fj in yfaces:
                    if f + fj != top:
                        chains.extend(map(bit.__or__, topped[f + fj]))
            topped.append(chains)
    return Complex._of_bits(chain for chains in topped for chain in chains)


def product_simplex_count(g: Complex, h: Complex) -> int:
    """|G * H| from the f-vectors alone, without building the product."""
    fg, fh = g.f_vector, h.f_vector
    c: dict[tuple[int, int], int] = {}
    total = 0
    for a in range(1, len(fg) + 1):
        for b in range(1, len(fh) + 1):
            c[a, b] = 1 + sum(
                comb(a, i) * comb(b, j) * c[i, j]
                for i in range(1, a + 1)
                for j in range(1, b + 1)
                if (i, j) != (a, b)
            )
            total += fg[a - 1] * fh[b - 1] * c[a, b]
    return total


def topological_product_via_ring(g: Complex, h: Complex) -> Complex:
    """G * H through the monomial encoding: expand the product of the two
    ring polynomials and rebuild the complex from the resulting monomials."""
    fa = ring_from_complex(g, "a")
    fb = ring_from_complex(h, "b")
    return complex_from_ring(frozenset(ma | mb for ma in fa for mb in fb))
