"""The topological product of complexes and its squarefree monomial encoding.

A complex G with vertices labeled by variables becomes the set of squarefree
monomials {t(x) : x in G}; the face relation is divisibility.  The product
G * H is the clique complex of the comparability graph on the pairs
(x, y) in G x H ordered componentwise by inclusion, equivalently the complex
rebuilt from the products of the two monomial sets.  It multiplies all
higher characteristics and turns the one-point complex into the refinement
operator: G * 1 is the barycentric refinement of G.
"""

from __future__ import annotations

from typing import Iterable

from .complexes import Complex, whitney
from .errors import InputError

__all__ = [
    "ring_from_complex",
    "complex_from_ring",
    "topological_product",
    "topological_product_via_ring",
]

Monomial = frozenset


def ring_from_complex(g: Complex, prefix: str = "a") -> frozenset[Monomial]:
    """One squarefree monomial per simplex, vertex v becoming variable prefix+v."""
    return frozenset(
        frozenset(f"{prefix}{v}" for v in s.vertices) for s in g.simplices
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


def topological_product(g: Complex, h: Complex) -> Complex:
    """G * H built directly on the pair order: (x,y) <= (x',y') iff both
    components are faces; the product is the clique complex of the
    comparability graph.  Vertex count is always |G| * |H|: the pair
    (i-th simplex of g, j-th simplex of h), in canonical order, is vertex
    i * |H| + j."""
    gs = g.simplices
    hs = h.simplices
    ng, nh = len(gs), len(hs)
    n = ng * nh
    gb = [s.bits for s in gs]
    hb = [s.bits for s in hs]
    edges = []
    for a in range(n):
        ia, ja = divmod(a, nh)
        ag, ah = gb[ia], hb[ja]
        for b in range(a + 1, n):
            ib, jb = divmod(b, nh)
            cg, chh = gb[ib], hb[jb]
            eg = ag & cg
            eh = ah & chh
            if (eg == ag and eh == ah) or (eg == cg and eh == chh):
                edges.append((a, b))
    return whitney(range(n), edges)


def topological_product_via_ring(g: Complex, h: Complex) -> Complex:
    """G * H through the monomial encoding: expand the product of the two
    ring polynomials and rebuild the complex from the resulting monomials."""
    fa = ring_from_complex(g, "a")
    fb = ring_from_complex(h, "b")
    return complex_from_ring(frozenset(ma | mb for ma in fa for mb in fb))
