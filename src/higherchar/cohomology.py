"""Simplicial cohomology over the rationals for closed AND open supports.

A closed support carries the usual cochain complex.  An open support U
carries the relative complex of cochains on the ambient complex that vanish
on the closed complement; because the complement is a subcomplex, that
subspace is invariant under the coboundary, d*d stays zero, and Betti
vectors of open sets are well defined.  A single open cell {x} has Betti
vector e_{|x|} (1 in position dim x), so every Betti vector is realized by
some open set.
"""

from __future__ import annotations

from .complexes import Complex, Simplex, SimplexSubset, _members
from .errors import DomainError
from .linalg import rank

__all__ = [
    "incidence_sign",
    "coboundary",
    "betti",
    "betti_relative",
    "support_kind",
]


def incidence_sign(y: Simplex, x: Simplex) -> int:
    """0 unless x is a codimension-one face of y; else (-1)^p where p is the
    position of the removed vertex within y's ascending vertex list."""
    if len(y.vertices) != len(x.vertices) + 1:
        return 0
    if x.bits & y.bits != x.bits:
        return 0
    removed = y.bits ^ x.bits
    v = removed.bit_length() - 1
    p = y.vertices.index(v)
    return -1 if p & 1 else 1


def support_kind(a) -> str:
    """'closed' or 'open'; mixed subsets are rejected."""
    if isinstance(a, Complex):
        return "closed"
    if not isinstance(a, SimplexSubset):
        raise DomainError("support must be a Complex or a SimplexSubset")
    if a.is_closed_set():
        return "closed"
    if a.is_open_set():
        return "open"
    raise DomainError("support is neither closed nor open; no cochain complex")


def _by_dim(members) -> list[list[Simplex]]:
    if not members:
        return []
    d = max(s.dim for s in members)
    out: list[list[Simplex]] = [[] for _ in range(d + 1)]
    for s in members:
        out[s.dim].append(s)
    return out


def coboundary(support, i: int) -> list[list[int]]:
    """The matrix of d: i-cochains -> (i+1)-cochains on the support.

    Rows are the (i+1)-simplices, columns the i-simplices, both in canonical
    order; only incidences inside the support contribute.
    """
    support_kind(support)
    levels = _by_dim(_members(support))
    lo = levels[i] if 0 <= i < len(levels) else []
    hi = levels[i + 1] if 0 <= i + 1 < len(levels) else []
    return [[incidence_sign(y, x) for x in lo] for y in hi]


def betti(support) -> tuple[int, ...]:
    """Betti numbers b_0..b_d over the rationals, exact ranks.

    b_i = dim ker(D_i) - rank(D_{i-1}); the alternating sum equals the Euler
    characteristic of the support whether it is open or closed.
    """
    support_kind(support)
    members = _members(support)
    if not members:
        return ()
    levels = _by_dim(members)
    d = len(levels) - 1
    ranks = []
    for i in range(d):
        lo, hi = levels[i], levels[i + 1]
        if lo and hi:
            ranks.append(rank([[incidence_sign(y, x) for x in lo] for y in hi]))
        else:
            ranks.append(0)
    ranks.append(0)  # D_d maps into nothing
    out = []
    for i in range(d + 1):
        below = ranks[i - 1] if i > 0 else 0
        out.append(len(levels[i]) - ranks[i] - below)
    return tuple(out)


def betti_relative(u: SimplexSubset) -> tuple[int, ...]:
    """Betti vector of an open set via the ambient complex.

    Builds the full coboundaries of the ambient complex and restricts rows
    and columns to the open support (the cochains vanishing on the closed
    complement).  Shipped as an independent route; it must agree with
    ``betti``.
    """
    if not u.is_open_set():
        raise DomainError("betti_relative expects an open set")
    members = _members(u)
    if not members:
        return ()
    g = u.ambient
    glevels = _by_dim(g.simplices)
    keep = u.member_bits
    d = max(s.dim for s in members)
    ranks = []
    for i in range(d):
        lo_all = glevels[i] if i < len(glevels) else []
        hi_all = glevels[i + 1] if i + 1 < len(glevels) else []
        full = [[incidence_sign(y, x) for x in lo_all] for y in hi_all]
        rows = [r for r, y in enumerate(hi_all) if y.bits in keep]
        cols = [c for c, x in enumerate(lo_all) if x.bits in keep]
        sub = [[full[r][c] for c in cols] for r in rows]
        ranks.append(rank(sub) if sub and cols else 0)
    ranks.append(0)
    counts = [0] * (d + 1)
    for s in members:
        counts[s.dim] += 1
    out = []
    for i in range(d + 1):
        below = ranks[i - 1] if i > 0 else 0
        out.append(counts[i] - ranks[i] - below)
    return tuple(out)
