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
from .linalg import _sparse_rank

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


def _coboundary(lo: list[Simplex], hi: list[Simplex]) -> list[dict[int, int]]:
    """Sparse rows, one per simplex y of hi, mapping the column index in lo
    of each codimension-one face of y that lies in lo to its incidence sign."""
    col = {x.bits: j for j, x in enumerate(lo)}
    out = []
    for y in hi:
        row = {}
        for p, v in enumerate(y.vertices):
            j = col.get(y.bits ^ (1 << v))
            if j is not None:
                row[j] = -1 if p & 1 else 1
        out.append(row)
    return out


def _betti_vector(counts: list[int], ranks: list[int]) -> tuple[int, ...]:
    """b_i = counts[i] - rank D_i - rank D_{i-1}, given the ranks of
    D_0..D_{d-1}; D_d maps into nothing."""
    ranks = [0, *ranks, 0]
    return tuple(c - ranks[i] - ranks[i + 1] for i, c in enumerate(counts))


def coboundary(support, i: int) -> list[list[int]]:
    """The matrix of d: i-cochains -> (i+1)-cochains on the support.

    Rows are the (i+1)-simplices, columns the i-simplices, both in canonical
    order; only incidences inside the support contribute.
    """
    support_kind(support)
    levels = _by_dim(_members(support))
    lo = levels[i] if 0 <= i < len(levels) else []
    hi = levels[i + 1] if 0 <= i + 1 < len(levels) else []
    return [[row.get(j, 0) for j in range(len(lo))] for row in _coboundary(lo, hi)]


def betti(support) -> tuple[int, ...]:
    """Betti numbers b_0..b_d over the rationals, exact ranks.

    b_i = dim ker(D_i) - rank(D_{i-1}); the alternating sum equals the Euler
    characteristic of the support whether it is open or closed.
    """
    support_kind(support)
    levels = _by_dim(_members(support))
    ranks = [_sparse_rank(_coboundary(lo, hi)) for lo, hi in zip(levels, levels[1:])]
    return _betti_vector([len(lv) for lv in levels], ranks)


def betti_relative(u: SimplexSubset) -> tuple[int, ...]:
    """Betti vector of an open set via the ambient complex.

    Builds the sparse coboundaries of the ambient complex and restricts rows
    and columns to the open support (the cochains vanishing on the closed
    complement).  Shipped as a second route; it must agree with ``betti``.
    """
    if not u.is_open_set():
        raise DomainError("betti_relative expects an open set")
    levels = _by_dim(_members(u))
    glevels = _by_dim(u.ambient.simplices)
    keep = u.member_bits
    ranks = []
    for i in range(len(levels) - 1):
        lo_all = glevels[i] if i < len(glevels) else []
        hi_all = glevels[i + 1] if i + 1 < len(glevels) else []
        cols = {c for c, x in enumerate(lo_all) if x.bits in keep}
        sub = [{c: e for c, e in row.items() if c in cols}
               for y, row in zip(hi_all, _coboundary(lo_all, hi_all)) if y.bits in keep]
        ranks.append(_sparse_rank(sub))
    return _betti_vector([len(lv) for lv in levels], ranks)
