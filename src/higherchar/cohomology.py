"""Simplicial cohomology over the rationals for closed AND open supports.

A closed support carries the usual cochain complex.  An open support U
carries the relative complex of cochains on the ambient complex that vanish
on the closed complement.  Its coboundary is that of U's own simplices:
every coface of a member of U is in U, and every face of a complement
simplex is in the complement, a subcomplex.  So d*d stays zero, Betti
vectors of open sets are well defined, and ``betti`` and ``betti_relative``
share one rank pass over U's member masks.  A single open cell {x} has
Betti vector e_{|x|} (1 in position dim x), so every Betti vector is
realized by some open set.
"""

from __future__ import annotations

from .complexes import Complex, SimplexSubset, _mask_key
from .errors import DomainError
from .linalg import _sparse_rank

__all__ = [
    "coboundary",
    "betti",
    "betti_relative",
    "support_kind",
]


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


def _by_dim(support) -> list[list[int]]:
    """The support's member masks split by dimension, each level in canonical
    order; levels below the lowest member are empty."""
    if isinstance(support, Complex):
        masks = support.masks
    else:  # the ambient's order on the support's members alone: no ambient sort
        masks = sorted(support.member_bits, key=_mask_key)
    out: list[list[int]] = []
    for b in masks:  # canonical order: by size, so b's level is the last one
        while len(out) < b.bit_count():
            out.append([])
        out[-1].append(b)
    return out


def _coboundary(lo: list[int], hi: list[int]) -> list[dict[int, int]]:
    """Sparse rows, one per mask y of hi, mapping the column index in lo of
    each codimension-one face of y that lies in lo to its incidence sign:
    (-1)^p for the removed vertex at ascending position p of y."""
    col = {x: j for j, x in enumerate(lo)}
    out = []
    for y in hi:
        row = {}
        rest, p = y, 0
        while rest:
            low = rest & -rest
            j = col.get(y ^ low)
            if j is not None:
                row[j] = -1 if p & 1 else 1
            rest ^= low
            p += 1
        out.append(row)
    return out


def coboundary(support, i: int) -> list[list[int]]:
    """The matrix of d: i-cochains -> (i+1)-cochains on the support.

    Rows are the (i+1)-simplices, columns the i-simplices, both in canonical
    order; only incidences inside the support contribute.
    """
    support_kind(support)
    levels = _by_dim(support)
    lo = levels[i] if 0 <= i < len(levels) else []
    hi = levels[i + 1] if 0 <= i + 1 < len(levels) else []
    return [[row.get(j, 0) for j in range(len(lo))] for row in _coboundary(lo, hi)]


def _betti(support) -> tuple[int, ...]:
    """b_i = #level i - rank D_i - rank D_{i-1}; D_d maps into nothing."""
    levels = _by_dim(support)
    ranks = [0, *(_sparse_rank(_coboundary(lo, hi)) for lo, hi in zip(levels, levels[1:])), 0]
    return tuple(len(lv) - ranks[i] - ranks[i + 1] for i, lv in enumerate(levels))


def betti(support) -> tuple[int, ...]:
    """Betti numbers b_0..b_d over the rationals, exact ranks.

    b_i = dim ker(D_i) - rank(D_{i-1}); the alternating sum equals the Euler
    characteristic of the support whether it is open or closed.
    """
    support_kind(support)
    return _betti(support)


def betti_relative(u: SimplexSubset) -> tuple[int, ...]:
    """Betti vector of an open set U from its relative cochain complex.

    The cochains on the ambient complex that vanish on the closed complement
    have the coboundary of U's own simplices (see the module docstring), so
    this is ``betti(u)`` for an open U.  Any other support, a Complex
    included, is refused.
    """
    if not isinstance(u, SimplexSubset) or not u.is_open_set():
        raise DomainError("betti_relative expects an open set")
    return _betti(u)
