"""Higher characteristics and the identity checkers built from them.

The m'th characteristic of a collection A of simplices is

    w_m(A) = sum over X in A^m with nonempty intersection(X) in A
             of  prod_j weight(x_j),

with weight(x) = (-1)^dim(x).  m=1 is the Euler characteristic, m=2 the Wu
characteristic.  The production evaluator regroups the tuple sum over the
poset of faces.  With N(q) the sum of the weights of the members that
contain the face q, N(q)^m is the weighted count of the tuples whose
intersection contains q; Möbius inversion on the Boolean lattice isolates
the tuples whose intersection is exactly p, and summing over p in A gives

    w_m(A) = sum over faces q of members of A of  c(q) * N(q)^m,
    c(q)   = sum over p in A with p ⊆ q of  (-1)^(|q|-|p|).

N and c do not depend on m.  ``_subset_terms`` takes both by the zeta
transforms of the face poset of a complex C ⊇ A, one vertex v at a time
(Rota): from n = s = w * [q in A], n[x - v] += n[x] and s[x] += s[x - v]
over the pairs (x, x - v) of C's ``_face_table``; then n = N and
c(q) = w(q) * s(q), in 2 Σ|y| updates over C, whatever A is.  Grouped by N
as (N, Σc) pairs, they give w_m for any m as one short sum.  A complex G is
closed, so c(q) = w(q) there, and w_m(G) = sum of w(z) * N(z)^m with the
star weights N(z) = sum of w(y) over the y ⊇ z in G, from a superset sum
with one pass per vertex (Σ|y| updates, not the Σ 2^|y| of a subset pass).
Both kinds of pass find each member's vertices by bit position, from the top
(``complexes._position_stars``): a product's masks are |G|·|H| bits wide, and
that takes one new int per (member, vertex) with a small-int key.
The per-simplex star, ball and sphere tables need N alone:

    w_m(U(z)) = N(z)^m,
    w_m(B(z)) = T_m(z) = sum over y ⊇ z of  w(y) * N(y)^m,
    w_m(S(z)) = (-1)^m * (N(z)^m - T_m(z)).

Every tuple of U(z) meets in a simplex that contains z, so all N(z)^m of
them count.  B(z) = z̄ ∗ lk(z) is closed, and the members of it above a ⊔ b
(a ⊆ z, b in lk(z) or empty) are the a' ⊔ b' with a ⊆ a' ⊆ z, b ⊆ b', so
N_B(a ⊔ b) carries the factor sum of (-1)^|a'| over a ⊆ a' ⊆ z, which is 0
unless a = z; for q ⊇ z, N_B(q) = N(q).  S(z) = ∂z ∗ lk(z) then follows
from the local identity w_m(B) = w_m(U) - (-1)^m * w_m(S).  T_m is one
superset-sum pass per m, and each distinct N(z) is raised to the m'th power
once.  The member lists of B(z) and S(z) are the joins of z's faces with
the link {y ^ z : y in U(z), y != z} of the star list (``_join_at``); the
dual-sphere walk, the energized tables and the local-valuation check, which
evaluates w_m of U(z), B(z) and S(z) literally (``_local_at``), read them.

The k-point configuration sums rest on one lemma: in a closed complex the
weighted count of the k-tuples of simplices whose union is exactly z is
w(z), whatever k is.  The tuples whose union lies inside y count
F(y) = (sum of w(x) over the x ⊆ y)^k = 1^k = 1, and Möbius inversion gives
sum over y ⊆ z of (-1)^(|z|-|y|) * F(y) = w(z).  U(X), B(X) and S(X) depend
on X only through its union, and are empty when the union is not in G, so
the sum of w(X) * table[union of X] over G^k is the sum of w(z) * table[z]
over G for every k (``_fold``).  Counted without weights, the k-tuples whose
union is exactly z number c(|z|, k), which depends on |z| alone
(``local_valuation_sum``).

The dual-sphere sum over D(X) = S(x_1) ∩ ... ∩ S(x_k) exchanges the order of
summation instead.  Writing w_m(D(X)) as its tuple sum and swapping the sums
over X and Y gives

    sum over X in G^k of w(X) * w_m(D(X))
      = sum over Y in G^m with p = ∩Y nonempty of  w(Y) * F(Y)^k,
    F(Y) = sum of w(x) over the x with y_1, ..., y_m, p all in S(x),

so the walk runs over the m-tuples of simplices that share a unit sphere,
not over the k-tuples of configurations; p in S(x) is tested, so no closure
of the sets is assumed.  At k = 1, D(x) = S(x) and the sum is read off the
sphere table.  ``w_m_naive`` keeps the literal definition; it is the oracle
in tests and the global path of the benchmark.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import AbstractSet, Callable, Iterable, Mapping, Sequence

from . import topology
from .complexes import (Complex, Simplex, SimplexSubset, _close, _join_bits, _mask, _masks_of,
                        _position_stars, _vertex_mask)
from .errors import DEFAULT_OP_BUDGET, DomainError, InputError, charge, charge_tuples

__all__ = [
    "DEFAULT_OP_BUDGET",
    "InteractionFunction",
    "EnergyReport",
    "w_m",
    "w_m_naive",
    "w_m_energized",
    "w_m_multi",
    "fermi",
    "green",
    "curvature_profile",
    "energy_sum",
    "sphere_sum",
    "dual_sphere_sum",
    "valuation_check",
    "valuation_values",
    "local_valuation_check",
    "local_valuation_sum",
]


def _weight_of_bits(b: int) -> int:
    return 1 if b.bit_count() & 1 else -1


def _powers(values: Iterable[int], m: int, op_budget: int | None) -> dict[int, int]:
    """{N: N**m} for the distinct values N, refused before any power is raised
    when their cost is over ``op_budget``.

    N**m has at most m * bit_length(|N|) bits, d digits of 30 bits, and
    CPython squares d digits by Karatsuba in about 3^log2(d) digit products;
    each N with |N| >= 2 is charged 3 ** d.bit_length(), an upper bound on
    that count.  The powers of 0, 1 and -1 are free.
    """
    vs = set(values)
    cost = sum(3 ** (m * abs(v).bit_length() // 30 + 1).bit_length()
               for v in vs if not -1 <= v <= 1)
    charge(f"raising {len(vs)} values to the power {m}", cost, op_budget)
    return {v: v**m for v in vs}


def _eval_terms(terms: Sequence[tuple[int, int]], m: int, op_budget: int | None = None) -> int:
    pw = _powers((n for n, _ in terms), m, op_budget)
    return sum(c * pw[n] for n, c in terms)


def _star_weights(g: Complex) -> dict[int, int]:
    """N(z) = sum of w(y) over the y ⊇ z in g, for every z of g, by a
    superset sum with one pass per vertex: Σ|y| updates, not Σ 2^|y|.

    The pass of v adds out[y] to out[y - v] for every member y ∋ v, read
    from the stars of ``_position_stars``, grouped by the position of v
    rather than by its bit, so a product's wide masks are taken apart at
    one new int per vertex; after the passes of v_1..v_i, out[z] sums w(y)
    over the members y ⊇ z with y - z inside {v_1..v_i}, in any order of
    the vertices.  y - v is a member, as g is closed, or the empty set for
    y = {v}, whose sum goes to a sink out[0] that is dropped.  A non-member
    needs no entry: no member contains it, so its sum stays 0 and adds
    nothing.  The keys stay the masks, in the order of ``g.member_bits``.
    A member list that is not closed (``Complex._of_bits`` checks nothing)
    lacks some y - v, which is refused with a ``DomainError``.
    """
    out = {y: 1 if y.bit_count() & 1 else -1 for y in g.member_bits}
    out[0] = 0
    try:
        for p, ys in _position_stars(g.member_bits).items():
            v = 1 << (p - 1)
            for y in ys:
                out[y - v] += out[y]
    except KeyError as exc:
        raise DomainError(f"not closed under subsets: {Simplex.from_bits(exc.args[0])!r},"
                          " a face of a member, is missing") from None
    del out[0]
    return out


# a closed complex's masks, their weights and, per vertex v, the index pairs
# (x, x - v) over the x ∋ v with another vertex; tuples only, as it is shared
_FaceTable = namedtuple("_FaceTable", "masks weights vertices passes")


def _build_face_table(masks: Sequence[int]) -> _FaceTable:
    """The face table of the closed complex with these masks, in their order;
    the vertices are grouped by position (``_position_stars``), in the order
    of their first appearance, each mask's highest vertex first."""
    index = {b: i for i, b in enumerate(masks)}
    vertices, passes = [], []
    for p, xs in _position_stars([b for b in masks if b & (b - 1)]).items():
        v = 1 << (p - 1)
        vertices.append(v)
        passes.append(tuple([(index[x], index[x - v]) for x in xs]))
    return _FaceTable(tuple(masks), tuple([1 if b.bit_count() & 1 else -1 for b in masks]),
                      tuple(vertices), tuple(passes))


def _subset_terms(table: _FaceTable, members: AbstractSet[int]) -> tuple[tuple[int, int], ...]:
    """(N, C) pairs with w_m = sum of C * N**m (m >= 1) of a subset of the
    table's complex; C sums c(q) over the q with N(q) = N != 0.  A vertex no
    member holds is skipped: its x have n[x] = 0, and s[x] feeds only x' ⊇ x."""
    masks, weights, vertices, passes = table
    n = [w if b in members else 0 for b, w in zip(masks, weights)]
    s = n[:]
    span = _vertex_mask(members)
    for v, pairs in zip(vertices, passes):
        if v & span:
            for x, face in pairs:
                n[face] += n[x]
                s[x] += s[face]
    grouped: dict[int, int] = {}
    for nq, sq, w in zip(n, s, weights):
        if nq and sq:
            grouped[nq] = grouped.get(nq, 0) + (sq if w > 0 else -sq)
    return tuple([(nq, c) for nq, c in grouped.items() if c])


def _terms(a) -> tuple[tuple[int, int], ...]:
    """(N, C) pairs with w_m(a) = sum of C * N**m for every m >= 1, N and C
    nonzero, so both routes give one set of pairs.

    On a complex they are the star weights N(z) grouped with the summed
    w(z), from one ``_star_weights`` pass; on a simplex subset, the
    ``_subset_terms`` over its ambient's cached face table, and on an
    iterable, over the table of its closure, built for the call alone."""
    if isinstance(a, SimplexSubset):
        return _subset_terms(_face_table(a.ambient), a.member_bits)
    if not isinstance(a, Complex):
        masks = _masks_of(a)
        return _subset_terms(_build_face_table(tuple(_close(masks).member_bits)), set(masks))
    grouped: dict[int, int] = {}
    for z, n in _star_weights(a).items():
        if n:
            grouped[n] = grouped.get(n, 0) + (1 if z.bit_count() & 1 else -1)
    return tuple([(n, c) for n, c in grouped.items() if c])


def w_m(a, m: int, *, op_budget: int | None = DEFAULT_OP_BUDGET) -> int:
    """Exact m'th characteristic of a complex or an arbitrary simplex subset;
    an iterable that lists a simplex twice is refused (``InputError``).

    On a complex it is the sum of w(z) * N(z)^m, computed afresh on every call:
    a cached table would keep every transient complex (products, refinements)
    alive; a subset takes the face terms of ``_terms``.  The powers are
    charged against ``op_budget`` before they are raised (``_powers``).
    """
    if m < 1:
        raise InputError("the arity m must be at least 1")
    return _eval_terms(_terms(a), m, op_budget)


def _wm_naive_bits(bits: list[int], m: int, *, assume_closed: bool = False) -> int:
    """The tuple sum of w_m over the masks ``bits``, depth first over the
    tuple prefixes, from the empty prefix (all bits set); a prefix with an
    empty intersection is dropped, as every tuple that extends it is."""
    mset = frozenset(bits)
    pairs = [(b, _weight_of_bits(b)) for b in bits]
    total = 0
    stack = [(-1, 1, 0)]
    while stack:
        p, w, j = stack.pop()
        if j < m - 1:
            for b, wb in pairs:
                q = p & b
                if q:
                    stack.append((q, w * wb, j + 1))
            continue
        for b, wb in pairs:
            q = p & b
            if q and (assume_closed or q in mset):
                total += w * wb
    return total


def w_m_naive(
    a,
    m: int,
    *,
    assume_closed: bool = False,
    op_budget: int | None = DEFAULT_OP_BUDGET,
) -> int:
    """Literal tuple enumeration of w_m; the reference for every faster path.

    With ``assume_closed`` the membership test of the intersection reduces to
    nonemptiness, which is equivalent for closed families.  A simplex listed
    twice is refused, as in ``w_m``."""
    if m < 1:
        raise InputError("the arity m must be at least 1")
    members = list(_masks_of(a))
    n = len(members)
    if n <= 1:  # the one tuple, if any, is (x, ..., x), of weight w(x)**m
        return sum(_weight_of_bits(b) ** m for b in members)
    charge_tuples(f"naive w_{m} of {n} simplices", n, m, op_budget, "tuples")
    return _wm_naive_bits(members, m, assume_closed=assume_closed)


@dataclass(frozen=True)
class InteractionFunction:
    """An integer-valued interaction on m-tuples of simplices.

    The default rule, the product of the simplex weights, is the one choice
    invariant under refinement; any other integer rule still satisfies the
    energy identity but loses topological meaning.
    """

    arity: int
    rule: Callable[[tuple[Simplex, ...]], int]

    def __post_init__(self):
        if self.arity < 1:
            raise InputError("interaction arity must be at least 1")

    def __call__(self, xs: tuple[Simplex, ...]) -> int:
        return self.rule(xs)

    @staticmethod
    def default(arity: int) -> "InteractionFunction":
        return InteractionFunction(arity, topology.config_weight)

    @staticmethod
    def delta(target: Sequence[Simplex], value: int = 1) -> "InteractionFunction":
        """1 (or ``value``) on one fixed tuple, 0 everywhere else."""
        key = tuple(map(_mask, target))
        if not key:
            raise InputError("delta interaction needs a nonempty target tuple")

        def rule(xs: tuple[Simplex, ...]) -> int:
            return value if tuple(x.bits for x in xs) == key else 0

        return InteractionFunction(len(key), rule)

    @staticmethod
    def from_table(
        arity: int,
        table: Mapping[tuple[tuple[int, ...], ...], int],
        default: int = 0,
    ) -> "InteractionFunction":
        """Look the value up by the tuple of vertex tuples."""

        def rule(xs: tuple[Simplex, ...]) -> int:
            return table.get(tuple(x.vertices for x in xs), default)

        return InteractionFunction(arity, rule)


def w_m_energized(a, h: InteractionFunction, *, op_budget: int | None = DEFAULT_OP_BUDGET) -> int:
    """w_m with the default weight product replaced by an arbitrary interaction.

    ``a`` is a complex, a simplex subset or an iterable of ``Simplex``
    objects, none listed twice (as in ``w_m``); the tuples are walked in the
    order the members are given, as the sum does not depend on it.  The n**m
    tuples are charged against ``op_budget``, and a lone member's one tuple
    its m entries.
    """
    members = tuple(a)
    n = len(members)
    mset = frozenset(s.bits for s in members)
    if len(mset) < n:
        raise InputError("a simplex is listed twice")
    m = h.arity
    charge_tuples(f"energized w_{m} of {n} simplices", n, m, op_budget, "tuples")
    if n == 0:
        return 0
    if n == 1:  # one tuple, free above, but it holds m entries
        charge(f"energized w_{m} of 1 simplex", m, op_budget, "tuple entries")
    total = 0
    for X in itertools.product(members, repeat=m):
        p = X[0].bits
        for x in X[1:]:
            p &= x.bits
        if p and p in mset:
            total += h.rule(X)
    return total


def w_m_multi(slots: Sequence[SimplexSubset]) -> int:
    """Multi-linear extension: pick x_j from slot j, survival tested in the ambient.

    Linear in every slot under union/intersection because the survival
    condition does not depend on the slot contents.
    """
    if not slots:
        raise InputError("need at least one slot")
    ambient = slots[0].ambient
    for s in slots[1:]:
        if s.ambient != ambient:
            raise DomainError("all slots must share one ambient complex")
    cur = {b: _weight_of_bits(b) for b in slots[0].member_bits}
    for slot in slots[1:]:
        pairs = [(b, _weight_of_bits(b)) for b in slot.member_bits]
        nxt: dict[int, int] = {}
        for p, acc in cur.items():
            for b, w in pairs:
                q = p & b
                if q:
                    nxt[q] = nxt.get(q, 0) + acc * w
        cur = nxt
    amb = ambient.member_bits
    return sum(v for q, v in cur.items() if q in amb)


def fermi(a) -> int:
    """Product of the weights over all members; +1 or -1 (empty product is 1)."""
    even = sum(1 for b in _masks_of(a) if not b.bit_count() & 1)
    return -1 if even & 1 else 1


# ---------------------------------------------------------------------------
# per-complex tables, cached on the (immutable, hashable) complex


@lru_cache(maxsize=512)
def _stars_of(g: Complex) -> dict[int, tuple[int, ...]]:
    """Member bits of U(z) for every simplex z of g, keyed by z's bits."""
    out: dict[int, list[int]] = {b: [] for b in g.member_bits}
    for yb in g.member_bits:
        sub = yb
        while sub:
            lst = out.get(sub)
            if lst is not None:
                lst.append(yb)
            sub = (sub - 1) & yb
    return {b: tuple(v) for b, v in out.items()}


@lru_cache(maxsize=512)
def _face_table(g: Complex) -> _FaceTable:
    """The face table of g in canonical order, read by ``linalg._face_passes`` too."""
    return _build_face_table(g.masks)


def _join_at(z: int, star: Iterable[int], proper: bool) -> list[int]:
    """Member bits of z̄ ∗ lk(z) = B(z), or with ``proper`` of ∂z ∗ lk(z) = S(z),
    from the star list U(z): the a | b with a ⊆ z (a ⊊ z) and b = y ^ z for y
    in U(z), except the empty set.  a = member & z and b = member & ~z, so
    each member arises once."""
    faces = []
    sub = (z - 1) & z if proper else z
    while sub:
        faces.append(sub)
        sub = (sub - 1) & z
    return _join_bits(faces, [y ^ z for y in star if y != z])


@lru_cache(maxsize=512)
def _ball_members_of(g: Complex) -> dict[int, list[int]]:
    """Member bits of B(z) = closure(U(z)) for every z of g."""
    return {z: _join_at(z, star, False) for z, star in _stars_of(g).items()}


@lru_cache(maxsize=512)
def _sphere_sets(g: Complex) -> tuple[list[int], ...]:
    """Member bits of S(z) = B(z) minus U(z) for every z of g, in canonical order."""
    stars = _stars_of(g)
    return tuple(_join_at(z, stars[z], True) for z in g.masks)


@lru_cache(maxsize=512)
def _star_weight_table(g: Complex) -> dict[int, int]:
    """``_star_weights(g)``, kept per complex."""
    return _star_weights(g)


@lru_cache(maxsize=1024)
def _star_wm(g: Complex, m: int, op_budget: int | None = None) -> dict[int, int]:
    """w_m(U(z)) = N(z)^m for every z of g; the powers are charged against
    ``op_budget`` (``_powers``)."""
    n = _star_weight_table(g)
    pw = _powers(n.values(), m, op_budget)
    return {z: pw[v] for z, v in n.items()}


@lru_cache(maxsize=1024)
def _ball_wm(g: Complex, m: int, op_budget: int | None = None) -> dict[int, int]:
    """w_m(B(z)) = T_m(z) = sum of w(y) * N(y)^m over y ⊇ z, for every z of g,
    by one superset-sum pass over the star table."""
    star = _star_wm(g, m, op_budget)
    out = dict.fromkeys(star, 0)
    for yb, t in star.items():
        if not t:
            continue
        if not yb.bit_count() & 1:
            t = -t
        sub = yb
        while sub:
            out[sub] += t
            sub = (sub - 1) & yb
    return out


@lru_cache(maxsize=1024)
def _sphere_wm(g: Complex, m: int, op_budget: int | None = None) -> dict[int, int]:
    """w_m(S(z)) = (-1)^m * (N(z)^m - T_m(z)) for every z of g."""
    balls = _ball_wm(g, m, op_budget)
    star = _star_wm(g, m, op_budget)
    if m & 1:
        return {z: balls[z] - t for z, t in star.items()}
    return {z: t - balls[z] for z, t in star.items()}


def _energized_wm(
    g: Complex, sets: Mapping[int, Iterable[int]], h: InteractionFunction
) -> dict[int, int]:
    """The energized w_m of each member set of a per-simplex table of g."""
    by_bits = {s.bits: s for s in g.simplices}
    return {z: w_m_energized([by_bits[b] for b in mem], h) for z, mem in sets.items()}


# ---------------------------------------------------------------------------
# reports and identity checkers


@dataclass(frozen=True)
class EnergyReport:
    """Outcome of one identity check; pass means exact integer equality."""

    suite: str
    m: int
    k: int
    lhs: int
    rhs: int
    passed: bool
    n_simplices: int
    elapsed_ms: float

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "m": self.m,
            "k": self.k,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "pass": self.passed,
            "n_simplices": self.n_simplices,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _check_mk(m: int, k: int) -> None:
    if m < 1 or k < 1:
        raise InputError("m and k must be at least 1")


def _fold(g: Complex, table: Mapping[int, int], op_budget: int | None) -> int:
    """Sum of w(z) * table[z] over the simplices z of g, keyed by their bits.

    For a table of w_m(U(z)), w_m(B(z)), w_m(S(z)) or an energized w_m, this
    is the sum of w(X) * table[union of X] over every X in g^k, for every k
    (the union lemma of the module docstring).  Charges |g| steps against
    ``op_budget``.
    """
    charge("configuration sum", len(g), op_budget)
    return sum(t if z.bit_count() & 1 else -t for z, t in table.items())


def energy_sum(
    g: Complex,
    m: int,
    k: int,
    h: InteractionFunction | None = None,
    *,
    variant: str = "star",
    op_budget: int | None = DEFAULT_OP_BUDGET,
) -> EnergyReport:
    """Check w_m(G) against the total k-point energy sum over all configurations.

    The right-hand side sums weight(X) * w_m(U(X)) over every X in G^k, with
    U(X) the intersection of the k stars; ``variant="ball"`` replaces U(X) by
    its closure B(X), which satisfies the same identity.  By the union lemma
    (module docstring) it is the sum of w(z) * w_m(U(z)) over G for every k,
    so k costs nothing; ``op_budget`` is charged |G| for it (``_fold``), the
    powers of the tables, and with ``h`` the |G|^m tuples of the energized
    w_m.  Without ``h`` the left-hand side w_m(G) = sum of w(z) * N(z)^m is
    the same fold of the star table.
    """
    _check_mk(m, k)
    if variant not in ("star", "ball"):
        raise InputError(f"unknown variant {variant!r}")
    t0 = time.perf_counter()
    if h is None:
        star = _star_wm(g, m, op_budget)
        lhs = _fold(g, star, op_budget)
        table = star if variant == "star" else _ball_wm(g, m, op_budget)
    else:
        if h.arity != m:
            raise InputError(f"interaction arity {h.arity} does not match m={m}")
        lhs = w_m_energized(g, h, op_budget=op_budget)
        sets = _stars_of(g) if variant == "star" else _ball_members_of(g)
        table = _energized_wm(g, sets, h)
    rhs = _fold(g, table, op_budget)
    suite = "energy" if variant == "star" else "energy-ball"
    elapsed = (time.perf_counter() - t0) * 1000.0
    return EnergyReport(suite, m, k, lhs, rhs, lhs == rhs, len(g), elapsed)


def sphere_sum(
    g: Complex,
    m: int,
    k: int,
    *,
    op_budget: int | None = DEFAULT_OP_BUDGET,
) -> EnergyReport:
    """Check that the weighted w_m of all configuration spheres S(X) sums to zero.

    By the union lemma (module docstring) the sum over G^k is the sum of
    w(z) * w_m(S(z)) over G for every k; ``op_budget`` is charged |G| for it
    (``_fold``) and the powers of the sphere table.
    """
    _check_mk(m, k)
    t0 = time.perf_counter()
    rhs = _fold(g, _sphere_wm(g, m, op_budget), op_budget)
    elapsed = (time.perf_counter() - t0) * 1000.0
    return EnergyReport("sphere", m, k, 0, rhs, rhs == 0, len(g), elapsed)


def _dual_sphere_total(
    sph: Sequence[Iterable[int]],
    ws: Sequence[int],
    m: int,
    k: int,
    op_budget: int | None = None,
) -> int:
    """The exchanged dual-sphere sum (module docstring) over the sphere sets
    ``sph`` and the weights ``ws`` of the simplices x, indexed alike.

    I(y) = {x : y in S(x)} is a bitset over the indices of x, so F(Y) is a
    weighted popcount of M = I(y_1) & ... & I(y_m) & I(p).  Y runs over the
    nondecreasing m-tuples of the L simplices that lie in some S(x), with
    multiplicity m! / prod(c!) over the runs of equal entries.  The walk
    takes each simplex with a run length c >= 1 and recurses once per simplex,
    not per entry, so its depth is at most L + 1; the multiplicity gains the
    factor C(j+c, c) over the j entries before the run.  A prefix is dropped
    once its intersection or its mask is empty, and since both depend on the
    simplex and not on c, so is every longer run of it.  The walk visits at
    most C(L+m, m) - 1 prefixes.  The w(Y) are
    summed per value of F(Y), and each of the at most 2|G| nonzero values is
    raised to the k'th power once, charged k as its bit length grows with k.
    No closure or sphere property of the sets is used.
    """
    inc: dict[int, int] = {}
    odd = 0
    for x, (members, w) in enumerate(zip(sph, ws)):
        bit = 1 << x
        if w > 0:
            odd |= bit
        for y in members:
            inc[y] = inc.get(y, 0) | bit
    charge("dual sphere sum", math.comb(len(inc) + m, m) - 1 + 2 * k * len(ws), op_budget)
    items = [(y, iy, _weight_of_bits(y)) for y, iy in inc.items()]
    n = len(items)
    get = inc.get
    by_f: dict[int, int] = {}

    def walk(lo: int, j: int, p: int, mask: int, w: int, mult: int):
        # j entries are chosen; mult = j! / prod(c!) over their runs
        for i in range(lo, n):
            y, iy, wy = items[i]
            q = p & y
            if not q:
                continue
            mq = mask & iy
            if not mq:
                continue
            full = mq & get(q, 0)
            f = 2 * (full & odd).bit_count() - full.bit_count()
            ways, wc = mult, w
            for c in range(1, m - j):
                ways = ways * (j + c) // c
                wc *= wy
                walk(i + 1, j + c, q, mq, wc, ways)
            if f:
                by_f[f] = by_f.get(f, 0) + ways * m // (m - j) * wc * wy

    walk(0, 0, -1, -1, 1, 1)
    return sum(c * f**k for f, c in by_f.items())


def dual_sphere_sum(
    g: Complex,
    m: int,
    k: int,
    *,
    op_budget: int | None = DEFAULT_OP_BUDGET,
) -> EnergyReport:
    """Check that the weighted w_m of all dual spheres S(x_1) ∩ ... ∩ S(x_k) is zero.

    Writing w_m(D(X)) of the dual sphere D(X) as its tuple sum and
    exchanging the two sums gives

        sum over X in G^k of w(X) * w_m(D(X))
          = sum over Y in G^m with p = ∩Y nonempty of  w(Y) * F(Y)^k,

    F(Y) the weighted count of the x whose unit sphere holds y_1, ..., y_m
    and p (``_dual_sphere_total``), so the m-tuples of simplices that share
    unit spheres are enumerated instead of the k-tuples of configurations.
    At k = 1, D(x) = S(x), and the sum is the fold of the cached sphere
    table (``_fold``), as in ``sphere_sum``.  ``op_budget`` is charged |G|
    at k = 1 and C(L+m, m) - 1 + 2k|G| otherwise, L the number of simplices
    that lie in some unit sphere.
    """
    _check_mk(m, k)
    t0 = time.perf_counter()
    if k == 1:
        total = _fold(g, _sphere_wm(g, m, op_budget), op_budget)
    else:
        ws = [_weight_of_bits(b) for b in g.masks]
        total = _dual_sphere_total(_sphere_sets(g), ws, m, k, op_budget)
    elapsed = (time.perf_counter() - t0) * 1000.0
    return EnergyReport("dual-sphere", m, k, 0, total, total == 0, len(g), elapsed)


def valuation_values(a: SimplexSubset, b: SimplexSubset, m: int) -> tuple[int, int]:
    """(w_m(A) + w_m(B), w_m(A∪B) + w_m(A∩B)) for arbitrary subsets of one complex."""
    lhs = w_m(a, m) + w_m(b, m)
    rhs = w_m(a.union(b), m) + w_m(a.intersection(b), m)
    return lhs, rhs


def valuation_check(
    u: SimplexSubset,
    v: SimplexSubset,
    m: int,
    *,
    allow_closed: bool = False,
) -> EnergyReport:
    """Check w_m(U) + w_m(V) = w_m(U∪V) + w_m(U∩V) for open sets.

    The identity genuinely needs open sets once m > 1; closed inputs are
    rejected unless ``allow_closed`` is set (used to demonstrate the failure).
    """
    if m < 1:
        raise InputError("the arity m must be at least 1")
    if u.ambient != v.ambient:
        raise DomainError("the two sets live in different ambient complexes")
    if not allow_closed:
        for name, s in (("first", u), ("second", v)):
            if not s.is_open_set():
                raise DomainError(
                    f"the {name} set is not open; the identity is only guaranteed "
                    "for open sets (pass allow_closed=True to evaluate anyway)"
                )
    t0 = time.perf_counter()
    lhs, rhs = valuation_values(u, v, m)
    elapsed = (time.perf_counter() - t0) * 1000.0
    return EnergyReport(
        "valuation", m, 2, lhs, rhs, lhs == rhs, len(u.ambient), elapsed
    )


def _local_at(g: Complex, z: int, m: int) -> tuple[int, int]:
    """(w_m(B(z)), w_m(U(z)) - (-1)^m * w_m(S(z))) for the union z of a
    configuration: B(z) and S(z) are the joins of the star list U(z), and
    the three are evaluated as subsets of B(z) over one face table of it,
    built for the call.  If z is not in g all three sets are empty, though a
    join with the empty link would be z̄, so both sides are 0."""
    star = _stars_of(g).get(z)
    if star is None:
        return 0, 0
    table = _build_face_table(ball := _join_at(z, star, False))
    wb, wu, ws = (_eval_terms(_subset_terms(table, frozenset(a)), m, DEFAULT_OP_BUDGET)
                  for a in (ball, star, _join_at(z, star, True)))
    return wb, wu - (-1) ** m * ws


def local_valuation_check(g: Complex, xs, m: int) -> EnergyReport:
    """Check w_m(B(X)) = w_m(U(X)) - (-1)^m * w_m(S(X)) for a configuration:
    the three sets are those of its union (``_local_at``)."""
    X = topology.configuration(g, xs)
    if m < 1:
        raise InputError("the arity m must be at least 1")
    t0 = time.perf_counter()
    lhs, rhs = _local_at(g, _vertex_mask(x.bits for x in X), m)
    elapsed = (time.perf_counter() - t0) * 1000.0
    return EnergyReport(
        "local-valuation", m, len(X), lhs, rhs, lhs == rhs, len(g), elapsed
    )


def _union_count(s: int, k: int) -> int:
    """c(s, k): the number of k-tuples of nonempty subsets of an s-set whose
    union is the whole set (``local_valuation_sum``)."""
    return sum((-1) ** (s - j) * math.comb(s, j) * (2**j - 1) ** k for j in range(1, s + 1))


def local_valuation_sum(
    g: Complex,
    m: int,
    k: int,
    *,
    op_budget: int | None = DEFAULT_OP_BUDGET,
) -> EnergyReport:
    """Check the local valuation identity on all |G|^k configurations, one
    literal check per union; lhs is |G|^k and rhs the number that pass.

    U(X), B(X) and S(X), and so the verdict of ``local_valuation_check``,
    depend on X only through its union.  The per-union check ``_local_at``
    therefore runs once for each simplex z of G, and its verdict counts for
    the c(|z|, k) configurations whose union is exactly z.  As G is closed,
    the configurations whose union lies inside z are the k-tuples of
    nonempty subsets of z, and (2^j - 1)^k of them have every entry inside a
    given j-subset of z.  Inclusion-exclusion over the subsets of z leaves
    those whose union is z itself:

        c(s, k) = sum over j of (-1)^(s-j) * C(s, j) * (2^j - 1)^k,

    so c(s, 1) = 1 and c(s, 2) = 3^s - 2.  The other |G|^k - sum of c(|z|, k)
    configurations have a union outside G, where U, B and S are all empty;
    the check of the vertex set of G, which is outside G whenever this class
    is nonempty, stands for them all.  As that class takes whatever the
    counts leave, a c(s, k) of 0 would hide the verdict of every z of size s;
    each is at least 1 (the tuple (z, ..., z)), and a smaller one raises
    ``ArithmeticError``.

    The cost is |G| + 1 checks at any k.  ``op_budget`` is still charged the
    |G|^k configurations, which bound the counts the report holds.
    """
    _check_mk(m, k)
    n = len(g)
    charge_tuples(f"local-valuation at k = {k} on {n} simplices", n, k, op_budget,
                  "configurations")
    t0 = time.perf_counter()
    total = n**k
    c = [_union_count(s, k) for s in range(g.dim + 2)]
    if min(c[1:], default=1) < 1:
        raise ArithmeticError("a union count c(s, k) was below 1")
    counts = {z: c[z.bit_count()] for z in g.member_bits}
    outside = total - sum(counts.values())
    if outside:
        counts[_vertex_mask(g.member_bits)] = outside
    passed = 0
    for z, cz in counts.items():
        lhs, rhs = _local_at(g, z, m)
        passed += cz if lhs == rhs else 0
    elapsed = (time.perf_counter() - t0) * 1000.0
    return EnergyReport("local-valuation", m, k, total, passed, total == passed, n, elapsed)


def green(
    g: Complex,
    xs,
    m: int | None = None,
    h: InteractionFunction | None = None,
) -> int:
    """The k-point potential weight(X) * w_m(U(X)); zero when U(X) is empty."""
    X = topology.configuration(g, xs)
    u = topology.star_intersection(g, X)
    if h is None:
        if m is None:
            raise InputError("green needs either m or an interaction function")
        val = w_m(u, m)
    else:
        val = w_m_energized(u, h)
    return topology.config_weight(X) * val


def curvature_profile(g: Complex, m: int) -> tuple[tuple[Simplex, int], ...]:
    """Per-simplex energies weight(x) * w_m(U(x)); they sum to w_m(G).

    The powers N(x)^m are charged against ``DEFAULT_OP_BUDGET`` (``_powers``).
    """
    if m < 1:
        raise InputError("the arity m must be at least 1")
    table = _star_wm(g, m, DEFAULT_OP_BUDGET)
    return tuple((s, s.weight * table[s.bits]) for s in g.simplices)
