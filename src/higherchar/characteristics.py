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

N and c do not depend on m, so ``_face_terms_of`` computes them once per
set, in two passes over the faces of the members, and keeps them grouped by
N as (N, Σc) pairs; w_m for any m is then one short sum.  It serves
arbitrary subsets only.  A complex G is closed, so c(q) = w(q) there, and
w_m(G) = sum of w(z) * N(z)^m with the star weights N(z) = sum of w(y) over
the y ⊇ z in G, from one subset pass.  The per-simplex star, ball and sphere
tables need N alone:

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
once.  The member lists of B(z) and S(z), which the dual-sphere walk and the
energized tables read, are listed as the same joins (``_joins``).  The k-point
configuration sums fold the |G|^k configurations by their union with a
zeta transform and a Möbius inversion on the faces of each simplex
(``_union_weights``).

The dual-sphere sum over D(X) = S(x_1) ∩ ... ∩ S(x_k) exchanges the order of
summation instead.  Writing w_m(D(X)) as its tuple sum and swapping the sums
over X and Y gives

    sum over X in G^k of w(X) * w_m(D(X))
      = sum over Y in G^m with p = ∩Y nonempty of  w(Y) * F(Y)^k,
    F(Y) = sum of w(x) over the x with y_1, ..., y_m, p all in S(x),

so the walk runs over the m-tuples of simplices that share a unit sphere,
not over the k-tuples of configurations; p in S(x) is tested, so no closure
of the sets is assumed.  At k = 1, D(x) = S(x) and the sum is read off the
sphere table.  ``w_m_naive`` keeps the literal definition, and
``method="direct"`` the literal configuration sum; they are the oracles in
tests, and ``w_m_naive`` is the global path of the benchmark.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

from .complexes import Complex, Simplex, SimplexSubset, _coerce_simplex, _members, closure
from .errors import DomainError, InputError, ResourceBudgetError
from .topology import configuration, config_weight, star_intersection, unit_sphere

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
]

DEFAULT_OP_BUDGET = 10**9


def _weight_of_bits(b: int) -> int:
    return 1 if b.bit_count() & 1 else -1


def _face_terms_of(member_bits: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """The m-independent face terms of a collection of distinct bit masks.

    Returns (N, C) pairs with w_m = sum of C * N**m for every m >= 1, where
    C sums c(q) over the faces q with N(q) = N (see the module docstring).
    Faces with N(q) = 0 are left out, since they add 0 for every m >= 1.
    """
    weights = {b: 1 if b.bit_count() & 1 else -1 for b in member_bits}
    counts: dict[int, int] = {}
    for b, w in weights.items():
        sub = b
        while sub:
            counts[sub] = counts.get(sub, 0) + w
            sub = (sub - 1) & b
    get = weights.get
    grouped: dict[int, int] = {}
    for q, n in counts.items():
        if not n:
            continue
        # (-1)^(|q|-|p|) = weight(q) * weight(p)
        t = 0
        sub = q
        while sub:
            t += get(sub, 0)
            sub = (sub - 1) & q
        if t:
            grouped[n] = grouped.get(n, 0) + (t if q.bit_count() & 1 else -t)
    return tuple((n, c) for n, c in grouped.items() if c)


def _eval_terms(terms: Iterable[tuple[int, int]], m: int) -> int:
    return sum(c * n**m for n, c in terms)


def _star_weights(g: Complex) -> dict[int, int]:
    """N(z) = sum of w(y) over the y ⊇ z in g, for every z of g, in one subset
    pass; every face of a member is a member, as g is closed."""
    out = {s.bits: 0 for s in g.simplices}
    for y in g.simplices:
        yb = y.bits
        w = y.weight
        sub = yb
        while sub:
            out[sub] += w
            sub = (sub - 1) & yb
    return out


def w_m(a, m: int) -> int:
    """Exact m'th characteristic of a complex or an arbitrary simplex subset.

    On a complex it is the sum of w(z) * N(z)^m, computed afresh on every call:
    a cached table would keep every transient complex (products, refinements,
    local-valuation closures) alive.
    """
    if m < 1:
        raise InputError("the arity m must be at least 1")
    if not isinstance(a, Complex):
        return _eval_terms(_face_terms_of(s.bits for s in _members(a)), m)
    grouped: dict[int, int] = {}
    for z, n in _star_weights(a).items():
        if n:
            grouped[n] = grouped.get(n, 0) + _weight_of_bits(z)
    return _eval_terms(grouped.items(), m)


def _wm_naive_bits(
    bits: list[int],
    m: int,
    *,
    assume_closed: bool = False,
    op_counter: dict | None = None,
) -> int:
    ws = [_weight_of_bits(b) for b in bits]
    mset = frozenset(bits)
    n = len(bits)
    total = 0
    ops = 0
    if m == 1:
        ops = n
        total = sum(ws)
    elif m == 2:
        for i in range(n):
            bi = bits[i]
            wi = ws[i]
            for j in range(n):
                p = bi & bits[j]
                if p and (assume_closed or p in mset):
                    total += wi * ws[j]
        ops = n * n
    elif m == 3:
        for i in range(n):
            bi = bits[i]
            wi = ws[i]
            for j in range(n):
                bij = bi & bits[j]
                wij = wi * ws[j]
                if bij:
                    for l in range(n):
                        p = bij & bits[l]
                        if p and (assume_closed or p in mset):
                            total += wij * ws[l]
        ops = n * n * n
    else:
        for idx in itertools.product(range(n), repeat=m):
            p = bits[idx[0]]
            w = ws[idx[0]]
            for i in idx[1:]:
                p &= bits[i]
                w *= ws[i]
            ops += 1
            if p and (assume_closed or p in mset):
                total += w
    if op_counter is not None:
        op_counter["tuples"] = op_counter.get("tuples", 0) + ops
    return total


def w_m_naive(
    a,
    m: int,
    *,
    assume_closed: bool = False,
    op_counter: dict | None = None,
    op_budget: int | None = DEFAULT_OP_BUDGET,
) -> int:
    """Literal tuple enumeration of w_m; the reference for every faster path.

    With ``assume_closed`` the membership test of the intersection reduces to
    nonemptiness, which is equivalent for closed families.
    """
    if m < 1:
        raise InputError("the arity m must be at least 1")
    members = _members(a)
    n = len(members)
    if op_budget is not None and n > 1 and n**m > op_budget:
        raise ResourceBudgetError(
            f"naive w_{m} would enumerate {n}^{m} tuples, over the budget {op_budget}"
        )
    return _wm_naive_bits(
        [s.bits for s in members], m,
        assume_closed=assume_closed, op_counter=op_counter,
    )


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
        return InteractionFunction(arity, config_weight)

    @staticmethod
    def delta(target: Sequence[Simplex], value: int = 1) -> "InteractionFunction":
        """1 (or ``value``) on one fixed tuple, 0 everywhere else."""
        key = tuple(_coerce_simplex(s).bits for s in target)
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
    """w_m with the default weight product replaced by an arbitrary interaction."""
    members = _members(a)
    n = len(members)
    m = h.arity
    if op_budget is not None and n > 1 and n**m > op_budget:
        raise ResourceBudgetError(
            f"energized w_{m} would enumerate {n}^{m} tuples, over the budget {op_budget}"
        )
    mset = frozenset(s.bits for s in members)
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
    t = 1
    for s in _members(a):
        t *= s.weight
    return t


# ---------------------------------------------------------------------------
# per-complex tables, cached on the (immutable, hashable) complex


@lru_cache(maxsize=512)
def _stars_of(g: Complex) -> dict[int, tuple[int, ...]]:
    """Member bits of U(z) for every simplex z of g, keyed by z's bits."""
    out: dict[int, list[int]] = {s.bits: [] for s in g.simplices}
    for y in g.simplices:
        yb = y.bits
        sub = yb
        while sub:
            lst = out.get(sub)
            if lst is not None:
                lst.append(yb)
            sub = (sub - 1) & yb
    return {b: tuple(v) for b, v in out.items()}


def _joins(g: Complex, proper: bool) -> dict[int, tuple[int, ...]]:
    """Member bits of z̄ ∗ lk(z) = B(z), or with ``proper`` of ∂z ∗ lk(z) = S(z),
    for every z of g: the a | b with a ⊆ z (a ⊊ z) and b = y ^ z for y in U(z),
    except the empty set.  a = member & z and b = member & ~z, so each member
    arises once."""
    out = {}
    for z, star in _stars_of(g).items():
        faces = []
        sub = (z - 1) & z if proper else z
        while sub:
            faces.append(sub)
            sub = (sub - 1) & z
        link = [y ^ z for y in star if y != z]
        out[z] = (*faces, *link, *[a | b for a in faces for b in link])
    return out


@lru_cache(maxsize=512)
def _ball_members_of(g: Complex) -> dict[int, tuple[int, ...]]:
    """Member bits of B(z) = closure(U(z)) for every z of g."""
    return _joins(g, False)


@lru_cache(maxsize=512)
def _sphere_sets(g: Complex) -> tuple[tuple[int, ...], ...]:
    """Member bits of S(z) = B(z) minus U(z) for every z of g, in canonical order."""
    return tuple(_joins(g, True).values())


_star_weight_table = lru_cache(maxsize=512)(_star_weights)


@lru_cache(maxsize=1024)
def _star_wm(g: Complex, m: int) -> dict[int, int]:
    """w_m(U(z)) = N(z)^m for every z of g."""
    n = _star_weight_table(g)
    pw = {v: v**m for v in set(n.values())}
    return {z: pw[v] for z, v in n.items()}


@lru_cache(maxsize=1024)
def _ball_wm(g: Complex, m: int) -> dict[int, int]:
    """w_m(B(z)) = T_m(z) = sum of w(y) * N(y)^m over y ⊇ z, for every z of g,
    by one superset-sum pass."""
    n = _star_weight_table(g)
    pw = {v: v**m for v in set(n.values())}
    out = dict.fromkeys(n, 0)
    for y in g.simplices:
        yb = y.bits
        t = pw[n[yb]]
        if not t:
            continue
        if y.weight < 0:
            t = -t
        sub = yb
        while sub:
            out[sub] += t
            sub = (sub - 1) & yb
    return out


@lru_cache(maxsize=1024)
def _sphere_wm(g: Complex, m: int) -> dict[int, int]:
    """w_m(S(z)) = (-1)^m * (N(z)^m - T_m(z)) for every z of g."""
    balls = _ball_wm(g, m)
    if m & 1:
        return {z: balls[z] - t for z, t in _star_wm(g, m).items()}
    return {z: t - balls[z] for z, t in _star_wm(g, m).items()}


def _union_cost(g: Complex, k: int) -> int:
    """Steps of ``_union_weights(g, k)``: both subset passes, plus the powers,
    charged k per simplex since the bit length of a k'th power grows with k."""
    return sum(2 << len(s) for s in g.simplices) + k * len(g)


@lru_cache(maxsize=512)
def _union_weights(g: Complex, k: int) -> dict[int, int]:
    """Weighted count of the k-tuples of g by their union, for unions in g.

    Zeta pass: F(z) = (sum of weight(x) over the faces x of z)^k is the
    weighted count of the k-tuples whose union lies inside z; every face of
    z is in g, as g is closed.  Möbius pass over the faces of z:
    sum of (-1)^(|z|-|y|) * F(y) over y ⊆ z counts the tuples whose union is
    exactly z.  Tuples whose union is not a simplex of g have an empty star
    intersection and add nothing to any star-based sum, so they are not
    counted.  Entries that come out 0 are left out.  Costs
    ``_union_cost(g, k)`` steps, O(sum over z of 2^|z|) for fixed k.
    """
    ws = {s.bits: s.weight for s in g.simplices}
    # weight(y) * F(y), since (-1)^(|z|-|y|) = weight(z) * weight(y)
    signed: dict[int, int] = {}
    for z, wz in ws.items():
        t = 0
        sub = z
        while sub:
            t += ws[sub]
            sub = (sub - 1) & z
        signed[z] = wz * t**k
    out: dict[int, int] = {}
    for z, wz in ws.items():
        u = 0
        sub = z
        while sub:
            u += signed[sub]
            sub = (sub - 1) & z
        if u:
            out[z] = wz * u
    return out


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


def _direct_weighted_sum(
    g: Complex,
    k: int,
    table: Mapping[int, int],
    op_budget: int | None,
) -> int:
    """sum over all |g|^k configurations of weight(X) * table[union bits of X]."""
    bits = [s.bits for s in g.simplices]
    ws = [s.weight for s in g.simplices]
    n = len(bits)
    if op_budget is not None and n > 1 and n**k > op_budget:
        raise ResourceBudgetError(
            f"direct sum would enumerate {n}^{k} configurations, over the budget {op_budget}"
        )
    total = 0
    get = table.get
    for b0, w0 in zip(bits, ws):
        for idx in itertools.product(range(n), repeat=k - 1):
            u = b0
            w = w0
            for i in idx:
                u |= bits[i]
                w *= ws[i]
            total += w * get(u, 0)
    return total


def energy_sum(
    g: Complex,
    m: int,
    k: int,
    h: InteractionFunction | None = None,
    *,
    variant: str = "star",
    method: str = "grouped",
    op_budget: int | None = DEFAULT_OP_BUDGET,
) -> EnergyReport:
    """Check w_m(G) against the total k-point energy sum over all configurations.

    The right-hand side sums weight(X) * w_m(U(X)) over every X in G^k, with
    U(X) the intersection of the k stars; ``variant="ball"`` replaces U(X) by
    its closure B(X), which satisfies the same identity.  ``method="direct"``
    enumerates all |G|^k configurations literally;
    ``grouped`` folds configurations by their union first.  Both methods are
    exact and agree.
    """
    _check_mk(m, k)
    if variant not in ("star", "ball"):
        raise InputError(f"unknown variant {variant!r}")
    t0 = time.perf_counter()
    if h is None:
        lhs = w_m(g, m)
        table = _star_wm(g, m) if variant == "star" else _ball_wm(g, m)
    else:
        if h.arity != m:
            raise InputError(f"interaction arity {h.arity} does not match m={m}")
        lhs = w_m_energized(g, h, op_budget=op_budget)
        sets = _stars_of(g) if variant == "star" else _ball_members_of(g)
        table = _energized_wm(g, sets, h)
    rhs = _configuration_sum(g, k, table, method, op_budget)
    suite = "energy" if variant == "star" else "energy-ball"
    elapsed = (time.perf_counter() - t0) * 1000.0
    return EnergyReport(suite, m, k, lhs, rhs, lhs == rhs, len(g), elapsed)


def _configuration_sum(
    g: Complex,
    k: int,
    table: Mapping[int, int],
    method: str,
    op_budget: int | None,
) -> int:
    if method == "grouped":
        if op_budget is not None:
            cost = _union_cost(g, k)
            if cost > op_budget:
                raise ResourceBudgetError(
                    f"grouped sum would take {cost} steps, over the budget {op_budget}"
                )
        uw = _union_weights(g, k)
        return sum(acc * table[z] for z, acc in uw.items())
    if method == "direct":
        return _direct_weighted_sum(g, k, table, op_budget)
    raise InputError(f"unknown method {method!r}")


def sphere_sum(
    g: Complex,
    m: int,
    k: int,
    *,
    method: str = "grouped",
    op_budget: int | None = DEFAULT_OP_BUDGET,
) -> EnergyReport:
    """Check that the weighted w_m of all configuration spheres S(X) sums to zero."""
    _check_mk(m, k)
    t0 = time.perf_counter()
    table = _sphere_wm(g, m)
    rhs = _configuration_sum(g, k, table, method, op_budget)
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
    cost = math.comb(len(inc) + m, m) - 1 + 2 * k * len(ws)
    if op_budget is not None and cost > op_budget:
        raise ResourceBudgetError(
            f"dual sphere sum would cost {cost} steps, over the budget {op_budget}"
        )
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
    At k = 1, D(x) = S(x), and the sum is read off the cached sphere table.
    ``op_budget`` is charged |G| at k = 1 and C(L+m, m) - 1 + 2k|G|
    otherwise, L the number of simplices that lie in some unit sphere.
    """
    _check_mk(m, k)
    t0 = time.perf_counter()
    if k == 1:
        if op_budget is not None and len(g) > op_budget:
            raise ResourceBudgetError(
                f"dual sphere sum would cost {len(g)} steps, over the budget {op_budget}"
            )
        table = _sphere_wm(g, m)
        total = sum(s.weight * table[s.bits] for s in g.simplices)
    else:
        ws = [s.weight for s in g.simplices]
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


def local_valuation_check(g: Complex, xs, m: int) -> EnergyReport:
    """Check w_m(B(X)) = w_m(U(X)) - (-1)^m * w_m(S(X)) for a configuration.

    U(X) is built once; B(X) is its closure and S(X) the unit sphere of the
    union of the points.
    """
    X = configuration(g, xs)
    if m < 1:
        raise InputError("the arity m must be at least 1")
    t0 = time.perf_counter()
    u = star_intersection(g, X)
    xb = 0
    for x in X:
        xb |= x.bits
    lhs = w_m(closure(_members(u)), m)
    rhs = w_m(u, m) - (-1) ** m * w_m(unit_sphere(g, xb), m)
    elapsed = (time.perf_counter() - t0) * 1000.0
    return EnergyReport(
        "local-valuation", m, len(X), lhs, rhs, lhs == rhs, len(g), elapsed
    )


def green(
    g: Complex,
    xs,
    m: int | None = None,
    h: InteractionFunction | None = None,
) -> int:
    """The k-point potential weight(X) * w_m(U(X)); zero when U(X) is empty."""
    X = configuration(g, xs)
    u = star_intersection(g, X)
    if h is None:
        if m is None:
            raise InputError("green needs either m or an interaction function")
        val = w_m(u, m)
    else:
        val = w_m_energized(u, h)
    return config_weight(X) * val


def curvature_profile(g: Complex, m: int) -> tuple[tuple[Simplex, int], ...]:
    """Per-simplex energies weight(x) * w_m(U(x)); they sum to w_m(G)."""
    if m < 1:
        raise InputError("the arity m must be at least 1")
    table = _star_wm(g, m)
    return tuple((s, s.weight * table[s.bits]) for s in g.simplices)
