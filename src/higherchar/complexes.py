"""Finite abstract simplicial complexes over integer vertex ids.

Every vertex set is mirrored as an integer bit mask (bit ``v`` set iff vertex
``v`` is present), so subset and intersection tests are single integer
operations even when a complex has a few hundred vertices.  Simplices are
nonempty; the empty complex is allowed and plays the role of the
(-1)-dimensional sphere.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import DomainError, InputError, ResourceBudgetError

__all__ = [
    "Simplex",
    "Complex",
    "SimplexSubset",
    "bits_of",
    "vertices_of",
    "closure",
    "boundary_set",
    "whitney",
    "f_vector",
    "join",
    "is_complex",
]


def bits_of(vertices: Iterable[int]) -> int:
    b = 0
    for v in vertices:
        b |= 1 << v
    return b


def vertices_of(bits: int) -> tuple[int, ...]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)


class Simplex:
    """A nonempty, duplicate-free set of non-negative vertex ids, kept ascending."""

    __slots__ = ("vertices", "bits")

    def __init__(self, vertices: Iterable[int]):
        vs = tuple(sorted(set(vertices)))
        if not vs:
            raise InputError("a simplex must have at least one vertex")
        if vs[0] < 0:
            raise InputError(f"vertex ids must be non-negative, got {vs[0]}")
        self.vertices = vs
        self.bits = bits_of(vs)

    @classmethod
    def from_bits(cls, bits: int) -> "Simplex":
        if bits <= 0:
            raise InputError("a simplex must have at least one vertex")
        s = object.__new__(cls)
        s.vertices = vertices_of(bits)
        s.bits = bits
        return s

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    @property
    def weight(self) -> int:
        """(-1) ** dim, the alternating sign the simplex carries in all sums."""
        return 1 if len(self.vertices) & 1 else -1

    def is_face_of(self, other: "Simplex") -> bool:
        return self.bits & other.bits == self.bits

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices)

    def __contains__(self, v) -> bool:
        return isinstance(v, int) and v >= 0 and (self.bits >> v) & 1 == 1

    def __eq__(self, other):
        if isinstance(other, Simplex):
            return self.bits == other.bits
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.bits)

    def __lt__(self, other):
        if not isinstance(other, Simplex):
            return NotImplemented
        return _canonical_key(self) < _canonical_key(other)

    def __le__(self, other):
        if not isinstance(other, Simplex):
            return NotImplemented
        return self == other or self < other

    def __repr__(self) -> str:
        return "Simplex(%s)" % ",".join(map(str, self.vertices))


def _coerce_simplex(s) -> Simplex:
    return s if isinstance(s, Simplex) else Simplex(s)


def _canonical_key(s: Simplex) -> tuple[int, tuple[int, ...]]:
    """Sort key of the canonical order; the same order as ``Simplex.__lt__``."""
    return (len(s.vertices), s.vertices)


class Complex:
    """An immutable simplicial complex.

    Simplices are stored in canonical order (by dimension, then
    lexicographically on vertex lists), which fixes matrix indexing and makes
    every derived output reproducible.  Construction verifies closure under
    taking nonempty subsets unless the caller guarantees it.
    """

    __slots__ = ("simplices", "_bits_set")

    def __init__(self, simplices: Iterable = (), *, _validated: bool = False):
        ss = sorted(map(_coerce_simplex, simplices), key=_canonical_key)
        out: list[Simplex] = []
        for s in ss:
            if not out or s.bits != out[-1].bits:
                out.append(s)
        self.simplices: tuple[Simplex, ...] = tuple(out)
        self._bits_set = frozenset(s.bits for s in out)
        if not _validated:
            missing = _missing_face(out, self._bits_set)
            if missing is not None:
                s, v = missing
                raise InputError(
                    f"not closed under subsets: {s!r} present but its face "
                    f"without vertex {v} is missing"
                )

    @staticmethod
    def empty() -> "Complex":
        return Complex((), _validated=True)

    def __len__(self) -> int:
        return len(self.simplices)

    def __iter__(self) -> Iterator[Simplex]:
        return iter(self.simplices)

    def __contains__(self, s) -> bool:
        if isinstance(s, Simplex):
            return s.bits in self._bits_set
        try:
            return bits_of(s) in self._bits_set
        except TypeError:
            return False

    def contains_bits(self, bits: int) -> bool:
        return bits in self._bits_set

    def __eq__(self, other):
        if isinstance(other, Complex):
            return self._bits_set == other._bits_set
        return NotImplemented

    def __hash__(self) -> int:
        # CPython caches a frozenset's hash
        return hash(self._bits_set)

    def __repr__(self) -> str:
        return f"Complex({len(self.simplices)} simplices, dim {self.dim})"

    @property
    def dim(self) -> int:
        return self.simplices[-1].dim if self.simplices else -1

    @property
    def f_vector(self) -> tuple[int, ...]:
        counts = [0] * (self.dim + 1)
        for s in self.simplices:
            counts[s.dim] += 1
        return tuple(counts)

    @property
    def vertex_ids(self) -> tuple[int, ...]:
        b = 0
        for s in self.simplices:
            b |= s.bits
        return vertices_of(b)

    @property
    def member_bits(self) -> frozenset[int]:
        return self._bits_set

    def facets(self) -> tuple[Simplex, ...]:
        """Locally maximal simplices: members contained in no strictly larger one."""
        non_max = set()
        for s in self.simplices:
            sub = (s.bits - 1) & s.bits
            while sub:
                non_max.add(sub)
                sub = (sub - 1) & s.bits
        return tuple(s for s in self.simplices if s.bits not in non_max)


def closure(simplices: Iterable, *, simplex_budget: int | None = None) -> Complex:
    """Smallest complex containing every given simplex; idempotent.

    With a ``simplex_budget``, a simplex whose 2^|s| - 1 faces alone exceed
    it is refused before any of them is built.
    """
    found: dict[int, Simplex] = {}
    for s in simplices:
        s = _coerce_simplex(s)
        if simplex_budget is not None and (1 << len(s.vertices)) - 1 > simplex_budget:
            raise ResourceBudgetError(
                f"a simplex with {len(s.vertices)} vertices has {(1 << len(s.vertices)) - 1}"
                f" faces, over the budget of {simplex_budget} simplices",
                partial=len(found),
            )
        sub = s.bits
        while sub:
            if sub not in found:
                found[sub] = Simplex.from_bits(sub)
                if simplex_budget is not None and len(found) > simplex_budget:
                    raise ResourceBudgetError(
                        f"closure exceeded the budget of {simplex_budget} simplices",
                        partial=len(found),
                    )
            sub = (sub - 1) & s.bits
    return Complex(found.values(), _validated=True)


def _missing_face(items: Iterable[Simplex], bs) -> tuple[Simplex, int] | None:
    """(s, v) for the first member s whose face without vertex v is not in the
    bit set bs, or None when the collection is closed under subsets."""
    for s in items:
        if len(s.vertices) == 1:
            continue
        for v in s.vertices:
            if s.bits ^ (1 << v) not in bs:
                return s, v
    return None


def is_complex(simplices: Iterable) -> bool:
    """True iff the collection is closed under taking nonempty subsets."""
    items = [_coerce_simplex(s) for s in simplices]
    return _missing_face(items, {s.bits for s in items}) is None


def f_vector(g: Complex) -> tuple[int, ...]:
    """Simplex counts per dimension; empty for the empty complex."""
    return g.f_vector


class SimplexSubset:
    """An arbitrary sub-collection of an ambient complex's simplices.

    Held as the frozenset ``member_bits`` of the members' vertex bit masks;
    ``members`` and iteration are derived from the ambient's simplices, so
    they come in canonical order without sorting.  Carries no closure
    requirement: it may be open, closed, or neither in the star topology of
    the ambient complex.
    """

    __slots__ = ("ambient", "member_bits")

    def __init__(self, ambient: Complex, members: Iterable):
        mb = frozenset(_coerce_simplex(s).bits for s in members)
        if not mb <= ambient._bits_set:
            b = next(b for b in mb if b not in ambient._bits_set)
            raise DomainError(f"{Simplex.from_bits(b)!r} is not a simplex of the ambient complex")
        self.ambient = ambient
        self.member_bits = mb

    @classmethod
    def _of_bits(cls, ambient: Complex, masks: Iterable[int]) -> "SimplexSubset":
        """A subset from masks that are simplices of ambient (and, for a
        subclass, satisfy its condition) by construction; nothing is checked."""
        s = object.__new__(cls)
        s.ambient = ambient
        s.member_bits = frozenset(masks)
        return s

    @property
    def members(self) -> frozenset[Simplex]:
        return frozenset(_members(self))

    def __len__(self) -> int:
        return len(self.member_bits)

    def __iter__(self) -> Iterator[Simplex]:
        return iter(_members(self))

    def __contains__(self, s) -> bool:
        if isinstance(s, Simplex):
            return s.bits in self.member_bits
        try:
            return bits_of(s) in self.member_bits
        except TypeError:
            return False

    def __eq__(self, other):
        if isinstance(other, SimplexSubset):
            return self.ambient == other.ambient and self.member_bits == other.member_bits
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ambient, self.member_bits))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self.member_bits)} of {len(self.ambient)} simplices)"

    def is_closed_set(self) -> bool:
        return _missing_face(_members(self), self.member_bits) is None

    def is_open_set(self) -> bool:
        """True iff upward closed: every member's coface is again a member."""
        mb = self.member_bits
        # the ambient is closed: a member inside a non-member forces such a codim-one pair
        for y in self.ambient.simplices:
            yb = y.bits
            if yb not in mb:
                for v in y.vertices:
                    if yb ^ (1 << v) in mb:
                        return False
        return True

    def complement(self) -> "SimplexSubset":
        return SimplexSubset._of_bits(self.ambient, self.ambient._bits_set - self.member_bits)

    def union(self, other: "SimplexSubset") -> "SimplexSubset":
        self._require_same_ambient(other)
        return SimplexSubset._of_bits(self.ambient, self.member_bits | other.member_bits)

    def intersection(self, other: "SimplexSubset") -> "SimplexSubset":
        self._require_same_ambient(other)
        return SimplexSubset._of_bits(self.ambient, self.member_bits & other.member_bits)

    def _require_same_ambient(self, other: "SimplexSubset") -> None:
        if self.ambient != other.ambient:
            raise DomainError("subsets live in different ambient complexes")


def _members(a) -> tuple[Simplex, ...]:
    """The members of a complex, a simplex subset or an iterable of simplices,
    in canonical order."""
    if isinstance(a, Complex):
        return a.simplices
    if isinstance(a, SimplexSubset):
        mb = a.member_bits
        return tuple(s for s in a.ambient.simplices if s.bits in mb)
    return tuple(sorted(map(_coerce_simplex, a), key=_canonical_key))


def boundary_set(a) -> SimplexSubset:
    """closure(A) minus A, the topological boundary of an arbitrary collection."""
    members = _members(a)
    cl = closure(members)
    ambient = a.ambient if isinstance(a, SimplexSubset) else a if isinstance(a, Complex) else cl
    return SimplexSubset._of_bits(ambient, cl.member_bits - {s.bits for s in members})


def _maximal_cliques(adj: dict[int, int], verts: list[int]) -> list[int]:
    """Maximal cliques as vertex bit masks (Bron-Kerbosch, pivot on largest neighbourhood)."""
    out: list[int] = []
    if not verts:
        return out
    full = bits_of(verts)

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        px = p | x
        pivot, best = -1, -1
        m = px
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            cnt = (p & adj[v]).bit_count()
            if cnt > best:
                pivot, best = v, cnt
        cand = p & ~adj[pivot]
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            expand(r | low, p & adj[v], x & adj[v])
            p &= ~low
            x |= low

    expand(0, full, 0)
    return out


def whitney(vertices: Iterable[int], edges: Iterable, *, simplex_budget: int | None = None) -> Complex:
    """The clique complex of a graph: all vertex sets of complete subgraphs."""
    verts = sorted(set(int(v) for v in vertices))
    if verts and verts[0] < 0:
        raise InputError(f"vertex ids must be non-negative, got {verts[0]}")
    vset = set(verts)
    adj = {v: 0 for v in verts}
    for e in edges:
        u, v = tuple(e)
        if u == v:
            raise InputError(f"self-loop at vertex {u}")
        if u not in vset or v not in vset:
            raise InputError(f"edge ({u},{v}) references an unknown vertex")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    cliques = _maximal_cliques(adj, verts)
    return closure(
        (Simplex.from_bits(c) for c in cliques), simplex_budget=simplex_budget
    )


def join(g: Complex, h: Complex, *, relabel: bool = False) -> Complex:
    """G + H: both complexes plus every union of one simplex from each.

    Vertex id sets must be disjoint; with ``relabel=True`` the second
    complex's ids are offset past the first one's maximum on collision.
    The join of a p-sphere and a q-sphere is a (p+q+1)-sphere.
    """
    gv = bits_of(g.vertex_ids)
    hv = bits_of(h.vertex_ids)
    shift = 0
    if gv & hv:
        if not relabel:
            raise InputError(
                "vertex ids of the two complexes overlap; pass relabel=True to offset"
            )
        shift = max(g.vertex_ids) + 1
    h_bits = [s.bits << shift for s in h.simplices]
    members: dict[int, Simplex] = {s.bits: s for s in g.simplices}
    for b in h_bits:
        members.setdefault(b, Simplex.from_bits(b))
    for sg in g.simplices:
        gb = sg.bits
        for b in h_bits:
            u = gb | b
            if u not in members:
                members[u] = Simplex.from_bits(u)
    return Complex(members.values(), _validated=True)
