"""Finite abstract simplicial complexes over integer vertex ids.

Every vertex set is an integer bit mask (bit ``v`` set iff vertex ``v`` is
present), so subset and intersection tests are single integer operations
even when a complex has a few hundred vertices.  Simplices are nonempty; the
empty complex is allowed and plays the role of the (-1)-dimensional sphere.

Masks are the storage: a ``Complex`` holds the frozenset ``member_bits`` of
its members' masks, and ``closure``, ``whitney`` and ``join`` build it from
masks alone.  The canonical order (by size, then lexicographically on
ascending vertex lists; the key ``_mask_key``), the tuple ``masks`` in that
order and the tuple ``simplices`` of ``Simplex`` objects are views, each
built on its first use and then kept.  A sum that does not depend on the
order of the members (the characteristics, the energy and sphere sums, the
f-vector) never sorts and never builds a ``Simplex``; matrix rows, facet
output, refinement vertex numbers and recognizer searches follow the
canonical order.  The unit ball B(z) = z̄ ∗ lk(z) and the unit sphere
S(z) = ∂z ∗ lk(z) of a member z are built from its star list by ``_join_at``.
"""

from __future__ import annotations

from typing import Collection, Iterable, Iterator

from .errors import DomainError, InputError, charge

__all__ = [
    "Simplex",
    "Complex",
    "SimplexSubset",
    "bits_of",
    "vertices_of",
    "closure",
    "whitney",
    "join",
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


_FLIP = str.maketrans("01", "10")


def _mask_key(bits: int) -> tuple[int, str]:
    """Sort key of the canonical order on masks: size, then vertex list.

    Two sets of one size agree below the lowest vertex of their symmetric
    difference, so the one holding that vertex has the smaller vertex list.
    ``bin(bits)`` read backwards has bit v at position v; with 0 and 1
    exchanged, that set has the smaller string.  Neither string is a prefix
    of the other, since the other set holds a higher vertex in its place.
    """
    return bits.bit_count(), bin(bits)[:1:-1].translate(_FLIP)


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
        return _mask_key(self.bits) < _mask_key(other.bits)

    def __le__(self, other):
        if not isinstance(other, Simplex):
            return NotImplemented
        return self == other or self < other

    def __repr__(self) -> str:
        return "Simplex(%s)" % ",".join(map(str, self.vertices))


def _coerce_simplex(s) -> Simplex:
    return s if isinstance(s, Simplex) else Simplex(s)


def _mask(s) -> int:
    """The mask of a Simplex, or of an iterable of vertex ids checked as
    ``Simplex`` checks it, without building a Simplex."""
    if isinstance(s, Simplex):
        return s.bits
    b = 0
    for v in s:
        if v < 0:
            raise InputError(f"vertex ids must be non-negative, got {v}")
        b |= 1 << v
    if not b:
        raise InputError("a simplex must have at least one vertex")
    return b


def _holds(member_bits: Collection[int], bound: int, s) -> bool:
    """Whether s, a Simplex or an iterable of vertex ids, is among the masks,
    whose ids lie below bound; any other value, a negative id, an id at or
    above the bound or no id included, is not, and no bit is built for it."""
    try:
        ids = tuple(s)
        return all(0 <= v < bound for v in ids) and _mask(ids) in member_bits
    except (TypeError, InputError):
        return False


class Complex:
    """An immutable simplicial complex, stored as the frozenset ``member_bits``
    of its members' vertex masks.

    ``masks`` and ``simplices`` list the members in canonical order (by
    dimension, then lexicographically on vertex lists), which fixes matrix
    indexing and makes every derived output reproducible; both are built on
    first use.  Construction verifies closure under taking nonempty subsets.
    """

    __slots__ = ("member_bits", "_masks", "_simplices", "_bound")

    def __init__(self, simplices: Iterable = ()):
        bs = frozenset(map(_mask, simplices))
        masks = tuple(sorted(bs, key=_mask_key))
        missing = _missing_face(masks, bs)
        if missing is not None:
            b, v = missing
            raise InputError(
                f"not closed under subsets: {Simplex.from_bits(b)!r} present but its"
                f" face without vertex {v} is missing"
            )
        self.member_bits: frozenset[int] = bs
        self._masks: tuple[int, ...] | None = masks
        self._simplices: tuple[Simplex, ...] | None = None
        self._bound: int | None = None

    @classmethod
    def _of_bits(cls, masks: Iterable[int]) -> "Complex":
        """A complex from masks closed under subsets by construction; nothing
        is checked."""
        g = object.__new__(cls)
        g.member_bits = frozenset(masks)
        g._masks = g._simplices = g._bound = None
        return g

    @staticmethod
    def empty() -> "Complex":
        return Complex._of_bits(())

    @property
    def masks(self) -> tuple[int, ...]:
        """The member masks in canonical order."""
        if self._masks is None:
            self._masks = tuple(sorted(self.member_bits, key=_mask_key))
        return self._masks

    @property
    def simplices(self) -> tuple[Simplex, ...]:
        """The members as ``Simplex`` objects in canonical order."""
        if self._simplices is None:
            self._simplices = tuple(map(Simplex.from_bits, self.masks))
        return self._simplices

    def __len__(self) -> int:
        return len(self.member_bits)

    def __iter__(self) -> Iterator[Simplex]:
        return iter(self.simplices)

    def _id_bound(self) -> int:
        """One more than the highest vertex id, found once: the top bit of
        the largest mask."""
        if self._bound is None:
            self._bound = max(self.member_bits, default=0).bit_length()
        return self._bound

    def __contains__(self, s) -> bool:
        return _holds(self.member_bits, self._id_bound(), s)

    def __eq__(self, other):
        if other is self:  # subsets of one ambient compare it with itself
            return True
        if isinstance(other, Complex):
            return self.member_bits == other.member_bits
        return NotImplemented

    def __hash__(self) -> int:
        # CPython caches a frozenset's hash
        return hash(self.member_bits)

    def __repr__(self) -> str:
        return f"Complex({len(self)} simplices, dim {self.dim})"

    @property
    def dim(self) -> int:
        return max(map(int.bit_count, self.member_bits), default=0) - 1

    @property
    def f_vector(self) -> tuple[int, ...]:
        """Simplex counts per dimension; empty for the empty complex."""
        counts = [0] * (self.dim + 1)
        for b in self.member_bits:
            counts[b.bit_count() - 1] += 1
        return tuple(counts)

    @property
    def vertex_ids(self) -> tuple[int, ...]:
        return vertices_of(_vertex_mask(self.member_bits))

    def facets(self) -> tuple[Simplex, ...]:
        """Locally maximal simplices: members contained in no strictly larger one.

        As the complex is closed, a member under a larger one is a
        codimension-one face of some member."""
        non_max = set()
        for b in self.member_bits:
            rest = b if b & (b - 1) else 0
            while rest:
                low = rest & -rest
                non_max.add(b ^ low)
                rest ^= low
        top = sorted((b for b in self.member_bits if b not in non_max), key=_mask_key)
        return tuple(map(Simplex.from_bits, top))


def _position_stars(masks: Iterable[int]) -> dict[int, list[int]]:
    """Each vertex position p -> the masks that hold the vertex bit
    1 << (p - 1), in the order given; the positions come in the order of
    their first appearance, each mask's highest vertex first: ascending on a
    canonical tuple, whose vertices lead.  The one grouping of masks by
    vertex: the N(z) pass and the face tables, the recognizers' star index
    and the connection rows all read it.

    A mask is taken apart from the top: p = r.bit_length(), then r -= the
    bit, which heads p's list while it is built, so a (mask, vertex) step
    makes one new int where ``r & -r`` and ``r ^ low`` make three, and the
    key is a small int however wide the mask is."""
    st: dict[int, list[int]] = {}
    for b in masks:
        r = b
        while r:
            p = r.bit_length()
            lst = st.get(p)
            if lst is None:
                st[p] = lst = [1 << (p - 1)]
            lst.append(b)
            r -= lst[0]
    for lst in st.values():
        del lst[0]
    return st


def _join_bits(a, b) -> list[int]:
    """The masks of the join A * B of two collections on disjoint vertex sets:
    those of a, those of b, then every x | y with x in a and y in b."""
    return [*a, *b, *[x | y for x in a for y in b]]


def _join_at(z: int, star: Iterable[int], proper: bool) -> list[int]:
    """Member bits of z̄ ∗ lk(z) = B(z), or with ``proper`` of ∂z ∗ lk(z) = S(z),
    from the star list U(z): the a | b with a ⊆ z (a ⊊ z) and b = y ^ z for y
    in U(z), except the empty set.  a = member & z and b = member & ~z, so
    each member arises once.  The one builder of balls and unit spheres."""
    faces = []
    sub = (z - 1) & z if proper else z
    while sub:
        faces.append(sub)
        sub = (sub - 1) & z
    return _join_bits(faces, [y ^ z for y in star if y != z])


def _vertex_mask(masks: Iterable[int]) -> int:
    """The union of the masks: the vertex set they span."""
    v = 0
    for b in masks:
        v |= b
    return v


def _close(masks: Iterable[int], simplex_budget: int | None = None) -> Complex:
    """The closure of the given masks; see ``closure``.  A mask met again,
    or already a face of an earlier one, is skipped whole, since the set
    built so far is closed under subsets."""
    found: set[int] = set()
    add = found.add
    for b in masks:
        if b in found:
            continue
        if simplex_budget is not None:  # skips the charges on unbudgeted closures
            charge("closing one simplex", (1 << b.bit_count()) - 1, simplex_budget, "faces",
                   len(found))
        sub = b
        while sub:
            add(sub)
            sub = (sub - 1) & b
        if simplex_budget is not None:
            charge("closure", len(found), simplex_budget, "simplices", len(found))
    return Complex._of_bits(found)


def closure(simplices: Iterable, *, simplex_budget: int | None = None) -> Complex:
    """Smallest complex containing every given simplex; idempotent.

    With a ``simplex_budget``, a simplex whose 2^|s| - 1 faces alone exceed
    it is refused before any of them is built.
    """
    return _close(map(_mask, simplices), simplex_budget)


def _missing_face(masks: Iterable[int], bs) -> tuple[int, int] | None:
    """(b, v) for the first mask b whose face without vertex v is not in the
    set bs, or None when the collection is closed under subsets."""
    for b in masks:
        rest = b if b & (b - 1) else 0
        while rest:
            low = rest & -rest
            if b ^ low not in bs:
                return b, low.bit_length() - 1
            rest ^= low
    return None


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
        mb = frozenset(map(_mask, members))
        if not mb <= ambient.member_bits:
            b = next(b for b in mb if b not in ambient.member_bits)
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
        return _holds(self.member_bits, self.ambient._id_bound(), s)

    def __eq__(self, other):
        if isinstance(other, SimplexSubset):
            return self.ambient == other.ambient and self.member_bits == other.member_bits
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ambient, self.member_bits))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self.member_bits)} of {len(self.ambient)} simplices)"

    def is_closed_set(self) -> bool:
        return _missing_face(self.member_bits, self.member_bits) is None

    def is_open_set(self) -> bool:
        """True iff upward closed: every member's coface is again a member."""
        mb = self.member_bits
        # the ambient is closed: a member inside a non-member forces such a codim-one pair
        for y in self.ambient.member_bits:
            if y not in mb:
                rest = y
                while rest:
                    low = rest & -rest
                    if y ^ low in mb:
                        return False
                    rest ^= low
        return True

    def complement(self) -> "SimplexSubset":
        return SimplexSubset._of_bits(self.ambient, self.ambient.member_bits - self.member_bits)

    def union(self, other: "SimplexSubset") -> "SimplexSubset":
        self._require_same_ambient(other)
        return SimplexSubset._of_bits(self.ambient, self.member_bits | other.member_bits)

    def intersection(self, other: "SimplexSubset") -> "SimplexSubset":
        self._require_same_ambient(other)
        return SimplexSubset._of_bits(self.ambient, self.member_bits & other.member_bits)

    def _require_same_ambient(self, other: "SimplexSubset") -> None:
        if self.ambient != other.ambient:
            raise DomainError("subsets live in different ambient complexes")


def _masks_of(a) -> Collection[int]:
    """The member masks of a complex or a simplex subset, or the masks of an
    iterable of simplices, which must list none twice; in no particular order."""
    if isinstance(a, (Complex, SimplexSubset)):
        return a.member_bits
    masks = [*map(_mask, a)]
    if len(set(masks)) < len(masks):
        raise InputError("a simplex is listed twice")
    return masks


def _members(a: SimplexSubset) -> tuple[Simplex, ...]:
    """The members of a simplex subset, in canonical order."""
    mb = a.member_bits
    return tuple(s for s in a.ambient.simplices if s.bits in mb)


def whitney(vertices: Iterable[int], edges: Iterable, *, simplex_budget: int | None = None) -> Complex:
    """The clique complex of a graph: all vertex sets of complete subgraphs.

    Every clique is listed once, as a mask, and nothing is searched for or
    closed.  ``up[v]`` holds the neighbours of v above v; each vertex v
    starts the clique {v} with candidates ``up[v]``, and a clique c with
    candidates cand is extended by each u in cand, the extension's
    candidates being ``cand & up[u]``.  With a ``simplex_budget``, the
    listing stops as soon as it holds more cliques than the budget, so a
    complex of exactly ``simplex_budget`` simplices still builds.
    """
    verts = sorted(set(int(v) for v in vertices))
    if verts and verts[0] < 0:
        raise InputError(f"vertex ids must be non-negative, got {verts[0]}")
    up = dict.fromkeys(verts, 0)
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            raise InputError(f"an edge is two vertex ids, got {e!r}") from None
        if not (isinstance(u, int) and isinstance(v, int)) or isinstance(u, bool) \
                or isinstance(v, bool):
            raise InputError(f"edge vertex ids must be integers, got {e!r}")
        if u == v:
            raise InputError(f"self-loop at vertex {u}")
        if u not in up or v not in up:
            raise InputError(f"edge ({u},{v}) references an unknown vertex")
        if u > v:
            u, v = v, u
        up[u] |= 1 << v
    found: list[int] = []
    stack = [(1 << v, up[v]) for v in verts]
    while stack:
        c, cand = stack.pop()
        found.append(c)
        if simplex_budget is not None and len(found) > simplex_budget:
            charge("the clique complex", len(found), simplex_budget, "simplices or more",
                   len(found))
        while cand:
            low = cand & -cand
            cand ^= low
            stack.append((c | low, cand & up[low.bit_length() - 1]))
    return Complex._of_bits(found)


def join(g: Complex, h: Complex, *, relabel: bool = False) -> Complex:
    """G + H: both complexes plus every union of one simplex from each.

    Vertex id sets must be disjoint; with ``relabel=True`` the second
    complex's ids are offset past the first one's maximum on collision.
    The join of a p-sphere and a q-sphere is a (p+q+1)-sphere.
    """
    gv = _vertex_mask(g.member_bits)
    shift = 0
    if gv & _vertex_mask(h.member_bits):
        if not relabel:
            raise InputError(
                "vertex ids of the two complexes overlap; pass relabel=True to offset"
            )
        shift = gv.bit_length()
    return Complex._of_bits(_join_bits(g.member_bits, [b << shift for b in h.member_bits]))
