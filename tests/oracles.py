"""Literal reference paths that tests compare the library's fast paths against."""

import math
from collections import Counter, deque
from itertools import combinations, combinations_with_replacement, permutations, product

from higherchar import characteristics
from higherchar.complexes import Complex, Simplex
from higherchar.errors import charge
from higherchar.linalg import mat_mul
from higherchar.topology import OpenSet, configuration, unit_sphere

DEFAULT_TOPOLOGY_BUDGET = 10**6


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def is_complex(simplices):
    """True iff the collection is closed under taking nonempty subsets: every
    face of a member with one vertex removed is a member."""
    members = {frozenset(s) for s in simplices}
    return all(s - {v} in members for s in members if len(s) > 1 for v in s)


def incidence_sign(y, x):
    """0 unless the Simplex x is a codimension-one face of the Simplex y; else
    (-1)^p where p is the position of the removed vertex within y's
    ascending vertex list."""
    if len(y.vertices) != len(x.vertices) + 1 or not x.is_face_of(y):
        return 0
    (v,) = set(y.vertices) - set(x.vertices)
    return -1 if y.vertices.index(v) & 1 else 1


def star_intersection_by_scan(g, xs):
    """U(X) by scanning g once per point for its star and intersecting the member sets."""
    members = None
    for x in configuration(g, xs):
        s = frozenset(y for y in g.simplices if x.is_face_of(y))
        members = s if members is None else members & s
    return OpenSet(g, members)


def dual_sphere(g, xs):
    """D(X): the intersection of the unit spheres S(x_j) of the points of a
    configuration."""
    spheres = (unit_sphere(g, x.bits).member_bits for x in configuration(g, xs))
    return Complex._of_bits(frozenset.intersection(*spheres))


def dual_sphere_total_by_walk(sph, ws, m, k):
    """The exchanged dual-sphere sum over the sets ``sph`` with weights
    ``ws``: every multiset of k set indices, the w_m of the intersection of
    its sets, times the weight and k!/prod(c!)."""
    total = 0
    for combo in combinations_with_replacement(range(len(sph)), k):
        inter = frozenset(sph[combo[0]]).intersection(*(sph[i] for i in combo[1:]))
        if not inter:
            continue
        mult = math.factorial(k)
        for c in Counter(combo).values():
            mult //= math.factorial(c)
        w = math.prod(ws[i] for i in combo)
        total += mult * w * characteristics._eval_terms(face_terms_by_subset_walk(inter), m)
    return total


def face_terms_by_subset_walk(member_bits):
    """The (N, C) face terms of a collection of distinct masks, with
    w_m = sum of C * N**m for every m >= 1, by walking the subsets of each
    member: N(q) sums w(b) over the members b ⊇ q, c(q) sums
    (-1)^(|q|-|p|) = w(q) * w(p) over the members p ⊆ q, and C sums c(q)
    over the faces q with N(q) = N != 0.  Two walks of 2^|b| steps per
    member b, nothing assumed of the collection."""
    weights = {b: 1 if b.bit_count() & 1 else -1 for b in member_bits}
    counts = {}
    for b, w in weights.items():
        sub = b
        while sub:
            counts[sub] = counts.get(sub, 0) + w
            sub = (sub - 1) & b
    grouped = {}
    for q, n in counts.items():
        if not n:
            continue
        t = 0
        sub = q
        while sub:
            t += weights.get(sub, 0)
            sub = (sub - 1) & q
        if t:
            grouped[n] = grouped.get(n, 0) + (t if q.bit_count() & 1 else -t)
    return tuple((n, c) for n, c in grouped.items() if c)


def generate_topology(g, budget=DEFAULT_TOPOLOGY_BUDGET):
    """Every open set of g, as OpenSets ordered by size and members: all
    unions of base stars, plus the empty set, found breadth first.  Past
    ``budget`` open sets the enumeration is refused by ``charge``."""
    base = list(dict.fromkeys(frozenset(y for y in g.member_bits if sb & y == sb)
                              for sb in g.masks))
    found = {frozenset(), *base}
    queue = deque([frozenset(), *base])
    while queue:
        cur = queue.popleft()
        for st in base:
            u = cur | st
            if u not in found:
                found.add(u)
                charge("topology enumeration", len(found), budget, "open sets", len(found))
                queue.append(u)
    ordered = sorted(found, key=lambda fs: (len(fs), sorted(fs)))
    return tuple(OpenSet._of_bits(g, fs) for fs in ordered)


def unit_sphere_by_scan(g, members, xb):
    """S(x) as a filter of the member tuple g: s is not in U(x) and s ∪ x is a member."""
    return tuple(s for s in g if s & xb != xb and s | xb in members)


def vertices_by_popcount(g):
    """Vertex bits of the member tuple g by (star size, bit), counting each member's bits."""
    count = {}
    for b in g:
        while b:
            low = b & -b
            count[low] = count.get(low, 0) + 1
            b ^= low
    return sorted(count, key=lambda vb: (count[vb], vb))


def vertex_stars_by_filter(masks):
    """Each vertex bit, in the order of its first appearance in masks, each
    mask's highest vertex first, and the masks that hold it, filtered from
    masks once per vertex."""
    vertices = []
    for b in masks:
        for i in reversed(range(b.bit_length())):
            if b >> i & 1 and 1 << i not in vertices:
                vertices.append(1 << i)
    return [(v, [b for b in masks if b & v]) for v in vertices]


def join_by_pairs(a, b):
    """The join A * B as a set: every x in a, every y in b and every union."""
    return set(a) | set(b) | {x | y for x in a for y in b}


def face_passes_by_scan(g):
    """For each vertex v of g, the set of index pairs (x, x minus v) over the
    members x that hold v and another vertex, by scanning g once per vertex."""
    masks = g.masks
    out = {}
    for v in (b for b in masks if not b & (b - 1)):
        pairs = {(i, masks.index(x ^ v)) for i, x in enumerate(masks) if x & v and x != v}
        if pairs:
            out[v] = pairs
    return out


def star_weights_by_face_table(table):
    """N(z) of every mask z of a face table's whole complex, from the table's
    passes alone: the n pass, each pair (x, x minus v) adding n[x] to
    n[x minus v], run literally over the masks' weights."""
    n = list(table.weights)
    for pairs in table.passes:
        for x, face in pairs:
            n[face] += n[x]
    return dict(zip(table.masks, n))


def char_poly_by_faddeev_leverrier(mat):
    """Coefficients of det(lambda*I - M), descending powers, leading 1, by
    the Faddeev-LeVerrier recurrence over the integers: M_1 = M and
    c_k = -tr(M_k) / k, M_{k+1} = M (M_k + c_k I).  Each trace division is
    exact and asserted so."""
    n = len(mat)
    coeffs = [1]
    mk = [list(row) for row in mat]
    for k in range(1, n + 1):
        tr = sum(mk[i][i] for i in range(n))
        assert tr % k == 0, "Faddeev-LeVerrier trace division was not exact"
        c = -(tr // k)
        coeffs.append(c)
        if k == n:
            break
        for i in range(n):
            mk[i][i] += c
        mk = mat_mul(mat, mk)
    return coeffs


def canonical_key(s):
    """Sort key of the canonical order on Simplex objects: size, then vertex list."""
    return (len(s.vertices), s.vertices)


def coboundary_by_incidence(support, i):
    """The matrix of d: i-cochains -> (i+1)-cochains on a complex or a simplex
    subset, every entry from ``incidence_sign``: rows the support's simplices
    of i+2 vertices, columns those of i+1, both sorted by ``canonical_key``."""
    members = sorted(support, key=canonical_key)
    lo = [x for x in members if len(x.vertices) == i + 1]
    hi = [y for y in members if len(y.vertices) == i + 2]
    return [[incidence_sign(y, x) for x in lo] for y in hi]


def closure_by_simplices(simplices):
    """The members of the closure as Simplex objects, one built per face, in
    canonical order."""
    found = {}
    for s in simplices:
        s = s if isinstance(s, Simplex) else Simplex(s)
        sub = s.bits
        while sub:
            found.setdefault(sub, Simplex.from_bits(sub))
            sub = (sub - 1) & s.bits
    return tuple(sorted(found.values(), key=canonical_key))


def cliques_by_brute_force(vertices, edges):
    """Every clique of a graph as a vertex mask: each nonempty vertex subset
    whose pairs are all edges, edges taken as unordered pairs."""
    pairs = {frozenset(e) for e in edges}
    vs = sorted(set(vertices))
    return {sum(1 << v for v in sub)
            for r in range(1, len(vs) + 1) for sub in combinations(vs, r)
            if all(frozenset(p) in pairs for p in combinations(sub, 2))}


def cliques_by_search(vertices, edges):
    """Every clique of a graph as a vertex tuple, by extending each clique
    with the higher neighbours common to all its vertices."""
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    out = []

    def grow(clique, cand):
        for v in sorted(cand):
            out.append(clique + (v,))
            grow(clique + (v,), {u for u in cand & adj[v] if u > v})

    grow((), set(adj))
    return out


def refinement_by_flags(g):
    """The simplices of the barycentric refinement of g, in canonical order:
    every face of every full flag v1 < v1 v2 < ... of every member, each
    member named by its position in g's canonical order."""
    order = closure_by_simplices(g.simplices)
    index = {s.bits: i for i, s in enumerate(order)}
    chains = []
    for s in order:
        for flag in permutations(s.vertices):
            bits, chain = 0, []
            for v in flag:
                bits |= 1 << v
                chain.append(index[bits])
            chains.append(chain)
    return closure_by_simplices(chains)


def product_by_chains(g, h):
    """The simplices of G * H, in canonical order: the chains of the pair
    order, the pair of the i-th simplex of g and the j-th of h named
    i * |h| + j."""
    gs, hs = closure_by_simplices(g.simplices), closure_by_simplices(h.simplices)
    pairs = [(x.bits, y.bits) for x in gs for y in hs]
    edges = [(a, b) for a in range(len(pairs)) for b in range(a + 1, len(pairs))
             if _comparable(pairs[a], pairs[b])]
    return closure_by_simplices(cliques_by_search(range(len(pairs)), edges))


def _comparable(p, q):
    (x, y), (u, v) = p, q
    return (x & u == x and y & v == y) or (x & u == u and y & v == v)


def facets_text_by_simplices(members):
    """Facet-format text of the canonically ordered Simplex tuple members:
    the members inside no other member, one line each."""
    bits = {s.bits for s in members}
    lines = [" ".join(map(str, s.vertices)) for s in members
             if not any(t != s.bits and s.bits & t == s.bits for t in bits)]
    return "\n".join(lines) + ("\n" if lines else "")


def star_weights_by_subsets(g):
    """N(z) = sum of w(y) over the y ⊇ z in g, for every z of g: each member
    adds its weight to every one of its nonempty subsets."""
    out = dict.fromkeys(g.member_bits, 0)
    for y in g.member_bits:
        w = 1 if y.bit_count() & 1 else -1
        sub = y
        while sub:
            out[sub] += w
            sub = (sub - 1) & y
    return out


def configuration_sum_by_walk(g, k, table):
    """The sum over all |g|^k configurations X of weight(X) * table[union of X],
    one tuple at a time; a union that is not a simplex of g adds 0."""
    bits = list(g.member_bits)
    ws = [1 if b.bit_count() & 1 else -1 for b in bits]
    total = 0
    for idx in product(range(len(bits)), repeat=k):
        u, w = 0, 1
        for i in idx:
            u |= bits[i]
            w *= ws[i]
        total += w * table.get(u, 0)
    return total


def local_valuation_by_walk(g, m, k):
    """(total, passed): the |g|^k configurations, and how many of them pass
    ``characteristics.local_valuation_check``, checked one tuple at a time."""
    total = passed = 0
    for X in product(g.simplices, repeat=k):
        total += 1
        passed += characteristics.local_valuation_check(g, X, m).passed
    return total, passed


def sphere_by_every_link(g, d):
    """g is a d-sphere by the recognizers' definitions read literally, with
    the unit sphere of every simplex tested and no budget."""
    return _EveryLink().sphere(g.masks, d)


def manifold_by_every_link(g, d):
    """Every unit sphere of g, of every simplex, is a (d-1)-sphere."""
    return _EveryLink().manifold(g.masks, d)


def ball_by_every_link(g, d):
    """g is a contractible d-manifold with boundary whose boundary is a
    (d-1)-sphere, every unit sphere tested."""
    return _EveryLink().ball(g.masks, d)


def dehn_sommerville_by_every_link(g, d):
    """g is a Dehn-Sommerville d-space by the definition read literally:
    void at d = -1; otherwise nonempty, chi(g) = 1 + (-1)^d, and the unit
    sphere of every simplex a Dehn-Sommerville (d-1)-space; no budget."""
    return _EveryLink().dehn_sommerville(g.masks, d)


def _memoized(method):
    """One result per (method, member tuple, d) for the life of the instance."""

    def wrapped(self, g, d=None):
        key = (method, g, d)
        if key not in self.memo:
            self.memo[key] = method(self, g, d)
        return self.memo[key]

    return wrapped


class _EveryLink:
    """The recognizers' definitions on member tuples, memoized for one
    query; unit spheres come from ``unit_sphere_by_scan``."""

    def __init__(self):
        self.memo = {}

    @_memoized
    def contractible(self, g, _):
        members = set(g)
        return len(g) == 1 or any(
            self.contractible(unit_sphere_by_scan(g, members, v))
            and self.contractible(_puncture(g, v))
            for v in g if not v & (v - 1))

    @_memoized
    def sphere(self, g, d):
        if d == -1:
            return not g
        return (bool(g) and self.manifold(g, d)
                and any(self.contractible(_puncture(g, x)) for x in g))

    @_memoized
    def manifold(self, g, d):
        return all(self.sphere(s, d - 1) for s in _unit_spheres(g))

    @_memoized
    def manifold_with_boundary(self, g, d):
        return all(self.sphere(s, d - 1) or self.ball(s, d - 1) for s in _unit_spheres(g))

    @_memoized
    def ball(self, g, d):
        if d < 0 or not self.manifold_with_boundary(g, d) or not self.contractible(g):
            return False
        boundary = tuple(x for x, s in zip(g, _unit_spheres(g))
                         if not self.sphere(s, d - 1) and self.ball(s, d - 1))
        return self.sphere(boundary, d - 1)

    @_memoized
    def dehn_sommerville(self, g, d):
        if d == -1:
            return not g
        return (bool(g) and sum(1 if b.bit_count() & 1 else -1 for b in g) == 1 + (-1) ** d
                and all(self.dehn_sommerville(s, d - 1) for s in _unit_spheres(g)))


def _unit_spheres(g):
    members = set(g)
    return [unit_sphere_by_scan(g, members, x) for x in g]


def _puncture(g, xb):
    return tuple(s for s in g if s & xb != xb)
