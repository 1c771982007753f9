"""Literal reference paths that tests compare the library's fast paths against."""

from higherchar.topology import OpenSet, configuration


def star_intersection_by_scan(g, xs):
    """U(X) by scanning g once per point for its star and intersecting the member sets."""
    members = None
    for x in configuration(g, xs):
        s = frozenset(y for y in g.simplices if x.is_face_of(y))
        members = s if members is None else members & s
    return OpenSet(g, members)


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
