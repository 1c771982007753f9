"""Literal reference paths that tests compare the library's fast paths against."""

from higherchar.topology import OpenSet, configuration


def star_intersection_by_scan(g, xs):
    """U(X) by scanning g once per point for its star and intersecting the member sets."""
    members = None
    for x in configuration(g, xs):
        s = frozenset(y for y in g.simplices if x.is_face_of(y))
        members = s if members is None else members & s
    return OpenSet(g, members)
