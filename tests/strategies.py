from hypothesis import strategies as st

from higherchar.complexes import Complex
from higherchar.generators import random_whitney


@st.composite
def random_complexes(draw, max_vertices=7, max_edges=12):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    cap = min(max_edges, n * (n - 1) // 2)
    m = draw(st.integers(min_value=0, max_value=cap))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_whitney(n, m, seed)


@st.composite
def wide_complexes(draw, max_vertices=7, max_edges=12, max_id=400):
    """A random complex relabelled onto sparse vertex ids below max_id, in a
    shuffled order, one of them at least max_id - 100: its masks are several
    hundred bits wide, as a product's are."""
    g = draw(random_complexes(max_vertices=max_vertices, max_edges=max_edges))
    ids = g.vertex_ids
    top = draw(st.integers(min_value=max_id - 100, max_value=max_id - 1))
    rest = draw(st.lists(st.integers(min_value=0, max_value=top - 1),
                         min_size=len(ids) - 1, max_size=len(ids) - 1, unique=True))
    new = dict(zip(ids, draw(st.permutations([top, *rest]))))
    return Complex([[new[v] for v in s.vertices] for s in g.simplices])
