"""Deterministic generators for the test corpus.

Random kinds use splitmix64, a fixed 64-bit mixing generator with published
constants, so the same spec yields byte-identical complexes on every
platform.  Vertices are numbered from 1.

``generate`` builds under the same cap as text input: it compares the
closed-form simplex count of a kind (for random_whitney, its edge universe)
with ``files.MAX_SIMPLICES`` before it builds anything.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import Complex, closure, whitney
from .errors import InputError
from .files import MAX_SIMPLICES, check_simplex_count

__all__ = [
    "GeneratorSpec",
    "SplitMix64",
    "generate",
    "simplex_complex",
    "cycle",
    "cross_polytope",
    "octahedron",
    "star_complex",
    "path3",
    "random_whitney",
    "random_graph_edges",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """splitmix64: state += gamma; output mixed by two xor-shift multiplies."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n); the modulo bias is irrelevant for
        reproducibility, which is the only contract here."""
        return self.next() % n


def random_graph_edges(n: int, m_edges: int, seed: int) -> list[tuple[int, int]]:
    """Exactly m_edges distinct edges on vertices 1..n, by a partial
    Fisher-Yates shuffle of the lexicographic edge universe."""
    universe = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    total = len(universe)
    if not 0 <= m_edges <= total:
        raise InputError(f"edge count {m_edges} out of range 0..{total}")
    rng = SplitMix64(seed)
    for i in range(m_edges):
        j = i + rng.below(total - i)
        universe[i], universe[j] = universe[j], universe[i]
    return sorted(universe[:m_edges])


def simplex_complex(n: int) -> Complex:
    """Closure of the single simplex {1..n}."""
    if n < 1:
        raise InputError("simplex needs n >= 1 vertices")
    return closure([range(1, n + 1)])


def cycle(n: int) -> Complex:
    """The circle C_n; n >= 4 so that the clique complex stays one-dimensional."""
    if n < 4:
        raise InputError("cycle needs n >= 4")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return whitney(range(1, n + 1), edges)


def cross_polytope(d: int) -> Complex:
    """The d-sphere with 2(d+1) vertices: join of d+1 copies of the 0-sphere.

    d = -1 gives the empty complex, d = 2 the octahedron.
    """
    if d < -1:
        raise InputError("cross polytope needs d >= -1")
    members = []
    # every simplex picks at most one vertex from each antipodal pair
    def grow(idx: int, current: int):
        if current:
            members.append(current)
        for k in range(idx, d + 1):
            grow(k + 1, current | 1 << (2 * k + 1))
            grow(k + 1, current | 1 << (2 * k + 2))

    grow(0, 0)
    return Complex._of_bits(members)


def octahedron() -> Complex:
    return cross_polytope(2)


def star_complex(n: int) -> Complex:
    """Clique complex of the star graph: center 1 joined to leaves 2..n."""
    if n < 1:
        raise InputError("star needs n >= 1 vertices")
    return whitney(range(1, n + 1), [(1, i) for i in range(2, n + 1)])


def path3() -> Complex:
    """The two-edge path {1}-{2}-{3} with its vertices; a small 1-ball."""
    return closure([{1, 2}, {2, 3}])


def random_whitney(n: int, m_edges: int, seed: int) -> Complex:
    """Clique complex of a seeded random graph with exactly m_edges edges."""
    if n < 1:
        raise InputError("random complex needs n >= 1 vertices")
    return whitney(range(1, n + 1), random_graph_edges(n, m_edges, seed))


@dataclass(frozen=True)
class GeneratorSpec:
    """A fully deterministic recipe: identical specs give identical complexes."""

    kind: str
    n: int | None = None
    edges: int | None = None
    d: int | None = None
    seed: int | None = None


def generate(spec: GeneratorSpec) -> Complex:
    """Build the complex of a spec; over ``files.MAX_SIMPLICES`` it raises
    ResourceBudgetError before building."""
    kind = spec.kind
    if kind == "simplex":
        _need(spec, "n")
        # exponents are clipped at 64, far over the cap, before the power
        check_simplex_count("the simplex count of simplex", 2 ** min(spec.n, 64) - 1)
        return simplex_complex(spec.n)
    if kind == "cycle":
        _need(spec, "n")
        check_simplex_count("the simplex count of cycle", 2 * spec.n)
        return cycle(spec.n)
    if kind == "cross_polytope":
        if spec.d is None:
            raise InputError("cross_polytope needs d")
        check_simplex_count("the simplex count of cross_polytope", 3 ** min(spec.d + 1, 64) - 1)
        return cross_polytope(spec.d)
    if kind == "octahedron":
        return octahedron()
    if kind == "star":
        _need(spec, "n")
        check_simplex_count("the simplex count of star", 2 * spec.n - 1)
        return star_complex(spec.n)
    if kind == "path3":
        return path3()
    if kind == "random_whitney":
        _need(spec, "n")
        if spec.edges is None:
            raise InputError("random_whitney needs edges")
        if spec.seed is None:
            raise InputError("random_whitney needs seed")
        if spec.n < 1:
            raise InputError("random complex needs n >= 1 vertices")
        check_simplex_count("the edge universe of random_whitney", spec.n * (spec.n - 1) // 2)
        return whitney(range(1, spec.n + 1), random_graph_edges(spec.n, spec.edges, spec.seed),
                       simplex_budget=MAX_SIMPLICES)
    raise InputError(f"unknown generator kind {kind!r}")


def _need(spec: GeneratorSpec, field_name: str) -> None:
    if getattr(spec, field_name) is None:
        raise InputError(f"{spec.kind} needs {field_name}")
