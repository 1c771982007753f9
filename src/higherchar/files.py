"""Text formats for complexes.

Facet format: UTF-8 text, one facet per line, vertices as base-10 integers
separated by whitespace, ``#`` starts a comment line; the complex is the
closure of the facets.  Edge-list format: first meaningful line ``graph``,
then one ``u v`` pair per line; the complex is the clique complex.  Either
complex is built under a budget of MAX_SIMPLICES simplices.
"""

from __future__ import annotations

from pathlib import Path

from .complexes import Complex, closure, whitney
from .errors import InputError, ResourceBudgetError

__all__ = [
    "MAX_SIMPLICES",
    "check_simplex_count",
    "parse_facets",
    "parse_edge_list",
    "parse_complex",
    "load_complex",
    "format_facets",
    "save_complex",
]

# simplices a complex read from text may hold; a 17-vertex simplex fits
MAX_SIMPLICES = 1 << 17


def check_simplex_count(what: str, count: int) -> None:
    """Refuse, before building, a complex of more than MAX_SIMPLICES simplices."""
    if count > MAX_SIMPLICES:
        raise ResourceBudgetError(
            f"{what} is {count}, over the cap of {MAX_SIMPLICES} simplices"
        )


def _meaningful_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_facets(text: str) -> Complex:
    facets = []
    for lineno, line in _meaningful_lines(text):
        try:
            facets.append([int(tok) for tok in line.split()])
        except ValueError as exc:
            raise InputError(f"expected integers, got {line!r}", lineno=lineno) from exc
        if facets[-1] and min(facets[-1]) < 0:
            raise InputError("negative vertex id", lineno=lineno)
    return closure(facets, simplex_budget=MAX_SIMPLICES)


def parse_edge_list(text: str) -> Complex:
    lines = list(_meaningful_lines(text))
    if not lines or lines[0][1] != "graph":
        raise InputError("edge list must start with a 'graph' line", lineno=1)
    edges = []
    vertices: set[int] = set()
    for lineno, line in lines[1:]:
        toks = line.split()
        if len(toks) != 2:
            raise InputError(f"expected 'u v', got {line!r}", lineno=lineno)
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError as exc:
            raise InputError(f"expected integers, got {line!r}", lineno=lineno) from exc
        if min(u, v) < 0:
            raise InputError("negative vertex id", lineno=lineno)
        if u == v:
            raise InputError(f"self-loop at vertex {u}", lineno=lineno)
        vertices.update((u, v))
        edges.append((u, v))
    return whitney(vertices, edges, simplex_budget=MAX_SIMPLICES)


def parse_complex(text: str) -> Complex:
    """Auto-detect: a leading 'graph' line means edge-list, else facets."""
    for _, line in _meaningful_lines(text):
        if line == "graph":
            return parse_edge_list(text)
        break
    return parse_facets(text)


def load_complex(path) -> Complex:
    return parse_complex(Path(path).read_text(encoding="utf-8"))


def format_facets(g: Complex) -> str:
    """One facet per line, ascending vertex ids; byte-stable for equal complexes."""
    lines = [" ".join(map(str, f.vertices)) for f in g.facets()]
    return "\n".join(lines) + ("\n" if lines else "")


def save_complex(g: Complex, path) -> None:
    Path(path).write_text(format_facets(g), encoding="utf-8")
