"""The public API: the top-level names of ``higherchar``, the ``__all__`` of
each module, and the names the benchmark scripts import from the package."""

import ast
import importlib
import pkgutil
import sys
import types
from pathlib import Path

import pytest

import higherchar

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

TOP_LEVEL = [
    "Complex", "DomainError", "EnergyReport", "GeneratorSpec", "HigherCharError",
    "InputError", "InteractionFunction", "OpenSet", "ResourceBudgetError", "Simplex",
    "SimplexSubset", "SingularMatrixError", "Status", "Verdict",
    "ball", "barycentric", "betti", "betti_relative", "char_poly", "closure",
    "coboundary", "connection_matrix", "core", "curvature_profile", "det",
    "dual_sphere_sum", "energy_sum", "fermi", "generate", "green", "green_matrix",
    "inverse", "is_ball", "is_contractible", "is_dehn_sommerville", "is_manifold",
    "is_manifold_with_boundary", "is_sphere", "join", "local_valuation_check",
    "local_valuation_sum", "manifold_boundary", "open_hull", "open_refinement",
    "sphere", "sphere_sum", "star", "star_intersection", "topological_product",
    "valuation_check", "w_m", "w_m_energized", "w_m_multi", "w_m_naive", "whitney",
]

MODULES = sorted(m.name for m in pkgutil.iter_modules(higherchar.__path__, "higherchar."))


def test_top_level_names():
    # a top-level name enters vars() when it is first read
    for name in dir(higherchar):
        value = getattr(higherchar, name)
        if name in TOP_LEVEL:
            assert getattr(sys.modules[value.__module__], name) is value
    public = sorted(name for name, value in vars(higherchar).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert public == sorted(TOP_LEVEL) and len(public) == 55
    assert sorted(higherchar.__all__) == sorted(TOP_LEVEL)


@pytest.mark.parametrize("module", [m for m in MODULES if m != "higherchar.__main__"])
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def _resolves(dotted):
    """True iff the dotted name is a module of the package or an attribute
    of one, importing submodules as a script's import would."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if not hasattr(obj, part):
            try:
                importlib.import_module(".".join(parts[:i]))
            except ModuleNotFoundError:
                return False
        obj = getattr(obj, part)
    return True


def _package_names(tree):
    """Each dotted name a script imports from the package, and each
    attribute it reads from a name so imported."""
    names, bound = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "higherchar":
                    names.append(alias.name)
                    bound[alias.asname or "higherchar"] = alias.name if alias.asname else "higherchar"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "higherchar":
            for alias in node.names:
                names.append(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = names[-1]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            names.append(f"{bound[node.value.id]}.{node.attr}")
    return names


@pytest.mark.parametrize("script", sorted(p.name for p in PERFBENCH.glob("*.py")))
def test_benchmark_imports_resolve(script):
    # read, not run: make_answers.py rewrites the benchmark's answers
    tree = ast.parse((PERFBENCH / script).read_text())
    assert [name for name in _package_names(tree) if not _resolves(name)] == []


def test_make_answers_oracles_are_read():
    tree = ast.parse((PERFBENCH / "make_answers.py").read_text())
    assert {"higherchar.linalg.connection_matrix_via_cores",
            "higherchar.product.ring_from_complex",
            "higherchar.product.topological_product_via_ring",
            "higherchar.characteristics.w_m_naive"} <= set(_package_names(tree))
    assert not _resolves("higherchar.linalg.no_such_name")
