"""Higher characteristics of finite abstract simplicial complexes.

Exact integer computation of the characteristics w_m (Euler for m=1, Wu for
m=2, and beyond), their k-point Green function energies over the finite star
topology, sphere and valuation identities, connection-matrix duality,
cohomology of open and closed sets, recursive sphere/ball/manifold
recognizers, and the Stanley-Reisner style topological product.

Each module is loaded on first use.  Importing the package puts every
library module into ``sys.modules`` at once, but a module's body runs only
when one of its attributes is first read (``importlib.util.LazyLoader``),
and a top-level name is looked up in its module when it is first asked for
(module ``__getattr__``).  So a CLI run compiles only the modules its
subcommand calls.
"""

# module -> the top-level names it defines
_EXPORTS = {
    "characteristics": (
        "EnergyReport", "InteractionFunction", "curvature_profile", "dual_sphere_sum",
        "energy_sum", "fermi", "green", "local_valuation_check", "local_valuation_sum",
        "sphere_sum", "valuation_check", "w_m", "w_m_energized", "w_m_multi", "w_m_naive",
    ),
    "cohomology": ("betti", "betti_relative", "coboundary"),
    "complexes": ("Complex", "Simplex", "SimplexSubset", "closure", "join", "whitney"),
    "errors": ("DomainError", "HigherCharError", "InputError", "ResourceBudgetError",
               "SingularMatrixError"),
    "generators": ("GeneratorSpec", "generate"),
    "linalg": ("char_poly", "connection_matrix", "det", "green_matrix", "inverse"),
    "product": ("topological_product",),
    "recognizers": (
        "Status", "Verdict", "is_ball", "is_contractible", "is_dehn_sommerville",
        "is_manifold", "is_manifold_with_boundary", "is_sphere", "manifold_boundary",
    ),
    "topology": ("OpenSet", "ball", "barycentric", "core", "open_hull", "open_refinement",
                 "sphere", "star", "star_intersection"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def _load_on_first_use(modules):
    """Put each submodule into sys.modules and the package, its body unrun."""
    import importlib.util
    import sys

    for name in modules:
        spec = importlib.util.find_spec(f"{__name__}.{name}")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        globals()[name] = module


# cli, the program, is imported as usual: a lazy entry in sys.modules would
# make ``python -m higherchar.cli`` run its body twice
_load_on_first_use((*_EXPORTS, "files"))


def __getattr__(name):
    try:
        module = globals()[_HOME[name]]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted(globals().keys() | _HOME.keys())
