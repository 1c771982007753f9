"""Higher characteristics of finite abstract simplicial complexes.

Exact integer computation of the characteristics w_m (Euler for m=1, Wu for
m=2, and beyond), their k-point Green function energies over the finite star
topology, sphere and valuation identities, connection-matrix duality,
cohomology of open and closed sets, recursive sphere/ball/manifold
recognizers, and the Stanley-Reisner style topological product.
"""

from .characteristics import (
    EnergyReport,
    InteractionFunction,
    curvature_profile,
    dual_sphere_sum,
    energy_sum,
    fermi,
    green,
    local_valuation_check,
    local_valuation_sum,
    sphere_sum,
    valuation_check,
    w_m,
    w_m_energized,
    w_m_multi,
    w_m_naive,
)
from .cohomology import betti, betti_relative, coboundary
from .complexes import (
    Complex,
    Simplex,
    SimplexSubset,
    closure,
    join,
    whitney,
)
from .errors import (
    DomainError,
    HigherCharError,
    InputError,
    ResourceBudgetError,
    SingularMatrixError,
)
from .generators import GeneratorSpec, generate
from .linalg import char_poly, connection_matrix, det, green_matrix, inverse
from .product import topological_product
from .recognizers import (
    Status,
    Verdict,
    is_ball,
    is_contractible,
    is_dehn_sommerville,
    is_manifold,
    is_manifold_with_boundary,
    is_sphere,
    manifold_boundary,
)
from .topology import (
    OpenSet,
    ball,
    barycentric,
    core,
    open_hull,
    open_refinement,
    sphere,
    star,
    star_intersection,
)

__version__ = "0.1.0"
