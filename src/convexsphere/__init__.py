"""Support-function calculus, spherical polynomial projections, and
obstruction checks for convex bodies on spheres."""

__version__ = "0.1.0"

from .errors import (
    BudgetExceeded,
    CertificateFailure,
    ConfigError,
    ConstantPolynomial,
    ConvexSphereError,
    Degenerate,
    DegenerateToPoint,
    GridMismatch,
    InputError,
    NonpositiveRadius,
    NotARotation,
    NotDecomposable,
    OriginNotInterior,
    ZeroBivector,
)
from .sphere import SphereGrid, build_grid, monomial_sphere_integral, sphere_area
from .groups import GroupSample, cyclic_rotation_group, random_rotations, sample_group
from .polynomials import (
    Basis,
    JoinPoint,
    SphericalPoly,
    get_basis,
    join_product,
    odd_even_split,
    poly_product,
    project,
    rotate_poly,
    to_F_space,
)
from .bodies import (
    ConvexBody,
    ball,
    bm_distance,
    c0_l2_constant,
    certify_convex_radial,
    check_c0_l2_bound,
    distance_to_ball,
    empirical_L2_uniform,
    from_radial,
    from_support_samples,
    from_terms,
    from_vertices,
    group_average,
    hausdorff,
    invariance_defect,
    random_polytope,
    validate_body,
)
from .fields import (
    BodyField,
    QuadForm3,
    build_field,
    find_epsilon,
    frame_align,
    octahedron,
    pair_hull,
    psi_product,
    radial_body,
    rotate_body,
    sample_unit_F,
    separation_delta,
    thicken,
)
from .fourier2d import (
    FourierSupport,
    fourier_analyze,
    harmonic_energy,
    reconstruct,
    sturm_hurwitz_count,
)
from .sections import (
    SectionFamily,
    cube_family,
    ellipsoid_family,
    plane_section,
    polytope_family,
    round_section_search,
)
from .mod2poly import (
    Mod2SymPoly,
    elementary_symmetric,
    express_elementary,
    stiefel_whitney_top,
    sw_product_chain,
)

__all__ = [name for name in dir() if not name.startswith("_")]
