"""Random projections of smooth Gaussian random manifolds.

Samplers for a Gaussian-process manifold ensemble, Haar-random orthonormal
projections, empirical distortion experiments, cone-guarantee verifiers,
and closed-form bounds on the number of projections needed to preserve
geometry.
"""

__version__ = "0.1.0"

from .errors import (
    ConeUndefined,
    GuaranteeVacuous,
    NumericalBreakdown,
    RankDeficient,
    Unachievable,
)
from .manifold import (
    CellPartition,
    ExpectedGeometry,
    ManifoldSpec,
    chordal_cone_angle,
    expected_chord_sq,
    expected_geometry,
    expected_principal_cosines,
    expected_tangent_cosine,
    intrinsic_separation,
    make_cells,
    short_chord_tangent_angle,
    tangential_cone_angle,
)
from .sampling import (
    ManifoldSample,
    TangentFrames,
    empirical_chord_sq,
    empirical_principal_angles,
    empirical_tangent_cosine,
    load_sample,
    sample_manifold,
    save_sample,
    self_averaging_audit,
    tangent_frames,
)
from .projections import (
    ChordScan,
    DistortionSummary,
    PrincipalAngles,
    Projector,
    SubspaceBasis,
    pointset_distortion,
    principal_angles,
    random_subspace,
    sample_projector,
    subspace_distortion,
    vector_distortion,
    weyl_gap,
)
from .cones import (
    VerificationReport,
    g_chordal,
    g_tangential,
    invert_g_chordal,
    invert_g_tangential,
    sample_chordal_boundary,
    sample_tangential_boundary,
    verify_chordal_guarantee,
    verify_tangential_guarantee,
)
from .bounds import (
    BoundQuery,
    BoundReport,
    TheoryConstants,
    bound_report,
    bw_underestimate,
    crossover_N,
    delta_long,
    delta_short,
    delta_total,
    jl_point_bound,
    jl_subspace_bound,
    lambert_w_minus1,
    m_star_bound,
    nv_underestimate,
    optimal_cell_sizes,
    prior_theory_inputs,
    theory_constants,
)
from .experiments import (
    FigureTable,
    MStarResult,
    distortion_distribution,
    epsilon_at_delta,
    figure_data,
    m_star_empirical,
    scaling_fit,
    spec_for_volume,
)
from .seeding import derive_seed
