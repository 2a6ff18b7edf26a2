"""Exact sampler and verification toolkit for the Bergman determinantal
point process restricted to radial regions of the unit disc."""

from .bounds import (
    BoundReport,
    build_bound_report,
    chernoff_lower,
    chernoff_upper,
    coincidence_probability,
    coupling_tail,
    default_bound_truncation,
    sufficiency_margin,
    truncation_constants,
    wasserstein_bound,
)
from .errors import (
    BergmanDPPError,
    DomainError,
    EnvelopeError,
    OrthogonalizationError,
    RegionError,
    RejectionBudgetError,
)
from .regions import (
    BoundaryRegion,
    ExplicitWeights,
    FamilyBuild,
    FamilySpec,
    GeometricWeights,
    PropertyReport,
    RadialRegion,
    TraceCheck,
    annulus,
    check_properties,
    construct_family,
    disc,
    family_trace_closed_form,
    finite_trace_check,
    make_region,
    parse_region_literal,
    region_measure,
    region_trace,
)
from .sampler import (
    ActiveIndexSet,
    PointConfiguration,
    SampleMeta,
    SamplerConfig,
    bernoulli_phase,
    default_truncation,
    min_radius_cdf,
    sample,
    sample_moduli,
    sample_positions,
)
from .spectral import BergmanSpectrum, GinibreSpectrum, bergman_kernel
from .streams import PHASE_BERNOULLI, PHASE_MODULI, PHASE_SAMPLE, make_rng
from .verify import (
    CountDistribution,
    CountStats,
    GofReport,
    bound_audit,
    chernoff_consistency,
    count_gof,
    count_pmf,
    intensity_profile_test,
    ks_critical_value,
    ks_statistic,
    mc_count_stats,
)

__version__ = "0.1.0"
