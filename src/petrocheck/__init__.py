"""Barrier certification and tip-regularity probes for the p-parabolic
equation du/dt = Lap_p u on shrinking cusp domains in R^n x (t0, 0)."""

from .calculus import (
    Params,
    SpaceTimeFunction,
    barenblatt,
    barenblatt_function,
    p_laplacian_radial_fd,
    p_laplacian_radial_power,
    residual,
)
from .domains import (
    DomainProfile,
    Gauge,
    envelope_gauge,
    gauge_of,
    make_profile,
    monotone_smooth_envelope,
    profile_from_csv,
    profile_from_samples,
    running_sup,
    scale_domain,
)
from .barriers import (
    BarrierSpec,
    b_const,
    c_max,
    degenerate_family_member,
    degenerate_irregularity_barrier,
    degenerate_small_data_barrier,
    find_family_threshold,
    m_const,
    make_barrier,
    singular_irregularity_barrier,
    singular_traditional_barrier,
    small_data_bound_g,
)
from .verify import (
    CertificateReport,
    check_barrier_family,
    check_comparison,
    check_scaling_equivariance,
    check_sign,
    make_cert_grid,
)
from .solver import (
    GridField,
    RegularityVerdict,
    SolverConfig,
    classify,
    probe_origin,
    solve_dirichlet,
)
from .errors import DomainError, SolverError

__version__ = "0.1.0"
