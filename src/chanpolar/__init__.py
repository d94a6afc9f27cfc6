"""Canonical Kraus decompositions, the unitary-decoherent polar
factorization of quantum channels, fidelity/unitarity figures of merit, and
numerical verification of the associated composition bounds."""

__version__ = "0.1.0"

from . import bounds, channel, errors, genlib, matcore, metrics, polar, suites
from .bounds import (
    CircuitSpec,
    LindbladSpec,
    coherent_envelope,
    optimize_unitary_correction,
)
from .channel import (
    KrausChannel,
    apply,
    canonical,
    compose,
    from_choi,
    lk,
    to_choi,
    to_superop,
    validate_cptp,
)
from .genlib import FamilySpec, make_channel, random_unitary
from .matcore import (
    BoundReport,
    HermitianEig,
    MatrixPolar,
    check_norm_inequality,
    check_trace_inequality,
    check_vn_inequality,
    hermitian_eig,
    polar_decompose,
)
from .metrics import (
    MetricsReport,
    avg_fidelity,
    haar_fidelity_mc,
    haar_unitarity_mc,
    infidelity,
    lk_gap_bounds,
    non_catastrophic,
    phi,
    unitarity,
    upsilon,
)
from .polar import (
    ChannelPolar,
    Classification,
    EquabilityReport,
    InfidelitySplit,
    channel_polar,
    channel_polars,
    classify,
    equability,
    infidelity_split,
    is_decoherence_limited,
    is_decoherent,
)

__all__ = [name for name in dir() if not name.startswith("_")]
