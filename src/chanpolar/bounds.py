"""Evaluators for the composition bounds and structure checks.

Each evaluator returns a :class:`BoundReport` whose ``terms`` dict itemizes
every summand of the bound expression.  Bounds that the source statements
abbreviate with higher-order-terms are evaluated with their explicit terms
only and carry ``hot_truncated=True``; in that regime the drivers restrict
sweeps to m^2 r_decoh^2 <= 0.1.

WSE-constant convention in multi-channel bounds: the decoherence constant
is the maximum over the elements (an explicit cap argument, when given,
overrides it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import channel as chn
from . import matcore, metrics
from .errors import (
    DimensionMismatch,
    NotDecoherent,
    NotNonCatastrophic,
    NotTraceless,
    PhaseUndefined,
    RatioOutOfRange,
    TargetNotUnitary,
)
from .polar import _spectrum_constants, channel_polar, is_decoherent

HOLDS_TOL = 1e-9


@dataclass
class BoundReport:
    """Observed value against its lower/upper envelope.

    ``holds`` is ``lower - 1e-9 <= observed <= upper + 1e-9``; slack fields
    are the distances to each side.  ``hot_truncated`` marks bounds whose
    source expression ends in omitted higher-order terms.
    """

    theorem: str
    observed: float
    lower: float
    upper: float
    slack_lower: float
    slack_upper: float
    holds: bool
    terms: dict = field(default_factory=dict)
    hot_truncated: bool = False

    def as_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "observed": self.observed,
            "lower": self.lower,
            "upper": self.upper,
            "slack_lower": self.slack_lower,
            "slack_upper": self.slack_upper,
            "holds": self.holds,
            "hot_truncated": self.hot_truncated,
            "terms": dict(self.terms),
        }


def make_report(
    theorem: str,
    observed: float,
    lower: float,
    upper: float,
    terms: dict | None = None,
    hot_truncated: bool = False,
) -> BoundReport:
    observed = float(observed)
    lower = float(lower)
    upper = float(upper)
    return BoundReport(
        theorem=theorem,
        observed=observed,
        lower=lower,
        upper=upper,
        slack_lower=observed - lower,
        slack_upper=upper - observed,
        holds=bool(lower - HOLDS_TOL <= observed <= upper + HOLDS_TOL),
        terms=terms or {},
        hot_truncated=hot_truncated,
    )


# ---------------------------------------------------------------------------
# circuits
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class CircuitSpec:
    """Ordered channels (index 0 applied first) with unitary targets."""

    channels: list
    targets: list | None = None

    def __post_init__(self):
        if not self.channels:
            raise ValueError("circuit needs at least one channel")
        dims = {c.dim for c in self.channels}
        if len(dims) != 1:
            raise DimensionMismatch("circuit channels must share a dimension")
        d = self.channels[0].dim
        if self.targets is None:
            self.targets = [np.eye(d, dtype=np.complex128)] * len(self.channels)
        else:
            if len(self.targets) != len(self.channels):
                raise DimensionMismatch("one target per channel required")
            self.targets = [metrics._check_target(t, d) for t in self.targets]
        self._data = None

    @property
    def dim(self) -> int:
        return self.channels[0].dim

    @property
    def depth(self) -> int:
        return len(self.channels)


def _wse_coh_constant(v: np.ndarray):
    """WSE coherence constant of a unitary, after fixing tr V in R+.

    ``v`` may carry leading stack axes (..., d, d); the constants then come
    back with those axes, equal item by item to single calls.  Where
    |tr V| <= 1e-9 the phase is undefined: a single matrix raises
    :class:`PhaseUndefined`, a stack reports 0 there.
    """
    t = np.trace(v, axis1=-2, axis2=-1)
    # np.hypot rounds like abs() of a complex scalar; np.abs of an array
    # may differ in the last bit
    r = np.hypot(t.real, t.imag)
    undefined = r <= 1e-9
    if v.ndim == 2 and undefined:
        raise PhaseUndefined("tr V ~ 0: coherence constant undefined")
    herm = v * (np.conj(t) / np.where(undefined, 1.0, r))[..., None, None]
    herm += np.swapaxes(herm, -1, -2).conj()
    herm /= 2.0
    gamma = _spectrum_constants(np.linalg.eigvalsh(herm))[1]
    return gamma if v.ndim == 2 else np.where(undefined, 0.0, gamma)


class _CircuitData:
    """Per-element and composite quantities shared by the evaluators."""

    def __init__(self, circuit: CircuitSpec):
        d = circuit.dim
        self.d = d
        self.m = circuit.depth
        self.canons = [chn.canonical(c) for c in circuit.channels]
        self.targets = circuit.targets
        self.w1 = np.array([c.w1 for c in self.canons])  # Upsilon(A_i*)
        self.s_star = float(np.sum(1.0 - self.w1))  # S* = sum_i (1 - Upsilon(A_i*))
        self.ups = np.array([metrics.upsilon(c) for c in self.canons])
        self.phis = np.array(
            [metrics.phi(c, t) for c, t in zip(self.canons, self.targets)]
        )
        self.polars = [channel_polar(c) for c in circuit.channels]
        self.sigmas = [p.singular_values for p in self.polars]
        self.mean_sigma = np.array([float(np.mean(s)) for s in self.sigmas])
        self.pert = 1.0 - self.mean_sigma  # 1 - sqrt(Phi(D_i*, I))
        self.gammas = np.array([_spectrum_constants(s)[1] for s in self.sigmas])
        self.composite = chn.compose(circuit.channels)
        u_c = np.eye(d, dtype=np.complex128)
        for t in self.targets:
            u_c = t @ u_c
        self.target_c = u_c
        self.phi_c = metrics.phi(self.composite, u_c)
        self.ups_c = metrics.upsilon(self.composite)
        lk_prod = chn.compose_lk(
            [chn.LKMap(dim=d, a1=c.a1, weight=c.w1) for c in self.canons]
        )
        self.lk_prod = lk_prod
        self.ups_star_c = lk_prod.weight  # Upsilon(A*_{m:1})
        self.phi_star_c = lk_prod.phi_to(u_c)  # Phi(A*_{m:1}, U_{m:1})

    def element_nc(self) -> bool:
        return bool(np.all(self.phis > 0.5) and np.all(self.ups**2 > 0.5))

    def composite_nc(self) -> bool:
        return bool(self.phi_c > 0.5 and self.ups_c**2 > 0.5)


def _data(circuit: CircuitSpec) -> _CircuitData:
    if circuit._data is None:
        circuit._data = _CircuitData(circuit)
    return circuit._data


def _require_nc(data: _CircuitData, require: bool = True):
    if require and not (data.element_nc() and data.composite_nc()):
        raise NotNonCatastrophic(
            "every element and the composition must satisfy Phi > 1/2 and "
            "Upsilon^2 > 1/2"
        )


def _phi_with_prefix(mat: np.ndarray, ch: chn.KrausChannel) -> float:
    """Phi of the channel prefixed by the matrix map K -> mat K, target I."""
    traces = np.einsum("ij,kji->k", mat, ch.kraus)
    return float(np.sum(np.abs(traces) ** 2) / ch.dim**2)


# ---------------------------------------------------------------------------
# evolution bounds
# ---------------------------------------------------------------------------


def thm1_uni_evo(circuit: CircuitSpec, require_noncatastrophic: bool = True) -> BoundReport:
    """Upsilon^2 gap between the composition and its per-element LK
    replacement: 0 <= Ups^2(A_{m:1}) - Ups^2(A*_{m:1}) <= (1 - Ups^2(A_{m:1}))^2.

    The operative upper bound is the outer expression of the asserted
    chain.  The intermediate form (1 - Ups(A*_{m:1}))^2 is itemized with
    its own flag: it is violated by stochastic compositions such as
    {sqrt(1-p) I, sqrt(p) X} repeated twice (the product Kraus family is
    not orthogonal, and its Gram cross terms push the gap past that
    expression), so it cannot serve as the verdict.
    """
    data = _data(circuit)
    _require_nc(data, require_noncatastrophic)
    observed = data.ups_c**2 - data.ups_star_c**2
    upper_strict = (1.0 - data.ups_star_c) ** 2
    upper = (1.0 - data.ups_c**2) ** 2
    return make_report(
        "thm1",
        observed,
        0.0,
        upper,
        terms={
            "upsilon2_composite": data.ups_c**2,
            "upsilon2_lk_composed": data.ups_star_c**2,
            "upper_intermediate_form": upper_strict,
            "holds_intermediate_form": float(observed <= upper_strict + HOLDS_TOL),
        },
        hot_truncated=False,
    )


def thm2_fid_evo(circuit: CircuitSpec, require_noncatastrophic: bool = True) -> BoundReport:
    """Phi gap between the composition and its LK replacement.

    The reported upper bound is the complete star-free form
    1/2 S^2 + (1 - Phi) S + 1/2 S^3 + (1 - Phi*) S^2 with
    S = sum_i (1 - Upsilon^2(A_i)); the tighter star form
    (1 - Phi*) S* + 1/2 S*^2 with S* = sum_i (1 - Upsilon(A_i*)) is
    itemized in the terms.
    """
    data = _data(circuit)
    _require_nc(data, require_noncatastrophic)
    observed = data.phi_c - data.phi_star_c
    upper_star = (1.0 - data.phi_star_c) * data.s_star + 0.5 * data.s_star**2
    s2 = float(np.sum(1.0 - data.ups**2))
    upper_full = (
        0.5 * s2**2
        + (1.0 - data.phi_c) * s2
        + 0.5 * s2**3
        + (1.0 - data.phi_star_c) * s2**2
    )
    return make_report(
        "thm2",
        observed,
        0.0,
        upper_full,
        terms={
            "phi_composite": data.phi_c,
            "phi_lk_composed": data.phi_star_c,
            "upper_star_form": upper_star,
            "sum_one_minus_w1": data.s_star,
            "sum_one_minus_ups2": s2,
            "holds_star_form": float(observed <= upper_star + HOLDS_TOL),
        },
        hot_truncated=False,
    )


def _require_decoherent(circuit: CircuitSpec):
    d = circuit.dim
    eye = np.eye(d)
    for i, (c, t) in enumerate(zip(circuit.channels, circuit.targets)):
        if np.linalg.norm(t - eye) > 1e-9 * np.sqrt(d):
            raise TargetNotUnitary(
                "decoherent-composition bounds are identity-target statements; "
                f"element {i} carries a non-identity target"
            )
        if not is_decoherent(c):
            raise NotDecoherent(f"circuit element {i} is not decoherent")


def thm4_decoherent_features(
    circuit: CircuitSpec, v=None
) -> tuple[BoundReport, BoundReport]:
    """Quasi-monotonicity and quasi-subadditivity of decoherent
    compositions, optionally prefixed by a unitary v (defaults to I)."""
    _require_decoherent(circuit)
    data = _data(circuit)
    _require_nc(data)
    d = data.d
    v = metrics._check_target(v, d)
    phi_tot = _phi_with_prefix(v, data.composite)
    phi_vstar = float(abs(np.trace(v @ data.lk_prod.a1)) ** 2 / d**2)
    quad = 0.5 * data.s_star**2 + (1.0 - phi_vstar) * data.s_star
    mono = make_report(
        "thm4_quasi_monotonicity",
        phi_tot,
        0.0,
        float(np.min(data.phis)) + quad,
        terms={
            "min_phi_element": float(np.min(data.phis)),
            "half_sum_sq": 0.5 * data.s_star**2,
            "one_minus_phi_vstar_times_sum": (1.0 - phi_vstar) * data.s_star,
        },
        hot_truncated=False,
    )
    phi_v = float(abs(np.trace(v)) ** 2 / d**2)
    phi_star_els = data.mean_sigma**2  # Phi(D_i*, I)
    sub_upper = (
        (1.0 - phi_v)
        + float(np.sum(1.0 - data.phis))
        + (1.0 - phi_v) ** 2
        + float(np.sum((1.0 - phi_star_els) ** 2))
        + float(np.sum((1.0 - data.phis) * (1.0 - data.ups**2)))
    )
    sub = make_report(
        "thm4_quasi_subadditivity",
        1.0 - phi_tot,
        0.0,
        sub_upper,
        terms={
            "one_minus_phi_v": 1.0 - phi_v,
            "sum_one_minus_phi": float(np.sum(1.0 - data.phis)),
            "one_minus_phi_v_sq": (1.0 - phi_v) ** 2,
            "sum_one_minus_phi_star_sq": float(np.sum((1.0 - phi_star_els) ** 2)),
            "sum_cross": float(np.sum((1.0 - data.phis) * (1.0 - data.ups**2))),
        },
        hot_truncated=False,
    )
    return mono, sub


def thm5_unitarity_decay(
    circuit: CircuitSpec,
    gamma_decoh_cap: float | None = None,
    require_noncatastrophic: bool = True,
) -> BoundReport:
    """Decay law |Upsilon(A_{m:1}) - prod Upsilon(A_i)| with the four-term
    WSE envelope (gamma terms evaluated on E[sigma_i] = sqrt(Phi(D_i*, I)),
    the form the derivation actually controls)."""
    data = _data(circuit)
    _require_nc(data, require_noncatastrophic)
    gamma = float(np.max(data.gammas)) if gamma_decoh_cap is None else float(gamma_decoh_cap)
    prod_ups = float(np.prod(data.ups))
    observed = abs(data.ups_c - prod_ups)
    t1 = (1.0 - data.ups_star_c) ** 2
    t2 = float(np.sum((1.0 - data.w1) ** 2))
    t3 = gamma**2 * float(np.sum(data.pert**2))
    t4 = 2.0 * gamma**2 * float(np.sum(data.pert)) ** 2
    upper = t1 + t2 + t3 + t4
    d2 = data.d**2
    u_c = (d2 * data.ups_c**2 - 1.0) / (d2 - 1.0)
    u_prod = float(np.prod((d2 * data.ups**2 - 1.0) / (d2 - 1.0)))
    qm_rhs = float(np.min(data.ups)) + (1.0 - data.ups_c**2) ** 2 / np.sqrt(2.0)
    qs_rhs = float(np.sum((1.0 - data.ups) + (1.0 - data.ups**2) ** 2))
    return make_report(
        "thm5",
        observed,
        0.0,
        upper,
        terms={
            "one_minus_ups_star_sq": t1,
            "sum_one_minus_w1_sq": t2,
            "gamma2_sum_pert_sq": t3,
            "two_gamma2_sum_pert_all_sq": t4,
            "gamma_decoh": gamma,
            "upsilon_composite": data.ups_c,
            "upsilon_product": prod_ups,
            "u_composite": u_c,
            "u_product": u_prod,
            "u_gap": abs(u_c - u_prod),
            "quasi_monotonicity_rhs": qm_rhs,
            "quasi_monotonicity_holds": float(data.ups_c <= qm_rhs + HOLDS_TOL),
            "quasi_subadditivity_rhs": qs_rhs,
            "quasi_subadditivity_holds": float(
                1.0 - data.ups_c <= qs_rhs + HOLDS_TOL
            ),
        },
        hot_truncated=True,
    )


def thm6_fidelity_decay(circuit: CircuitSpec) -> BoundReport:
    """Decay law |Phi(D_{m:1}, I) - prod Phi(D_i, I)| for decoherent
    compositions, with the four-term WSE envelope."""
    _require_decoherent(circuit)
    data = _data(circuit)
    _require_nc(data)
    gamma = float(np.max(data.gammas))
    prod_phi = float(np.prod(data.phis))
    observed = abs(data.phi_c - prod_phi)
    t1 = 0.5 * data.s_star**2
    t2 = (1.0 - data.phi_star_c) * data.s_star
    t3 = float(np.sum((1.0 - data.w1) * (1.0 - data.phis)))
    t4 = gamma**2 * float(np.prod(data.mean_sigma)) * float(np.sum(data.pert)) ** 2
    hot_gamma4 = 0.25 * gamma**4 * float(np.sum(data.pert)) ** 4
    upper = t1 + t2 + t3 + t4
    return make_report(
        "thm6",
        observed,
        0.0,
        upper,
        terms={
            "half_sum_sq": t1,
            "one_minus_phi_star_times_sum": t2,
            "sum_cross": t3,
            "gamma2_term": t4,
            "gamma_decoh": gamma,
            "phi_composite": data.phi_c,
            "phi_product": prod_phi,
            "hot_gamma4_term": hot_gamma4,
        },
        hot_truncated=True,
    )


def thm7_max_correction(
    ch: chn.KrausChannel,
    target=None,
    budget: int = 500,
    seed: int = 0,
    optimize: bool = True,
) -> BoundReport:
    """Quasi-maximal unitary correction.

    ``observed`` is Phi(W0 o A, U) with W0 = U o V^dag from the channel
    polar decomposition; the interval is
    [Upsilon^2 - (1-Upsilon^2)^2, Upsilon + 3/2 (1-Upsilon^2)^2].  The
    WSE-refined lower bound and the numerically optimized correction are
    itemized in the terms.
    """
    d = ch.dim
    u = metrics._check_target(target, d)
    if not metrics.non_catastrophic(ch, u):
        raise NotNonCatastrophic("channel must be non-catastrophic")
    pol = channel_polar(ch)
    observed = _phi_with_prefix(pol.unitary.conj().T, chn.canonical(ch))
    ups = metrics.upsilon(ch)
    gap = 1.0 - ups**2
    lower = ups**2 - gap**2
    upper = ups + 1.5 * gap**2
    gamma = _spectrum_constants(pol.singular_values)[1]
    lower_wse = ups - (1.0 + gamma**2) * gap**2
    terms = {
        "upsilon": ups,
        "lower_wse": lower_wse,
        "gamma_decoh": gamma,
        "phi_w0": observed,
    }
    holds_extra = True
    if optimize:
        opt = optimize_unitary_correction(ch, target=u, budget=budget, seed=seed)
        terms["phi_optimized"] = opt.phi_achieved
        terms["optimizer_improvement"] = opt.phi_achieved - observed
        holds_extra = opt.phi_achieved <= upper + HOLDS_TOL
    rep = make_report("thm7", observed, lower, upper, terms=terms, hot_truncated=False)
    rep.holds = bool(rep.holds and holds_extra)
    return rep


def thm8_equable_composition(
    v,
    circuit: CircuitSpec,
    require_noncatastrophic: bool = True,
) -> BoundReport:
    """|Phi(V o D_{m:1}, I) - Phi(V, I) prod Phi(D_i, I)| with the
    five-term WSE envelope.  The band centre Phi(V, I) prod Phi(D_i, I) is
    itemized for sweep overlays."""
    _require_decoherent(circuit)
    data = _data(circuit)
    d = data.d
    v = metrics._check_target(v, d)
    phi_tot = _phi_with_prefix(v, data.composite)
    ups_tot = metrics.upsilon(data.composite)  # v does not change Upsilon
    if require_noncatastrophic:
        if not data.element_nc() or not (phi_tot > 0.5 and ups_tot**2 > 0.5):
            raise NotNonCatastrophic(
                "elements and the prefixed composition must be non-catastrophic"
            )
    phi_v = float(abs(np.trace(v)) ** 2 / d**2)
    gamma_d = float(np.max(data.gammas))
    gamma_c = _wse_coh_constant(v)
    centre = phi_v * float(np.prod(data.phis))
    observed = abs(phi_tot - centre)
    phi_vstar = float(abs(np.trace(v @ data.lk_prod.a1)) ** 2 / d**2)
    t1 = 0.5 * data.s_star**2
    t2 = (1.0 - phi_vstar) * data.s_star
    t3 = float(np.sum((1.0 - data.w1) * (1.0 - data.phis)))
    t4 = (
        2.0
        * gamma_d
        * gamma_c
        * (1.0 - np.sqrt(phi_v))
        * float(np.sum(data.pert))
    )
    t5 = gamma_d**2 * float(np.sum(data.pert)) ** 2
    upper = t1 + t2 + t3 + t4 + t5
    return make_report(
        "thm8",
        observed,
        0.0,
        upper,
        terms={
            "half_sum_sq": t1,
            "one_minus_phi_vstar_times_sum": t2,
            "sum_cross": t3,
            "gamma_cross_term": t4,
            "gamma_d2_term": t5,
            "gamma_decoh": gamma_d,
            "gamma_coh": gamma_c,
            "band_centre": centre,
            "phi_total": phi_tot,
            "phi_v": phi_v,
            "noncatastrophic": float(phi_tot > 0.5 and ups_tot**2 > 0.5),
        },
        hot_truncated=True,
    )


def thm9_max_correction_multi(
    circuit: CircuitSpec, require_noncatastrophic: bool = True
) -> BoundReport:
    """Quasi-optimal multi-element correction W0 = U_{m:1} o (V_{m:1})^dag.

    ``observed`` is Phi(W0 o A_{m:1}, U_{m:1}); the envelope brackets it
    around prod Upsilon(A_i) with the displayed explicit terms.
    """
    data = _data(circuit)
    _require_nc(data, require_noncatastrophic)
    d = data.d
    v_c = np.eye(d, dtype=np.complex128)
    for p in data.polars:
        v_c = p.unitary @ v_c
    observed = _phi_with_prefix(v_c.conj().T, data.composite)
    gamma = float(np.max(data.gammas))
    prod_ups = float(np.prod(data.ups))
    sum_w1_sq = float(np.sum((1.0 - data.w1) ** 2))
    up = (
        0.5 * data.s_star**2
        + sum_w1_sq
        + data.s_star * (1.0 - prod_ups)
        + 2.0 * gamma**2 * float(np.sum(data.pert)) ** 2
    )
    low = -(
        gamma**2 * float(np.sum(data.pert**2))
        + sum_w1_sq
        + gamma**2 * float(np.prod(data.mean_sigma)) * float(np.sum(data.pert)) ** 2
    )
    return make_report(
        "thm9",
        observed,
        prod_ups + low,
        prod_ups + up,
        terms={
            "prod_upsilon": prod_ups,
            "upper_delta": up,
            "lower_delta": low,
            "gamma_decoh": gamma,
            "phi_w0": observed,
        },
        hot_truncated=True,
    )


# ---------------------------------------------------------------------------
# coherent envelopes
# ---------------------------------------------------------------------------


@dataclass
class EnvelopeBounds:
    """Lower/upper envelope for the composite Phi, plus a clip flag."""

    lower: float
    upper: float
    clipped: bool


def coherent_envelope(
    ratios: Sequence[float],
    d: int,
    upsilons: Sequence[float] | None = None,
    parity: str | None = None,
) -> EnvelopeBounds:
    """Best/worst composite Phi from per-element ratios Phi_i / Upsilon_i.

    Even dimensions use cos^2(sum arccos sqrt(x_i)) * prod Upsilon; odd
    dimensions the ((d-1) cos(sum arccos((d sqrt(x_i) - 1)/(d-1))) + 1)^2
    / d^2 form.  Ratios must lie in (1/2, 1]; arccos arguments that exceed
    the domain by float noise are clipped and flagged, and accumulated
    angles beyond the point where the envelope reaches zero clamp the lower
    bound to zero (also flagged).
    """
    x = np.asarray(ratios, dtype=np.float64)
    if x.size == 0:
        raise ValueError("need at least one ratio")
    if d < 2:
        raise ValueError("d must be >= 2")
    if np.any(x <= 0.5) or np.any(x > 1.0 + 1e-9):
        raise RatioOutOfRange("each Phi/Upsilon ratio must lie in (1/2, 1]")
    ups_prod = float(np.prod(upsilons)) if upsilons is not None else 1.0
    clipped = bool(np.any(x > 1.0))
    if parity is None:
        parity = "even" if d % 2 == 0 else "odd"
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    if parity == "even":
        args = np.sqrt(np.minimum(x, 1.0))
        total = float(np.sum(np.arccos(args)))
        if total >= np.pi / 2.0:
            total = np.pi / 2.0
            clipped = True
        lower = float(np.cos(total) ** 2) * ups_prod
    else:
        args = (d * np.sqrt(np.minimum(x, 1.0)) - 1.0) / (d - 1.0)
        if np.any(args < -1.0):
            args = np.maximum(args, -1.0)
            clipped = True
        total = float(np.sum(np.arccos(args)))
        cap = float(np.arccos(-1.0 / (d - 1.0)))
        if total >= cap:
            total = cap
            clipped = True
        lower = float(((d - 1.0) * np.cos(total) + 1.0) ** 2 / d**2) * ups_prod
    return EnvelopeBounds(lower=lower, upper=ups_prod, clipped=clipped)


# ---------------------------------------------------------------------------
# numerical unitary-correction oracle
# ---------------------------------------------------------------------------


def traceless_hermitian_basis(d: int) -> np.ndarray:
    """Generalized Gell-Mann basis: d^2 - 1 traceless Hermitian matrices,
    orthonormal under the Hilbert-Schmidt inner product."""
    out = []
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=np.complex128)
            m[i, j] = m[j, i] = 1.0 / np.sqrt(2.0)
            out.append(m)
            m = np.zeros((d, d), dtype=np.complex128)
            m[i, j] = -1j / np.sqrt(2.0)
            m[j, i] = 1j / np.sqrt(2.0)
            out.append(m)
    for k in range(1, d):
        diag = np.array([1.0] * k + [-float(k)] + [0.0] * (d - k - 1))
        m = np.diag(diag).astype(np.complex128) / np.sqrt(k * (k + 1.0))
        out.append(m)
    return np.stack(out)


@dataclass
class UnitaryCorrection:
    """Best unitary correction found by local ascent."""

    unitary: np.ndarray
    phi_achieved: float
    evaluations: int
    budget_exhausted: bool
    improvement: float


def optimize_unitary_correction(
    ch: chn.KrausChannel,
    target=None,
    budget: int = 500,
    seed: int = 0,
    initial_step: float = 0.1,
) -> UnitaryCorrection:
    """Seeded local ascent of Phi(W o A, U) over W in SU(d).

    Parameterizes W = exp(-i sum_a x_a B_a) W0 over the traceless Hermitian
    basis, seeded at the polar correction W0 = U V^dag.  Deterministic for a
    given seed; the best value is non-decreasing in the budget (candidate
    proposals form a budget-independent prefix sequence).
    """
    d = ch.dim
    if d > 8:
        raise ValueError("optimizer is guarded to d <= 8")
    u = metrics._check_target(target, d)
    pol = channel_polar(ch)
    w0 = u @ pol.unitary.conj().T
    uc = u.conj().T
    basis = traceless_hermitian_basis(d)
    nb = basis.shape[0]
    rng = np.random.default_rng(seed)

    def w_at(x: np.ndarray) -> np.ndarray:
        h = np.tensordot(x, basis, axes=(0, 0))
        vals, vecs = np.linalg.eigh(h)
        return (vecs * np.exp(-1j * vals)) @ vecs.conj().T @ w0

    x = np.zeros(nb)
    best_x = x
    best = _phi_with_prefix(uc @ w0, ch)
    f_w0 = best
    evals = 1
    step = initial_step
    fails = 0
    exhausted = False
    while step > 1e-9:
        if evals >= budget:
            exhausted = True
            break
        direction = rng.standard_normal(nb)
        direction /= np.linalg.norm(direction)
        improved = False
        for sign in (1.0, -1.0):
            if evals >= budget:
                exhausted = True
                break
            cand = best_x + sign * step * direction
            val = _phi_with_prefix(uc @ w_at(cand), ch)
            evals += 1
            if val > best:
                best = val
                best_x = cand
                improved = True
                break
        if improved:
            step *= 1.3
            fails = 0
        else:
            fails += 1
            if fails >= 2:
                step *= 0.5
                fails = 0
    return UnitaryCorrection(
        unitary=w_at(best_x),
        phi_achieved=best,
        evaluations=evals,
        budget_exhausted=exhausted,
        improvement=best - f_w0,
    )


# ---------------------------------------------------------------------------
# Lindblad structure
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class LindbladSpec:
    """Generator data: Hermitian H plus jump operators L_k."""

    dim: int
    hamiltonian: np.ndarray
    lindblad_ops: list

    def __post_init__(self):
        h = matcore.as_complex_matrix(self.hamiltonian, "H")
        if h.shape != (self.dim, self.dim):
            raise DimensionMismatch("H dimension mismatch")
        if np.linalg.norm(h - h.conj().T) > 1e-9 * max(np.linalg.norm(h), 1.0):
            raise ValueError("H must be Hermitian within 1e-9")
        self.hamiltonian = h
        ops = [matcore.as_complex_matrix(l, "L") for l in self.lindblad_ops]
        for l in ops:
            if l.shape != (self.dim, self.dim):
                raise DimensionMismatch("Lindblad operator dimension mismatch")
        self.lindblad_ops = ops


def _lindblad_terms(spec: LindbladSpec):
    d = spec.dim
    eye = np.eye(d, dtype=np.complex128)
    h = spec.hamiltonian
    t1 = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    acc = np.zeros((d, d), dtype=np.complex128)
    t3 = np.zeros((d * d, d * d), dtype=np.complex128)
    for l in spec.lindblad_ops:
        acc += l.conj().T @ l
        t3 += np.kron(l.conj(), l)
    t2 = -0.5 * (np.kron(eye, acc) + np.kron(acc.T, eye))
    return t1, t2, t3


def lindblad_superop(spec: LindbladSpec) -> np.ndarray:
    """Full generator matrix on column-stacked states (sum of the three
    terms); valid for traceful jump operators too."""
    t1, t2, t3 = _lindblad_terms(spec)
    return t1 + t2 + t3


@dataclass
class LindbladStructure:
    """The three generator terms and their pairwise overlaps."""

    term_hamiltonian: np.ndarray
    term_anticommutator: np.ndarray
    term_jump: np.ndarray
    inner_products: dict
    orthogonal: bool


def lindblad_structure(spec: LindbladSpec, tol: float = 1e-9) -> LindbladStructure:
    """Build the three vectorized generator terms and check their mutual
    orthogonality.  Requires traceless jump operators (canonicalize first
    otherwise); orthogonality means |<X, Y>| <= tol ||X|| ||Y|| pairwise."""
    for i, l in enumerate(spec.lindblad_ops):
        if abs(np.trace(l)) > 1e-9 * max(np.linalg.norm(l), 1.0):
            raise NotTraceless(
                f"Lindblad operator {i} has trace {np.trace(l):.3e}; "
                "call canonicalize_lindblad first"
            )
    t1, t2, t3 = _lindblad_terms(spec)
    names = ("hamiltonian", "anticommutator", "jump")
    mats = (t1, t2, t3)
    inner = {}
    ok = True
    for a in range(3):
        for b in range(a + 1, 3):
            ip = complex(np.trace(mats[a].conj().T @ mats[b]))
            inner[f"{names[a]}.{names[b]}"] = ip
            bound = tol * np.linalg.norm(mats[a]) * np.linalg.norm(mats[b])
            if abs(ip) > bound:
                ok = False
    return LindbladStructure(
        term_hamiltonian=t1,
        term_anticommutator=t2,
        term_jump=t3,
        inner_products=inner,
        orthogonal=ok,
    )


def canonicalize_lindblad(spec: LindbladSpec) -> LindbladSpec:
    """Equivalent generator with traceless jump operators.

    Shifts L_k -> L_k - (tr L_k / d) I and absorbs the displacement into
    the Hamiltonian, H -> H + (i/2) sum_k (c_k^* L_k' - c_k L_k'^dag); the
    full generator matrix is unchanged.
    """
    d = spec.dim
    eye = np.eye(d, dtype=np.complex128)
    h = spec.hamiltonian.copy()
    new_ops = []
    for l in spec.lindblad_ops:
        c = np.trace(l) / d
        lp = l - c * eye
        new_ops.append(lp)
        h = h + (1j / 2.0) * (np.conj(c) * lp - c * lp.conj().T)
    h = (h + h.conj().T) / 2.0
    return LindbladSpec(dim=d, hamiltonian=h, lindblad_ops=new_ops)
