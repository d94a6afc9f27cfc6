"""Evaluators for the composition bounds and structure checks.

Each evaluator returns a :class:`BoundReport` whose ``terms`` dict itemizes
every summand of the bound expression.  Bounds that the source statements
abbreviate with higher-order-terms are evaluated with their explicit terms
only and carry ``hot_truncated=True``.  Of the drivers, only
``suites.theorem_suite`` keeps to that regime: its circuits draw element
infidelities r with m^2 r^2 <= 0.1.  ``suites.composition_sweep`` runs to
its ``max_depth`` and flags the rows past the non-catastrophic horizon.

WSE-constant convention in multi-channel bounds: the decoherence constant
is the maximum over the elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from . import channel as chn
from . import matcore, metrics
from .errors import (
    DimensionMismatch,
    NotDecoherent,
    NotHermitian,
    NotNonCatastrophic,
    NotTraceless,
    PhaseUndefined,
    RatioOutOfRange,
    TargetNotUnitary,
)
from .matcore import HOLDS_TOL, BoundReport, make_report
from .polar import _decoherent, _spectrum_constants, channel_polar, channel_polars

_CORRECTION_MAX_STEPS = 50  # polar-ascent steps of optimize_unitary_correction


# ---------------------------------------------------------------------------
# circuits
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class CircuitSpec:
    """Ordered channels (index 0 applied first) with unitary targets, read-only after
    the first evaluation, which caches in ``_data`` the composite, the per-element
    quantities and the target and decoherence checks.  A refused decoherent evaluation
    primes the circuit first, so a catastrophic element's warning can precede it."""

    channels: list
    targets: list | None = None

    def __post_init__(self):
        if not self.channels:
            raise DimensionMismatch("circuit needs at least one channel")
        dims = {c.dim for c in self.channels}
        if len(dims) != 1:
            raise DimensionMismatch("circuit channels must share a dimension")
        d = self.channels[0].dim
        if self.targets is None:
            self.targets = [np.eye(d, dtype=np.complex128)] * len(self.channels)
        else:
            if len(self.targets) != len(self.channels):
                raise DimensionMismatch("one target per channel required")
            self.targets = [metrics._as_target(t, d) for t in self.targets]  # shapes one by one
            metrics._check_targets(np.array(self.targets), d)  # then all unitarities at once
        self._data = None

    @property
    def dim(self) -> int:
        return self.channels[0].dim


def _wse_coh_constant(v: np.ndarray):
    """WSE coherence constant of a unitary, after fixing tr V in R+.

    ``v`` may carry leading stack axes (..., d, d); the constants then come
    back with those axes, equal item by item to single calls.  Where
    |tr V| <= ``matcore.PHASE_TRACE_TOL`` the phase is undefined: a single
    matrix raises :class:`PhaseUndefined`, a stack reports 0 there.
    """
    phase, ok = matcore._trace_phase(v)
    if v.ndim == 2 and not ok:
        raise PhaseUndefined("tr V ~ 0: coherence constant undefined")
    herm_spec = matcore._hermitian_part_spectrum(v * np.conj(phase)[..., None, None])
    gamma = _spectrum_constants(herm_spec)[1]
    return gamma if v.ndim == 2 else np.where(ok, gamma, 0.0)


def _circuit_product(mats, d: int) -> np.ndarray:
    """M_m ... M_2 M_1 of d x d matrices in circuit order (index 0 first),
    multiplied onto the identity one at a time."""
    acc = np.eye(d, dtype=np.complex128)
    for m in mats:
        acc = m @ acc
    return acc


def _prime(circuits) -> None:
    """Set ``_data`` on each circuit, all of one dimension, to the per-element and composite
    quantities the evaluators share, each from one stack (a circuit's sums and products run
    over its slice): :func:`channel_polars`, :func:`chn._compose_circuits`, Phi, Upsilon, the
    LK constants and the tests of decoherence (A_1), identity targets and composite unitarity."""
    d, n = circuits[0].dim, sum(len(c.channels) for c in circuits)
    els = [ch for c in circuits for ch in c.channels]
    targets = [t for c in circuits for t in c.targets]
    polars = channel_polars(els)
    composites = chn._compose_circuits([c.channels for c in circuits])
    canons = chn._canonicalize(els)
    a1s = np.array([c.a1 for c in canons])
    off = (matcore._norms(np.array(targets) - np.eye(d)) > 1e-9 * np.sqrt(d)).tolist()
    decoh = _decoherent(a1s)
    u_cs = metrics._check_targets(np.array([_circuit_product(c.targets, d) for c in circuits]), d)
    ups = metrics._upsilons(canons + composites)
    phis = metrics._phis(canons + composites, targets + list(u_cs))
    # the (n, d) LK singular values; a row's statistics have the bits of a call on it alone
    sigmas = np.array([p.singular_values for p in polars])
    mean_sigma, gammas = np.mean(sigmas, axis=-1), _spectrum_constants(sigmas)[1]
    one_minus_w1 = 1.0 - np.array([c.w1 for c in canons])  # 1 - Upsilon(A_i*)
    nc = metrics._nc_regime(phis, ups)
    cuts = np.cumsum([0] + [len(c.channels) for c in circuits]).tolist()
    # A*_{m:1}, the composed LK maps, is the one-operator map of a1_c
    a1_cs = np.array([_circuit_product(a1s[a:b], d) for a, b in zip(cuts, cuts[1:])])
    ups_star = (matcore._squares(matcore._norms(a1_cs)) / d).tolist()  # Upsilon(A*_{m:1})
    phi_star = metrics._overlaps(np.conj(u_cs).swapaxes(-1, -2) @ a1_cs)  # Phi(A*, U_{m:1})
    for i, (circuit, a, b) in enumerate(zip(circuits, cuts, cuts[1:])):
        s_star = float(np.sum(one_minus_w1[a:b]))  # S* = sum_i (1 - Upsilon(A_i*))
        pert = 1.0 - mean_sigma[a:b]  # 1 - sqrt(Phi(D_i*, I))
        phi_c, ups_c = phis[n + i].item(), ups[n + i].item()
        circuit._data = SimpleNamespace(
            d=d, polars=polars[a:b], composite=composites[i], ups=ups[a:b], phis=phis[a:b],
            mean_sigma=mean_sigma[a:b], pert=pert, s_star=s_star, pert_sum=float(np.sum(pert)),
            half_s_star_sq=0.5 * s_star**2, gamma_max=float(np.max(gammas[a:b])),
            prod_ups=float(np.prod(ups[a:b])), sum_w1_sq=float(np.sum(one_minus_w1[a:b] ** 2)),
            sum_cross=float(np.sum(one_minus_w1[a:b] * (1.0 - phis[a:b]))), phi_c=phi_c,
            ups_c=ups_c, a1_c=a1_cs[i], ups_star_c=ups_star[i], phi_star_c=phi_star[i],
            element_nc=bool(np.all(nc[a:b])), composite_nc=bool(metrics._nc_regime(phi_c, ups_c)),
            off_target=off[a:b], decoherent=decoh[a:b])


def _data(circuit: CircuitSpec) -> SimpleNamespace:
    if circuit._data is None:
        _prime([circuit])
    return circuit._data


def _require_nc(data: SimpleNamespace):
    if not (data.element_nc and data.composite_nc):
        raise NotNonCatastrophic(
            "every element and the composition must satisfy Phi > 1/2 and "
            "Upsilon^2 > 1/2"
        )


# ---------------------------------------------------------------------------
# evolution bounds
# ---------------------------------------------------------------------------


def thm1_uni_evo(circuit: CircuitSpec) -> BoundReport:
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
    _require_nc(data)
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
    )


def thm2_fid_evo(circuit: CircuitSpec) -> BoundReport:
    """Phi gap between the composition and its LK replacement.

    The reported upper bound is the complete star-free form
    1/2 S^2 + (1 - Phi) S + 1/2 S^3 + (1 - Phi*) S^2 with
    S = sum_i (1 - Upsilon^2(A_i)); the tighter star form
    (1 - Phi*) S* + 1/2 S*^2 with S* = sum_i (1 - Upsilon(A_i*)) is
    itemized in the terms.
    """
    data = _data(circuit)
    _require_nc(data)
    observed = data.phi_c - data.phi_star_c
    upper_star = (1.0 - data.phi_star_c) * data.s_star + data.half_s_star_sq
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
    )


def _require_decoherent(data: SimpleNamespace):
    """Raise for the first element, in circuit order, with a non-identity target
    (checked first) or a leading operator that is not decoherent, from the tests
    that :func:`_prime` ran over the circuit's run."""
    for i, (o, dc) in enumerate(zip(data.off_target, data.decoherent)):
        if o:
            raise TargetNotUnitary(
                "decoherent-composition bounds are identity-target statements; "
                f"element {i} carries a non-identity target"
            )
        if not dc:
            raise NotDecoherent(f"circuit element {i} is not decoherent")


def thm4_decoherent_features(
    circuit: CircuitSpec, v=None
) -> tuple[BoundReport, BoundReport]:
    """Quasi-monotonicity and quasi-subadditivity of decoherent
    compositions, optionally prefixed by a unitary v (defaults to I)."""
    data = _data(circuit)
    _require_decoherent(data)
    _require_nc(data)
    d = data.d
    v = metrics._check_target(v, d)
    phi_tot = metrics._phi_with_prefix(v, data.composite.kraus)
    phi_vstar, phi_v = metrics._overlaps(np.array([v @ data.a1_c, v]))
    terms = {
        "min_phi_element": float(np.min(data.phis)),
        "half_sum_sq": data.half_s_star_sq,
        "one_minus_phi_vstar_times_sum": (1.0 - phi_vstar) * data.s_star,
    }
    t1, t2, t3 = terms.values()
    mono = make_report(
        "thm4_quasi_monotonicity", phi_tot, 0.0, t1 + (t2 + t3), terms=terms
    )
    phi_star_els = data.mean_sigma**2  # Phi(D_i*, I)
    terms = {
        "one_minus_phi_v": 1.0 - phi_v,
        "sum_one_minus_phi": float(np.sum(1.0 - data.phis)),
        "one_minus_phi_v_sq": (1.0 - phi_v) ** 2,
        "sum_one_minus_phi_star_sq": float(np.sum((1.0 - phi_star_els) ** 2)),
        "sum_cross": float(np.sum((1.0 - data.phis) * (1.0 - data.ups**2))),
    }
    t1, t2, t3, t4, t5 = terms.values()  # summed left to right
    sub = make_report(
        "thm4_quasi_subadditivity", 1.0 - phi_tot, 0.0, t1 + t2 + t3 + t4 + t5,
        terms=terms,
    )
    return mono, sub


def thm5_unitarity_decay(circuit: CircuitSpec) -> BoundReport:
    """Decay law |Upsilon(A_{m:1}) - prod Upsilon(A_i)| with the four-term
    WSE envelope (gamma terms evaluated on E[sigma_i] = sqrt(Phi(D_i*, I)),
    the form the derivation actually controls)."""
    data = _data(circuit)
    _require_nc(data)
    gamma = data.gamma_max
    prod_ups = data.prod_ups
    observed = abs(data.ups_c - prod_ups)
    t1 = (1.0 - data.ups_star_c) ** 2
    t2 = data.sum_w1_sq
    t3 = gamma**2 * float(np.sum(data.pert**2))
    t4 = 2.0 * gamma**2 * data.pert_sum**2
    upper = t1 + t2 + t3 + t4
    u_c = metrics.unitarity(data.ups_c, data.d)
    u_prod = float(np.prod(metrics.unitarity(data.ups, data.d)))
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
    data = _data(circuit)
    _require_decoherent(data)
    _require_nc(data)
    gamma = data.gamma_max
    prod_phi = float(np.prod(data.phis))
    observed = abs(data.phi_c - prod_phi)
    t1 = data.half_s_star_sq
    t2 = (1.0 - data.phi_star_c) * data.s_star
    t3 = data.sum_cross
    t4 = gamma**2 * float(np.prod(data.mean_sigma)) * data.pert_sum**2
    hot_gamma4 = 0.25 * gamma**4 * data.pert_sum**4
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


def thm7_max_correction(ch: chn.KrausChannel, target=None) -> BoundReport:
    """Quasi-maximal unitary correction.

    ``observed`` is Phi(W0 o A, U) with W0 = U o V^dag from the channel
    polar decomposition; the interval is
    [Upsilon^2 - (1-Upsilon^2)^2, Upsilon + 3/2 (1-Upsilon^2)^2].  The
    WSE-refined lower bound and the correction reached by
    :func:`optimize_unitary_correction` are itemized in the terms; ``holds``
    also requires that correction's Phi to stay below the upper end.

    ``optimizer_improvement`` can be negative, down to about -2e-15:
    ``phi_w0`` takes Phi on the canonical Kraus operators with prefix V^dag,
    the ascent's start on the input ones with prefix U^dag U V^dag, and the
    ascent never falls below its own start.
    """
    return next(_thm7_reports([ch], metrics._check_target(target, ch.dim)[None]))


def _thm7_reports(channels, us: np.ndarray):
    """:func:`thm7_max_correction` of each channel (one dimension) against its checked target
    (an (N, d, d) stack): Phi, Upsilon, polar factors and gammas stacked, the ascent one by one."""
    ups = metrics._upsilons(channels)
    if not metrics._nc_regime(metrics._phis(channels, us), ups).all():
        raise NotNonCatastrophic("channel must be non-catastrophic")
    pols = channel_polars(channels)
    gammas = _spectrum_constants(np.array([p.singular_values for p in pols]))[1].tolist()
    for ch, u, y, pol, gamma in zip(channels, us, ups.tolist(), pols, gammas):
        observed = metrics._phi_with_prefix(pol.unitary.conj().T, chn.canonical(ch).kraus)
        gap = 1.0 - y**2
        lower, upper = y**2 - gap**2, y + 1.5 * gap**2
        opt = _optimize_correction(ch, u)
        terms = {"upsilon": y, "lower_wse": y - (1.0 + gamma**2) * gap**2, "gamma_decoh": gamma,
                 "phi_w0": observed, "phi_optimized": opt.phi_achieved,
                 "optimizer_improvement": opt.phi_achieved - observed}
        rep = make_report("thm7", observed, lower, upper, terms=terms)
        rep.holds = bool(rep.holds and opt.phi_achieved <= upper + HOLDS_TOL)
        yield rep


def _thm8_terms(s_star, phi_vstar, sum_cross, gamma_d, gamma_c, phi_v, pert_sum):
    """The five summands t1..t5 of the Thm 8 envelope and their sum, added
    left to right: S*^2/2, (1 - Phi(V A*)) S*, sum_cross,
    2 gamma_d gamma_c (1 - sqrt Phi(V)) P and gamma_d^2 P^2, where P is the
    summed per-element perturbation; all but gamma_d may be 1-d arrays."""
    terms = (
        0.5 * matcore._squares(s_star),
        (1.0 - phi_vstar) * s_star,
        sum_cross,
        2.0 * gamma_d * gamma_c * (1.0 - np.sqrt(phi_v)) * pert_sum,
        gamma_d**2 * matcore._squares(pert_sum),
    )
    t1, t2, t3, t4, t5 = terms
    return terms, t1 + t2 + t3 + t4 + t5


def thm8_equable_composition(v, circuit: CircuitSpec) -> BoundReport:
    """|Phi(V o D_{m:1}, I) - Phi(V, I) prod Phi(D_i, I)| with the
    five-term WSE envelope.  The band centre Phi(V, I) prod Phi(D_i, I) is
    itemized for sweep overlays."""
    data = _data(circuit)
    _require_decoherent(data)
    d = data.d
    v = metrics._check_target(v, d)
    phi_tot = metrics._phi_with_prefix(v, data.composite.kraus)
    nc_tot = bool(metrics._nc_regime(phi_tot, data.ups_c))  # v does not change Upsilon
    if not data.element_nc or not nc_tot:
        raise NotNonCatastrophic(
            "elements and the prefixed composition must be non-catastrophic"
        )
    phi_vstar, phi_v = metrics._overlaps(np.array([v @ data.a1_c, v]))
    gamma_d = data.gamma_max
    gamma_c = _wse_coh_constant(v)
    centre = phi_v * float(np.prod(data.phis))
    observed = abs(phi_tot - centre)
    (t1, t2, t3, t4, t5), upper = _thm8_terms(
        data.s_star, phi_vstar, data.sum_cross,
        gamma_d, gamma_c, phi_v, data.pert_sum,
    )
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
            "noncatastrophic": float(nc_tot),
        },
        hot_truncated=True,
    )


def thm9_max_correction_multi(circuit: CircuitSpec) -> BoundReport:
    """Quasi-optimal multi-element correction W0 = U_{m:1} o (V_{m:1})^dag.

    ``observed`` is Phi(W0 o A_{m:1}, U_{m:1}); the envelope brackets it
    around prod Upsilon(A_i) with the displayed explicit terms.
    """
    data = _data(circuit)
    _require_nc(data)
    v_c = _circuit_product([p.unitary for p in data.polars], data.d)
    observed = metrics._phi_with_prefix(v_c.conj().T, data.composite.kraus)
    gamma = data.gamma_max
    prod_ups = data.prod_ups
    up = (
        data.half_s_star_sq
        + data.sum_w1_sq
        + data.s_star * (1.0 - prod_ups)
        + 2.0 * gamma**2 * data.pert_sum**2
    )
    low = -(
        gamma**2 * float(np.sum(data.pert**2))
        + data.sum_w1_sq
        + gamma**2 * float(np.prod(data.mean_sigma)) * data.pert_sum**2
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
) -> EnvelopeBounds:
    """Best/worst composite Phi from per-element ratios Phi_i / Upsilon_i.

    Even dimensions use cos^2(sum arccos sqrt(x_i)) * prod Upsilon; odd
    dimensions the ((d-1) cos(sum arccos((d sqrt(x_i) - 1)/(d-1))) + 1)^2
    / d^2 form.  Ratios must lie in (1/2, 1]; arccos arguments that exceed
    the domain by float noise are clipped and flagged, and accumulated
    angles beyond the point where the envelope reaches zero clamp the lower
    bound to zero (also flagged).
    """
    x, arcs = _envelope_angles(ratios, d)
    ups_prod = float(np.prod(upsilons)) if upsilons is not None else 1.0
    lower, capped = _envelope_lower(float(np.sum(arcs)), d)
    return EnvelopeBounds(lower=float(lower) * ups_prod, upper=ups_prod,
                          clipped=bool(np.any(x > 1.0)) or capped)


def _envelope_angles(ratios, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The checks of :func:`coherent_envelope`, then its ratios as an array
    and their per-element angles, the terms of its arccos sum."""
    x = np.asarray(ratios, dtype=np.float64)
    if x.size == 0:
        raise RatioOutOfRange("need at least one ratio")
    if d < 2:
        raise DimensionMismatch("the coherent envelope needs d >= 2")
    if not (np.min(x) > 0.5 and np.max(x) <= 1.0 + 1e-9):  # NaN fails too
        raise RatioOutOfRange("each Phi/Upsilon ratio must lie in (1/2, 1]")
    root = np.sqrt(np.minimum(x, 1.0))
    # x > 1/2 and d >= 3 give d sqrt(x) - 1 > 0: no odd-d argument below -1
    return x, np.arccos(root if d % 2 == 0 else (d * root - 1.0) / (d - 1.0))


def _envelope_lower(total, d: int):
    """(lower envelope before the Upsilon product, whether it was clamped)
    of an angle total or a 1-d array of them; a total at or past the angle
    where the envelope reaches zero is clamped to that angle."""
    cap = np.pi / 2.0 if d % 2 == 0 else float(np.arccos(-1.0 / (d - 1.0)))
    capped = total >= cap
    total = np.minimum(total, cap)
    if d % 2 == 0:
        return matcore._squares(np.cos(total)), capped
    return matcore._squares((d - 1.0) * np.cos(total) + 1.0) / d**2, capped


# ---------------------------------------------------------------------------
# unitary-correction ascent
# ---------------------------------------------------------------------------


@dataclass
class UnitaryCorrection:
    """Unitary correction reached by polar ascent from the polar correction."""

    unitary: np.ndarray
    phi_achieved: float
    evaluations: int
    improvement: float


def optimize_unitary_correction(ch: chn.KrausChannel, target=None) -> UnitaryCorrection:
    """Polar ascent of Phi(W o A, U) over unitaries W, from the polar
    correction W0 = U V^dag.

    Phi(W o A, U) = sum_k |tr(U^dag W A_k)|^2 / d^2 is convex in W.  With
    c_k = tr(U^dag W A_k) and G = sum_k conj(c_k) A_k U^dag, the polar
    factor of G^dag maximizes the linearization Re tr(W G), so taking it as
    the next W never lowers Phi.  The ascent stops at the first step that
    does not raise Phi, after at most ``_CORRECTION_MAX_STEPS`` steps, and
    returns the last W that did; ``evaluations`` counts the Phi evaluations
    (1 + the number of steps).
    """
    u = metrics._check_target(target, ch.dim)
    return _optimize_correction(ch, u)


def _optimize_correction(ch: chn.KrausChannel, u: np.ndarray) -> UnitaryCorrection:
    """:func:`optimize_unitary_correction` against a target that
    :func:`metrics._check_target` returned."""
    uc = u.conj().T
    w = u @ channel_polar(ch).unitary.conj().T
    best = f_w0 = metrics._phi_with_prefix(uc @ w, ch.kraus)
    evals = 1
    while evals <= _CORRECTION_MAX_STEPS:
        c = np.einsum("ij,kji->k", uc @ w, ch.kraus)  # c_k = tr(U^dag W A_k)
        g = np.einsum("k,kij->ij", c.conj(), ch.kraus) @ uc
        # the trace-phase convention of the polar factor leaves Phi unchanged
        w_next = matcore.polar_decompose(g.conj().T).unitary
        val = metrics._phi_with_prefix(uc @ w_next, ch.kraus)
        evals += 1
        if not val > best:
            break
        w, best = w_next, val
    return UnitaryCorrection(
        unitary=w, phi_achieved=best, evaluations=evals, improvement=best - f_w0
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
            raise NotHermitian("H must be Hermitian within 1e-9")
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
    """The three generator terms, their pairwise overlaps and the largest
    |<X, Y>| / (||X|| ||Y||) over the pairs of non-zero terms (or 0)."""

    term_hamiltonian: np.ndarray
    term_anticommutator: np.ndarray
    term_jump: np.ndarray
    inner_products: dict
    orthogonal: bool
    worst_overlap: float


def lindblad_structure(spec: LindbladSpec) -> LindbladStructure:
    """Build the three vectorized generator terms and check their mutual
    orthogonality.  Requires traceless jump operators (canonicalize first
    otherwise); orthogonality means |<X, Y>| <= 1e-9 ||X|| ||Y|| pairwise."""
    for i, l in enumerate(spec.lindblad_ops):
        if abs(np.trace(l)) > 1e-9 * max(np.linalg.norm(l), 1.0):
            raise NotTraceless(
                f"Lindblad operator {i} has trace {np.trace(l):.3e}; "
                "call canonicalize_lindblad first"
            )
    t1, t2, t3 = _lindblad_terms(spec)
    names = ("hamiltonian", "anticommutator", "jump")
    mats = (t1, t2, t3)
    norms = [np.linalg.norm(m) for m in mats]
    inner = {}
    ok = True
    worst = 0.0
    for a in range(3):
        for b in range(a + 1, 3):
            ip = complex(np.trace(mats[a].conj().T @ mats[b]))
            inner[f"{names[a]}.{names[b]}"] = ip
            if abs(ip) > 1e-9 * norms[a] * norms[b]:
                ok = False
            if norms[a] * norms[b] > 0:
                worst = max(worst, abs(ip) / (norms[a] * norms[b]))
    return LindbladStructure(
        term_hamiltonian=t1,
        term_anticommutator=t2,
        term_jump=t3,
        inner_products=inner,
        orthogonal=ok,
        worst_overlap=worst,
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
