"""Unitary-decoherent polar factorization of channels.

A non-catastrophic channel factors as A = V o D (or D' o V) where V is the
unitary channel built from the matrix polar factor of the leading Kraus
operator and D is decoherent (its leading Kraus operator is positive
semi-definite).  This module also computes the equability constants, the
coherent/decoherent infidelity split, the decoherence-limited predicate,
and a composed classification label.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from . import channel as chn
from . import matcore, metrics
from .errors import DegenerateLeading, PhaseUndefined

DECOHERENT_TOL = 1e-9
DEFAULT_KAPPA = 0.1
_ZERO_PERTURBATION = 1e-12


@dataclass(eq=False)
class ChannelPolar:
    """Polar factors of a channel.

    ``coherent`` is the single-Kraus unitary channel V; ``decoherent_left``
    satisfies A = V o decoherent_left and ``decoherent_right`` satisfies
    A = decoherent_right o V.  ``unitary``/``psd`` expose the matrix-level
    factors of the leading Kraus operator (V phase-fixed to tr V in R+ when
    possible), and ``unique`` records whether A_1 was full rank with a
    non-degenerate leading weight.  ``lambda_re`` holds the eigenvalues of
    the Hermitian part of V (the real parts of V's eigenvalues), descending.

    ``phi_decoherent`` is Phi(D, I) of the left decoherent factor
    D = V^dag o A, sum_i |tr(V^dag A_i)|^2 / d^2, taken by
    ``metrics._phi_with_prefix`` in O(k d^2) without building the factor;
    it has the bits of ``metrics.phi(decoherent_left)``.

    The three channels, ``lambda_re`` and ``phi_decoherent`` are built from
    ``unitary`` and the canonical Kraus operators on first read and cached
    on the instance, so callers that need only the matrix-level factors or
    Phi(D) never pay for the O(k d^3) channel products.
    """

    dim: int
    unitary: np.ndarray
    psd: np.ndarray
    phase_fixed: bool
    singular_values: np.ndarray
    unique: bool
    _kraus: np.ndarray = field(repr=False)

    @cached_property
    def coherent(self) -> chn.KrausChannel:
        return chn.KrausChannel(dim=self.dim, kraus=self.unitary[np.newaxis])

    @cached_property
    def decoherent_left(self) -> chn.KrausChannel:
        return _decoherent_lefts([self])[0]

    @cached_property
    def phi_decoherent(self) -> float:
        # a C-contiguous V^dag sums in the order of metrics.phi(decoherent_left)
        vh = np.ascontiguousarray(self.unitary.conj().T)
        return metrics._phi_with_prefix(vh, self._kraus)

    @cached_property
    def decoherent_right(self) -> chn.KrausChannel:
        kv = np.einsum("kij,jl->kil", self._kraus, self.unitary.conj().T)
        return chn.KrausChannel(dim=self.dim, kraus=kv)

    @cached_property
    def lambda_re(self) -> np.ndarray:
        # V is normal: Re of its eigenvalues is the Hermitian part's spectrum
        return matcore._hermitian_part_spectrum(self.unitary)[::-1]


def channel_polar(ch: chn.KrausChannel, strict: bool = False) -> ChannelPolar:
    """Factor a channel into its unitary and decoherent parts.

    The factors are cached on the canonical view, so a channel and its
    view share one result.  Warns when Upsilon^2 <= 1/2 (the leading Kraus
    operator may not be unique there); raises :class:`DegenerateLeading`
    in strict mode when the leading weight is degenerate.

    Accuracy near the degeneracy threshold: when the canonical form comes
    from the Choi eigensolver (a non-orthogonal Kraus family), A_1 and so
    V and the singular values carry an error of about eps / (w_1 - w_2).
    A gap of 1e-10, the smallest that is not flagged, can put the singular
    values off by about 1e-6.  The Gram route (an orthogonal family) has
    no such error.
    """
    canon = chn.canonical(ch)
    if canon.degenerate_leading and strict:
        raise DegenerateLeading("leading Kraus weight is degenerate")
    if canon._polar is None:
        _polarize([canon])
    return canon._polar


def channel_polars(channels) -> list[ChannelPolar]:
    """:func:`channel_polar` of each channel (not strict), all of one
    dimension, with the results cached as there.  The channels that take
    the Choi route share one stacked eigendecomposition and the uncached
    leading operators one stacked SVD; each result has the bits of its
    single call, and each catastrophic channel warns once."""
    canons = chn._canonicalize(channels)
    todo = [c for c in dict.fromkeys(canons) if c._polar is None]
    if todo:
        _polarize(todo)
    return [c._polar for c in canons]


def _decoherent_lefts(polars) -> list:
    """The ``decoherent_left`` of each polar factorization, uncached: the
    operators V^dag A_k by one einsum per Kraus shape.  A C-contiguous V^dag
    gives the same sums as the transposed view, only faster at large d."""
    out = {}
    for idx, kraus, us in chn._by_shape([p._kraus for p in polars], [p.unitary for p in polars]):
        vh = np.ascontiguousarray(np.conj(us).swapaxes(-1, -2))
        out.update(zip(idx, chn._channels(np.einsum("nij,nkjl->nkil", vh, kraus))))
    return [out[i] for i in range(len(polars))]


def _polarize(canons: list):
    """Cache on each canonical view its polar factors, from one stacked SVD."""
    for ups in metrics._upsilons(canons).tolist():
        if ups**2 <= metrics.NC_THRESHOLD:
            warnings.warn(
                "channel is catastrophic (Upsilon^2 <= 1/2); polar factors may "
                "be discontinuous in the input",
                stacklevel=3,
            )
    lead = [c.kraus[0] for c in canons]  # a lone operator stays a view, not a d x d copy
    pol = matcore.polar_decompose(np.array(lead) if len(lead) > 1 else lead[0][np.newaxis])
    full = (pol.rank == canons[0].dim).tolist()
    for canon, v, p, fixed, s, f in zip(canons, pol.unitary, pol.psd, pol.phase_fixed.tolist(),
                                        pol.singular_values, full):
        canon._polar = ChannelPolar(
            dim=canon.dim,
            unitary=v,
            psd=p,
            phase_fixed=fixed,
            singular_values=s,
            unique=f and not canon.degenerate_leading,
            _kraus=canon.kraus,
        )


def is_decoherent(ch: chn.KrausChannel) -> bool:
    """True iff the leading Kraus operator is positive semi-definite
    (Hermitian within ``DECOHERENT_TOL``, smallest eigenvalue >= -tol): the
    N = 1 case of :func:`_decoherent`, on a view of A_1."""
    return _decoherent(ch.a1[np.newaxis])[0]


def _decoherent(a1s: np.ndarray) -> list:
    """:func:`is_decoherent` of the leading operator of each channel, from their
    (N, d, d) stack: one norm call, then one ``eigvalsh`` over the Hermitian ones
    (over the stack itself when all are, with no copy)."""
    out = (matcore._norms(a1s - np.conj(a1s).swapaxes(-1, -2)) <= DECOHERENT_TOL).tolist()
    herm = [i for i, h in enumerate(out) if h]
    if herm:
        spec = matcore._hermitian_part_spectrum(a1s if len(herm) == len(out) else a1s[herm])
        for i, psd in zip(herm, (spec[:, 0] >= -DECOHERENT_TOL).tolist()):
            out[i] = psd
    return out


@dataclass
class EquabilityReport:
    """Spectral-perturbation homogeneity constants (SSE/WSE).

    ``sigma`` are the singular values of A_1 (descending) and ``lambda_re``
    the real parts of the eigenvalues of the phase-fixed unitary factor.
    Gamma constants compare the worst perturbation to the mean one, gamma
    constants the standard deviation to the mean.  The channel is equable
    (strict/wide sense) when each constant stays below
    ``kappa / sqrt(mean perturbation)``; a perfectly unperturbed spectrum
    contributes constants of 0 and passes trivially.
    """

    sigma: np.ndarray
    lambda_re: np.ndarray
    Gamma_decoh: float
    Gamma_coh: float
    gamma_decoh: float
    gamma_coh: float
    sse_ok: bool
    wse_ok: bool
    kappa: float
    decoh_threshold: float
    coh_threshold: float


def _spectrum_constants(values: np.ndarray, kappa: float = DEFAULT_KAPPA):
    """(Gamma, gamma, threshold, big_ok, small_ok) of a spectrum.

    Gamma (worst perturbation) and gamma (sd) are relative to the mean
    perturbation; each passes when it stays below ``threshold``.  An
    unperturbed spectrum gives (0, 0, inf, True, True).  The spectrum runs
    along the last axis: a 1-D spectrum gives Python scalars, leading stack
    axes give arrays of that shape, equal item by item to single calls.
    ``np.mean``/``np.std`` can differ in the last bit on a reversed array,
    so every caller keeps the order in which it obtains its spectrum.
    """
    values = np.asarray(values)
    mean_pert = np.mean(1.0 - values, axis=-1)
    zero = mean_pert <= _ZERO_PERTURBATION
    mean_pert = np.where(zero, 1.0, mean_pert)
    big = np.where(zero, 0.0, (1.0 - np.min(values, axis=-1)) / mean_pert)
    small = np.where(zero, 0.0, np.std(values, axis=-1) / mean_pert)
    threshold = np.where(zero, np.inf, kappa / np.sqrt(mean_pert))
    out = (big, small, threshold, big < threshold, small < threshold)
    return tuple(x.item() for x in out) if values.ndim == 1 else out


def equability(ch: chn.KrausChannel, kappa: float = DEFAULT_KAPPA) -> EquabilityReport:
    """Compute SSE/WSE decoherence and coherence constants.

    Raises :class:`PhaseUndefined` when |tr V| is too small to fix the
    tr V in R+ phase convention the coherence constants rely on.
    """
    pol = channel_polar(ch)
    if not pol.phase_fixed:
        raise PhaseUndefined(
            "tr V is numerically zero; the coherence constants are undefined"
        )
    sigma = np.sort(pol.singular_values)[::-1]
    lam_re = pol.lambda_re
    g_d, s_d, th_d, big_d, small_d = _spectrum_constants(sigma, kappa)
    g_c, s_c, th_c, big_c, small_c = _spectrum_constants(lam_re, kappa)
    return EquabilityReport(
        sigma=sigma,
        lambda_re=lam_re,
        Gamma_decoh=g_d,
        Gamma_coh=g_c,
        gamma_decoh=s_d,
        gamma_coh=s_c,
        sse_ok=bool(big_d and big_c),
        wse_ok=bool(small_d and small_c),
        kappa=kappa,
        decoh_threshold=th_d,
        coh_threshold=th_c,
    )


@dataclass
class InfidelitySplit:
    """Coherent/decoherent split of the average infidelity.

    ``r_coh = r(V, U)`` and ``r_decoh = r(D, I)`` are exact; their sum
    matches r up to O(r^2) for equable errors (``residual`` reports the
    difference).  ``r_decoh_from_u`` is the unitarity-only estimate
    (d - sqrt((d^2-1) u + 1)) / (d + 1) and ``coherence_level_approx`` the
    unitarity-based estimate 1 - (1 - Upsilon)/(1 - Phi); the ratio
    (1 - Upsilon)/(1 - Phi) itself estimates the decoherence level.
    """

    dim: int
    r: float
    r_coh: float
    r_decoh: float
    r_decoh_from_u: float
    coherence_level: float
    coherence_level_approx: float
    residual: float

    def as_dict(self) -> dict:
        return asdict(self)


def infidelity_split(ch: chn.KrausChannel, target=None) -> InfidelitySplit:
    """Split the infidelity into coherent and decoherent parts."""
    canon = chn.canonical(ch)
    d = canon.dim
    u = metrics._check_target(target, d)
    pol = channel_polar(ch)
    phi_total = metrics._phis([canon], [u]).item()
    r = metrics.infidelity(phi_total, d)
    v = pol.unitary
    [phi_v] = metrics._overlaps((v if target is None else u.conj().T @ v)[None])
    r_coh = metrics.infidelity(phi_v, d)
    r_decoh = metrics.infidelity(pol.phi_decoherent, d)
    ups = metrics.upsilon(canon)
    uu = metrics.unitarity(ups, d)
    r_decoh_from_u = (d - np.sqrt((d * d - 1) * uu + 1.0)) / (d + 1.0)
    level = r_coh / r if r > 1e-15 else 0.0
    level_approx = (
        1.0 - (1.0 - ups) / (1.0 - phi_total) if 1.0 - phi_total > 1e-15 else 0.0
    )
    return InfidelitySplit(
        dim=d,
        r=r,
        r_coh=r_coh,
        r_decoh=r_decoh,
        r_decoh_from_u=float(r_decoh_from_u),
        coherence_level=float(level),
        coherence_level_approx=float(level_approx),
        residual=float(r - r_coh - r_decoh),
    )


def is_decoherence_limited(ch: chn.KrausChannel, target=None) -> bool:
    """True iff the Upsilon-Phi gap is second order in the infidelity.

    Implemented as Upsilon - Phi <= (1 - Phi)^2 + 1e-12, i.e. the gap is
    measured against the squared *process* infidelity (1 - Phi differs
    from the average infidelity r only by the factor (d+1)/d, so the
    predicate is the same up to that constant).
    """
    p = metrics.phi(ch, target)
    ups = metrics.upsilon(ch)
    return bool(ups - p <= (1.0 - p) ** 2 + 1e-12)


@dataclass
class Classification:
    """Composed channel label plus the individual verdicts."""

    label: str
    decoherent: bool
    coherent: bool
    sse_ok: bool
    wse_ok: bool
    extremal_dephaser: bool
    extremal_unitary: bool
    coherence_level: float
    decoherence_limited: bool

    def as_dict(self) -> dict:
        return asdict(self)


def classify(
    ch: chn.KrausChannel, target=None, kappa: float = DEFAULT_KAPPA
) -> Classification:
    """Deterministic label composed from the decoherence predicate, the
    equability constants, and the coherence level.

    Extremal flags record a kappa-relative failure of the corresponding
    strict-sense equability component (so moderately noisy channels can be
    flagged at small kappa even when their spectra are homogeneous).
    """
    decoh = is_decoherent(ch)
    split = infidelity_split(ch, target)
    try:
        eq = equability(ch, kappa)
        # an unperturbed spectrum has an infinite threshold, so it is never
        # flagged
        ext_deph = bool(eq.Gamma_decoh >= eq.decoh_threshold)
        ext_unit = bool(eq.Gamma_coh >= eq.coh_threshold)
        sse_ok, wse_ok = eq.sse_ok, eq.wse_ok
    except PhaseUndefined:
        ext_deph = False
        ext_unit = True
        sse_ok = wse_ok = False
    coherent = bool(not decoh and split.coherence_level >= 0.99)
    dlim = is_decoherence_limited(ch, target)
    if decoh:
        base = "Decoherent"
    elif coherent:
        base = "Coherent"
    else:
        base = "Mixed"
    if sse_ok:
        suffix = ", SSE"
    elif wse_ok:
        suffix = ", WSE"
    else:
        suffix = ", non-equable"
    flags = []
    if ext_deph:
        flags.append("extremal dephaser")
    if ext_unit:
        flags.append("extremal unitary")
    label = base + suffix + (f" ({'; '.join(flags)})" if flags else "")
    return Classification(
        label=label,
        decoherent=decoh,
        coherent=coherent,
        sse_ok=sse_ok,
        wse_ok=wse_ok,
        extremal_dephaser=ext_deph,
        extremal_unitary=ext_unit,
        coherence_level=split.coherence_level,
        decoherence_limited=dlim,
    )
