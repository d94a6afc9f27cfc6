"""Figures of merit: process fidelity, average gate fidelity, Upsilon,
unitarity, the leading-Kraus gap sandwiches, the non-catastrophic predicate,
and Haar Monte Carlo cross-check estimators.

Phi and Upsilon are evaluated through Kraus-trace sums that are invariant
under unitary re-mixing of the Kraus family, so any representation (not
just the canonical one) gives the same value.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass

import numpy as np

from . import channel as chn, matcore
from .errors import DimensionMismatch, TargetNotUnitary
from .matcore import make_report

UNITARY_TOL = 1e-9
NC_THRESHOLD = 0.5


def _check_target(u, d: int) -> np.ndarray:
    if u is None:
        return np.eye(d, dtype=np.complex128)
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (d, d):
        raise TargetNotUnitary(f"target must be {d} x {d}, got {u.shape}")
    # "not <=" also refuses a NaN deviation (a non-finite target)
    if not np.linalg.norm(u.conj().T @ u - np.eye(d)) <= UNITARY_TOL * np.sqrt(d):
        raise TargetNotUnitary("target is not unitary within tolerance")
    return u


def phi(ch: chn.KrausChannel, target=None) -> float:
    """Average process fidelity Phi = sum_i |tr(U^dag A_i)|^2 / d^2."""
    return _phi(ch, _check_target(target, ch.dim))


def _phi(ch: chn.KrausChannel, u: np.ndarray) -> float:
    """:func:`phi` against a target that :func:`_check_target` returned."""
    return _phis([ch], [u]).item()


def _phis(channels, targets) -> np.ndarray:
    """:func:`_phi` of each channel against its target, one einsum per shape."""
    out = np.empty(len(channels))
    for idx, kraus, us in chn._by_shape(channels, targets):
        traces = np.einsum("nkij,nij->nk", kraus, us.conj())  # tr(U^dag A_k)
        out[idx] = np.sum(np.abs(traces) ** 2, axis=-1) / kraus.shape[-1] ** 2
    return out


def _phi_with_prefix(m: np.ndarray, kraus: np.ndarray) -> float:
    """sum_k |tr(M A_k)|^2 / d^2, Phi against I of the Kraus family
    prefixed by M; the sums follow the memory layout of ``m``."""
    traces = np.einsum("ij,kji->k", m, kraus)
    return float(np.sum(np.abs(traces) ** 2) / m.shape[0] ** 2)


def _overlap(m: np.ndarray) -> float:
    """|tr M|^2 / d^2 of a d x d matrix M: Phi of the one-operator map
    M . M^dag against the identity."""
    return float(abs(np.trace(m)) ** 2 / m.shape[0] ** 2)


def avg_fidelity(phi_value: float, d: int) -> float:
    """Average gate fidelity F = (d Phi + 1) / (d + 1)."""
    return (d * phi_value + 1.0) / (d + 1.0)


def infidelity(phi_value: float, d: int) -> float:
    """Average infidelity r = 1 - F."""
    return 1.0 - avg_fidelity(phi_value, d)


def upsilon(ch: chn.KrausChannel) -> float:
    """Upsilon = sqrt(sum_ij |tr(A_i^dag A_j)|^2) / d = ||Gram||_F / d.

    Over the canonical decomposition this reduces to sqrt(sum_i w_i^2).
    """
    return _upsilons([ch]).item()


def _upsilons(channels) -> np.ndarray:
    """:func:`upsilon` of each channel, one Gram stack per Kraus shape."""
    out = np.empty(len(channels))
    for idx, kraus in chn._by_shape(channels):
        out[idx] = matcore._norms(chn._gram(kraus)) / kraus.shape[-1]
    return out


def unitarity(upsilon_value: float, d: int) -> float:
    """Unitarity u = (d^2 Upsilon^2 - 1) / (d^2 - 1); undefined at d = 1."""
    if d < 2:
        raise DimensionMismatch("unitarity needs d >= 2 (d^2 - 1 = 0 at d = 1)")
    return (d * d * upsilon_value**2 - 1.0) / (d * d - 1.0)


def _nc_regime(phi_value, upsilon_value):
    """Phi > 1/2 and Upsilon^2 > 1/2, item by item on arrays."""
    return (phi_value > NC_THRESHOLD) & (upsilon_value**2 > NC_THRESHOLD)


def non_catastrophic(ch: chn.KrausChannel, target=None) -> bool:
    """Phi(A, U) > 1/2 and Upsilon^2(A) > 1/2."""
    return bool(_nc_regime(_phi(ch, _check_target(target, ch.dim)), upsilon(ch)))


@dataclass
class MetricsReport:
    """All scalar figures of merit of a channel against a unitary target.

    ``lk_phi`` is the process fidelity of the LK approximation
    |tr(U^dag A_1)|^2/d^2 and ``lk_upsilon`` its Upsilon, which equals the
    leading weight w_1.  The exact identities
    ``avg_fidelity == (d phi + 1)/(d+1)`` and
    ``unitarity == (d^2 upsilon^2 - 1)/(d^2 - 1)`` hold by construction.
    """

    dim: int
    phi: float
    avg_fidelity: float
    infidelity: float
    upsilon: float
    unitarity: float
    non_catastrophic: bool
    lk_phi: float
    lk_upsilon: float

    def as_dict(self) -> dict:
        return asdict(self)


def report(ch: chn.KrausChannel, target=None) -> MetricsReport:
    """Compute a full :class:`MetricsReport` (canonicalizes the channel)."""
    canon = chn.canonical(ch)
    d = canon.dim
    u = _check_target(target, d)
    p = _phi(canon, u)
    ups = upsilon(canon)
    lk_phi = _overlap(canon.a1 if target is None else u.conj().T @ canon.a1)
    return MetricsReport(
        dim=d,
        phi=p,
        avg_fidelity=avg_fidelity(p, d),
        infidelity=infidelity(p, d),
        upsilon=ups,
        unitarity=unitarity(ups, d),
        non_catastrophic=bool(_nc_regime(p, ups)),
        lk_phi=lk_phi,
        lk_upsilon=canon.w1,
    )


def lk_gap_bounds(ch: chn.KrausChannel, target=None):
    """Evaluate the two LK gap sandwiches.

    Returns a pair of bound reports: the Upsilon sandwich
    ``0 <= Upsilon^2 - w_1^2 <= (1 - Upsilon^2)^2`` (valid for every CPTP
    map) and the Phi sandwich
    ``0 <= Phi - |<A_1/sqrt d, U/sqrt d>|^2 <= (1 - Upsilon^2)(1 - Phi)``
    whose upper side requires the channel to be non-catastrophic; when it
    is not, that side is reported as inapplicable (upper = +inf).
    """
    rep = report(ch, target)
    ups2 = rep.upsilon**2
    r1 = make_report(
        theorem="lemma1",
        observed=ups2 - rep.lk_upsilon**2,
        lower=0.0,
        upper=(1.0 - ups2) ** 2,
        terms={"upsilon2": ups2, "w1": rep.lk_upsilon},
    )
    applicable = rep.non_catastrophic
    upper = (1.0 - ups2) * (1.0 - rep.phi) if applicable else float("inf")
    r2 = make_report(
        theorem="lemma2",
        observed=rep.phi - rep.lk_phi,
        lower=0.0,
        upper=upper,
        terms={
            "phi": rep.phi,
            "lk_phi": rep.lk_phi,
            "applicable": 1.0 if applicable else 0.0,
        },
    )
    return r1, r2


# ---------------------------------------------------------------------------
# Haar Monte Carlo estimators
# ---------------------------------------------------------------------------


@dataclass
class McEstimate:
    """Monte Carlo estimate with its standard error (sample SD / sqrt n)."""

    estimate: float
    stderr: float
    n_samples: int
    seed: int


def _philox_key(seed) -> tuple:
    """Philox's two key words for ``seed``: hashable for every seed it takes."""
    return tuple(np.random.Philox(key=seed).state["state"]["key"].tolist())


@functools.lru_cache(maxsize=1)
def _haar_states(d: int, n: int, key: tuple) -> np.ndarray:
    """n Haar-random pure states as rows, read-only.

    Row i is built from normals 2d*i to 2d*i + 2d - 1 of a Philox stream
    keyed by the seed, drawn in order, so it depends only on (seed, d, i).
    It does not sit at a fixed counter offset: the ziggurat sampler uses a
    variable number of random words per normal (400,000 normals advance
    the counter by 102,205 four-word blocks, not 100,000).  The memo keeps
    the last n x d array, so consecutive calls with one key share a draw.
    """
    z = np.random.Generator(np.random.Philox(key=key)).standard_normal((n, 2 * d))
    psi = z[:, :d] + 1j * z[:, d:]
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    psi.setflags(write=False)
    return psi


def haar_fidelity_mc(
    ch: chn.KrausChannel, target=None, n_samples: int = 100000, seed: int = 0
) -> McEstimate:
    """Monte Carlo average gate fidelity over Haar-random pure states.

    The per-sample statistic is f_{|psi><psi|}(A, U); its Haar mean is the
    average gate fidelity F by definition.  It shares its Haar states with
    the previous estimator call of the same d, n_samples and seed.
    """
    if n_samples < 100:
        raise ValueError("n_samples must be at least 100")
    d = ch.dim
    u = _check_target(target, d)
    psi = _haar_states(d, n_samples, _philox_key(seed))
    ref = (psi @ u.T).conj()  # rows are <psi|U^dag
    tot = sum(np.abs(np.einsum("nj,nj->n", ref, psi @ a.T)) ** 2 for a in ch.kraus)
    est = float(tot.mean())
    stderr = float(tot.std(ddof=1) / np.sqrt(n_samples))
    return McEstimate(estimate=est, stderr=stderr, n_samples=n_samples, seed=seed)


def haar_unitarity_mc(
    ch: chn.KrausChannel, n_samples: int = 100000, seed: int = 0
) -> McEstimate:
    """Monte Carlo unitarity over Haar-random pure states.

    The per-sample statistic is the squared-length ratio
    ||A(|psi><psi| - I/d)||^2 / |||psi><psi| - I/d||^2.  Its Haar mean
    captures the unital block only, so the exact non-unital contribution
    ||A(I) - I||^2 / (d (d^2 - 1)) is added as a constant offset; the
    estimator's expectation then equals (d^2 Upsilon^2 - 1)/(d^2 - 1)
    for every channel (the offset vanishes for unital ones).  It shares its
    Haar states with the previous estimator call of the same d, n_samples
    and seed; like :func:`unitarity`, it refuses d = 1.
    """
    if n_samples < 100:
        raise ValueError("n_samples must be at least 100")
    d = ch.dim
    unitarity(1.0, d)  # refuses d = 1 before any state is drawn
    k = ch.kraus
    psi = _haar_states(d, n_samples, _philox_key(seed))
    imgs = np.matmul(psi, k.swapaxes(1, 2))  # (k, n, d)
    out = np.einsum("kni,knj->nij", imgs, imgs.conj())
    a_id = np.einsum("kij,klj->il", k, k.conj())  # A(I)
    out -= a_id[np.newaxis, :, :] / d
    ratios = np.sum(np.abs(out) ** 2, axis=(1, 2)) / (1.0 - 1.0 / d)
    offset = float(np.linalg.norm(a_id - np.eye(d)) ** 2 / (d * (d * d - 1)))
    est = float(ratios.mean()) + offset
    stderr = float(ratios.std(ddof=1) / np.sqrt(n_samples))
    return McEstimate(estimate=est, stderr=stderr, n_samples=n_samples, seed=seed)

