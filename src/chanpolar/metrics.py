"""Figures of merit: process fidelity, average gate fidelity, Upsilon,
unitarity, the leading-Kraus gap sandwiches, the non-catastrophic predicate,
and Haar Monte Carlo cross-check estimators.

Phi and Upsilon are evaluated through Kraus-trace sums that are invariant
under unitary re-mixing of the Kraus family, so any representation (not
just the canonical one) gives the same value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import channel as chn, matcore
from .errors import DimensionMismatch, ParamOutOfRange, TargetNotUnitary
from .matcore import make_report

UNITARY_TOL = 1e-9
NC_THRESHOLD = 0.5


def _check_target(u, d: int) -> np.ndarray:
    """A d x d unitary target (I for None)."""
    return _as_target(u, d) if u is None else _check_targets(_as_target(u, d), d)


def _as_target(u, d: int) -> np.ndarray:
    """A d x d C-contiguous complex target (I for None), not yet tested for unitarity."""
    if u is None:
        return np.eye(d, dtype=np.complex128)
    u = np.asarray(u, dtype=np.complex128, order="C")
    if u.shape != (d, d):
        raise TargetNotUnitary(f"target must be {d} x {d}, got {u.shape}")
    return u


def _check_targets(us: np.ndarray, d: int) -> np.ndarray:
    """A d x d target or an (N, d, d) stack, refused unless each is unitary within tolerance."""
    dev = matcore._norms(np.conj(us).swapaxes(-1, -2) @ us - np.eye(d))
    if not dev.max() <= UNITARY_TOL * math.sqrt(d):  # "not <=" also refuses a NaN
        raise TargetNotUnitary("target is not unitary within tolerance")
    return us


def phi(ch: chn.KrausChannel, target=None) -> float:
    """Average process fidelity Phi = sum_i |tr(U^dag A_i)|^2 / d^2."""
    return _phis([ch], [_check_target(target, ch.dim)]).item()


def _phis(channels, targets) -> np.ndarray:
    """:func:`phi` of each channel against its checked target, one einsum per shape."""
    out = np.empty(len(channels))
    for idx, kraus, us in chn._by_shape([ch.kraus for ch in channels], targets):
        traces = np.einsum("nkij,nij->nk", kraus, us.conj())  # tr(U^dag A_k)
        out[idx] = (np.abs(traces) ** 2).sum(axis=-1) / kraus.shape[-1] ** 2
    return out


def _phi_with_prefix(m: np.ndarray, kraus: np.ndarray) -> float:
    """sum_k |tr(M A_k)|^2 / d^2, Phi against I of the Kraus family
    prefixed by M; the sums follow the memory layout of ``m``."""
    traces = np.einsum("ij,kji->k", m, kraus)
    return float(np.sum(np.abs(traces) ** 2) / m.shape[0] ** 2)


def _overlaps(ms: np.ndarray) -> list:
    """|tr M|^2 / d^2 of each matrix M of an (N, d, d) stack: Phi of the map
    M . M^dag against I."""
    t = ms.trace(axis1=-2, axis2=-1)
    return (matcore._squares(np.hypot(t.real, t.imag)) / ms.shape[-1] ** 2).tolist()


def avg_fidelity(phi_value: float, d: int) -> float:
    """Average gate fidelity F = (d Phi + 1) / (d + 1)."""
    return (d * phi_value + 1.0) / (d + 1.0)


def infidelity(phi_value: float, d: int) -> float:
    """Average infidelity r = 1 - F."""
    return 1.0 - avg_fidelity(phi_value, d)


def upsilon(ch: chn.KrausChannel) -> float:
    """Upsilon = sqrt(sum_ij |tr(A_i^dag A_j)|^2) / d = ||Gram||_F / d.

    Over the canonical decomposition this reduces to sqrt(sum_i w_i^2).
    Cached on the channel object: a repeat call computes nothing.
    """
    return _upsilons([ch]).item()


def _upsilons(channels) -> np.ndarray:
    """:func:`upsilon` of each channel, cached per object: one Gram stack per
    Kraus shape over the channels without a cached value."""
    todo = [ch for ch in dict.fromkeys(channels) if ch._upsilon is None]
    for idx, kraus in chn._by_shape([ch.kraus for ch in todo]):
        for i, ups in zip(idx, (matcore._norms(chn._gram(kraus)) / kraus.shape[-1]).tolist()):
            todo[i]._upsilon = ups
    return np.array([ch._upsilon for ch in channels])


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
    return bool(_nc_regime(phi(ch, target), upsilon(ch)))


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
    p = _phis([canon], [u]).item()
    ups = upsilon(canon)
    [lk_phi] = _overlaps((canon.a1 if target is None else u.conj().T @ canon.a1)[None])
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
    return next(_lk_gaps([chn.canonical(ch)], _check_target(target, ch.dim)[None]))


def _lk_gaps(channels, us: np.ndarray):
    """:func:`lk_gap_bounds` of each channel (one dimension) against its checked target
    (an (N, d, d) stack), the canonical forms, Phi, Upsilon and LK Phi stacked."""
    canons = chn._canonicalize(channels)
    unitarity(1.0, us.shape[-1])  # refuses d = 1, as report() does
    lk_phis = _overlaps(np.conj(us).swapaxes(-1, -2) @ np.array([c.a1 for c in canons]))
    for p, ups, lk_phi, c in zip(_phis(canons, us).tolist(), _upsilons(canons).tolist(),
                                 lk_phis, canons):
        ups2 = ups**2
        r1 = make_report("lemma1", ups2 - c.w1**2, 0.0, (1.0 - ups2) ** 2,
                         terms={"upsilon2": ups2, "w1": c.w1})
        applicable = bool(_nc_regime(p, ups))
        upper = (1.0 - ups2) * (1.0 - p) if applicable else float("inf")
        r2 = make_report("lemma2", p - lk_phi, 0.0, upper, terms={
            "phi": p, "lk_phi": lk_phi, "applicable": 1.0 if applicable else 0.0})
        yield r1, r2


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
    """Philox's two key words for ``seed``, hashable; :class:`ParamOutOfRange` where it refuses."""
    try:
        return tuple(np.random.Philox(key=seed).state["state"]["key"].tolist())
    except ValueError as exc:
        raise ParamOutOfRange(str(exc)) from exc


def _block(row_bytes: int) -> int:
    return max(2, 2**20 // row_bytes)  # about 1 MiB of rows, at least 2 (also the sweep's S^m)


def _check_samples(n_samples) -> None:
    if isinstance(n_samples, bool) or not isinstance(n_samples, (int, np.integer)):
        raise ParamOutOfRange(f"n_samples must be an integer, got {n_samples!r}")
    if n_samples < 100:
        raise ParamOutOfRange("n_samples must be at least 100")


@functools.lru_cache(maxsize=1)
def _haar_states(d: int, n: int, key: tuple) -> np.ndarray:
    """n Haar-random pure states as rows, read-only.

    Row i is built from normals 2d*i to 2d*i + 2d - 1 of a Philox stream
    keyed by the seed, drawn in order, so it depends only on (seed, d, i).
    It does not sit at a fixed counter offset: the ziggurat sampler uses a
    variable number of random words per normal (400,000 normals advance
    the counter by 102,205 four-word blocks, not 100,000).  Rows are drawn and normalized
    a :func:`_block` at a time in the float64 view of the one n-sized array; the memo keeps
    the last one, so consecutive calls with one key share a draw.
    """
    gen = np.random.Generator(np.random.Philox(key=key))
    psi = np.empty((n, d), dtype=np.complex128)
    for span in _spans(n, _block(psi.itemsize * d)):
        blk, view = psi[span], psi[span].view(np.float64)  # view rows: re, im, re, ...
        view.reshape(-1, d, 2)[:] = gen.standard_normal((len(blk), 2, d)).transpose(0, 2, 1)
        # each row over its np.linalg.norm, with the bits of that division: numpy sums a row
        # pairwise and divides a complex by a real as a product with the real's reciprocal
        s = (blk.conj() * blk).real
        view *= (1.0 / np.sqrt(_pairwise_sum(s.T)))[:, None]
    psi.setflags(write=False)
    return psi


def _spans(n: int, b: int) -> list:
    """Slices of b of n rows, a one-row tail joined to the block before it: a one-row
    ``matmul`` operand takes numpy's matrix-vector path, which gives other bits."""
    return [slice(i, n if i + b >= n - 1 else i + b) for i in range(0, max(n - 1, 1), b)]


def _pairwise_sum(terms) -> np.ndarray:
    """The m terms' sum, item by item, with the bits of np.add.reduce over m contiguous numbers:
    in order below 8, in 8 running sums up to 128, and above that split at a multiple of 8."""
    m = len(terms)
    if m < 8:
        return functools.reduce(np.add, terms)
    if m > 128:
        h = m // 2 - m // 2 % 8
        return _pairwise_sum(terms[:h]) + _pairwise_sum(terms[h:])
    r = functools.reduce(np.add, (terms[at:at + 8] for at in range(8, m - m % 8, 8)), terms[:8])
    return functools.reduce(np.add, terms[m - m % 8:],
                            r[0] + r[1] + (r[2] + r[3]) + (r[4] + r[5] + (r[6] + r[7])))


def haar_fidelity_mc(
    ch: chn.KrausChannel, target=None, n_samples: int = 100000, seed: int = 0
) -> McEstimate:
    """Monte Carlo average gate fidelity over Haar-random pure states.

    The per-sample statistic is f_{|psi><psi|}(A, U); its Haar mean is the
    average gate fidelity F by definition.  It shares its Haar states with
    the previous estimator call of the same d, n_samples and seed.  Memory: the states, the n
    statistics and O(1 MiB), one reused :func:`_block` of rows <psi|U^dag, A_k psi and overlaps.
    """
    _check_samples(n_samples)
    u = _check_target(target, ch.dim)
    psi = _haar_states(ch.dim, n_samples, _philox_key(seed))
    spans = _spans(n_samples, _block(psi.itemsize * ch.dim))
    ref, img = np.empty((2, max(s.stop - s.start for s in spans), ch.dim), psi.dtype)
    ovl, sq, tot = np.empty(len(ref), psi.dtype), np.empty(len(ref)), np.zeros(n_samples)
    for span in spans:
        blk, m = psi[span], span.stop - span.start  # rows of ref: <psi|U^dag
        np.conjugate(blk if target is None else np.matmul(blk, u.T, out=ref[:m]), out=ref[:m])
        for a in ch.kraus:
            np.einsum("nj,nj->n", ref[:m], np.matmul(blk, a.T, out=img[:m]), out=ovl[:m])
            tot[span] += np.square(np.abs(ovl[:m], out=sq[:m]), out=sq[:m])
    stderr = float(tot.std(ddof=1) / np.sqrt(n_samples))
    return McEstimate(float(tot.mean()), stderr, n_samples, seed)


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
    and seed, and refuses d = 1.  Memory: the states and O(1 MiB), one :func:`_block`
    of samples at a time, each its own ``matmul`` (:func:`_spans`).  Of the Hermitian
    sum_k A_k psi (A_k psi)^dag - A(I)/d it forms the entries i <= j and sums each squared
    modulus as the (j, i) term too: einsum's complex product is unfused, so the (j, i) product,
    its sum over k and A(I)'s entry are the (i, j) ones with the imaginary part negated exactly.
    """
    _check_samples(n_samples)
    d = ch.dim
    unitarity(1.0, d)  # refuses d = 1 before any state is drawn
    psi = _haar_states(d, n_samples, _philox_key(seed))
    a_id = np.einsum("kij,klj->il", ch.kraus, ch.kraus.conj())  # A(I)
    ratios, kraus_t, a_d = np.empty(n_samples), ch.kraus.swapaxes(1, 2), a_id / d
    for span in _spans(n_samples, _block(psi.itemsize * d * max(len(ch.kraus), d))):
        cols = np.ascontiguousarray(np.matmul(psi[span], kraus_t).transpose(0, 2, 1))
        conj, sq = cols.conj(), []
        for i in range(d):  # the squared moduli of row i from column i on
            row = np.einsum("kn,kjn->jn", cols[:, i], conj[:, i:]) - a_d[i, i:, None]
            sq.append(np.abs(row) ** 2)
        ratios[span] = _pairwise_sum([sq[min(i, j)][abs(i - j)] for i, j in np.ndindex(d, d)])
    ratios /= 1.0 - 1.0 / d
    offset = float(np.linalg.norm(a_id - np.eye(d)) ** 2 / (d * (d * d - 1)))
    stderr = float(ratios.std(ddof=1) / np.sqrt(n_samples))
    return McEstimate(float(ratios.mean()) + offset, stderr, n_samples, seed)
