"""Randomized verification suites and the composition sweep engine.

These drivers generate seeded channel families, evaluate the bound
reports, and return flat case records suitable for CSV output.  Every
trial derives its randomness from (seed, dimension, depth, trial-index),
so results are independent of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds, channel as chn, genlib, matcore, metrics
from .polar import _spectrum_constants, channel_polar

REGIME_CAP = 0.1  # sweeps restrict to m^2 r_decoh^2 <= this
_SWEEP_BLOCK = 256  # depths per stacked eigvalsh in composition_sweep


@dataclass
class CaseResult:
    """One verification case in CSV-friendly form."""

    case_id: str
    theorem: str
    observed: float
    lower: float
    upper: float
    slack: float
    holds: bool


def _case_from_report(case_id: str, rep: bounds.BoundReport) -> CaseResult:
    return CaseResult(
        case_id=case_id,
        theorem=rep.theorem,
        observed=rep.observed,
        lower=rep.lower,
        upper=rep.upper,
        slack=min(rep.slack_lower, rep.slack_upper),
        holds=rep.holds,
    )


def _subseed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63 - 1))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def _noise_element(d: int, rng: np.random.Generator, strength: float) -> chn.KrausChannel:
    rank = int(rng.integers(2, 5))
    return genlib.random_cptp(d, min(rank, d * d), _subseed(rng), strength=strength)


def element_for_infidelity(
    d: int, r_target: float, rng: np.random.Generator, decoherent: bool = False
) -> chn.KrausChannel:
    """Near-identity random element with infidelity close to ``r_target``.

    Generates at a guessed strength, measures, and regenerates once with
    the rescaled strength (r scales quadratically in the strength, so one
    correction step lands within a few percent).  Deterministic per rng
    state.
    """
    rank = int(rng.integers(2, 5))
    seed = _subseed(rng)
    eps0 = float(np.sqrt(2.0 * r_target))

    def gen(eps: float) -> chn.KrausChannel:
        if decoherent:
            return genlib.psd_lk_decoherent(
                d, min(eps, 0.3), seed, kraus_rank=min(rank, d * d)
            )
        return genlib.random_cptp(d, min(rank, d * d), seed, strength=eps)

    ch = gen(eps0)
    r0 = metrics.infidelity(metrics.phi(ch), d)
    if r0 > 1e-12:
        eps1 = eps0 * float(np.sqrt(r_target / r0))
        ch = gen(eps1)
    return ch


def sample_noncatastrophic(d: int, rng: np.random.Generator):
    """(channel, target) pair: a random unitary target followed by
    near-identity noise, non-catastrophic by construction."""
    strength = float(rng.uniform(0.02, 0.3))
    noise = _noise_element(d, rng, strength)
    target = genlib.random_unitary(d, _subseed(rng))
    kraus = np.einsum("kij,jl->kil", noise.kraus, target)
    return chn.KrausChannel(dim=d, kraus=kraus), target


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def lemma_suite(dims=(2, 3, 4, 8), trials: int = 1000, seed: int = 0) -> list[CaseResult]:
    """LK gap sandwiches on random non-catastrophic channels."""
    out = []
    for d in dims:
        for t in range(trials):
            rng = np.random.default_rng([seed, d, t])
            ch, target = sample_noncatastrophic(d, rng)
            r1, r2 = metrics.lk_gap_bounds(ch, target)
            out.append(_case_from_report(f"lemma1/d{d}/t{t}", r1))
            out.append(_case_from_report(f"lemma2/d{d}/t{t}", r2))
    return out


def appendix_suite(dims=(2, 3, 5), trials: int = 1000, seed: int = 0) -> list[CaseResult]:
    """Trace, flavored Von Neumann, and norm inequality sweeps."""
    out = []
    inf = float("inf")
    for d in dims:
        for t in range(trials):
            rng = np.random.default_rng([seed, d, t])

            def herm():
                g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                return (g + g.conj().T) / 2.0

            def contraction():
                g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                u, s, vh = np.linalg.svd(g)
                return (u * np.minimum(s, 1.0)) @ vh

            tr = matcore.check_trace_inequality(herm(), herm())
            out.append(
                CaseResult(
                    f"trace/d{d}/t{t}", "appendix_trace", tr.lhs, tr.rhs, inf,
                    tr.lhs - tr.rhs, tr.holds,
                )
            )
            vn = matcore.check_vn_inequality(contraction(), contraction())
            out.append(
                CaseResult(
                    f"vn/d{d}/t{t}", "appendix_vn", vn.lhs, -inf, vn.rhs,
                    vn.rhs - vn.lhs, vn.holds,
                )
            )
            nm = matcore.check_norm_inequality(contraction(), contraction())
            out.append(
                CaseResult(
                    f"norm/d{d}/t{t}", "appendix_norm", nm.product, nm.lower,
                    nm.upper, min(nm.product - nm.lower, nm.upper - nm.product),
                    nm.holds,
                )
            )
    return out


def _general_circuit(d: int, m: int, rng: np.random.Generator, with_targets: bool):
    r_cap = min(1e-2, np.sqrt(REGIME_CAP) * 0.8 / m)
    channels = []
    targets = None
    if with_targets:
        targets = []
    for _ in range(m):
        r_t = float(10 ** rng.uniform(np.log10(3e-5), np.log10(r_cap)))
        el = element_for_infidelity(d, r_t, rng)
        if with_targets:
            u = genlib.random_unitary(d, _subseed(rng))
            el = chn.KrausChannel(
                dim=d, kraus=np.einsum("kij,jl->kil", el.kraus, u)
            )
            targets.append(u)
        channels.append(el)
    return bounds.CircuitSpec(channels, targets)


def _decoherent_circuit(d: int, m: int, rng: np.random.Generator):
    r_cap = min(1e-2, np.sqrt(REGIME_CAP) * 0.8 / m)
    channels = []
    for _ in range(m):
        r_t = float(10 ** rng.uniform(np.log10(3e-5), np.log10(r_cap)))
        channels.append(element_for_infidelity(d, r_t, rng, decoherent=True))
    return bounds.CircuitSpec(channels)


def theorem_suite(
    dims=(2, 3),
    trials: int = 500,
    seed: int = 0,
    depths=(2, 4, 8, 16, 32),
) -> list[CaseResult]:
    """Thm 1/2/5/9 on general circuits plus Thm 4/6/8 on decoherent ones.

    ``trials`` circuits per dimension, split evenly over the depths;
    element infidelities stay below 1e-2 and within m^2 r^2 <= 0.1.
    """
    out = []
    per = max(1, trials // len(depths))
    for d in dims:
        for m in depths:
            for t in range(per):
                rng = np.random.default_rng([seed, d, m, t])
                tag = f"d{d}/m{m}/t{t}"
                circ = _general_circuit(d, m, rng, with_targets=(t % 2 == 0))
                out.append(_case_from_report(f"thm1/{tag}", bounds.thm1_uni_evo(circ)))
                out.append(_case_from_report(f"thm2/{tag}", bounds.thm2_fid_evo(circ)))
                out.append(
                    _case_from_report(f"thm5/{tag}", bounds.thm5_unitarity_decay(circ))
                )
                out.append(
                    _case_from_report(
                        f"thm9/{tag}", bounds.thm9_max_correction_multi(circ)
                    )
                )
                dcirc = _decoherent_circuit(d, m, rng)
                v = genlib.random_unitary_error(
                    d, float(rng.uniform(0.0, 0.15)), _subseed(rng)
                ).kraus[0]
                mono, sub = bounds.thm4_decoherent_features(dcirc, v)
                out.append(_case_from_report(f"thm4a/{tag}", mono))
                out.append(_case_from_report(f"thm4b/{tag}", sub))
                out.append(
                    _case_from_report(f"thm6/{tag}", bounds.thm6_fidelity_decay(dcirc))
                )
                out.append(
                    _case_from_report(
                        f"thm8/{tag}", bounds.thm8_equable_composition(v, dcirc)
                    )
                )
    return out


def thm7_suite(
    dims=(2, 3), trials: int = 500, seed: int = 0, budget: int = 500
) -> list[CaseResult]:
    """Single-channel quasi-maximal correction sweep with the numerical
    optimizer cross-check."""
    out = []
    for d in dims:
        for t in range(trials):
            rng = np.random.default_rng([seed, d, t])
            ch, target = sample_noncatastrophic(d, rng)
            rep = bounds.thm7_max_correction(
                ch, target, budget=budget, seed=_subseed(rng)
            )
            out.append(_case_from_report(f"thm7/d{d}/t{t}", rep))
    return out


def lindblad_suite(dims=(2, 3, 4), trials: int = 200, seed: int = 0) -> list[CaseResult]:
    """Orthogonality of the three generator terms (traceless draws) and
    generator preservation under traceless canonicalization (traceful
    draws)."""
    out = []
    for d in dims:
        for t in range(trials):
            rng = np.random.default_rng([seed, d, t])

            def op():
                return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

            h = op()
            h = (h + h.conj().T) / 2.0
            n_ops = int(rng.integers(1, 4))
            traceless = []
            for _ in range(n_ops):
                l = op()
                traceless.append(l - np.trace(l) / d * np.eye(d))
            spec = bounds.LindbladSpec(dim=d, hamiltonian=h, lindblad_ops=traceless)
            st = bounds.lindblad_structure(spec)
            norms = {
                "hamiltonian": np.linalg.norm(st.term_hamiltonian),
                "anticommutator": np.linalg.norm(st.term_anticommutator),
                "jump": np.linalg.norm(st.term_jump),
            }
            worst = 0.0
            for key, ip in st.inner_products.items():
                a, b = key.split(".")
                denom = norms[a] * norms[b]
                if denom > 0:
                    worst = max(worst, abs(ip) / denom)
            out.append(
                CaseResult(
                    f"lind_orth/d{d}/t{t}", "lindblad_orthogonality", worst, 0.0,
                    1e-9, 1e-9 - worst, st.orthogonal,
                )
            )
            traceful = [op() for _ in range(n_ops)]
            spec2 = bounds.LindbladSpec(dim=d, hamiltonian=h, lindblad_ops=traceful)
            before = bounds.lindblad_superop(spec2)
            after = bounds.lindblad_superop(bounds.canonicalize_lindblad(spec2))
            err = float(
                np.linalg.norm(before - after) / max(np.linalg.norm(before), 1.0)
            )
            out.append(
                CaseResult(
                    f"lind_canon/d{d}/t{t}", "lindblad_canonicalize", err, 0.0,
                    1e-9, 1e-9 - err, err <= 1e-9,
                )
            )
    return out


SUITES = ("lemmas", "theorems", "appendix", "all")


def run_suite(
    name: str, dims=None, trials: int = 100, seed: int = 0, budget: int = 200
) -> list[CaseResult]:
    """Dispatch a named verification suite."""
    if name not in SUITES:
        raise ValueError(f"unknown suite '{name}'")
    cases = []
    if name in ("lemmas", "all"):
        cases += lemma_suite(dims or (2, 3, 4, 8), trials, seed)
    if name in ("theorems", "all"):
        thm_dims = tuple(d for d in (dims or (2, 3)) if d <= 8)
        cases += theorem_suite(thm_dims, trials, seed)
        cases += thm7_suite(thm_dims, max(1, trials // 5), seed, budget=budget)
        cases += lindblad_suite(tuple(d for d in (dims or (2, 3, 4)) if d <= 8),
                                max(1, trials // 2), seed)
    if name in ("appendix", "all"):
        cases += appendix_suite(dims or (2, 3, 5), trials, seed)
    return cases


# ---------------------------------------------------------------------------
# composition sweep (figure-style data)
# ---------------------------------------------------------------------------


@dataclass
class SweepRow:
    """Per-depth record of a composition sweep."""

    depth: int
    phi: float
    upsilon_envelope: float
    thm8_centre: float
    thm8_lower: float
    thm8_upper: float
    coherent_lower: float
    non_catastrophic: bool
    contained: bool


def composition_sweep(element: chn.KrausChannel, max_depth: int) -> list[SweepRow]:
    """Compose an identical error element to increasing depth.

    Tracks the exact composite Phi via superoperator powers, the
    prod-Upsilon envelope, the equable-composition band around
    Phi(V^m, I) prod Phi(D, I) (element polar factors V, D), and the
    coherent-envelope lower bound.  Rows past the non-catastrophic horizon
    are still emitted and flagged.

    Each depth costs a fixed number of numpy calls on d x d and
    d^2 x d^2 matrices, one of them the O(m) coherent-envelope sum over
    prefix views of two arrays built once.  The WSE coherence constants of
    V^m come from one stacked eigvalsh per block of 256 depths, so the
    working memory is O(256 d^2 + d^4) besides the rows.
    """
    d = element.dim
    pol = channel_polar(element)
    phi_e = metrics.phi(element)
    ups_e = metrics.upsilon(element)
    w1 = element.w1
    sigma = pol.singular_values
    mean_sigma = float(np.mean(sigma))
    gamma_d = _spectrum_constants(sigma)[1]
    phi_d = metrics.phi(pol.decoherent_left)
    s_el = chn.to_superop(element)
    v = pol.unitary
    psd = pol.psd

    s_m = np.eye(d * d, dtype=np.complex128)
    v_m = np.eye(d, dtype=np.complex128)
    p_m = np.eye(d, dtype=np.complex128)
    rows = []
    ratio = min(phi_e / ups_e, 1.0) if ups_e > 0 else 1.0
    if ratio > 0.5:
        # the first m entries are the envelope's per-element inputs at depth m
        ratios = np.full(max_depth, ratio)
        upsilons = np.full(max_depth, ups_e)
    # V^m for the depths of one block, overwritten block after block
    v_buf = np.empty((min(_SWEEP_BLOCK, max_depth), d, d), dtype=np.complex128)
    for start in range(0, max_depth, _SWEEP_BLOCK):
        v_pows = v_buf[: min(_SWEEP_BLOCK, max_depth - start)]
        for v_k in v_pows:
            v_m = np.matmul(v, v_m, out=v_k)
        gammas_c = bounds._wse_coh_constant(v_pows).tolist()
        for m, (v_m, gamma_c) in enumerate(zip(v_pows, gammas_c), start + 1):
            s_m = s_el @ s_m
            p_m = (v_m.conj().T @ psd @ v_m) @ p_m
            phi_m = float(np.trace(s_m).real) / d**2
            ups_m = float(np.linalg.norm(s_m)) / d
            phi_vm = float(abs(np.trace(v_m)) ** 2 / d**2)
            centre = phi_vm * phi_d**m
            s_star = m * (1.0 - w1)
            pert_sum = m * (1.0 - mean_sigma)
            phi_vstar = float(abs(np.trace(v_m @ p_m)) ** 2 / d**2)
            band = (
                0.5 * s_star**2
                + (1.0 - phi_vstar) * s_star
                + m * (1.0 - w1) * (1.0 - phi_d)
                + 2.0 * gamma_d * gamma_c * (1.0 - np.sqrt(phi_vm)) * pert_sum
                + gamma_d**2 * pert_sum**2
            )
            if ratio > 0.5:
                env = bounds.coherent_envelope(ratios[:m], d, upsilons=upsilons[:m])
                coh_lower = env.lower
            else:
                coh_lower = 0.0
            nc = bool(phi_m > 0.5 and ups_m**2 > 0.5)
            rows.append(
                SweepRow(
                    depth=m,
                    phi=phi_m,
                    upsilon_envelope=ups_e**m,
                    thm8_centre=centre,
                    thm8_lower=centre - band,
                    thm8_upper=centre + band,
                    coherent_lower=coh_lower,
                    non_catastrophic=nc,
                    contained=bool(abs(phi_m - centre) <= band + 1e-9),
                )
            )
    return rows


@dataclass
class SigmaProfile:
    """Singular-value dump of an LK operator with equability summary."""

    sigma: np.ndarray
    mean: float
    sd: float
    gamma_decoh: float
    Gamma_decoh: float
    threshold: float
    sse_decoh_ok: bool
    wse_decoh_ok: bool


def sigma_profile(element: chn.KrausChannel, kappa: float = 0.1) -> SigmaProfile:
    """Summarize the LK singular-value spectrum of a channel."""
    sigma = np.sort(channel_polar(element).singular_values)[::-1]
    big, gam, thr, sse_ok, wse_ok = _spectrum_constants(sigma, kappa)
    return SigmaProfile(
        sigma=sigma,
        mean=float(np.mean(sigma)),
        # an unperturbed spectrum reports sd 0, like its constants
        sd=float(np.std(sigma)) if gam else 0.0,
        gamma_decoh=gam,
        Gamma_decoh=big,
        threshold=thr,
        sse_decoh_ok=sse_ok,
        wse_decoh_ok=wse_ok,
    )
