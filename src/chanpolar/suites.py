"""Randomized verification suites and the composition sweep engine.

These drivers generate seeded channel families, evaluate the bound
reports, and return them with their ``case_id`` set, one
:class:`~chanpolar.matcore.BoundReport` per CSV row.  Every
trial derives its randomness from (seed, dimension, depth, trial-index),
so results are independent of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import bounds, channel as chn, genlib, matcore, metrics
from .matcore import BoundReport
from .polar import _spectrum_constants, channel_polar, channel_polars

REGIME_CAP = 0.1  # theorem_suite circuits keep m^2 r^2 <= this
THEOREM_DEPTHS = (2, 4, 8, 16, 32)  # circuit depths of theorem_suite
_THEOREM_CHUNK = 64  # (d, m, t) cells per batch of theorem_suite
_SWEEP_BLOCK = 256  # depths per stacked eigvalsh in composition_sweep


def _case(case_id: str, rep: BoundReport) -> BoundReport:
    rep.case_id = case_id
    return rep


def _subseed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63 - 1))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def element_for_infidelity(d: int, r_target, draws, decoherent: bool = False):
    """Near-identity random elements, the i-th with infidelity close to
    ``r_target[i]``.

    ``draws`` holds one (Kraus rank, generator seed) pair per target; the
    rank is capped at d^2.  Each element is generated at a guessed strength,
    measured, and regenerated once with the rescaled strength (r scales
    quadratically in the strength, so one correction step lands within a
    few percent) from the same seed, so the second draw reuses the first
    one's GUE eigendecomposition.  The elements of one rank share one
    stacked generator eigendecomposition, the decoherent ones of a draw one
    :func:`channel_polars`; each has the bits of its own ``genlib.random_cptp``
    (or, decoherent, ``genlib.psd_lk_decoherent``) calls.
    """
    ks = np.minimum([rank for rank, _ in draws], d * d)
    order = np.argsort(ks, kind="stable")  # the elements rank by rank
    r_t = np.asarray(r_target, dtype=np.float64)[order]
    ranks = sorted(set(ks.tolist()))  # np.unique would import numpy.ma
    starts = np.searchsorted(ks[order], ranks)[1:]
    eigs = [genlib._gue_eig(d * k, [draws[i][1] for i in order[ks[order] == k]]) for k in ranks]

    def gen(mask, eps):  # the elements of ``order`` where mask, at strengths eps
        if decoherent:  # psd_lk_decoherent(d, min(eps, 0.3), seed, kraus_rank=k)
            eps = np.minimum(eps, 0.3)
        chs = []  # random_cptp(d, k, seed, strength=eps), from the finite columns of a unitary
        for k, (w, v), m, e in zip(ranks, eigs, np.split(mask, starts), np.split(eps, starts)):
            iso = matcore._expi_eig(w[m], v[m], -e[m])[..., :d]
            chs += map(chn._unchecked, repeat(d), iso.reshape(len(iso), k, d, d).copy())
        return [p.decoherent_left for p in channel_polars(chs)] if decoherent else chs

    eps = np.sqrt(2.0 * r_t)
    chs = gen(np.ones(len(order), dtype=bool), eps)
    r0 = metrics.infidelity(metrics._phis(chs, [np.eye(d, dtype=np.complex128)] * len(chs)), d)
    redo = r0 > 1e-12
    if redo.any():
        eps[redo] *= np.sqrt(r_t[redo] / r0[redo])
        for j, ch in zip(np.flatnonzero(redo), gen(redo, eps)):
            chs[j] = ch
    return [chs[j] for j in np.argsort(order).tolist()]  # back in target order


def sample_noncatastrophic(d: int, rng: np.random.Generator):
    """(channel, target) pair: a random unitary target followed by
    near-identity noise, non-catastrophic by construction."""
    strength = float(rng.uniform(0.02, 0.3))
    rank = int(rng.integers(2, 5))
    noise = genlib.random_cptp(d, min(rank, d * d), _subseed(rng), strength=strength)
    target = genlib.random_unitary(d, _subseed(rng))
    kraus = np.einsum("kij,jl->kil", noise.kraus, target)
    return chn.KrausChannel(dim=d, kraus=kraus), target


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _trials(dims, trials: int, seed: int):
    """(d, t, rng) for each dimension and trial index, the generator seeded
    by [seed, d, t]: the per-trial stream of the single-channel suites."""
    for d in dims:
        for t in range(trials):
            yield d, t, np.random.default_rng([seed, d, t])


def lemma_suite(dims=(2, 3, 4, 8), trials: int = 1000, seed: int = 0) -> list[BoundReport]:
    """LK gap sandwiches on random non-catastrophic channels."""
    out = []
    for d, t, rng in _trials(dims, trials, seed):
        ch, target = sample_noncatastrophic(d, rng)
        r1, r2 = metrics.lk_gap_bounds(ch, target)
        out.append(_case(f"lemma1/d{d}/t{t}", r1))
        out.append(_case(f"lemma2/d{d}/t{t}", r2))
    return out


def appendix_suite(dims=(2, 3, 5), trials: int = 1000, seed: int = 0) -> list[BoundReport]:
    """Trace, flavored Von Neumann, and norm inequality sweeps."""
    out = []
    for d, t, rng in _trials(dims, trials, seed):

        def herm():
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            return (g + g.conj().T) / 2.0

        def contraction():
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            u, s, vh = np.linalg.svd(g)
            return (u * np.minimum(s, 1.0)) @ vh

        tr = matcore.check_trace_inequality(herm(), herm())
        out.append(_case(f"trace/d{d}/t{t}", tr))
        vn = matcore.check_vn_inequality(contraction(), contraction())
        out.append(_case(f"vn/d{d}/t{t}", vn))
        nm = matcore.check_norm_inequality(contraction(), contraction())
        out.append(_case(f"norm/d{d}/t{t}", nm))
    return out


def _draw_circuit(d: int, m: int, rng, with_targets=False) -> tuple:
    """The random numbers of one depth-m circuit, drawn in per-element order
    (target infidelity, rank, seed, target seed; none depends on a computed
    value): (target infidelities, (rank, seed) pairs, target seeds or None).

    The infidelities are log-uniform in [3e-5, min(1e-2, 0.8 sqrt(REGIME_CAP) / m)].
    """
    r_cap = min(1e-2, np.sqrt(REGIME_CAP) * 0.8 / m)
    r_ts, draws, target_seeds = [], [], []
    for _ in range(m):
        r_ts.append(float(10 ** rng.uniform(np.log10(3e-5), np.log10(r_cap))))
        draws.append((int(rng.integers(2, 5)), _subseed(rng)))  # rank, then seed
        if with_targets:
            target_seeds.append(_subseed(rng))
    return r_ts, draws, target_seeds if with_targets else None


def _build_circuits(d: int, drawn: list, decoherent=False) -> list:
    """The circuits of :func:`_draw_circuit` results, all elements from one
    :func:`element_for_infidelity` call; with targets, each element applies
    its Haar-random target unitary first."""
    channels = iter(element_for_infidelity(
        d, [r for r_ts, _, _ in drawn for r in r_ts],
        [x for _, draws, _ in drawn for x in draws], decoherent=decoherent,
    ))
    unitaries = iter(genlib._haar_unitaries(d, [s for _, _, ts in drawn for s in ts or ()]))
    out = []
    for r_ts, _, target_seeds in drawn:
        els = [next(channels) for _ in r_ts]
        targets = None
        if target_seeds is not None:
            targets = [next(unitaries) for _ in target_seeds]
            els = [chn.KrausChannel(dim=d, kraus=np.einsum("kij,jl->kil", el.kraus, u))
                   for el, u in zip(els, targets)]
        out.append(bounds.CircuitSpec(els, targets))
    return out


def theorem_suite(dims=(2, 3), trials: int = 500, seed: int = 0) -> list[BoundReport]:
    """Thm 1/2/5/9 on general circuits plus Thm 4/6/8 on decoherent ones.

    ``max(1, trials // len(THEOREM_DEPTHS))`` circuits per dimension and
    depth of ``THEOREM_DEPTHS``; element infidelities stay below 1e-2 and
    within m^2 r^2 <= 0.1.

    The (d, m, t) cells of a dimension run in chunks of at most
    ``_THEOREM_CHUNK``: each cell draws its random numbers from its own
    stream, then the chunk's general and decoherent elements are built by
    one batched sampler call each, all its circuits are primed together
    (:func:`bounds._prime`), and the cases are evaluated cell by cell.  So
    the results do not depend on the chunk size, and the working memory is
    O(chunk) at any ``trials``.
    """
    out = []
    per = max(1, trials // len(THEOREM_DEPTHS))
    for d in dims:
        cells = [(m, t) for m in THEOREM_DEPTHS for t in range(per)]
        for at in range(0, len(cells), _THEOREM_CHUNK):
            chunk = cells[at:at + _THEOREM_CHUNK]
            general, decoh, vs = [], [], []
            for m, t in chunk:
                rng = np.random.default_rng([seed, d, m, t])
                general.append(_draw_circuit(d, m, rng, with_targets=(t % 2 == 0)))
                decoh.append(_draw_circuit(d, m, rng))
                vs.append((float(rng.uniform(0.0, 0.15)), _subseed(rng)))
            circs = _build_circuits(d, general)
            dcircs = _build_circuits(d, decoh, decoherent=True)
            bounds._prime(circs + dcircs)
            for (m, t), circ, dcirc, (strength, v_seed) in zip(chunk, circs, dcircs, vs):
                tag = f"d{d}/m{m}/t{t}"
                out.append(_case(f"thm1/{tag}", bounds.thm1_uni_evo(circ)))
                out.append(_case(f"thm2/{tag}", bounds.thm2_fid_evo(circ)))
                out.append(_case(f"thm5/{tag}", bounds.thm5_unitarity_decay(circ)))
                out.append(_case(f"thm9/{tag}", bounds.thm9_max_correction_multi(circ)))
                v = genlib.random_unitary_error(d, strength, v_seed).kraus[0]
                mono, sub = bounds.thm4_decoherent_features(dcirc, v)
                out.append(_case(f"thm4a/{tag}", mono))
                out.append(_case(f"thm4b/{tag}", sub))
                out.append(_case(f"thm6/{tag}", bounds.thm6_fidelity_decay(dcirc)))
                out.append(
                    _case(f"thm8/{tag}", bounds.thm8_equable_composition(v, dcirc))
                )
    return out


def thm7_suite(dims=(2, 3), trials: int = 500, seed: int = 0) -> list[BoundReport]:
    """Single-channel quasi-maximal correction sweep, each case with the
    polar-ascent cross-check of :func:`bounds.thm7_max_correction`."""
    out = []
    for d, t, rng in _trials(dims, trials, seed):
        ch, target = sample_noncatastrophic(d, rng)
        out.append(_case(f"thm7/d{d}/t{t}", bounds.thm7_max_correction(ch, target)))
    return out


def lindblad_suite(dims=(2, 3, 4), trials: int = 200, seed: int = 0) -> list[BoundReport]:
    """Orthogonality of the three generator terms (traceless draws) and
    generator preservation under traceless canonicalization (traceful
    draws).  Both records are built here, not by ``make_report``: ``slack``
    is ``1e-9 - observed``, not the distance to the nearer side, and
    ``holds`` is the structure's relative orthogonality test (each pairwise
    |<T_a, T_b>| <= 1e-9 |T_a| |T_b|), or ``observed <= 1e-9``."""
    out = []
    for d, t, rng in _trials(dims, trials, seed):

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
        worst = st.worst_overlap
        out.append(
            BoundReport(
                case_id=f"lind_orth/d{d}/t{t}", theorem="lindblad_orthogonality",
                observed=worst, lower=0.0, upper=1e-9, slack=1e-9 - worst,
                holds=st.orthogonal,
            )
        )
        traceful = [op() for _ in range(n_ops)]
        spec2 = bounds.LindbladSpec(dim=d, hamiltonian=h, lindblad_ops=traceful)
        before = bounds.lindblad_superop(spec2)
        after = bounds.lindblad_superop(bounds.canonicalize_lindblad(spec2))
        err = float(np.linalg.norm(before - after) / max(np.linalg.norm(before), 1.0))
        out.append(
            BoundReport(
                case_id=f"lind_canon/d{d}/t{t}", theorem="lindblad_canonicalize",
                observed=err, lower=0.0, upper=1e-9, slack=1e-9 - err,
                holds=err <= 1e-9,
            )
        )
    return out


SUITES = ("lemmas", "theorems", "appendix", "all")
# The largest d of each capped suite.  Theorem cases grow steeply in cost
# with d: five theorem-suite cells at d = 16 take about 10 s on a 2-core VM,
# most of it in the Choi eigensolver of composition and element canonical forms.
DIM_CAPS = {"theorem": 8, "Lindblad": 8}


def run_suite(name: str, dims=None, trials: int = 100, seed: int = 0) -> list[BoundReport]:
    """Dispatch a named verification suite.  The theorem and Thm 7 suites
    skip dimensions above ``DIM_CAPS["theorem"]``, which bounds their cost,
    and the Lindblad suite those above ``DIM_CAPS["Lindblad"]``; so
    ``"theorems"`` at dimensions above both selects no case."""
    if name not in SUITES:
        raise ValueError(f"unknown suite '{name}'")
    cases = []
    if name in ("lemmas", "all"):
        cases += lemma_suite(dims or (2, 3, 4, 8), trials, seed)
    if name in ("theorems", "all"):
        thm_dims = tuple(d for d in (dims or (2, 3)) if d <= DIM_CAPS["theorem"])
        cases += theorem_suite(thm_dims, trials, seed)
        cases += thm7_suite(thm_dims, max(1, trials // 5), seed)
        lindblad_dims = tuple(d for d in (dims or (2, 3, 4)) if d <= DIM_CAPS["Lindblad"])
        cases += lindblad_suite(lindblad_dims, max(1, trials // 2), seed)
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

    The envelope's checks run once, before any row: a d = 1 element raises
    here.  Its angles are built once (the elements are identical).  The
    depths run in blocks of 256, and per depth only three matrix chains
    step, V^m = V V^(m-1) and P^m (the conjugated decoherent factors) into
    the block's stacks and S^m = S S^(m-1) into a buffer of at most 1 MB
    of powers (256 at d <= 4, 16 at d = 8) but at least two, so that no
    power overwrites its factor; and depth m sums the first m angles.  All
    else is numpy arrays over the block: the coherence constants, the
    traces of V^m, V^m P^m and S^m, the norms of S^m and every row scalar.
    Each array operation rounds like the scalar one of the per-depth
    formulas (squares and powers go through libm ``pow``, as Python floats
    do), so the rows are bit for bit theirs.  The working memory is
    O(256 d^2 + d^4) besides the rows.
    """
    d = element.dim
    pol = channel_polar(element)
    phi_e = metrics.phi(element)
    ups_e = metrics.upsilon(element)
    ratio = min(phi_e / ups_e, 1.0) if ups_e > 0 else 1.0
    if ratio > 0.5:
        arcs = bounds._envelope_angles(np.full(max_depth, ratio), d)[1]
        # multiply-reduce is sequential: entry m - 1 is np.prod of m copies
        ups_prods = np.cumprod(np.full(max_depth, ups_e))
    w1 = element.w1
    sigma = pol.singular_values
    mean_sigma = float(np.mean(sigma))
    gamma_d = _spectrum_constants(sigma)[1]
    phi_d = pol.phi_decoherent
    s_el = chn.to_superop(element)
    v = pol.unitary
    psd = pol.psd

    s_m = np.eye(d * d, dtype=np.complex128)
    v_m = np.eye(d, dtype=np.complex128)
    p_m = np.eye(d, dtype=np.complex128)
    rows = []
    # V^m for the depths of one block, overwritten block after block
    v_buf = np.empty((min(_SWEEP_BLOCK, max_depth), d, d), dtype=np.complex128)
    n_s = min(max(2, 2**20 // s_el.nbytes), _SWEEP_BLOCK, max_depth)  # S^m per 1 MB
    for start in range(0, max_depth, _SWEEP_BLOCK):
        n = min(_SWEEP_BLOCK, max_depth - start)
        ms = range(start + 1, start + n + 1)
        v_pows = v_buf[:n]
        for v_k in v_pows:
            v_m = np.matmul(v, v_m, out=v_k)
        gamma_c = bounds._wse_coh_constant(v_pows)
        # V^m† P V^m, each then overwritten by P^m; the stack is dropped
        # before the next block's coherence constants, so that the peak
        # memory stays theirs
        p_pows = np.swapaxes(v_pows.conj(), -1, -2) @ psd @ v_pows
        for p_k in p_pows:
            p_m = np.matmul(p_k, p_m, out=p_k)
        p_m = p_m.copy()
        tr_v = np.trace(v_pows, axis1=-2, axis2=-1)
        tr_vp = np.trace(v_pows @ p_pows, axis1=-2, axis2=-1)
        del p_pows, p_k
        # |tr| by np.hypot rounds like abs() of a complex scalar
        phi_v = matcore._squares(np.hypot(tr_v.real, tr_v.imag)) / d**2
        phi_vstar = matcore._squares(np.hypot(tr_vp.real, tr_vp.imag)) / d**2
        phi_m, ups_m = np.empty(n), np.empty(n)
        s_buf = np.empty((n_s,) + s_el.shape, dtype=np.complex128)
        for at in range(0, n, n_s):
            s_pows = s_buf[:min(n_s, n - at)]
            for s_k in s_pows:
                s_m = np.matmul(s_el, s_m, out=s_k)
            phi_m[at:at + n_s] = np.trace(s_pows, axis1=-2, axis2=-1).real / d**2
            ups_m[at:at + n_s] = matcore._norms(s_pows) / d  # each np.linalg.norm(S^m)
        s_m = s_m.copy()  # like P^m: the buffer goes before the next block's stacks
        del s_buf, s_pows, s_k
        centre = phi_v * np.array(list(map(pow, repeat(phi_d), ms)))
        s_star = np.array(ms) * (1.0 - w1)
        pert_sum = np.array(ms) * (1.0 - mean_sigma)
        band = bounds._thm8_terms(
            s_star, phi_vstar, s_star * (1.0 - phi_d), gamma_d, gamma_c, phi_v, pert_sum
        )[1]
        coh_lower = np.zeros(n)
        if ratio > 0.5:  # each prefix by numpy's pairwise sum, as a single call
            totals = np.array([arcs[:m].sum() for m in ms])
            coh_lower = bounds._envelope_lower(totals, d)[0] * ups_prods[start:start + n]
        rows += map(  # the fields in SweepRow order
            SweepRow, ms, phi_m.tolist(), map(pow, repeat(ups_e), ms), centre.tolist(),
            (centre - band).tolist(), (centre + band).tolist(), coh_lower.tolist(),
            map(metrics._nc_regime, phi_m.tolist(), ups_m.tolist()),
            (np.abs(phi_m - centre) <= band + matcore.HOLDS_TOL).tolist(),
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
