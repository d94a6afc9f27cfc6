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

from . import bounds, channel as chn, genlib, matcore, metrics, polar
from .matcore import BoundReport
from .polar import _decoherent_lefts, _spectrum_constants, channel_polar, channel_polars

REGIME_CAP = 0.1  # theorem_suite circuits keep m^2 r^2 <= this
THEOREM_DEPTHS = (2, 4, 8, 16, 32)  # circuit depths of theorem_suite
_THEOREM_CHUNK = 64  # (m, t) cells per run of theorem_suite, trials of the other suites
_SWEEP_BLOCK = 256  # depths per stacked eigvalsh in composition_sweep


def _case(case_id: str, rep: BoundReport) -> BoundReport:
    rep.case_id = case_id
    return rep


def _subseed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63 - 1))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def element_for_infidelity(d: int, r_target, draws, decoherent: bool = False, targets=None):
    """Near-identity random elements, the i-th with infidelity close to
    ``r_target[i]``.

    ``draws`` holds one (Kraus rank, generator seed) pair per target; the
    rank is capped at d^2.  Each element is generated at a guessed strength,
    measured, and regenerated once with the rescaled strength (r scales
    quadratically in the strength, so one correction step lands within a
    few percent) from the same seed, so the second draw reuses the first
    one's GUE eigendecomposition.  The elements of one rank share one
    stacked generator eigendecomposition, the decoherent ones of a draw one
    :func:`channel_polars` and one V^dag A einsum per Kraus shape; each has the
    bits of its own ``genlib.random_cptp`` (or, decoherent,
    ``genlib.psd_lk_decoherent``) calls.  ``targets`` (general elements only) holds a
    unitary U or None per element: A_k U by one einsum per rank, with the bits of one each.
    """
    genlib._require(targets is None or not decoherent, "targets apply to general elements only")
    ks = np.minimum([rank for rank, _ in draws], d * d)
    order = np.argsort(ks, kind="stable")  # the elements rank by rank
    r_t = np.asarray(r_target, dtype=np.float64)[order]
    ranks = sorted(set(ks.tolist()))  # np.unique would import numpy.ma
    starts = np.searchsorted(ks[order], ranks)[1:]
    eigs = [genlib._gue_eig(d * k, [draws[i][1] for i in order[ks[order] == k]]) for k in ranks]

    def gen(eps):  # (each rank's Kraus stack, the channels) of ``order`` at strengths eps
        if decoherent:  # psd_lk_decoherent(d, min(eps, 0.3), seed, kraus_rank=k)
            eps = np.minimum(eps, 0.3)
        ops = [genlib._near_identity_kraus(d, k, eig, e)  # random_cptp(d, k, seed, strength=e)
               for k, eig, e in zip(ranks, eigs, np.split(eps, starts))]
        chs = [chn._unchecked(d, kraus) for stack in ops for kraus in stack]
        return ops, _decoherent_lefts(channel_polars(chs)) if decoherent else chs

    eps = np.sqrt(2.0 * r_t)
    stacks, chs = gen(eps)
    r0 = metrics.infidelity(metrics._phis(chs, [np.eye(d, dtype=np.complex128)] * len(chs)), d)
    redo = r0 > 1e-12
    if redo.any():  # all again: an element that needs no redo keeps its strength, so its bits
        eps[redo] *= np.sqrt(r_t[redo] / r0[redo])
        stacks, chs = gen(eps)
    has = np.array([targets is not None and targets[i] is not None for i in order], dtype=bool)
    targeted = {}
    for stack, idx, m in zip(stacks, np.split(order, starts), np.split(has, starts)):
        if m.any():  # A_k U of the rank's elements with a target
            ops = np.einsum("nkij,njl->nkil", stack[m], np.array([targets[i] for i in idx[m]]))
            targeted.update(zip(idx[m].tolist(), chn._channels(ops)))
    # back in target order
    return [targeted.get(i, chs[j]) for i, j in enumerate(np.argsort(order).tolist())]


def sample_noncatastrophic(d: int, rng: np.random.Generator):
    """(channel, target) pair: a random unitary target followed by
    near-identity noise, non-catastrophic by construction."""
    chs, targets = _noncatastrophic(d, [rng])
    return chs[0], targets[0]


def _noncatastrophic(d: int, rngs) -> tuple[list, np.ndarray]:
    """:func:`sample_noncatastrophic` of each generator (strength, rank, noise seed, target
    seed in turn): one QR and unitarity test, then per rank one :func:`genlib._gue_eig` and
    the operators A_k U by one einsum and finiteness check."""
    eps, ks, seeds, target_seeds = zip(*[
        (float(rng.uniform(0.02, 0.3)), min(int(rng.integers(2, 5)), d * d),
         _subseed(rng), _subseed(rng)) for rng in rngs])
    targets = metrics._check_targets(genlib._haar_unitaries(d, target_seeds), d)
    chs = {}
    for k in set(ks):
        idx = [i for i, x in enumerate(ks) if x == k]
        eig = genlib._gue_eig(d * k, [seeds[i] for i in idx])
        noise = genlib._near_identity_kraus(d, k, eig, [eps[i] for i in idx])
        chs.update(zip(idx, chn._channels(np.einsum("nkij,njl->nkil", noise, targets[idx]))))
    return [chs[i] for i in range(len(ks))], targets


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _trials(dims, keys, seed: int):
    """(d, keys, generators) per dimension and run of at most ``_THEOREM_CHUNK`` keys,
    key k's generator seeded by [seed, d, *k]: a stream of its own.  The keys
    are tuples, a trial index (t,) or a theorem-suite cell (m, t); a run
    stacks at most 2^18 Choi matrix entries (64 keys at d <= 8, 4 at d = 16)."""
    for d in dims:
        run = max(1, min(_THEOREM_CHUNK, 2**18 // d**4))  # d^2 x d^2 Choi matrices: 4 MiB a run
        for at in range(0, len(keys), run):
            ks = keys[at:at + run]
            yield d, ks, [np.random.default_rng([seed, d, *k]) for k in ks]


def lemma_suite(dims=(2, 3, 4, 8), trials: int = 1000, seed: int = 0) -> list[BoundReport]:
    """LK gap sandwiches on random non-catastrophic channels, a run of trials per stack."""
    out = []
    for d, ks, rngs in _trials(dims, [(t,) for t in range(trials)], seed):
        chs, targets = _noncatastrophic(d, rngs)
        for (t,), (r1, r2) in zip(ks, metrics._lk_gaps(chs, targets)):
            out.append(_case(f"lemma1/d{d}/t{t}", r1))
            out.append(_case(f"lemma2/d{d}/t{t}", r2))
    return out


def appendix_suite(dims=(2, 3, 5), trials: int = 1000, seed: int = 0) -> list[BoundReport]:
    """Trace, flavored Von Neumann, and norm inequality sweeps.

    Trial t draws six complex Ginibre matrices from its own stream (each the
    real part, then the imaginary one): the Hermitian parts of two for the
    trace check, and four contractions (singular values clipped at 1) for the
    Von Neumann and norm checks.  A run of trials is checked as stacks, one
    call of each check; each report has the bits of its single call.
    """
    out = []
    for d, ks, rngs in _trials(dims, [(t,) for t in range(trials)], seed):
        g = np.array([[rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                       for _ in range(6)] for rng in rngs])
        herm = (g[:, :2] + np.conj(g[:, :2]).swapaxes(-1, -2)) / 2.0
        u, s, vh = np.linalg.svd(g[:, 2:])
        con = (u * np.minimum(s, 1.0)[..., None, :]) @ vh
        for (t,), tr, vn, nm in zip(ks, matcore.check_trace_inequality(herm[:, 0], herm[:, 1]),
                                    matcore.check_vn_inequality(con[:, 0], con[:, 1]),
                                    matcore.check_norm_inequality(con[:, 2], con[:, 3])):
            out += [_case(f"trace/d{d}/t{t}", tr), _case(f"vn/d{d}/t{t}", vn),
                    _case(f"norm/d{d}/t{t}", nm)]
    return out


def _draw_circuit(d: int, m: int, rng, with_targets=False) -> tuple:
    """The random numbers of one depth-m circuit, drawn in per-element order
    (target infidelity, rank, seed, target seed; none depends on a computed
    value): (target infidelities, (rank, seed) pairs, target seeds or None).

    The infidelities are log-uniform in [3e-5, min(1e-2, 0.8 sqrt(REGIME_CAP) / m)].
    """
    log_r = np.log10(3e-5), np.log10(min(1e-2, np.sqrt(REGIME_CAP) * 0.8 / m))
    r_ts, draws, target_seeds = [], [], []
    for _ in range(m):
        r_ts.append(float(10 ** rng.uniform(*log_r)))
        draws.append((int(rng.integers(2, 5)), _subseed(rng)))  # rank, then seed
        if with_targets:
            target_seeds.append(_subseed(rng))
    return r_ts, draws, target_seeds if with_targets else None


def _build_circuits(d: int, drawn: list, decoherent=False) -> list:
    """The circuits of :func:`_draw_circuit` results, all elements from one
    :func:`element_for_infidelity` call, which applies each element's Haar-random
    target first where its circuit has targets (all drawn by one stacked QR)."""
    unitaries = iter(genlib._haar_unitaries(d, [s for _, _, ts in drawn for s in ts or ()]))
    targets = [ts and [next(unitaries) for _ in ts] for _, _, ts in drawn]
    per_element = [u for (r_ts, _, _), us in zip(drawn, targets) for u in us or [None] * len(r_ts)]
    channels = iter(element_for_infidelity(
        d, [r for r_ts, _, _ in drawn for r in r_ts], [x for _, draws, _ in drawn for x in draws],
        decoherent, per_element if any(targets) else None))
    return [bounds.CircuitSpec([next(channels) for _ in r_ts], us)
            for (r_ts, _, _), us in zip(drawn, targets)]


def theorem_suite(dims=(2, 3), trials: int = 500, seed: int = 0) -> list[BoundReport]:
    """Thm 1/2/5/9 on general circuits plus Thm 4/6/8 on decoherent ones.

    ``max(1, trials // len(THEOREM_DEPTHS))`` circuits per dimension and
    depth of ``THEOREM_DEPTHS``; element infidelities stay below 1e-2 and
    within m^2 r^2 <= 0.1.

    The (m, t) cells of a dimension run in the runs of :func:`_trials`, at
    most ``_THEOREM_CHUNK`` cells (fewer above d = 8): each cell draws its
    random numbers from its own stream, seeded by [seed, d, m, t], then the
    run's general and decoherent elements are built by one batched sampler
    call each, all its circuits are primed together (:func:`bounds._prime`),
    and the cases are evaluated cell by cell.  So the results do not depend
    on the run length, and the working memory is O(run) at any ``trials``.
    """
    out = []
    per = max(1, trials // len(THEOREM_DEPTHS))
    cells = [(m, t) for m in THEOREM_DEPTHS for t in range(per)]
    for d, run, rngs in _trials(dims, cells, seed):
        general, decoh, vs = [], [], []
        for (m, t), rng in zip(run, rngs):
            general.append(_draw_circuit(d, m, rng, with_targets=(t % 2 == 0)))
            decoh.append(_draw_circuit(d, m, rng))
            vs.append((float(rng.uniform(0.0, 0.15)), _subseed(rng)))
        circs = _build_circuits(d, general)
        dcircs = _build_circuits(d, decoh, decoherent=True)
        bounds._prime(circs + dcircs)
        strengths, v_seeds = zip(*vs)  # genlib.random_unitary_error of each, stacked
        us = genlib._near_identity_kraus(d, 1, genlib._gue_eig(d, v_seeds), strengths)[:, 0]
        for (m, t), circ, dcirc, v in zip(run, circs, dcircs, us):
            tag = f"d{d}/m{m}/t{t}"
            out.append(_case(f"thm1/{tag}", bounds.thm1_uni_evo(circ)))
            out.append(_case(f"thm2/{tag}", bounds.thm2_fid_evo(circ)))
            out.append(_case(f"thm5/{tag}", bounds.thm5_unitarity_decay(circ)))
            out.append(_case(f"thm9/{tag}", bounds.thm9_max_correction_multi(circ)))
            mono, sub = bounds.thm4_decoherent_features(dcirc, v)
            out.append(_case(f"thm4a/{tag}", mono))
            out.append(_case(f"thm4b/{tag}", sub))
            out.append(_case(f"thm6/{tag}", bounds.thm6_fidelity_decay(dcirc)))
            out.append(_case(f"thm8/{tag}", bounds.thm8_equable_composition(v, dcirc)))
    return out


def thm7_suite(dims=(2, 3), trials: int = 500, seed: int = 0) -> list[BoundReport]:
    """Single-channel quasi-maximal correction sweep, a run of trials per stack, each case
    with the polar-ascent cross-check of :func:`bounds.thm7_max_correction`."""
    out = []
    for d, ks, rngs in _trials(dims, [(t,) for t in range(trials)], seed):
        chs, targets = _noncatastrophic(d, rngs)
        for (t,), rep in zip(ks, bounds._thm7_reports(chs, targets)):
            out.append(_case(f"thm7/d{d}/t{t}", rep))
    return out


def lindblad_suite(dims=(2, 3, 4), trials: int = 200, seed: int = 0) -> list[BoundReport]:
    """Orthogonality of the three generator terms (traceless draws) and
    generator preservation under traceless canonicalization (traceful
    draws).  Both records come from ``make_report`` on [0, 1e-9]; this suite
    then sets ``slack`` to ``1e-9 - observed``, not the distance to the
    nearer side, and ``holds`` to the structure's relative orthogonality test
    (each pairwise |<T_a, T_b>| <= 1e-9 |T_a| |T_b|), or ``observed <= 1e-9``."""
    out = []
    for d, ks, rngs in _trials(dims, [(t,) for t in range(trials)], seed):
        for (t,), rng in zip(ks, rngs):

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
            orth = matcore.make_report("lindblad_orthogonality", st.worst_overlap, 0.0, 1e-9)
            orth.slack, orth.holds = 1e-9 - orth.observed, st.orthogonal
            out.append(_case(f"lind_orth/d{d}/t{t}", orth))
            traceful = [op() for _ in range(n_ops)]
            spec2 = bounds.LindbladSpec(dim=d, hamiltonian=h, lindblad_ops=traceful)
            before = bounds.lindblad_superop(spec2)
            after = bounds.lindblad_superop(bounds.canonicalize_lindblad(spec2))
            err = np.linalg.norm(before - after) / max(np.linalg.norm(before), 1.0)
            canon = matcore.make_report("lindblad_canonicalize", err, 0.0, 1e-9)
            canon.slack, canon.holds = 1e-9 - canon.observed, canon.observed <= 1e-9
            out.append(_case(f"lind_canon/d{d}/t{t}", canon))
    return out


SUITES = ("lemmas", "theorems", "appendix", "all")
# The largest d of each capped suite.  Theorem cases grow steeply in cost with d:
# five theorem-suite cells at d = 16 (40 cases) take 5.0-5.1 s and 243-259 MB peak
# RSS, one process alone on a 2-core Xeon at commit 2e6c2d0, over half of it in the
# Choi eigensolver (eigh of 256 x 256 Choi matrices) of element and composite forms.
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
    depths run in blocks of 256, and per depth two matmuls run.  One is a
    (2, d, d) stack: V V^(m+255) gives the next block's V^(m+256) (block 0's
    powers are stepped alone first) and (V^m† P V^m) P^(m-1) gives P^m, the
    conjugated decoherent factors; a stack has the bits of its single calls.
    The other steps S^m = S S^(m-1) into a buffer of at most 1 MB of powers
    (256 at d <= 4, 16 at d = 8) but at least two, so that no power
    overwrites its factor.  Depth m also sums the first m angles.  All else
    is numpy arrays over the block: the coherence constants, the traces of
    V^m, V^m P^m and S^m, the norms of S^m and every row scalar.  Each array
    operation rounds like the scalar one of the per-depth formulas (squares
    and powers go through libm ``pow``, as Python floats do), so the rows
    are bit for bit theirs.  The working memory is O(256 d^2 + d^4) besides
    the rows: four (256, d, d) stacks while V^m and P^m step, then V^m, S,
    S^m and the S^m buffer.
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
    # V^m of one block: block 0's are stepped here, each later block's by the one before
    v_buf = np.empty((min(_SWEEP_BLOCK, max_depth), d, d), dtype=np.complex128)
    for v_k in v_buf:
        v_m = np.matmul(v, v_m, out=v_k)
    n_s = min(metrics._block(s_el.nbytes), _SWEEP_BLOCK, max_depth)  # S^m per 1 MiB
    for start in range(0, max_depth, _SWEEP_BLOCK):
        n = min(_SWEEP_BLOCK, max_depth - start)
        ms = range(start + 1, start + n + 1)
        v_pows = v_buf[:n]
        gamma_c = bounds._wse_coh_constant(v_pows)
        # one (2, d, d) matmul per depth: (V, V^m† P V^m) in pairs[k + 2] takes (V^(m+n-1),
        # P^(m-1)) in pairs[k] to (V^(m+n), P^m) in pairs[k + 1], a left factor already
        # used; V^m† and V^m† P go through the free slots first
        pairs = np.empty((n + 2, 2, d, d), dtype=np.complex128)
        pairs[0, 0], pairs[0, 1] = v_pows[-1], p_m
        np.conjugate(v_pows, out=pairs[2:, 1])
        np.matmul(np.swapaxes(pairs[2:, 1], -1, -2), psd, out=pairs[2:, 0])
        np.matmul(pairs[2:, 0], v_pows, out=pairs[2:, 1])
        pairs[2:, 0] = v
        for left, right, out in zip(pairs[2:], pairs, pairs[1:]):
            np.matmul(left, right, out=out)
        p_m = pairs[n, 1].copy()
        phi_v = np.array(metrics._overlaps(v_pows))
        phi_vstar = np.array(metrics._overlaps(v_pows @ pairs[1:n + 1, 1]))
        v_buf[:n] = pairs[1:n + 1, 0]  # the next block's V^m
        del pairs, left, right, out  # freed before the S^m buffer, which sets the peak
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


def sigma_profile(element: chn.KrausChannel, kappa: float = polar.DEFAULT_KAPPA) -> SigmaProfile:
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
