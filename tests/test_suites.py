import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from chanpolar import bounds, channel as chn, genlib, matcore, metrics, polar, suites
from chanpolar.errors import DimensionMismatch, ParamOutOfRange, PhaseUndefined
from chanpolar.matcore import BoundReport
from chanpolar.polar import _spectrum_constants

# V^m is traceless when 3 divides m and 9 does not (V^3 = diag(1, w, w^2), w^3 = 1)
PHASES_D3 = np.diag(np.exp(2j * np.pi * np.arange(3) / 9))


def composition_sweep_per_depth(element, max_depth):
    """One depth at a time: the coherence constant of each V^m on its own
    and the envelope from fresh m-element lists; the reference route that
    :func:`suites.composition_sweep` must match bit for bit."""
    d = element.dim
    pol = polar.channel_polar(element)
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
    for m in range(1, max_depth + 1):
        s_m = s_el @ s_m
        v_m = v @ v_m
        p_m = (v_m.conj().T @ psd @ v_m) @ p_m
        phi_m = float(np.trace(s_m).real) / d**2
        ups_m = float(np.linalg.norm(s_m)) / d
        phi_vm = float(abs(np.trace(v_m)) ** 2 / d**2)
        centre = phi_vm * phi_d**m
        try:
            gamma_c = bounds._wse_coh_constant(v_m)
        except PhaseUndefined:
            gamma_c = 0.0
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
            env = bounds.coherent_envelope([ratio] * m, d, upsilons=[ups_e] * m)
            coh_lower = env.lower
        else:
            coh_lower = 0.0
        nc = bool(phi_m > 0.5 and ups_m**2 > 0.5)
        rows.append(
            suites.SweepRow(
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


def element_per_call(d, r_t, rank, seed, decoherent=False):
    """One element of :func:`suites.element_for_infidelity` from its own genlib
    generator calls: generated, measured and regenerated once."""

    def gen(eps):
        if decoherent:
            return genlib.psd_lk_decoherent(d, min(eps, 0.3), seed, kraus_rank=min(rank, d * d))
        return genlib.random_cptp(d, min(rank, d * d), seed, strength=eps)

    eps0 = float(np.sqrt(2.0 * r_t))
    el = gen(eps0)
    r0 = metrics.infidelity(metrics.phi(el), d)
    return gen(eps0 * float(np.sqrt(r_t / r0))) if r0 > 1e-12 else el


def circuit_per_element(d, m, rng, with_targets=False, decoherent=False):
    """One element at a time, each from its own genlib generator call: the
    reference route that the batched sampler must match bit for bit."""
    r_cap = min(1e-2, np.sqrt(suites.REGIME_CAP) * 0.8 / m)
    channels = []
    targets = [] if with_targets else None
    for _ in range(m):
        r_t = float(10 ** rng.uniform(np.log10(3e-5), np.log10(r_cap)))
        rank = int(rng.integers(2, 5))
        seed = int(rng.integers(0, 2**63 - 1))
        el = element_per_call(d, r_t, rank, seed, decoherent)
        if with_targets:
            u = genlib.random_unitary(d, int(rng.integers(0, 2**63 - 1)))
            el = chn.KrausChannel(dim=d, kraus=np.einsum("kij,jl->kil", el.kraus, u))
            targets.append(u)
        channels.append(el)
    return channels, targets


def noncatastrophic_per_trial(d, rng):
    """One trial from its own genlib generator calls: the reference route
    that :func:`suites._noncatastrophic` must match bit for bit."""
    strength = float(rng.uniform(0.02, 0.3))
    rank = int(rng.integers(2, 5))
    noise = genlib.random_cptp(d, min(rank, d * d), int(rng.integers(0, 2**63 - 1)), strength)
    target = genlib.random_unitary(d, int(rng.integers(0, 2**63 - 1)))
    return chn.KrausChannel(dim=d, kraus=np.einsum("kij,jl->kil", noise.kraus, target)), target


def single_channel_suites_per_trial(dims, trials, seed):
    """The lemma and Thm 7 suites one trial at a time, each channel sampled
    by :func:`noncatastrophic_per_trial` and evaluated by the public
    single-channel calls."""
    lemmas, thm7 = [], []
    for d in dims:
        for t in range(trials):
            ch, target = noncatastrophic_per_trial(d, np.random.default_rng([seed, d, t]))
            r1, r2 = metrics.lk_gap_bounds(ch, target)
            lemmas += [suites._case(f"lemma1/d{d}/t{t}", r1), suites._case(f"lemma2/d{d}/t{t}", r2)]
            ch, target = noncatastrophic_per_trial(d, np.random.default_rng([seed, d, t]))
            thm7.append(suites._case(f"thm7/d{d}/t{t}", bounds.thm7_max_correction(ch, target)))
    return lemmas, thm7


def appendix_suite_per_trial(dims, trials, seed):
    """One trial at a time, the public single-pair checks on the trial's six
    draws: the reference route that :func:`suites.appendix_suite` must match
    bit for bit."""
    out = []
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
            vn = matcore.check_vn_inequality(contraction(), contraction())
            nm = matcore.check_norm_inequality(contraction(), contraction())
            out += [suites._case(f"trace/d{d}/t{t}", tr), suites._case(f"vn/d{d}/t{t}", vn),
                    suites._case(f"norm/d{d}/t{t}", nm)]
    return out


def theorem_suite_per_cell(dims, trials, seed):
    """One (d, m, t) cell at a time, its circuits from
    :func:`circuit_per_element` and each one's data computed on its own:
    the reference route that :func:`suites.theorem_suite` must match bit
    for bit."""
    out = []
    per = max(1, trials // len(suites.THEOREM_DEPTHS))
    for d in dims:
        for m in suites.THEOREM_DEPTHS:
            for t in range(per):
                rng = np.random.default_rng([seed, d, m, t])
                tag = f"d{d}/m{m}/t{t}"
                circ = bounds.CircuitSpec(*circuit_per_element(d, m, rng, t % 2 == 0))
                out.append(suites._case(f"thm1/{tag}", bounds.thm1_uni_evo(circ)))
                out.append(suites._case(f"thm2/{tag}", bounds.thm2_fid_evo(circ)))
                out.append(suites._case(f"thm5/{tag}", bounds.thm5_unitarity_decay(circ)))
                out.append(
                    suites._case(f"thm9/{tag}", bounds.thm9_max_correction_multi(circ))
                )
                dcirc = bounds.CircuitSpec(
                    circuit_per_element(d, m, rng, decoherent=True)[0]
                )
                v = genlib.random_unitary_error(
                    d, float(rng.uniform(0.0, 0.15)), int(rng.integers(0, 2**63 - 1))
                ).kraus[0]
                mono, sub = bounds.thm4_decoherent_features(dcirc, v)
                out.append(suites._case(f"thm4a/{tag}", mono))
                out.append(suites._case(f"thm4b/{tag}", sub))
                out.append(suites._case(f"thm6/{tag}", bounds.thm6_fidelity_decay(dcirc)))
                out.append(
                    suites._case(f"thm8/{tag}", bounds.thm8_equable_composition(v, dcirc))
                )
    return out


class TestSamplers:
    def test_element_calibration(self):
        rng = np.random.default_rng(1)
        for d in (2, 3):
            r_ts, draws = [], []
            for _ in range(10):  # target, rank, seed: one element's draws
                r_ts.append(float(10 ** rng.uniform(-4.5, -2.0)))
                draws.append((int(rng.integers(2, 5)), suites._subseed(rng)))
            els = suites.element_for_infidelity(d, r_ts, draws)
            for r_t, el in zip(r_ts, els, strict=True):
                r = metrics.infidelity(metrics.phi(el), d)
                assert r == pytest.approx(r_t, rel=0.05)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("m", [2, 16, 32])
    @pytest.mark.parametrize("kind", ["targets", "general", "decoherent"])
    def test_circuit_equals_per_element_route(self, d, m, kind):
        """The batched sampler draws the same numbers in the same order and
        builds the same elements as a loop of single generator calls."""
        opts = {"with_targets": kind == "targets", "decoherent": kind == "decoherent"}
        for seed in range(5):
            rng = np.random.default_rng([seed, d, m])
            ref = np.random.default_rng([seed, d, m])
            drawn = suites._draw_circuit(d, m, rng, opts["with_targets"])
            circ = suites._build_circuits(d, [drawn], opts["decoherent"])[0]
            channels, targets = circuit_per_element(d, m, ref, **opts)
            assert rng.bit_generator.state == ref.bit_generator.state
            for got, want in zip(circ.channels, channels, strict=True):
                assert got.kraus.shape == want.kraus.shape
                assert got.kraus.tobytes() == want.kraus.tobytes()
            if targets is not None:
                for got, want in zip(circ.targets, targets, strict=True):
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("decoherent", [False, True])
    def test_mixed_ranks_equal_per_rank_and_single_calls(self, d, decoherent):
        """One call over mixed Kraus ranks (one capped at d^2) gives each
        element the bytes of a call per rank and of a call per element; with a
        target on some elements of each rank, the bytes of ``random_cptp`` and one
        einsum A_k U per element, also when one element needs no redo."""
        rng = np.random.default_rng([d, decoherent])
        ranks = [2, 3, 4, 2, 4, 3, 2, d * d + 1]
        r_ts = [float(10 ** rng.uniform(-4.5, -2.0)) for _ in ranks]
        draws = [(k, suites._subseed(rng)) for k in ranks]
        els = suites.element_for_infidelity(d, r_ts, draws, decoherent)
        for k in {min(k, d * d) for k in ranks}:
            idx = [i for i, rank in enumerate(ranks) if min(rank, d * d) == k]
            per_rank = suites.element_for_infidelity(
                d, [r_ts[i] for i in idx], [draws[i] for i in idx], decoherent)
            for i, el in zip(idx, per_rank, strict=True):
                assert els[i].kraus.tobytes() == el.kraus.tobytes()
        for i, el in enumerate(els):
            one = suites.element_for_infidelity(d, [r_ts[i]], [draws[i]], decoherent)[0]
            assert one.kraus.shape == el.kraus.shape
            assert one.kraus.tobytes() == el.kraus.tobytes()
        us = [None if i % 3 == 1 else genlib.random_unitary(d, i) for i in range(len(ranks))]
        if decoherent:
            with pytest.raises(ParamOutOfRange, match="^targets apply to general elements only$"):
                suites.element_for_infidelity(d, r_ts, draws, decoherent, us)
            return
        r_ts[0] = 0.0  # strength 0, the identity: r measures below 1e-12, so no redo
        targeted = suites.element_for_infidelity(d, r_ts, draws, targets=us)
        for el, r_t, (k, seed), u in zip(targeted, r_ts, draws, us, strict=True):
            one = element_per_call(d, r_t, k, seed).kraus
            want = one if u is None else np.einsum("kij,jl->kil", one, u)
            assert el.kraus.shape == want.shape
            assert el.kraus.tobytes() == want.tobytes()

    def test_sample_noncatastrophic(self):
        for t in range(20):
            rng = np.random.default_rng([5, t])
            d = 2 + t % 3
            ch, target = suites.sample_noncatastrophic(d, rng)
            assert metrics.non_catastrophic(ch, target)

    def test_per_trial_seeding_is_order_independent(self):
        a = suites.lemma_suite(dims=(2,), trials=5, seed=9)
        b = suites.lemma_suite(dims=(2,), trials=5, seed=9)
        assert [(c.case_id, c.observed) for c in a] == [
            (c.case_id, c.observed) for c in b
        ]


class TestTheoremSuite:
    @pytest.mark.parametrize("chunk", [1, 3, 10**6], ids=["1", "3", "whole"])
    def test_chunks_equal_per_cell_route(self, chunk, monkeypatch):
        """Every field of every report, terms included, is the same at any
        chunk size as on the per-cell route; 10 trials give 2 circuits per
        depth, so chunks of 3 cross the depths."""
        primed = []
        prime = bounds._prime
        monkeypatch.setattr(bounds, "_prime", lambda cs: primed.append(len(cs)) or prime(cs))
        monkeypatch.setattr(suites, "_THEOREM_CHUNK", chunk)
        got = suites.theorem_suite(dims=(2, 3), trials=10, seed=4)
        cells = [min(chunk, 10 - at) for at in range(0, 10, chunk)] * 2
        assert primed == [2 * n for n in cells]  # a general and a decoherent circuit per cell
        monkeypatch.setattr(bounds, "_prime", prime)
        want = theorem_suite_per_cell(dims=(2, 3), trials=10, seed=4)
        assert len(got) == len(want) == 2 * 10 * 8
        for a, b in zip(got, want):
            assert repr(dataclasses.asdict(a)) == repr(dataclasses.asdict(b))

    def test_cells_take_their_own_streams_in_runs(self):
        """Over theorem-suite cells, cell (m, t) at dimension d draws from
        default_rng([seed, d, m, t]), in runs of 64 cells to d = 8 and of 4
        at d = 16 (2^18 Choi entries a run)."""
        cells = [(m, t) for m in suites.THEOREM_DEPTHS for t in range(20)]
        runs = {}
        for d, ks, rngs in suites._trials((2, 8, 16), cells, 5):
            at = sum(runs.get(d, []))
            assert list(ks) == cells[at:at + len(ks)]
            for (m, t), rng in zip(ks, rngs, strict=True):
                want = np.random.default_rng([5, d, m, t])
                assert rng.bit_generator.state == want.bit_generator.state
                assert rng.integers(0, 2**63 - 1) == want.integers(0, 2**63 - 1)
            runs.setdefault(d, []).append(len(ks))
        assert runs == {2: [64, 36], 8: [64, 36], 16: [4] * 25}


class TestSingleChannelSuites:
    def test_noncatastrophic_stack_equals_per_trial_route(self):
        """One stacked sampler call over trials of mixed Kraus ranks (rank 4
        capped at d^2 = 4 at d = 2) draws the same numbers and builds the same
        channels and targets as one trial at a time."""
        for d in (2, 3):
            rngs = [np.random.default_rng([8, d, t]) for t in range(12)]
            refs = [np.random.default_rng([8, d, t]) for t in range(12)]
            chs, targets = suites._noncatastrophic(d, rngs)
            assert len({ch.n_kraus for ch in chs}) > 1
            for ch, target, rng, ref in zip(chs, targets, rngs, refs, strict=True):
                want_ch, want_target = noncatastrophic_per_trial(d, ref)
                assert rng.bit_generator.state == ref.bit_generator.state
                assert ch.kraus.shape == want_ch.kraus.shape
                assert ch.kraus.tobytes() == want_ch.kraus.tobytes()
                assert target.tobytes() == want_target.tobytes()
            one = suites.sample_noncatastrophic(d, np.random.default_rng([8, d, 0]))
            assert one[0].kraus.tobytes() == chs[0].kraus.tobytes()
            assert one[1].tobytes() == targets[0].tobytes()

    def test_runs_hold_at_most_2_18_choi_entries(self):
        """A run of trials stacks at most 2^18 Choi entries (4 MiB a copy):
        whole chunks to d = 8, 4 trials at d = 16, one trial from d = 32."""
        runs = {}
        trials = [(t,) for t in range(70)]
        for d, ks, rngs in suites._trials((2, 8, 16, 32, 64), trials, 0):
            assert len(rngs) == len(ks) and ks[0] == (sum(runs.get(d, [])),)
            runs.setdefault(d, []).append(len(ks))
        assert runs == {2: [64, 6], 8: [64, 6], 16: [4] * 17 + [2], 32: [1] * 70, 64: [1] * 70}

    @pytest.mark.parametrize("chunk", [1, 3, 10**6], ids=["1", "3", "whole"])
    def test_chunks_equal_per_trial_route(self, chunk, monkeypatch):
        """Every field of every lemma and Thm 7 report is the same at any
        chunk size as one trial at a time through the public calls."""
        monkeypatch.setattr(suites, "_THEOREM_CHUNK", chunk)
        got = (suites.lemma_suite(dims=(2, 3), trials=7, seed=3),
               suites.thm7_suite(dims=(2, 3), trials=7, seed=3))
        want = single_channel_suites_per_trial(dims=(2, 3), trials=7, seed=3)
        for g, w, n in zip(got, want, (2 * 2 * 7, 2 * 7)):
            assert len(g) == len(w) == n
            for a, b in zip(g, w):
                assert repr(dataclasses.asdict(a)) == repr(dataclasses.asdict(b))


    def test_lindblad_runs_equal_per_trial_route(self, monkeypatch):
        """The Lindblad suite's rows, floats by ``float.hex``, are the same in
        runs of 64 trials as one trial at a time; 70 trials cross a run."""
        got = suites.lindblad_suite(dims=(2, 3), trials=70, seed=6)
        monkeypatch.setattr(suites, "_THEOREM_CHUNK", 1)
        want = suites.lindblad_suite(dims=(2, 3), trials=70, seed=6)
        assert len(got) == len(want) == 2 * 2 * 70
        for a, b in zip(got, want):
            assert repr(dataclasses.asdict(a)) == repr(dataclasses.asdict(b))


class TestAppendixSuite:
    @pytest.mark.parametrize("trials", [1, 5, 65])
    def test_rows_equal_per_trial_route(self, trials):
        """Every field of every row, floats by ``float.hex``, is the same as one
        trial at a time; 65 trials cross a run of 64."""
        got = suites.appendix_suite(dims=(2, 3, 5), trials=trials, seed=11)
        want = appendix_suite_per_trial(dims=(2, 3, 5), trials=trials, seed=11)
        assert len(got) == len(want) == 3 * 3 * trials

        def fields(rep):
            return [x.hex() if isinstance(x, float) else x
                    for x in dataclasses.astuple(rep)]

        for a, b in zip(got, want):
            assert fields(a) == fields(b)

    def test_one_call_of_each_check_per_run(self, monkeypatch):
        calls = []
        for name in ("check_trace_inequality", "check_vn_inequality", "check_norm_inequality"):
            check = getattr(matcore, name)
            monkeypatch.setattr(matcore, name, lambda a, b, check=check: calls.append(
                len(a)) or check(a, b))
        suites.appendix_suite(dims=(2, 3), trials=65, seed=0)
        assert calls == [64] * 3 + [1] * 3 + [64] * 3 + [1] * 3


class TestRecords:
    def test_theorem_and_lindblad_cases_at_their_cap(self):
        """At d = 8, the cap of both (DIM_CAPS), the theorem suite keeps its
        theorem, Thm 7 and Lindblad cases."""
        cases = suites.run_suite("theorems", dims=(8,), trials=1, seed=0)
        assert {c.theorem for c in cases} >= {
            "thm1", "thm7", "thm9", "lindblad_orthogonality", "lindblad_canonicalize"}

    def test_slack_of_every_row(self):
        """Bound rows carry min(observed - lower, upper - observed); the
        Lindblad rows keep their explicit 1e-9 - observed."""
        cases = suites.run_suite("all", dims=(2, 3), trials=5, seed=1)
        assert {c.theorem for c in cases} >= {
            "lemma1", "thm7", "thm9", "appendix_vn", "lindblad_orthogonality",
            "lindblad_canonicalize",
        }
        for c in cases:
            assert isinstance(c, BoundReport) and c.case_id
            if c.theorem.startswith("lindblad_"):
                assert c.slack == 1e-9 - c.observed
            else:
                assert c.slack == min(c.observed - c.lower, c.upper - c.observed)


def row_bits(rows):
    """Each row's fields, a float by ``float.hex``: -0.0 and 0.0 differ, as
    they do in the CSV ("-0" and "0")."""
    return [tuple(float.hex(x) if isinstance(x, float) else x
                  for x in dataclasses.astuple(r)) for r in rows]


EDGES = (1, 255, 256, 257)  # across the 256-depth blocks
# across the next two block seams, where V^m comes from the block before
SEAMS = EDGES + (511, 512, 513, 600, 769)


class TestCompositionSweep:
    @pytest.mark.parametrize(
        "element, depths",
        [
            (genlib.coherence_mix(1e-4, 0.5), SEAMS),  # even-d envelope
            # V^m traceless at m = 3 (mod 6)
            (genlib.rotation(2, np.pi / 6), EDGES + (600,)),
            (genlib.psd_lk_decoherent(5, 0.02, seed=3), EDGES + (600,)),  # odd-d envelope
            (genlib.random_cptp(3, 3, seed=4, strength=0.05), EDGES + (600,)),
            (chn.compose([
                genlib.psd_lk_decoherent(3, 0.02, seed=5),
                chn.KrausChannel(dim=3, kraus=PHASES_D3[np.newaxis]),
            ]), SEAMS),
            (genlib.psd_lk_decoherent(4, 0.02, seed=6), SEAMS),
            (genlib.stochastic_weyl(8, 0.998, seed=7), EDGES + (600,)),
            (genlib.random_cptp(8, 3, seed=8, strength=0.05), EDGES + (600,)),
            (genlib.coherence_mix(1e-4, 0.01), EDGES + (2000,)),  # a figure-3 curve
            # the odd-d angle total reaches its cap at depth 160
            (genlib.psd_lk_decoherent(5, 0.3, seed=3), EDGES + (300,)),
            # Phi/Upsilon = cos^2(1) <= 1/2: no envelope, coherent_lower 0.0
            (genlib.rotation(2, 1.0), (1, 2, 40)),
            (genlib.random_cptp(16, 2, seed=9, strength=0.05), (1, 2, 12)),
            # around the 16-matrix S^m sub-blocks of d = 8 and past two blocks
            (genlib.random_cptp(8, 2, seed=10, strength=0.05), (15, 16, 17, 257, 513)),
            # leaves the non-catastrophic regime at depth 275, mid-block
            (genlib.depolarizing(2, 0.998), (274, 275, 400)),
        ],
        ids=["coherence_mix-d2", "rotation-d2", "psd_lk_decoherent-d5",
             "random_cptp-d3", "traceless-cube-d3", "psd_lk_decoherent-d4",
             "stochastic_weyl-d8", "random_cptp-d8", "coherence_mix-d2-depth2000",
             "psd_lk_decoherent-d5-capped", "rotation-d2-ratio-below-half",
             "random_cptp-d16", "random_cptp-d8-sub-blocks", "depolarizing-d2-leaves-regime"],
    )
    def test_rows_equal_per_depth_route(self, element, depths):
        # gamma_coh is 0 for every d = 2 unitary; the d = 3 elements give
        # it weight, and the traceless-cube one has a traceless V^m whenever
        # 3 divides m and 9 does not; d = 4 and 8 take numpy's unrolled
        # pairwise sums in the traces of the d^2 x d^2 powers (and d = 8 in
        # those of V^m); d = 16 steps S^m in a one-matrix buffer
        ref = row_bits(composition_sweep_per_depth(element, max(depths)))
        for depth in depths:
            assert row_bits(suites.composition_sweep(element, depth)) == ref[:depth]

    def test_edge_cases_reach_their_regimes(self):
        capped = suites.composition_sweep(genlib.psd_lk_decoherent(5, 0.3, seed=3), 300)
        assert capped[158].coherent_lower > 1e-30 > capped[159].coherent_lower
        low = suites.composition_sweep(genlib.rotation(2, 1.0), 40)
        assert {float.hex(r.coherent_lower) for r in low} == {float.hex(0.0)}
        dep = suites.composition_sweep(genlib.depolarizing(2, 0.998), 400)
        assert [r.depth for r in dep if not r.non_catastrophic][0] == 275

    def test_superoperator_powers_take_at_most_a_megabyte(self):
        # a (256, 64, 64) stack of S^m would be 16 MB at d = 8 (256 MB at d = 16)
        el = genlib.psd_lk_decoherent(8, 0.02, seed=6)
        tracemalloc.start()
        try:
            suites.composition_sweep(el, 300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_working_memory_at_d16(self):
        # S, S^m and a two-power S^m buffer are 4 MiB at d = 16, a (256, d, d)
        # stack 1 MiB; the V^m and P^m chains never hold more than four stacks
        # and are freed before the S^m buffer is made (6.1 MiB measured)
        el = genlib.psd_lk_decoherent(16, 0.02, seed=6)
        tracemalloc.start()
        try:
            suites.composition_sweep(el, 300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * 2**20

    def test_d1_raises_before_any_row(self, monkeypatch):
        # the coherent envelope needs d >= 2; its checks run before the
        # superoperator is built or any V^m block is stacked
        def unreachable(*args):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(chn, "to_superop", unreachable)
        monkeypatch.setattr(bounds, "_wse_coh_constant", unreachable)
        with pytest.raises(DimensionMismatch):
            suites.composition_sweep(genlib.identity_channel(1), 3)

    def test_builds_no_left_factor(self):
        el = genlib.random_cptp(3, 3, seed=12, strength=0.05)
        suites.composition_sweep(el, 3)
        pol = polar.channel_polar(el)
        assert "phi_decoherent" in vars(pol)
        assert "decoherent_left" not in vars(pol)

    def test_band_matches_standalone_evaluator(self):
        # rebuild the depth-m conjugated circuit explicitly and compare the
        # incremental band against thm8_equable_composition
        el = genlib.coherence_mix(1e-3, 0.2)
        rows = suites.composition_sweep(el, 6)
        pol = polar.channel_polar(el)
        v = pol.unitary
        for m in (1, 3, 6):
            v_m = np.linalg.matrix_power(v, m)
            parts = []
            for k in range(1, m + 1):
                v_k = np.linalg.matrix_power(v, k)
                conj = np.einsum(
                    "ij,kjl,lm->kim", v_k.conj().T, pol.decoherent_left.kraus, v_k
                )
                parts.append(chn.KrausChannel(dim=2, kraus=conj))
            rep = bounds.thm8_equable_composition(v_m, bounds.CircuitSpec(parts))
            row = rows[m - 1]
            assert row.thm8_centre == pytest.approx(rep.terms["band_centre"], abs=1e-11)
            band = (row.thm8_upper - row.thm8_lower) / 2.0
            assert band == pytest.approx(rep.upper, abs=1e-11)
            assert abs(row.phi - row.thm8_centre) == pytest.approx(
                rep.observed, abs=1e-11
            )

    def test_pure_rotation_band_is_tight(self):
        rows = suites.composition_sweep(genlib.rotation(2, 0.1), 4)
        for r in rows:
            assert r.phi == pytest.approx(np.cos(0.1 * r.depth) ** 2, abs=1e-12)
            assert r.thm8_upper - r.thm8_lower <= 1e-12
            assert r.contained

    def test_upsilon_envelope_column(self):
        el = genlib.depolarizing(2, 0.98)
        ups = metrics.upsilon(el)
        rows = suites.composition_sweep(el, 5)
        for r in rows:
            assert r.upsilon_envelope == pytest.approx(ups**r.depth, abs=1e-12)


def weyl_probabilities(ch) -> np.ndarray:
    """p[a, b] = sum_k |tr((X^a Z^b)^dag A_k)|^2 / d^2 of a Weyl mixture."""
    d = ch.dim
    shift = np.roll(np.eye(d), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    p = np.empty((d, d))
    for a in range(d):
        for b in range(d):
            w = np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
            p[a, b] = sum(abs(np.trace(w.conj().T @ k)) ** 2 for k in ch.kraus) / d**2
    return p


class TestWeylOracle:
    """The sweep's ``phi`` and ``non_catastrophic`` columns against a
    closed form.  A Weyl mixture with probabilities p composes to the Weyl
    mixture with probabilities p^{*m}, the m-fold cyclic convolution over
    Z_d x Z_d, so Phi = p^{*m}(0, 0) and Upsilon^2 = ||p^{*m}||_2^2.  The
    convolution powers are taken in long double from p read off the
    element's Kraus operators.  The largest |phi| error seen was 6.1e-14
    (d = 3, depth 2000)."""

    @pytest.mark.parametrize("element", [
        genlib.stochastic_weyl(2, 0.998, seed=1),
        genlib.stochastic_weyl(3, 0.998, seed=2),
        genlib.stochastic_weyl(4, 0.998, seed=3),
        genlib.stochastic_weyl(3, 0.9, seed=4),
        genlib.depolarizing(2, 0.999),
        genlib.depolarizing(3, 0.99),
    ], ids=["weyl-d2", "weyl-d3", "weyl-d4", "weyl-d3-p0.9", "depolarizing-d2",
            "depolarizing-d3"])
    def test_rows_match_convolution_powers(self, element):
        d = element.dim
        p = weyl_probabilities(element).astype(np.longdouble)
        i = np.arange(d)
        diff = (i[:, None] - i[None, :]) % d  # x - y mod d
        # conv[(x1, x2), (y1, y2)] = p[x1 - y1, x2 - y2]
        conv = p[diff[:, None, :, None], diff[None, :, None, :]].reshape(d * d, d * d)
        q = np.zeros(d * d, dtype=np.longdouble)
        q[0] = 1.0
        rows = suites.composition_sweep(element, 2000)
        for row in rows:
            q = conv @ q
            assert abs(row.phi - q[0]) <= 1e-12, row.depth
            assert row.non_catastrophic == bool(q[0] > 0.5 and q @ q > 0.5), row.depth
        assert rows[0].non_catastrophic and not rows[-1].non_catastrophic


class TestStackedConstants:
    """Stacked spectrum and coherence constants equal single calls exactly."""

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_spectrum_constants_rows(self, d):
        rng = np.random.default_rng([31, d])
        spectra = 1.0 - rng.uniform(0.0, 1e-3, size=(6, d))
        spectra[2] = 1.0  # unperturbed
        spectra[4] = 1.0 - 1e-13  # below the zero-perturbation floor
        stacked = _spectrum_constants(spectra)
        for i, row in enumerate(spectra):
            assert tuple(x[i] for x in stacked) == _spectrum_constants(row)
        assert _spectrum_constants(spectra[2]) == (0.0, 0.0, float("inf"), True, True)
        stacked_2d = _spectrum_constants(spectra.reshape(2, 3, d))
        assert all(np.array_equal(a.ravel(), b) for a, b in zip(stacked_2d, stacked))

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_wse_coh_constant_rows(self, d):
        v = genlib.random_unitary_error(d, 0.3, seed=d).kraus[0]
        powers = [np.linalg.matrix_power(v, m) for m in range(1, 40)]
        traceless = np.diag(np.exp(2j * np.pi * np.arange(d) / d))  # tr V = 0
        stack = np.stack(powers + [traceless, np.eye(d, dtype=np.complex128)])
        gammas = bounds._wse_coh_constant(stack)
        assert gammas.shape == (len(stack),)
        for m, vm in enumerate(powers):
            t = np.trace(vm)
            fixed = vm * (np.conj(t) / abs(t))  # the phase fix on scalars
            herm = (fixed + fixed.conj().T) / 2.0
            ref = _spectrum_constants(np.linalg.eigvalsh(herm))[1]
            assert gammas[m] == bounds._wse_coh_constant(vm) == ref
        with pytest.raises(PhaseUndefined):
            bounds._wse_coh_constant(traceless)
        assert gammas[-2] == 0.0
        assert gammas[-1] == bounds._wse_coh_constant(stack[-1]) == 0.0


class TestSigmaProfile:
    def test_summary_matches_equability(self):
        ch = genlib.extremal_dephaser(
            32, base_scale=2e-3, n_outliers=2, outlier_depth=0.02, seed=3
        )
        prof = suites.sigma_profile(ch, kappa=0.1)
        eq = polar.equability(ch, kappa=0.1)
        assert prof.gamma_decoh == pytest.approx(eq.gamma_decoh, abs=1e-12)
        assert prof.Gamma_decoh == pytest.approx(eq.Gamma_decoh, abs=1e-12)
        assert np.allclose(prof.sigma, eq.sigma, atol=0)
        assert prof.sd == pytest.approx(np.std(prof.sigma), abs=1e-15)


REFUSALS = {
    "unknown suite": (
        lambda: suites.run_suite("lemma"),
        ValueError, "unknown suite 'lemma'",
    ),
}


@pytest.mark.parametrize("call, exc, message", REFUSALS.values(), ids=REFUSALS)
def test_input_refused(call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is exc
