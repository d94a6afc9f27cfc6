"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np

from chanpolar import bounds, channel as chn, genlib, metrics, polar, suites

SEED = 20250811
I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def _verdict(num, ok, desc, elapsed=None):
    tail = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}{tail}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def test_criterion_01_lemma_suite():
    t0 = time.perf_counter()
    cases = suites.lemma_suite(dims=(2, 3, 4, 8), trials=1000, seed=SEED)
    elapsed = time.perf_counter() - t0
    n = len(cases)
    ok = (
        n == 8000
        and all(c.holds for c in cases)
        and min(c.slack for c in cases) >= -1e-10
        and elapsed < 60.0
    )
    _verdict(1, ok, "Lemma 1/2 sandwiches on 1e3 channels per d in {2,3,4,8}", elapsed)


def test_criterion_02_theorem_evolution_suite():
    t0 = time.perf_counter()
    cases = suites.theorem_suite(dims=(2, 3), trials=500, seed=SEED)
    elapsed = time.perf_counter() - t0
    gate = ("thm1", "thm2", "thm5", "thm6", "thm8", "thm9")
    per_thm = {t: [c for c in cases if c.theorem == t] for t in gate}
    ok = all(per_thm[t] and all(c.holds for c in per_thm[t]) for t in gate)
    # regime spot-check: rebuild a few circuits and verify the restrictions
    for d, m, t in ((2, 32, 0), (3, 8, 3), (2, 2, 7)):
        rng = np.random.default_rng([SEED, d, m, t])
        drawn = suites._draw_circuit(d, m, rng, with_targets=(t % 2 == 0))
        circ = suites._build_circuits(d, [drawn])[0]
        rs = [
            metrics.infidelity(metrics.phi(c, u), d)
            for c, u in zip(circ.channels, circ.targets)
        ]
        ok = ok and max(rs) <= 1e-2 * 1.05 and m**2 * max(rs) ** 2 <= 0.1
    ok = ok and elapsed < 600.0
    _verdict(
        2, ok,
        "Thm 1/2/5/6/8/9 hold on 500 circuits per d in {2,3}, m in {2..32}",
        elapsed,
    )


def test_criterion_03_stochastic_exact_example():
    ok = True
    for delta in (1e-1, 1e-2, 1e-3):
        el = chn.KrausChannel.from_ops(
            [np.sqrt(1 - delta) * I2, np.sqrt(delta) * X]
        )
        lk_el = chn.lk(el)
        composite = el
        lk_prod = lk_el
        for m in range(2, 65):
            composite = chn.compose([composite, el])
            lk_prod = chn.compose([lk_prod, lk_el])
            phi_exact = (1.0 + (1.0 - 2.0 * delta) ** m) / 2.0
            ok = ok and abs(metrics.phi(composite) - phi_exact) <= 1e-12
            ok = ok and abs(metrics.phi(lk_prod) - (1.0 - delta) ** m) <= 1e-12
            if not ok:
                break
    _verdict(3, ok, "composed Phi = (1+(1-2d)^m)/2 and LK Phi = (1-d)^m to 1e-12")


def test_criterion_04_depolarizing_u_multiplicativity():
    rng = np.random.default_rng(SEED)
    ok = True
    for d in (2, 3):
        for _ in range(100):
            p, q = rng.uniform(0.0, 1.0, size=2)
            comp = chn.compose([genlib.depolarizing(d, p), genlib.depolarizing(d, q)])
            u_comp = metrics.unitarity(metrics.upsilon(comp), d)
            u_prod = metrics.unitarity(
                metrics.upsilon(genlib.depolarizing(d, p)), d
            ) * metrics.unitarity(metrics.upsilon(genlib.depolarizing(d, q)), d)
            ok = ok and abs(u_comp - u_prod) <= 1e-12
            if d == 2:
                ok = ok and abs(u_prod - (p * q) ** 2) <= 1e-12  # u = p^2 oracle
    _verdict(4, ok, "u(P_p o P_q) = u(P_p) u(P_q) to 1e-12, 100 pairs per d in {2,3}")


def test_criterion_05_envelope_saturation():
    rng = np.random.default_rng(SEED + 5)
    ok = True
    for d in (2, 4):
        for _ in range(50):
            m = int(rng.integers(2, 7))
            thetas = rng.uniform(0.01, 1.0, size=m)
            thetas *= float(rng.uniform(0.3, 1.0)) * (np.pi / 4) / thetas.sum()
            comp = chn.compose([genlib.rotation(d, t) for t in thetas])
            observed = metrics.phi(comp)
            env = bounds.coherent_envelope(
                [np.cos(t) ** 2 for t in thetas], d, upsilons=[1.0] * m
            )
            ok = ok and abs(observed - np.cos(thetas.sum()) ** 2) <= 1e-9
            ok = ok and abs(observed - env.lower) <= 1e-9
    _verdict(5, ok, "commuting rotations saturate cos^2(sum theta) envelope, d in {2,4}")


def test_criterion_06_thm7_correction():
    t0 = time.perf_counter()
    ok = True
    for d in (2, 3):
        for t in range(500):
            rng = np.random.default_rng([SEED, 7, d, t])
            (ch,), (target,) = suites._noncatastrophic(d, [rng])
            rep = bounds.thm7_max_correction(ch, target)
            ok = ok and rep.holds
            ok = ok and rep.terms["optimizer_improvement"] <= (
                rep.upper - rep.lower + 1e-9
            )
            if not ok:
                break
    elapsed = time.perf_counter() - t0
    _verdict(
        6, ok,
        "Phi(W0 o A, U) inside the Thm 7 interval; optimizer within width "
        "(500 channels per d)",
        elapsed,
    )


def test_criterion_07_extremal_dephaser_figures():
    t0 = time.perf_counter()
    d = 1024
    ch = genlib.extremal_dephaser(d)
    rep = metrics.report(ch)
    expect_r = (2.0 / (d + 1)) * (d - 1) / d
    eq = polar.equability(ch, kappa=0.1)
    ok = (
        abs(rep.infidelity - expect_r) <= 1e-12
        and 2.0**-11 <= rep.infidelity <= 2.0**-9
        and rep.non_catastrophic
        and not eq.sse_ok
        and not eq.wse_ok
    )
    ch64 = genlib.extremal_dephaser(
        64, base_scale=2.5e-3, n_outliers=3, outlier_depth=0.015, seed=42
    )
    eq64 = polar.equability(ch64, kappa=0.1)
    ok = ok and eq64.gamma_decoh < eq64.Gamma_decoh and not eq64.sse_ok and eq64.wse_ok
    _verdict(
        7, ok,
        "d=1024 analytic extremal dephaser: r ~ 2^-10, non-equable; "
        "d=64 randomized instance: gamma < Gamma, WSE without SSE",
        time.perf_counter() - t0,
    )


def test_criterion_08_fig3_band_containment():
    t0 = time.perf_counter()
    ok = True
    for level in (0.1, 0.01, 0.0001):
        el = genlib.coherence_mix(1e-4, level)
        rows = suites.composition_sweep(el, 1000)
        ok = ok and all(r.contained for r in rows)
        if level == 0.0001:
            phi_d = metrics.phi(polar.channel_polar(el).decoherent_left)
            for r in rows:
                width = (r.thm8_upper - r.thm8_lower) / 2.0
                ok = ok and abs(r.phi - phi_d**r.depth) <= width
            ok = ok and all(r.non_catastrophic for r in rows)
    _verdict(
        8, ok,
        "coherence_mix curves (r=1e-4; 10%/1%/0.01%) stay in their Thm 8 bands; "
        "decoherence-limited curve hugs the decoherent envelope",
        time.perf_counter() - t0,
    )


def test_criterion_09_monte_carlo_consistency():
    t0 = time.perf_counter()
    dep = genlib.depolarizing(2, 0.9)
    ad = genlib.amplitude_damping(2, 0.19)
    phi_ad = (1 + np.sqrt(0.81)) ** 2 / 4
    targets = [
        (dep, "fidelity", 0.95),
        (ad, "fidelity", (2 * phi_ad + 1) / 3),
        (dep, "unitarity", 0.81),
        (ad, "unitarity", (4 * 0.82805 - 1) / 3),
    ]
    # seeds outermost: the four estimates of one seed share one Haar draw
    hits = [0] * len(targets)
    for s in range(100):
        for t, (ch, kind, formula) in enumerate(targets):
            if kind == "fidelity":
                est = metrics.haar_fidelity_mc(ch, n_samples=100000, seed=SEED + s)
            else:
                est = metrics.haar_unitarity_mc(ch, n_samples=100000, seed=SEED + s)
            if abs(est.estimate - formula) <= 3 * est.stderr + 1e-12:
                hits[t] += 1
    ok = all(h >= 99 for h in hits)
    _verdict(
        9, ok,
        "haar MC estimates within 3 SE of the formula values in >= 99/100 seeds",
        time.perf_counter() - t0,
    )


def test_criterion_10_lindblad_structure():
    cases = suites.lindblad_suite(dims=(2, 3, 4), trials=200, seed=SEED)
    orth = [c for c in cases if c.theorem == "lindblad_orthogonality"]
    canon = [c for c in cases if c.theorem == "lindblad_canonicalize"]
    ok = (
        len(orth) == 600
        and len(canon) == 600
        and all(c.holds for c in cases)
    )
    _verdict(
        10, ok,
        "three-term generator orthogonality to 1e-9 and traceless "
        "canonicalization preserving the superoperator (200 draws per d)",
    )


def test_criterion_11_appendix_inequalities():
    cases = suites.appendix_suite(dims=(2, 3, 5), trials=1000, seed=SEED)
    ok = len(cases) == 9000 and all(c.holds for c in cases)
    _verdict(11, ok, "trace/Von Neumann/norm inequalities on 1e3 draws per d in {2,3,5}")
