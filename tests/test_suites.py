import numpy as np
import pytest

from chanpolar import bounds, channel as chn, genlib, metrics, polar, suites
from chanpolar.errors import PhaseUndefined
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


class TestSamplers:
    def test_element_calibration(self):
        rng = np.random.default_rng(1)
        for d in (2, 3):
            for _ in range(10):
                r_t = float(10 ** rng.uniform(-4.5, -2.0))
                el = suites.element_for_infidelity(d, r_t, rng)
                r = metrics.infidelity(metrics.phi(el), d)
                assert r == pytest.approx(r_t, rel=0.05)

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


class TestCompositionSweep:
    @pytest.mark.parametrize(
        "element",
        [
            genlib.coherence_mix(1e-4, 0.5),  # even-d envelope
            genlib.rotation(2, np.pi / 6),  # V^m traceless at m = 3 (mod 6)
            genlib.psd_lk_decoherent(5, 0.02, seed=3),  # odd-d envelope
            genlib.random_cptp(3, 3, seed=4, strength=0.05),
            chn.compose([
                genlib.psd_lk_decoherent(3, 0.02, seed=5),
                chn.KrausChannel(dim=3, kraus=PHASES_D3[np.newaxis]),
            ]),
        ],
        ids=["coherence_mix-d2", "rotation-d2", "psd_lk_decoherent-d5",
             "random_cptp-d3", "traceless-cube-d3"],
    )
    def test_rows_equal_per_depth_route(self, element):
        # gamma_coh is 0 for every d = 2 unitary; the d = 3 elements give
        # it weight, and the last one has a traceless V^m whenever 3 divides m
        # and 9 does not
        # across the 256-depth blocks of the stacked coherence constants
        ref = composition_sweep_per_depth(element, 600)
        for max_depth in (1, 255, 256, 257, 600):
            assert suites.composition_sweep(element, max_depth) == ref[:max_depth]

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
