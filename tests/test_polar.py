import numpy as np
import pytest

from chanpolar import channel as chn
from chanpolar import genlib, metrics, polar, suites
from chanpolar.errors import PhaseUndefined

I2 = np.eye(2, dtype=complex)


def rot_deph(theta, q):
    """Rotation-after-dephasing composite, canonical by construction."""
    r = genlib.rotation_matrix(2, theta)
    kraus = np.einsum("ij,kjl->kil", r, genlib.dephasing(2, q).kraus)
    return chn.KrausChannel(dim=2, kraus=kraus)


def random_state(d, rng):
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


class TestChannelPolar:
    def test_amplitude_damping_is_its_own_decoherent_factor(self):
        ch = genlib.amplitude_damping(2, 0.19)
        pol = polar.channel_polar(ch)
        assert np.allclose(pol.unitary, I2, atol=1e-9)
        rng = np.random.default_rng(0)
        for _ in range(5):
            rho = random_state(2, rng)
            assert np.allclose(
                chn.apply(pol.decoherent_left, rho), chn.apply(ch, rho), atol=1e-9
            )

    def test_rotation_dephasing_factors(self):
        ch = rot_deph(0.1, 0.01)
        pol = polar.channel_polar(ch)
        assert np.allclose(pol.unitary, genlib.rotation_matrix(2, 0.1), atol=1e-9)
        assert metrics.phi(pol.decoherent_left) == pytest.approx(0.99, abs=1e-12)
        deph = genlib.dephasing(2, 0.01)
        rng = np.random.default_rng(1)
        for _ in range(5):
            rho = random_state(2, rng)
            assert np.allclose(
                chn.apply(pol.decoherent_left, rho), chn.apply(deph, rho), atol=1e-9
            )

    def test_spiral_unitary_factor(self):
        alpha = 0.3
        pol = polar.channel_polar(genlib.spiral(alpha))
        ph = np.exp(1j * alpha**3 / 2.0)
        assert np.allclose(
            pol.unitary, np.diag([1.0, ph, np.conj(ph)]), atol=1e-9
        )

    @pytest.mark.parametrize("d", [2, 3])
    def test_reconstruction_both_sides(self, d):
        for t in range(20):
            rng = np.random.default_rng([55, d, t])
            ch, _ = suites.sample_noncatastrophic(d, rng)
            pol = polar.channel_polar(ch)
            left = chn.compose([pol.decoherent_left, pol.coherent])
            right = chn.compose([pol.coherent, pol.decoherent_right])
            for _ in range(3):
                rho = random_state(d, rng)
                ref = chn.apply(ch, rho)
                assert np.allclose(chn.apply(left, rho), ref, atol=1e-9)
                assert np.allclose(chn.apply(right, rho), ref, atol=1e-9)
            assert polar.is_decoherent(pol.decoherent_left)
            assert polar.is_decoherent(pol.decoherent_right)
            # conjugation preserves fidelity to the identity
            assert metrics.phi(pol.decoherent_left) == pytest.approx(
                metrics.phi(pol.decoherent_right), abs=1e-9
            )
            # Thm 7 interval restated for the decoherent factor
            ups = metrics.upsilon(ch)
            phi_d = metrics.phi(pol.decoherent_left)
            assert ups**2 - (1 - ups**2) ** 2 - 1e-9 <= phi_d
            assert phi_d <= ups + 1.5 * (1 - ups**2) ** 2 + 1e-9

    def test_cached_on_canonical_view(self):
        for ch in (genlib.random_cptp(3, 3, seed=19, strength=0.2), genlib.spiral(0.3)):
            pol = polar.channel_polar(ch)
            assert polar.channel_polar(chn.canonical(ch)) is pol
            assert polar.channel_polar(ch) is pol
        view = chn.canonical(genlib.amplitude_damping(2, 0.19))
        assert polar.channel_polar(view) is polar.channel_polar(view)

    def test_lk_psd_of_left_factor(self):
        ch = genlib.random_cptp(3, 3, seed=19, strength=0.2)
        pol = polar.channel_polar(ch)
        a1 = chn.canonical(pol.decoherent_left).a1
        assert np.linalg.eigvalsh((a1 + a1.conj().T) / 2.0)[0] >= -1e-9


class TestPolarInvariance:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_unitary_covariance(self, d):
        # A -> U A U^dag maps the polar unitary to U V U^dag and keeps the
        # LK singular values
        for seed in range(5):
            ch = genlib.random_cptp(d, 3, seed=seed, strength=0.1)
            u = genlib.random_unitary(d, seed=seed + 40)
            conj = chn.KrausChannel(dim=d, kraus=u @ ch.kraus @ u.conj().T)
            pol, pol_u = polar.channel_polar(ch), polar.channel_polar(conj)
            assert pol.phase_fixed and pol_u.phase_fixed
            assert np.max(np.abs(pol_u.unitary - u @ pol.unitary @ u.conj().T)) <= 1e-12
            assert np.max(
                np.abs(np.sort(pol_u.singular_values) - np.sort(pol.singular_values))
            ) <= 1e-12

    @pytest.mark.filterwarnings("ignore:channel is catastrophic")
    @pytest.mark.parametrize("route", ["gram", "choi"])
    def test_degenerate_leading_boundary(self, route):
        # Kraus operators sqrt(w1) U and sqrt(1 - w1) U Z have w1 - w2 = gap
        # and LK singular values sqrt(w1); the Choi route sees the same
        # channel through a remixed (non-orthogonal) Kraus family
        u = genlib.random_unitary(2, seed=3)
        z = np.diag([1.0, -1.0]).astype(complex)
        mix = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        seen = []
        for gap in (1e-11, 1e-9):
            w1 = (1.0 + gap) / 2.0
            ops = np.stack([np.sqrt(w1) * u, np.sqrt(1.0 - w1) * u @ z])
            if route == "choi":
                ops = np.einsum("ij,jab->iab", mix, ops)
            ch = chn.KrausChannel(dim=2, kraus=ops)
            pol = polar.channel_polar(ch)
            sigma_err = np.max(np.abs(pol.singular_values - np.sqrt(w1)))
            seen.append(dict(flag=(ch.degenerate_leading, pol.unique),
                             phi=metrics.phi(ch), ups=metrics.upsilon(ch),
                             sigma_err=sigma_err))
        flagged, clear = seen
        assert flagged["flag"] == (True, False)
        assert clear["flag"] == (False, True)
        # Phi and Upsilon do not depend on the choice of A_1: they move only
        # by the O(gap) change of the channel itself
        assert abs(flagged["phi"] - clear["phi"]) <= 1e-8
        assert abs(flagged["ups"] - clear["ups"]) <= 1e-8
        # sigma is exact on the Gram route on both sides; from the Choi
        # eigenvectors it carries an error of order eps / gap, which the
        # flag marks where it could reach the size of the gap itself
        assert clear["sigma_err"] <= (1e-12 if route == "gram" else 1e-6)
        if route == "gram":
            assert flagged["sigma_err"] <= 1e-12

class TestIsDecoherent:
    def test_named_families(self):
        assert polar.is_decoherent(genlib.depolarizing(2, 0.9))
        assert polar.is_decoherent(genlib.amplitude_damping(2, 0.19))
        assert not polar.is_decoherent(genlib.rotation(2, 0.3))


class TestEquability:
    def test_depolarizing_constants(self):
        eq = polar.equability(genlib.depolarizing(2, 0.9))
        assert eq.gamma_decoh == pytest.approx(0.0, abs=1e-12)
        # all-equal sigma < 1: worst perturbation equals the mean one
        assert eq.Gamma_decoh == pytest.approx(1.0, abs=1e-9)

    def test_extremal_dephaser_d4(self):
        eq = polar.equability(genlib.extremal_dephaser(4))
        assert eq.Gamma_decoh == pytest.approx(4.0, abs=1e-9)
        assert eq.gamma_decoh == pytest.approx(np.sqrt(3.0), abs=1e-9)
        assert eq.decoh_threshold == pytest.approx(0.2, abs=1e-12)  # kappa/sqrt(1/4)
        assert not eq.sse_ok and not eq.wse_ok

    def test_fig2_style_d64(self):
        ch = genlib.extremal_dephaser(
            64, base_scale=2.5e-3, n_outliers=3, outlier_depth=0.015, seed=42
        )
        eq = polar.equability(ch)
        assert eq.gamma_decoh < eq.Gamma_decoh
        assert not eq.sse_ok
        assert eq.wse_ok

    def test_gamma_le_big_gamma(self):
        for t in range(20):
            rng = np.random.default_rng([66, t])
            ch, _ = suites.sample_noncatastrophic(3, rng)
            eq = polar.equability(ch)
            assert eq.gamma_decoh <= eq.Gamma_decoh + 1e-9
            assert eq.gamma_coh <= eq.Gamma_coh + 1e-9

    def test_perfect_channel_trivially_equable(self):
        eq = polar.equability(genlib.identity_channel(3))
        assert eq.Gamma_decoh == 0.0 and eq.gamma_coh == 0.0
        assert eq.sse_ok and eq.wse_ok

    def test_phase_undefined(self):
        with pytest.raises(PhaseUndefined):
            polar.equability(genlib.extremal_unitary(2))  # tr V = 0


class TestInfidelitySplit:
    def test_pure_rotation(self):
        split = polar.infidelity_split(genlib.rotation(2, 0.1))
        assert split.r_coh == pytest.approx(split.r, abs=1e-12)
        assert split.r_decoh == pytest.approx(0.0, abs=1e-12)
        assert split.coherence_level == pytest.approx(1.0, abs=1e-9)

    def test_rotation_dephasing_closed_forms(self):
        theta, q = 0.1, 0.01
        split = polar.infidelity_split(rot_deph(theta, q))
        c2 = np.cos(theta) ** 2
        assert split.r == pytest.approx((2 / 3) * (1 - (1 - q) * c2), abs=1e-12)
        assert split.r_coh == pytest.approx((2 / 3) * (1 - c2), abs=1e-12)
        assert split.r_decoh == pytest.approx((2 / 3) * q, abs=1e-12)
        ups = np.sqrt((1 - q) ** 2 + q**2)
        assert split.r_decoh_from_u == pytest.approx((2 / 3) * (1 - ups), abs=1e-12)
        assert abs(split.residual) < 1e-4  # O(r^2)

    def test_depolarizing_level_is_order_r(self):
        split = polar.infidelity_split(genlib.depolarizing(2, 0.9))
        assert split.coherence_level == pytest.approx(0.0, abs=1e-9)
        assert 0.0 <= split.coherence_level_approx <= split.r * 2


class TestDecoherenceLimited:
    def test_examples(self):
        assert polar.is_decoherence_limited(genlib.amplitude_damping(2, 0.19))
        assert not polar.is_decoherence_limited(rot_deph(0.1, 0.0001))
        assert polar.is_decoherence_limited(genlib.identity_channel(2))


class TestClassify:
    def test_depolarizing_sse(self):
        cls = polar.classify(genlib.depolarizing(2, 0.99))
        assert cls.label.startswith("Decoherent, SSE")
        assert cls.decoherent and cls.sse_ok

    def test_rotation_coherent(self):
        cls = polar.classify(genlib.rotation(2, 0.1))
        assert cls.label.startswith("Coherent")
        assert cls.coherence_level == pytest.approx(1.0, abs=1e-9)

    def test_amplitude_damping_decoherent(self):
        cls = polar.classify(genlib.amplitude_damping(2, 0.19))
        assert cls.decoherent

    def test_extremal_dephaser_flagged(self):
        cls = polar.classify(genlib.extremal_dephaser(4))
        assert cls.extremal_dephaser
        assert "extremal dephaser" in cls.label

    def test_extremal_unitary_flagged(self):
        cls = polar.classify(genlib.extremal_unitary(8))
        assert cls.extremal_unitary
