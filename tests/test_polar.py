import warnings

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


def eager_factors(ch):
    """Reference route: the three channel factors as channel_polar once
    built them on every call, from V and the canonical Kraus operators."""
    canon = chn.canonical(ch)
    v = polar.channel_polar(ch).unitary
    vk = np.einsum("ij,kjl->kil", v.conj().T, canon.kraus)
    kv = np.einsum("kij,jl->kil", canon.kraus, v.conj().T)
    return v[np.newaxis], vk, kv


def polar_test_channel(route, d, seed):
    """A channel whose canonical form takes the given route: a rotated
    stochastic Weyl channel is an orthogonal family (Gram route), a
    random CPTP draw is not (Choi route)."""
    if route == "gram":
        ch = genlib.stochastic_weyl(d, 0.95, seed=seed)
        u = genlib.random_unitary(d, seed=seed + 100)
        return chn.KrausChannel(dim=d, kraus=u @ ch.kraus)
    return genlib.random_cptp(d, 3, seed=seed, strength=0.2)


def assert_route(ch, route):
    """The canonical form of ch takes the given route: an orthogonal Kraus
    family (Gram) or a non-orthogonal one (Choi eigensolver)."""
    g = chn._gram(ch.kraus)
    off = np.max(np.abs(g - np.diag(np.diag(g))))
    assert (off <= chn.GRAM_ORTHO_TOL * ch.dim) == (route == "gram")


class TestLazyFactors:
    """The channel factors are built on first read and cached."""

    def test_unread_factors_are_not_built(self):
        for ch in (genlib.random_cptp(3, 3, seed=5, strength=0.2),
                   genlib.extremal_dephaser(8), genlib.rotation(2, 0.1)):
            pol = polar.channel_polar(ch)
            metrics.report(ch)
            polar.equability(ch)
            polar.infidelity_split(ch)
            polar.classify(ch)
            assert polar.channel_polar(ch) is pol
            assert "decoherent_left" not in vars(pol)
            assert "decoherent_right" not in vars(pol)
            assert "coherent" not in vars(pol)
            assert "phi_decoherent" in vars(pol)

    def test_factor_read_twice_is_same_object(self):
        pol = polar.channel_polar(genlib.random_cptp(2, 3, seed=8, strength=0.2))
        for name in ("coherent", "decoherent_left", "decoherent_right", "lambda_re",
                     "phi_decoherent"):
            assert getattr(pol, name) is getattr(pol, name)

    @pytest.mark.parametrize("route", ["gram", "choi"])
    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_bitwise_equal_to_eager_route(self, route, d):
        for seed in range(3):
            ch = polar_test_channel(route, d, seed)
            assert_route(ch, route)
            pol = polar.channel_polar(ch)
            coh, left, right = eager_factors(ch)
            assert pol.coherent.kraus.tobytes() == coh.tobytes()
            assert pol.decoherent_left.kraus.tobytes() == left.tobytes()
            assert pol.decoherent_right.kraus.tobytes() == right.tobytes()


class TestPhiDecoherent:
    """Phi(D, I) from the diagonal of V^dag A_i equals, bit for bit, Phi of
    the left factor built in full (the reference route)."""

    @staticmethod
    def assert_bitwise(ch):
        pol = polar.channel_polar(ch)
        fast = pol.phi_decoherent
        assert "decoherent_left" not in vars(pol)
        assert fast.hex() == metrics.phi(pol.decoherent_left).hex()

    @pytest.mark.parametrize("route", ["gram", "choi"])
    @pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
    def test_small_dims(self, route, d):
        for seed in range(4):
            ch = polar_test_channel(route, d, seed)
            assert_route(ch, route)
            self.assert_bitwise(ch)

    def test_randomized_extremal_dephaser_d64(self):
        # k = 65 operators; the second draw is rotated so that V is not I
        for seed in range(2):
            ch = genlib.extremal_dephaser(
                64, base_scale=2.5e-3, n_outliers=2, outlier_depth=0.02, seed=seed
            )
            assert ch.kraus.shape[0] == 65
            if seed:
                u = genlib.random_unitary(64, seed=seed + 7)
                ch = chn.KrausChannel(dim=64, kraus=u @ ch.kraus)
            assert_route(ch, "gram")
            self.assert_bitwise(ch)

    def test_analytic_dephaser_d256(self):
        ch = genlib.extremal_dephaser(256)
        assert_route(ch, "gram")
        self.assert_bitwise(ch)

    def test_split_reads_phi_decoherent(self):
        ch = genlib.random_cptp(3, 3, seed=6, strength=0.2)
        pol = polar.channel_polar(ch)
        split = polar.infidelity_split(ch)
        ref = metrics.infidelity(metrics.phi(pol.decoherent_left), 3)
        assert split.r_decoh.hex() == ref.hex()


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

class TestChannelPolars:
    """The list entry point gives the bits of one channel_polar per channel."""

    @staticmethod
    def channels():
        mix = genlib.random_unitary(2, seed=4)
        rank_deficient = chn.KrausChannel(  # A_1 = |0><0| on the Choi route
            dim=2, kraus=np.einsum("ij,jkl->ikl", mix, genlib.amplitude_damping(2, 1.0).kraus)
        )
        return [
            genlib.random_cptp(2, 2, seed=1),
            genlib.random_cptp(2, 3, seed=2, strength=0.1),
            genlib.random_cptp(2, 4, seed=1),  # catastrophic: Upsilon^2 = 0.39
            rank_deficient,
            genlib.rotation(2, np.pi / 2),  # |tr V| below the phase tolerance
            genlib.amplitude_damping(2, 0.2),  # an orthogonal family: the Gram route
        ]

    def test_equals_single_calls(self):
        chans = self.channels()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pols = polar.channel_polars(chans + [chans[2]])
        # each catastrophic channel warns once, a repeat does not
        catastrophic = [metrics.upsilon(c) ** 2 <= metrics.NC_THRESHOLD for c in chans]
        assert catastrophic[2] and len(caught) == sum(catastrophic)
        assert all(str(w.message).startswith("channel is catastrophic") for w in caught)
        assert pols[-1] is pols[2]
        assert [p.phase_fixed for p in pols[:-1]] == [True, True, True, True, False, True]
        assert [p.unique for p in pols[:-1]] == [True, True, True, False, True, True]
        for ch, pol in zip(chans, pols):
            assert polar.channel_polar(ch) is pol
            fresh = chn.KrausChannel(dim=2, kraus=ch.kraus.copy())
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                single = polar.channel_polar(fresh)
            for name in ("unitary", "psd", "singular_values"):
                assert getattr(pol, name).tobytes() == getattr(single, name).tobytes()
            assert (pol.phase_fixed, pol.unique) == (single.phase_fixed, single.unique)
            assert pol._kraus.tobytes() == single._kraus.tobytes()


class TestIsDecoherent:
    def test_named_families(self):
        assert polar.is_decoherent(genlib.depolarizing(2, 0.9))
        assert polar.is_decoherent(genlib.amplitude_damping(2, 0.19))
        assert not polar.is_decoherent(genlib.rotation(2, 0.3))

    def test_stack_equals_single_calls(self):
        """The stacked test on leading operators that are PSD, not Hermitian, and
        Hermitian with a negative eigenvalue (A_1 = 0.9 Z)."""
        z = np.diag([1.0, -1.0])
        chans = [genlib.depolarizing(2, 0.9), genlib.rotation(2, 0.3),
                 chn.KrausChannel.from_ops([0.9 * z, np.sqrt(0.19) * I2]),
                 genlib.amplitude_damping(2, 0.19)]
        a1s = np.array([ch.a1 for ch in chans])
        assert polar._decoherent(a1s) == [True, False, False, True]
        assert [polar.is_decoherent(ch) for ch in chans] == [True, False, False, True]
        assert polar._decoherent(a1s[1:3]) == [False, False]

    def test_single_call_takes_a_view_of_a1(self, monkeypatch):
        seen = []
        stacked = polar._decoherent
        monkeypatch.setattr(polar, "_decoherent", lambda a1s: seen.append(a1s) or stacked(a1s))
        ch = genlib.amplitude_damping(3, 0.1)
        assert polar.is_decoherent(ch) is True
        assert seen[0].shape == (1, 3, 3) and np.shares_memory(seen[0], ch.a1)


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

    @pytest.mark.parametrize("d", [2, 3])
    def test_target_covariance(self, d):
        # U o A against U splits like A against I
        ch = genlib.random_cptp(d, 3, seed=d, strength=0.2)
        u = genlib.random_unitary(d, seed=5)
        moved = chn.KrausChannel(dim=d, kraus=np.einsum("ij,kjl->kil", u, ch.kraus))
        split, ref = polar.infidelity_split(moved, u), polar.infidelity_split(ch)
        assert split.r_coh > 1e-3
        for name in ("r", "r_coh", "r_decoh", "residual"):
            assert getattr(split, name) == pytest.approx(getattr(ref, name), abs=1e-12)

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
