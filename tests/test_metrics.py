import re
import warnings

import numpy as np
import pytest

from chanpolar import channel as chn
from chanpolar import genlib, metrics, suites
from chanpolar.errors import DimensionMismatch, TargetNotUnitary

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
KET0 = np.diag([1.0, 0.0]).astype(complex)


def m_fidelity(ch, u, m) -> float:
    """Real part of the M-fidelity <A(M), U(M)> / ||M||^2 of one probe M."""
    ref = u @ m @ u.conj().T
    return np.trace(chn.apply(ch, m).conj().T @ ref).real / np.linalg.norm(m) ** 2


def phi_basis_average(ch, target=None) -> float:
    """Phi computed by averaging M-fidelities over the elementary-matrix
    operator basis; the reference route that :func:`metrics.phi` must match."""
    d = ch.dim
    u = metrics._check_target(target, d)
    total = 0.0
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=np.complex128)
            e[i, j] = 1.0
            total += m_fidelity(ch, u, e)
    return total / d**2


class TestMFidelity:
    """The M-fidelity of the reference route on known values."""

    def test_identity_on_projector(self):
        assert m_fidelity(genlib.identity_channel(2), I2, KET0) == pytest.approx(1.0)

    def test_depolarizing_on_projector(self):
        f = m_fidelity(genlib.depolarizing(2, 0.9), I2, KET0)
        assert f == pytest.approx(0.95)  # (1+p)/2

    def test_full_dephasing_on_x(self):
        f = m_fidelity(genlib.dephasing(2, 0.5), I2, X)
        assert f == pytest.approx(0.0, abs=1e-12)


class TestPhi:
    def test_identity(self):
        assert metrics.phi(genlib.identity_channel(2)) == pytest.approx(1.0)

    def test_rotation(self):
        theta = np.pi / 6
        assert metrics.phi(genlib.rotation(2, theta)) == pytest.approx(
            np.cos(theta) ** 2
        )  # 0.75

    def test_depolarizing(self):
        assert metrics.phi(genlib.depolarizing(2, 0.9)) == pytest.approx(0.925)

    def test_target_not_unitary(self):
        with pytest.raises(TargetNotUnitary):
            metrics.phi(genlib.identity_channel(2), target=np.diag([1.0, 0.5]))

    @pytest.mark.parametrize("d", [2, 3])
    def test_basis_average_route_agrees(self, d):
        for seed in range(5):
            ch = genlib.random_cptp(d, 3, seed=seed)
            u = genlib.random_unitary(d, seed=seed + 100)
            assert phi_basis_average(ch, u) == pytest.approx(
                metrics.phi(ch, u), abs=1e-12
            )


class TestFidelityRelations:
    def test_avg_fidelity_values(self):
        assert metrics.avg_fidelity(1.0, 2) == pytest.approx(1.0)
        assert metrics.avg_fidelity(0.925, 2) == pytest.approx(0.95)
        assert metrics.avg_fidelity(0.0, 2) == pytest.approx(1.0 / 3.0)

    def test_report_identities_exact(self):
        for seed in range(10):
            d = 2 + seed % 2
            rep = metrics.report(
                genlib.random_cptp(d, 3, seed=seed),
                genlib.random_unitary(d, seed=seed + 50),
            )
            assert rep.avg_fidelity == pytest.approx(
                (d * rep.phi + 1) / (d + 1), abs=1e-12
            )
            assert rep.unitarity == pytest.approx(
                (d * d * rep.upsilon**2 - 1) / (d * d - 1), abs=1e-12
            )
            assert rep.infidelity == pytest.approx(1 - rep.avg_fidelity, abs=1e-12)


class TestUpsilon:
    def test_unitary(self):
        u = genlib.random_unitary(3, seed=1)
        ch = chn.KrausChannel(dim=3, kraus=u[np.newaxis])
        assert metrics.upsilon(ch) == pytest.approx(1.0)
        assert metrics.unitarity(1.0, 3) == pytest.approx(1.0)

    def test_depolarizing(self):
        ups = metrics.upsilon(genlib.depolarizing(2, 0.9))
        assert ups**2 == pytest.approx(0.8575, abs=1e-12)
        assert metrics.unitarity(ups, 2) == pytest.approx(0.81, abs=1e-12)  # p^2

    def test_amplitude_damping(self):
        ups = metrics.upsilon(genlib.amplitude_damping(2, 0.19))
        assert ups**2 == pytest.approx(0.82805, abs=1e-12)

    def test_unitary_invariance(self):
        ch = genlib.random_cptp(3, 3, seed=2)
        u = genlib.random_unitary(3, seed=3)
        v = genlib.random_unitary(3, seed=4)
        uch = chn.KrausChannel(dim=3, kraus=v[np.newaxis])
        assert metrics.upsilon(chn.compose([ch, uch])) == pytest.approx(
            metrics.upsilon(ch), abs=1e-9
        )
        assert metrics.upsilon(chn.compose([uch, ch])) == pytest.approx(
            metrics.upsilon(ch), abs=1e-9
        )
        # Phi(V o A, V o U) = Phi(A, U)
        pre = metrics.phi(ch, u)
        post = metrics.phi(chn.compose([ch, uch]), v @ u)
        assert post == pytest.approx(pre, abs=1e-9)


class TestStackedFigures:
    """Phi and Upsilon of a list of channels, one stack per Kraus shape, have
    the bits of the single calls and of the per-channel formulas they
    replace, for operators and targets in any memory layout."""

    def test_equal_single_calls(self):
        d = 3
        chans = [genlib.random_cptp(d, k, seed=k) for k in (1, 2, 3, 3, 4, 9)]
        chans += [chn.canonical(chans[3]), genlib.depolarizing(d, 0.7),
                  chn.KrausChannel(dim=d, kraus=np.asfortranarray(chans[2].kraus)),
                  chn.KrausChannel(dim=d, kraus=chans[4].kraus.transpose(0, 2, 1))]
        targets = [genlib.random_unitary(d, seed=s + 20) for s in range(len(chans))]
        targets[1] = np.asfortranarray(targets[1])
        targets[4] = targets[4].T
        self.check(chans, targets)

    def test_equal_single_calls_past_the_pairwise_block(self):
        """256 operators, past numpy's blocks of 128 in the pairwise sum of
        Phi, and Gram matrices of 256 x 256 and more, in one stack."""
        chans = [genlib.depolarizing(16, p) for p in (0.9, 0.5)]
        chans += [genlib.stochastic_weyl(24, 0.8, seed=1)]
        self.check(chans, [genlib.random_unitary(c.dim, seed=i) for i, c in enumerate(chans)])

    @staticmethod
    def check(chans, targets):
        ups = metrics._upsilons(chans)
        phis = metrics._phis(chans, targets)
        for ch, u, up, ph in zip(chans, targets, ups.tolist(), phis.tolist(), strict=True):
            d = ch.dim
            assert up == metrics.upsilon(ch) == float(np.linalg.norm(chn._gram(ch.kraus)) / d)
            traces = np.einsum("kij,ij->k", ch.kraus, u.conj())
            assert ph == metrics.phi(ch, u) == float(np.sum(np.abs(traces) ** 2) / d**2)


class TestNonCatastrophic:
    def test_identity(self):
        assert metrics.non_catastrophic(genlib.identity_channel(2))

    def test_full_depolarizing(self):
        assert metrics.phi(genlib.depolarizing(2, 0.0)) == pytest.approx(0.25)
        assert not metrics.non_catastrophic(genlib.depolarizing(2, 0.0))

    def test_quarter_rotation(self):
        ch = genlib.rotation(2, np.pi / 2)
        assert metrics.phi(ch) == pytest.approx(0.0, abs=1e-12)
        assert not metrics.non_catastrophic(ch)

    def test_helper_matches_the_inline_predicate_at_the_threshold(self):
        # Phi in {1/2, next float up}; no float squares to 1/2 exactly, so
        # Upsilon^2 takes the floats just below and just above it
        above = float(np.nextafter(0.5, 1.0))
        root = float(np.sqrt(0.5))
        ups = [float(np.nextafter(root, 0.0)), root]
        assert ups[0] ** 2 < 0.5 and ups[1] ** 2 == above
        pairs = [(p, u) for p in (0.5, above) for u in ups]
        for p, u in pairs:
            assert metrics._nc_regime(p, u) == (p > 0.5 and u**2 > 0.5)
        phis = np.array([p for p, _ in pairs])
        upss = np.array([u for _, u in pairs])
        inline = [p > 0.5 and u**2 > 0.5 for p, u in pairs]
        assert metrics._nc_regime(phis, upss).tolist() == inline
        assert bool(np.all(metrics._nc_regime(phis[-1:], upss[-1:])))


class TestLkGapBounds:
    def test_unitary_gaps_zero(self):
        u = genlib.random_unitary(2, seed=5)
        ch = chn.KrausChannel(dim=2, kraus=u[np.newaxis])
        r1, r2 = metrics.lk_gap_bounds(ch, u)
        assert r1.observed == pytest.approx(0.0, abs=1e-12)
        assert r2.observed == pytest.approx(0.0, abs=1e-12)
        assert r1.holds and r2.holds

    def test_depolarizing_arithmetic(self):
        r1, r2 = metrics.lk_gap_bounds(genlib.depolarizing(2, 0.9))
        assert r1.observed == pytest.approx(0.001875, abs=1e-12)
        assert r1.upper == pytest.approx((1 - 0.8575) ** 2, abs=1e-12)  # 0.02030625
        assert r1.holds and r2.holds

    def test_inapplicable_upper_when_catastrophic(self):
        _, r2 = metrics.lk_gap_bounds(genlib.depolarizing(2, 0.0))
        assert r2.terms["applicable"] == 0.0
        assert np.isinf(r2.upper)

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_sandwiches(self, d):
        for t in range(50):
            rng = np.random.default_rng([77, d, t])
            ch, target = suites.sample_noncatastrophic(d, rng)
            r1, r2 = metrics.lk_gap_bounds(ch, target)
            assert r1.holds and r2.holds
            assert r1.slack >= -1e-10
            assert r2.slack >= -1e-10


class TestMonteCarlo:
    def test_identity_exact(self):
        est = metrics.haar_fidelity_mc(genlib.identity_channel(2), n_samples=1000, seed=0)
        assert est.estimate == pytest.approx(1.0, abs=1e-12)
        u = genlib.random_unitary(2, seed=1)
        ch = chn.KrausChannel(dim=2, kraus=u[np.newaxis])
        est2 = metrics.haar_unitarity_mc(ch, n_samples=1000, seed=0)
        assert est2.estimate == pytest.approx(1.0, abs=1e-10)

    def test_depolarizing_fidelity(self):
        est = metrics.haar_fidelity_mc(genlib.depolarizing(2, 0.9), n_samples=100000, seed=7)
        assert abs(est.estimate - 0.95) <= 3 * est.stderr + 1e-12

    def test_rotation_fidelity(self):
        est = metrics.haar_fidelity_mc(genlib.rotation(2, 0.3), n_samples=100000, seed=7)
        expect = (2 * np.cos(0.3) ** 2 + 1) / 3
        assert abs(est.estimate - expect) <= 3 * est.stderr

    def test_depolarizing_unitarity(self):
        est = metrics.haar_unitarity_mc(genlib.depolarizing(2, 0.9), n_samples=100000, seed=7)
        assert abs(est.estimate - 0.81) <= 3 * est.stderr + 1e-12

    def test_amplitude_damping_unitarity(self):
        est = metrics.haar_unitarity_mc(
            genlib.amplitude_damping(2, 0.19), n_samples=100000, seed=7
        )
        expect = (4 * 0.82805 - 1) / 3  # 0.770733...
        assert abs(est.estimate - expect) <= 3 * est.stderr

    def test_seed_determinism(self):
        ch = genlib.amplitude_damping(2, 0.19)
        a = metrics.haar_fidelity_mc(ch, n_samples=2000, seed=11)
        b = metrics.haar_fidelity_mc(ch, n_samples=2000, seed=11)
        c = metrics.haar_fidelity_mc(ch, n_samples=2000, seed=12)
        assert a.estimate == b.estimate and a.stderr == b.stderr
        assert a.estimate != c.estimate

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            metrics.haar_fidelity_mc(genlib.identity_channel(2), n_samples=10, seed=0)


# Kraus counts 1, 4, d^2 and d; amplitude damping is checked against a
# non-identity target.
MC_FAMILIES = {
    "unitary_error": (lambda d: genlib.random_unitary_error(d, 0.3, 5), False),
    "cptp_rank4": (lambda d: genlib.random_cptp(d, 4, 6, 0.3), False),
    "depolarizing": (lambda d: genlib.depolarizing(d, 0.9), False),
    "amplitude_damping": (lambda d: genlib.amplitude_damping(d, 0.19), True),
}

# float.hex of (fidelity estimate, its stderr, unitarity estimate, its
# stderr) at n_samples=2000, seed=20
MC_PINS = {
    ("unitary_error", 2): ("0x1.ea7ed9f59c6acp-1", "0x1.bdb791cafc9b6p-12",
                           "0x1.0000000000004p+0", "0x1.7105b48f051a1p-57"),
    ("unitary_error", 3): ("0x1.ec3d0da0cb093p-1", "0x1.984b23c109b64p-12",
                           "0x1.fffffffffffeep-1", "0x1.b6b8a72afb9edp-57"),
    ("unitary_error", 8): ("0x1.f0d76e10fac56p-1", "0x1.e2fbaa11422aap-13",
                           "0x1.0000000000000p+0", "0x1.8c1a93aa172f9p-56"),
    ("cptp_rank4", 2): ("0x1.f8f2d7aa31106p-1", "0x1.14ea6ead1d92cp-13",
                        "0x1.ea7dead96893cp-1", "0x1.fe7a8ebdea055p-13"),
    ("cptp_rank4", 3): ("0x1.f66067e4bf617p-1", "0x1.19b8c55f206d5p-13",
                        "0x1.efd92c5a5c84ep-1", "0x1.83e61fc26de6bp-13"),
    ("cptp_rank4", 8): ("0x1.f3834ba2b97d9p-1", "0x1.a3c7468a74536p-14",
                        "0x1.eac8819c3a851p-1", "0x1.7b57adfbaf023p-13"),
    ("depolarizing", 2): ("0x1.e666666666666p-1", "0x1.17f14897ca2d2p-57",
                          "0x1.9eb851eb851eep-1", "0x1.1c1fa0ae9337bp-57"),
    ("depolarizing", 3): ("0x1.ddddddddddddfp-1", "0x1.2bd6e8ecd6b55p-57",
                          "0x1.9eb851eb851ecp-1", "0x1.1d3c8988c2437p-57"),
    ("depolarizing", 8): ("0x1.d333333333333p-1", "0x1.8bf0de95daac7p-57",
                          "0x1.9eb851eb851eep-1", "0x1.37fc886a2e5eap-57"),
    ("amplitude_damping", 2): ("0x1.1f48b277701eep-1", "0x1.07d40db4f70d8p-8",
                               "0x1.8b62884d664d6p-1", "0x1.07715a73c3b82p-10"),
    ("amplitude_damping", 3): ("0x1.48035cae14c7dp-2", "0x1.05325c2925f5bp-8",
                               "0x1.7bec3ebe5c23cp-1", "0x1.991a9ede1cc92p-11"),
    ("amplitude_damping", 8): ("0x1.efab53b6b75e4p-4", "0x1.0c25b4da0574ep-9",
                               "0x1.63f8ff78412e1p-1", "0x1.20b6e00e3d51cp-11"),
}

# the same four values for amplitude_damping(2, 0.19) without a target,
# at n_samples=2000, for every form of seed that Philox takes
MC_SEED_PINS = {
    "int": (3, ("0x1.df5b3b4081d0cp-1", "0x1.48c4247752463p-10",
                "0x1.8a9d3bd35be71p-1", "0x1.0eff3e7c68d4dp-10")),
    "np.int64": (np.int64(3), ("0x1.df5b3b4081d0cp-1", "0x1.48c4247752463p-10",
                               "0x1.8a9d3bd35be71p-1", "0x1.0eff3e7c68d4dp-10")),
    "float": (3.0, ("0x1.df5b3b4081d0cp-1", "0x1.48c4247752463p-10",
                    "0x1.8a9d3bd35be71p-1", "0x1.0eff3e7c68d4dp-10")),
    "2**70": (2**70, ("0x1.dfdae59f23214p-1", "0x1.459ea614e3626p-10",
                      "0x1.8ab05cfb5a959p-1", "0x1.0d2801f4ad133p-10")),
    "list": ([1, 2], ("0x1.ddea373778246p-1", "0x1.4c720af9a5a26p-10",
                      "0x1.8ac9044ccf792p-1", "0x1.0a13c7ead9555p-10")),
}


def _mc_hex(ch, target, seed, n_samples=2000):
    f = metrics.haar_fidelity_mc(ch, target, n_samples=n_samples, seed=seed)
    u = metrics.haar_unitarity_mc(ch, n_samples=n_samples, seed=seed)
    return (f.estimate.hex(), f.stderr.hex(), u.estimate.hex(), u.stderr.hex())


def _mc_case(name, d):
    build, targeted = MC_FAMILIES[name]
    return build(d), genlib.random_unitary(d, 9) if targeted else None


class TestMonteCarloBits:
    """The estimators' bits, recorded before the Haar-state memo existed."""

    @pytest.mark.parametrize("name, d", MC_PINS, ids=[f"{n}-{d}" for n, d in MC_PINS])
    def test_estimates_pinned(self, name, d):
        assert _mc_hex(*_mc_case(name, d), seed=20) == MC_PINS[name, d]

    @pytest.mark.parametrize("seed, pins", MC_SEED_PINS.values(), ids=MC_SEED_PINS)
    def test_seed_forms_pinned(self, seed, pins):
        assert _mc_hex(genlib.amplitude_damping(2, 0.19), None, seed) == pins

    @pytest.mark.parametrize("call", [metrics.haar_fidelity_mc, metrics.haar_unitarity_mc])
    def test_negative_seed_refused_by_philox(self, call):
        with pytest.raises(ValueError, match="key must be positive"):
            call(genlib.identity_channel(2), n_samples=100, seed=-1)

    @pytest.mark.parametrize("name, d", [("cptp_rank4", 3), ("amplitude_damping", 8)])
    @pytest.mark.parametrize("order", ["fu", "uf"])
    def test_memo_cold_or_warm_in_either_order(self, name, d, order):
        ch, target = _mc_case(name, d)
        calls = {
            "f": (lambda: metrics.haar_fidelity_mc(ch, target, n_samples=2000, seed=20), 0),
            "u": (lambda: metrics.haar_unitarity_mc(ch, n_samples=2000, seed=20), 2),
        }
        metrics._haar_states.cache_clear()
        for kind in order + order:  # the first call is cold, the rest warm
            call, at = calls[kind]
            est = call()
            assert (est.estimate.hex(), est.stderr.hex()) == MC_PINS[name, d][at:at + 2]
        assert metrics._haar_states.cache_info().misses == 1

    def test_memo_serves_only_its_own_key(self):
        key = metrics._philox_key(20)
        cached = metrics._haar_states(3, 2000, key)
        for d, n, seed in ((2, 2000, 20), (3, 2001, 20), (3, 2000, 21), (3, 2000, [20, 1])):
            got = metrics._haar_states(d, n, metrics._philox_key(seed))
            fresh = metrics._haar_states.__wrapped__(d, n, metrics._philox_key(seed))
            assert got is not cached and got.shape == (n, d)
            assert got.tobytes() == fresh.tobytes()
            cached = got

    def test_equal_seed_forms_share_one_draw(self):
        metrics._haar_states.cache_clear()
        states = [metrics._haar_states(2, 2000, metrics._philox_key(s))
                  for s in (3, np.int64(3), 3.0, [3, 0])]
        assert all(s is states[0] for s in states)
        assert metrics._haar_states.cache_info().misses == 1

    def test_states_are_read_only(self):
        psi = metrics._haar_states(2, 100, metrics._philox_key(0))
        with pytest.raises(ValueError, match="read-only"):
            psi[0, 0] = 0.0

    def test_unitarity_refuses_d1_before_drawing(self):
        ch = genlib.identity_channel(1)
        metrics._haar_states.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionMismatch) as info:
                metrics.haar_unitarity_mc(ch, n_samples=100, seed=0)
            assert str(info.value) == "unitarity needs d >= 2 (d^2 - 1 = 0 at d = 1)"
            assert metrics._haar_states.cache_info().misses == 0
            assert metrics.haar_fidelity_mc(ch, n_samples=100, seed=0).estimate == 1.0


REFUSALS = {
    "target shape": (
        lambda: metrics.phi(genlib.identity_channel(2), np.eye(3)),
        TargetNotUnitary, "target must be 2 x 2, got (3, 3)",
    ),
    "too few MC samples": (
        lambda: metrics.haar_unitarity_mc(genlib.identity_channel(2), n_samples=99),
        ValueError, "n_samples must be at least 100",
    ),
}


@pytest.mark.parametrize("call, exc, message", REFUSALS.values(), ids=REFUSALS)
def test_input_refused(call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is exc
