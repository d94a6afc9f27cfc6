import re

import numpy as np
import pytest

from chanpolar import channel as chn
from chanpolar import genlib, metrics, suites
from chanpolar.errors import TargetNotUnitary

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
