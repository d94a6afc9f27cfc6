import re
import tracemalloc
import warnings

import numpy as np
import pytest

from chanpolar import channel as chn
from chanpolar import bounds, genlib, metrics, polar, suites
from chanpolar.errors import DimensionMismatch, ParamOutOfRange, TargetNotUnitary

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

    def test_target_at_the_unitarity_tolerance(self):
        """A target whose ||U^dag U - I||_F sits a hair inside 1e-9 sqrt(d) (UNITARY_TOL)
        is taken and one a hair beyond it refused."""
        limit = 1e-9 * np.sqrt(2)
        for scale, ok in ((1 - 2**-21, True), (1 + 2**-21, False)):
            u = np.array([[1.0, 1e-9 * scale], [0.0, 1.0]])  # dev = sqrt(2 e^2 + e^4)
            dev = np.linalg.norm(u.conj().T @ u - np.eye(2))
            assert (dev <= limit) == ok and abs(dev / limit - 1) < 2**-20
            if ok:
                metrics.phi(genlib.identity_channel(2), target=u)
            else:
                with pytest.raises(TargetNotUnitary, match="^target is not unitary"):
                    metrics.phi(genlib.identity_channel(2), target=u)

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
    replace, for operators and targets in any memory layout: any layout
    gives the bits of its C-contiguous copy."""

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
            d, k, u = ch.dim, np.ascontiguousarray(ch.kraus), np.ascontiguousarray(u)
            assert up == metrics.upsilon(ch) == float(np.linalg.norm(chn._gram(k)) / d)
            traces = np.einsum("kij,ij->k", k, u.conj())
            assert ph == metrics.phi(ch, u) == float(np.sum(np.abs(traces) ** 2) / d**2)


def layouts(a) -> list:
    """C-ordered, Fortran-ordered and transposed-view copies of one array's values."""
    return [np.array(a, order="C"), np.asfortranarray(a),
            np.ascontiguousarray(np.swapaxes(a, -1, -2)).swapaxes(-1, -2)]


class TestLayoutInvariance:
    """Results depend only on the values of a target or a Kraus stack: every memory
    layout gives the bits of the C-contiguous copy, which is what ``src/`` keeps."""

    @staticmethod
    def figures(kraus, u, dec, v) -> list:
        """Every figure under test, as reprs (equal reprs are equal bits)."""
        d = u.shape[0]
        ch = chn.KrausChannel(dim=d, kraus=kraus)
        circ = bounds.CircuitSpec([chn.KrausChannel(dim=d, kraus=dec)] * 3)
        return [repr(x) for x in (
            metrics.phi(ch, u), metrics.upsilon(ch), metrics.report(ch, u).as_dict(),
            polar.infidelity_split(ch, u).as_dict(),
            polar.channel_polar(ch).singular_values.tolist(),
            bounds.thm4_decoherent_features(circ, v)[0].observed,
            bounds.thm8_equable_composition(v, circ).observed)]

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
    def test_every_layout_gives_the_bits_of_the_c_copy(self, d):
        for seed in range(6):
            kraus = genlib.random_cptp(d, 1 + seed % 4, seed=seed, strength=0.2).kraus
            u = genlib.random_unitary(d, seed=100 + seed)
            dec = genlib.psd_lk_decoherent(d, 0.08, seed=200 + seed).kraus
            v = genlib.random_unitary_error(d, 0.1, seed=300 + seed).kraus[0]
            want = self.figures(kraus, u, dec, v)
            for args in zip(layouts(kraus), layouts(u), layouts(dec), layouts(v)):
                assert self.figures(*args) == want


class TestUpsilonCache:
    """Upsilon is computed once per channel object and cached on it; a cached
    value has the bits of an uncached computation over the same array."""

    @staticmethod
    def fresh(ch):
        return chn.KrausChannel(dim=ch.dim, kraus=ch.kraus)  # a new object: empty caches

    @staticmethod
    def grams(monkeypatch):
        calls = []
        gram = chn._gram
        monkeypatch.setattr(chn, "_gram", lambda k: calls.append(k.shape) or gram(k))
        return calls

    @pytest.mark.parametrize("ch", [
        genlib.extremal_dephaser(8, base_scale=0.01, n_outliers=2, outlier_depth=0.3, seed=1),
        genlib.random_cptp(3, 4, seed=5, strength=0.1),
    ], ids=["gram-route", "choi-route"])
    def test_tour_makes_three_grams(self, monkeypatch, ch):
        """The library quick tour makes one Gram for the raw family's orthogonality
        test, one for the canonical view's Upsilon and one for the raw channel's
        (in is_decoherence_limited)."""
        ch = self.fresh(ch)
        calls = self.grams(monkeypatch)
        metrics.report(ch)
        polar.channel_polar(ch)
        polar.equability(ch)
        polar.infidelity_split(ch)
        polar.classify(ch)
        assert len(calls) == 3

    @pytest.mark.parametrize("ch", [genlib.dephasing(3, 0.1), genlib.random_cptp(3, 4, seed=6)],
                             ids=["gram-route", "choi-route"])
    def test_cached_equals_fresh(self, monkeypatch, ch):
        raw = self.fresh(ch)
        canon = chn.canonical(raw)
        for c, uncached in ((raw, self.fresh(raw)), (canon, chn._unchecked(3, canon.kraus))):
            ups = metrics.upsilon(c)
            assert c._upsilon == ups
            assert ups.hex() == metrics.upsilon(uncached).hex()
        calls = self.grams(monkeypatch)
        assert metrics.upsilon(raw) == raw._upsilon and metrics.upsilon(canon) == canon._upsilon
        assert calls == []  # a repeat call computes nothing

    def test_list_computes_only_the_uncached(self, monkeypatch):
        chans = [self.fresh(genlib.random_cptp(3, k, seed=s))
                 for k, s in ((2, 1), (4, 2), (2, 3), (4, 4), (2, 5))]
        chans.append(chans[1])  # a repeated channel is computed once
        metrics.upsilon(chans[0])
        metrics.upsilon(chans[3])
        want = metrics._upsilons([self.fresh(ch) for ch in chans])
        calls = self.grams(monkeypatch)
        got = metrics._upsilons(chans)
        assert got.tobytes() == want.tobytes()
        assert [ch._upsilon for ch in chans] == got.tolist()
        assert sorted(calls) == [(1, 4, 3, 3), (2, 2, 3, 3)]  # channels 1, then 2 and 4

    def test_new_views_start_uncached(self):
        ch = genlib.random_cptp(3, 4, seed=7, strength=0.1)
        metrics.upsilon(ch)
        choi = chn.to_choi(ch)
        assert chn.from_choi(choi)._upsilon is None
        assert [v._upsilon for v in chn.from_choi(np.stack([choi, choi]))] == [None, None]
        w = np.array([0.75, 0.25])
        assert chn._canonical_views(genlib.dephasing(2, 0.25).kraus, w, [2])[0]._upsilon is None
        assert chn.lk(ch)._upsilon is None
        assert chn.canonical(ch)._upsilon is None and ch._upsilon is not None


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


class TestLkGapStack:
    def reports(self, ch, target):
        """The gap reports from the figures of :func:`metrics.report`: the
        route the stacked and single calls must match bit for bit."""
        rep = metrics.report(ch, target)
        ups2 = rep.upsilon**2
        nc = rep.non_catastrophic
        return (
            metrics.make_report("lemma1", ups2 - rep.lk_upsilon**2, 0.0, (1.0 - ups2) ** 2,
                                terms={"upsilon2": ups2, "w1": rep.lk_upsilon}),
            metrics.make_report("lemma2", rep.phi - rep.lk_phi, 0.0,
                                (1.0 - ups2) * (1.0 - rep.phi) if nc else float("inf"),
                                terms={"phi": rep.phi, "lk_phi": rep.lk_phi,
                                       "applicable": 1.0 if nc else 0.0}),
        )

    @pytest.mark.parametrize("d", [2, 3])
    def test_stack_equals_single_calls_and_report_route(self, d):
        chs, us = [], []
        for t in range(8):
            ch, u = suites.sample_noncatastrophic(d, np.random.default_rng([31, d, t]))
            chs.append(ch)
            us.append(u)
        chs.append(genlib.depolarizing(d, 0.0))  # catastrophic: the Phi upper side is open
        us.append(np.eye(d, dtype=complex))
        assert len({ch.n_kraus for ch in chs}) > 1
        fresh = [chn.KrausChannel(dim=d, kraus=ch.kraus.copy()) for ch in chs]
        stacked = metrics._lk_gaps(chs, np.array(us))
        for pair, ch, u in zip(stacked, fresh, us, strict=True):
            assert repr(pair) == repr(metrics.lk_gap_bounds(ch, u))
            assert repr(pair) == repr(self.reports(ch, u))

    def test_d1_refused_as_by_report(self):
        """The unitarity is undefined at d = 1, so report() refuses there, and
        with it the gap sandwiches, single or through the lemma suite."""
        for call in (metrics.report, metrics.lk_gap_bounds):
            with pytest.raises(DimensionMismatch, match="^unitarity needs d >= 2"):
                call(genlib.identity_channel(1))
        with pytest.raises(DimensionMismatch, match="^unitarity needs d >= 2"):
            suites.lemma_suite(dims=(1,), trials=2)

    def test_channel_refused_before_target(self):
        """With both at fault, the channel's refusal comes first, as in report()."""
        eye = np.eye(65, dtype=complex)
        ch = chn.KrausChannel.from_ops([np.sqrt(0.5) * eye, np.sqrt(0.5) * eye])
        for call in (metrics.report, metrics.lk_gap_bounds):
            with pytest.raises(DimensionMismatch, match="above d=64"):
                call(ch, np.eye(3))
        with pytest.raises(TargetNotUnitary, match=r"got \(3, 3\)"):
            metrics.lk_gap_bounds(genlib.identity_channel(2), np.eye(3))

    def test_identity_target_is_the_no_target_route(self):
        for ch in (genlib.depolarizing(2, 0.9), genlib.amplitude_damping(3, 0.2),
                   suites.sample_noncatastrophic(3, np.random.default_rng(4))[0]):
            assert repr(metrics.lk_gap_bounds(ch)) == repr(self.reports(ch, None))


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
    "cptp_d2": (lambda d: genlib.random_cptp(d, d * d, 6, 0.3), False),
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


# Kraus counts 1 and d^2, at sample counts b - 1, b + 1 and 2b + 1 around the
# estimators' block of b = 2**20 // (16 d max(k, d)) samples, and at 100 000.
# Recorded before the estimators worked in blocks: the same four values at
# seed=20, without a target.
MC_BLOCK_PINS = {
    ("unitary_error", 2, 16383): ("0x1.ea87f0068227fp-1", "0x1.34a7eecf52afap-13",
                                 "0x1.0000000000004p+0", "0x1.f961fe9671f5dp-59"),
    ("unitary_error", 2, 16385): ("0x1.ea885b409f638p-1", "0x1.34a7fa9f056eep-13",
                                 "0x1.0000000000004p+0", "0x1.f9533703f5a88p-59"),
    ("unitary_error", 2, 32769): ("0x1.ea820a66da767p-1", "0x1.b46a27bff6836p-14",
                                 "0x1.0000000000004p+0", "0x1.66d1ee1d35d63p-59"),
    ("unitary_error", 2, 100000): ("0x1.ea804316059c9p-1", "0x1.f38d36acd2d62p-15",
                                  "0x1.0000000000004p+0", "0x1.9c62627902cedp-60"),
    ("cptp_d2", 2, 8191): ("0x1.f8efef6a58abcp-1", "0x1.124f76c0e8d41p-14",
                          "0x1.ea9e81f686ecfp-1", "0x1.faf347d7fe1bcp-14"),
    ("cptp_d2", 2, 8193): ("0x1.f8ef90362417ap-1", "0x1.125fa0203c8a4p-14",
                          "0x1.ea9e152b2f594p-1", "0x1.faec827222f79p-14"),
    ("cptp_d2", 2, 16385): ("0x1.f8ec03164c0e3p-1", "0x1.848cddf2852ecp-15",
                           "0x1.ea8bee096e740p-1", "0x1.655c5a267e57cp-14"),
    ("cptp_d2", 2, 100000): ("0x1.f8e95d80200dap-1", "0x1.3aec617bb596ap-16",
                            "0x1.ea955fb2292dep-1", "0x1.1fa926ef5efa9p-15"),
    ("unitary_error", 3, 7280): ("0x1.ec3d784c3ba96p-1", "0x1.abde764ef79ffp-13",
                                "0x1.fffffffffffeep-1", "0x1.ca28c58ec5a93p-58"),
    ("unitary_error", 3, 7282): ("0x1.ec3e1c6fcd2a6p-1", "0x1.abd1e45ee1bdcp-13",
                                "0x1.fffffffffffeep-1", "0x1.ca0a53201fa5ap-58"),
    ("unitary_error", 3, 14563): ("0x1.ec4fd226ce70cp-1", "0x1.2cebb30c27ab0p-13",
                                 "0x1.fffffffffffeep-1", "0x1.438225d8fb144p-58"),
    ("unitary_error", 3, 100000): ("0x1.ec1fffd1bcc79p-1", "0x1.c968c4a3350d6p-15",
                                  "0x1.fffffffffffeep-1", "0x1.f16c09a72881fp-60"),
    ("cptp_d2", 3, 2426): ("0x1.f82485e90bfdbp-1", "0x1.614b8cacd3ea1p-15",
                          "0x1.ed0bc85fd272bp-1", "0x1.8ce4b3073359dp-14"),
    ("cptp_d2", 3, 2428): ("0x1.f8244464e469ep-1", "0x1.6133722f87f01p-15",
                          "0x1.ed0af07340e77p-1", "0x1.8d0d306d53167p-14"),
    ("cptp_d2", 3, 4855): ("0x1.f829aa638c3c2p-1", "0x1.f1638ea0a2251p-16",
                          "0x1.ed10f5bf87e90p-1", "0x1.1bbc359a8b5c0p-14"),
    ("cptp_d2", 3, 100000): ("0x1.f82596533c3e9p-1", "0x1.b5e69e9a6968bp-18",
                            "0x1.ed116f822b9d6p-1", "0x1.f2e07defedda5p-17"),
    ("unitary_error", 8, 1023): ("0x1.f0ac4aaae5311p-1", "0x1.52f4577c632e8p-12",
                                "0x1.0000000000000p+0", "0x1.1373de8a73dfcp-55"),
    ("unitary_error", 8, 1025): ("0x1.f0ac8d00b6473p-1", "0x1.524c0a9e86ab0p-12",
                                "0x1.0000000000000p+0", "0x1.1306940963a69p-55"),
    ("unitary_error", 8, 2049): ("0x1.f0d508f6d6be5p-1", "0x1.ddd06ce08186cp-13",
                                "0x1.0000000000000p+0", "0x1.87d8d14e52c2ep-56"),
    ("unitary_error", 8, 100000): ("0x1.f0b6b08ba31bfp-1", "0x1.0a451574a531dp-15",
                                  "0x1.0000000000000p+0", "0x1.bd0e3c129ac4bp-59"),
    ("cptp_d2", 8, 127): ("0x1.f5da2f6234b99p-1", "0x1.4774a69670fd9p-14",
                         "0x1.e96978ed74089p-1", "0x1.33bddd7cf6c03p-13"),
    ("cptp_d2", 8, 129): ("0x1.f5db00782c61cp-1", "0x1.4903bb618b341p-14",
                         "0x1.e96bbb6474426p-1", "0x1.34ce631be8cbdp-13"),
    ("cptp_d2", 8, 257): ("0x1.f5d8a952b0659p-1", "0x1.ca931fda2b594p-15",
                         "0x1.e967cef2a2c87p-1", "0x1.b6f401d6a862cp-14"),
    ("cptp_d2", 8, 100000): ("0x1.f5d9e29eab9d1p-1", "0x1.60e534c6dd374p-19",
                            "0x1.e969840b9d207p-1", "0x1.51c313c218a29p-18"),
}

def _mc_hex(ch, target, seed, n_samples=2000):
    f = metrics.haar_fidelity_mc(ch, target, n_samples=n_samples, seed=seed)
    u = metrics.haar_unitarity_mc(ch, n_samples=n_samples, seed=seed)
    return (f.estimate.hex(), f.stderr.hex(), u.estimate.hex(), u.stderr.hex())


def _mc_case(name, d):
    build, targeted = MC_FAMILIES[name]
    return build(d), genlib.random_unitary(d, 9) if targeted else None


def _fidelity_whole(ch, target, n_samples, seed):
    """The fidelity estimator's reference route: one whole-array product with the
    target, even the identity."""
    u = metrics._check_target(target, ch.dim)
    psi = metrics._haar_states(ch.dim, n_samples, metrics._philox_key(seed))
    ref = (psi @ u.T).conj()
    tot = sum(np.abs(np.einsum("nj,nj->n", ref, psi @ a.T)) ** 2 for a in ch.kraus)
    return float(tot.mean()), float(tot.std(ddof=1) / np.sqrt(n_samples))


def _unitarity_whole(ch, n_samples, seed):
    """The unitarity estimator's reference route: one (k, n, d) image array from one
    matmul, and one sum over a C-ordered (n, d, d) array of squared moduli."""
    d = ch.dim
    psi = metrics._haar_states(d, n_samples, metrics._philox_key(seed))
    cols = np.ascontiguousarray(np.matmul(psi, ch.kraus.swapaxes(1, 2)).transpose(0, 2, 1))
    a_id = np.einsum("kij,klj->il", ch.kraus, ch.kraus.conj())
    out = np.einsum("kin,kjn->ijn", cols, cols.conj()) - (a_id / d)[:, :, np.newaxis]
    ratios = (np.abs(out.transpose(2, 0, 1), order="C") ** 2).sum(axis=(1, 2)) / (1.0 - 1.0 / d)
    offset = float(np.linalg.norm(a_id - np.eye(d)) ** 2 / (d * (d * d - 1)))
    return float(ratios.mean()) + offset, float(ratios.std(ddof=1) / np.sqrt(n_samples))


class TestMonteCarloBits:
    """The estimators' bits, recorded before the Haar-state memo existed."""

    @pytest.mark.parametrize("name, d", MC_PINS, ids=[f"{n}-{d}" for n, d in MC_PINS])
    def test_estimates_pinned(self, name, d):
        assert _mc_hex(*_mc_case(name, d), seed=20) == MC_PINS[name, d]

    @pytest.mark.parametrize("seed, pins", MC_SEED_PINS.values(), ids=MC_SEED_PINS)
    def test_seed_forms_pinned(self, seed, pins):
        assert _mc_hex(genlib.amplitude_damping(2, 0.19), None, seed) == pins

    @pytest.mark.parametrize("name, d, n", MC_BLOCK_PINS,
                             ids=[f"{m}-{d}-{n}" for m, d, n in MC_BLOCK_PINS])
    def test_block_seams_pinned(self, name, d, n):
        assert _mc_hex(*_mc_case(name, d), seed=20, n_samples=n) == MC_BLOCK_PINS[name, d, n]

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

    @pytest.mark.parametrize("d", range(1, 10))
    def test_states_equal_the_norm_route(self, d):
        """Each row over its np.linalg.norm, block by block, byte for byte: rows
        of fewer than 8 and of 8 or more entries, and a block seam."""
        n = metrics._block(16 * d) + 3
        key = metrics._philox_key(17)
        gen = np.random.Generator(np.random.Philox(key=key))
        want = np.empty((n, d), dtype=np.complex128)
        for blk in np.split(want, [n - 3]):
            z = gen.standard_normal((len(blk), 2 * d))
            np.add(z[:, :d], 1j * z[:, d:], out=blk)
            blk /= np.linalg.norm(blk, axis=1, keepdims=True)
        assert metrics._haar_states.__wrapped__(d, n, key).tobytes() == want.tobytes()

    def test_states_are_read_only(self):
        psi = metrics._haar_states(2, 100, metrics._philox_key(0))
        with pytest.raises(ValueError, match="read-only"):
            psi[0, 0] = 0.0

    @pytest.mark.parametrize("call", [metrics.haar_fidelity_mc, metrics.haar_unitarity_mc])
    @pytest.mark.parametrize("n", [2000.0, np.bool_(True), None])
    def test_non_integer_samples_refused_before_drawing(self, call, n):
        metrics._haar_states.cache_clear()
        with pytest.raises(ParamOutOfRange, match="^n_samples must be an integer, got "):
            call(genlib.amplitude_damping(2, 0.19), n_samples=n, seed=20)
        assert metrics._haar_states.cache_info().misses == 0

    def test_numpy_integer_samples_take_the_int_bits(self):
        ch, target = _mc_case("cptp_rank4", 3)
        assert _mc_hex(ch, target, 20, n_samples=np.int64(2000)) == MC_PINS["cptp_rank4", 3]

    @pytest.mark.parametrize("d, k", [(d, k) for d in (2, 3, 5, 8, 12) for k in (1, 3, d * d)])
    def test_block_seams_equal_the_whole_array_route(self, d, k):
        """Both estimators, float.hex for float.hex against the whole-array route, at the
        unitarity block seams j b - 1, j b, j b + 1 and (j + 1) b + 1, j the least that
        keeps n at 100 or more (1 while b > 100); the fidelity with and without a target."""
        ch = genlib.random_cptp(d, k, 6)
        b = metrics._block(16 * d * max(k, d))
        j = -(-101 // b)
        for n in (j * b - 1, j * b, j * b + 1, (j + 1) * b + 1):
            for target in (None, genlib.random_unitary(d, 9)):
                est = metrics.haar_fidelity_mc(ch, target, n_samples=n, seed=20)
                want = _fidelity_whole(ch, target, n, 20)
                assert (est.estimate.hex(), est.stderr.hex()) == tuple(map(float.hex, want)), n
            est = metrics.haar_unitarity_mc(ch, n_samples=n, seed=20)
            want = _unitarity_whole(ch, n, 20)
            assert (est.estimate.hex(), est.stderr.hex()) == tuple(map(float.hex, want)), n

    @pytest.mark.parametrize("d, k", [(d, k) for d in (2, 3, 5, 8, 12) for k in (1, 3)])
    def test_fidelity_block_seams_equal_the_whole_array_route(self, d, k):
        """The fidelity estimator, float.hex for float.hex against the whole-array route,
        with and without a target, at its own block seams b - 1, b, b + 1 (a one-row tail
        joins the block before it) and 2 b + 1, b = 2**20 // (16 d) rows whatever k is."""
        ch = genlib.random_cptp(d, k, 6)
        b = metrics._block(16 * d)
        for n in (b - 1, b, b + 1, 2 * b + 1):
            for target in (None, genlib.random_unitary(d, 9)):
                est = metrics.haar_fidelity_mc(ch, target, n_samples=n, seed=20)
                want = _fidelity_whole(ch, target, n, 20)
                assert (est.estimate.hex(), est.stderr.hex()) == tuple(map(float.hex, want)), n

    @pytest.mark.parametrize("d, k", [(d, k) for d in (2, 3, 5, 8) for k in (1, 3, d * d)])
    def test_mirror_entries_are_exact_conjugates(self, d, k):
        """The premise of the unitarity's upper triangle: the (j, i) entry of
        sum_k A_k psi (A_k psi)^dag, and of A(I), is the conjugate of the (i, j) entry,
        float.hex for float.hex (adding 0.0 makes a zero's sign +).  A numpy whose einsum
        fused the complex product would fail here."""
        ch = genlib.random_cptp(d, k, 6)
        psi = metrics._haar_states(d, 257, metrics._philox_key(20))
        cols = np.ascontiguousarray(np.matmul(psi, ch.kraus.swapaxes(1, 2)).transpose(0, 2, 1))
        gram = np.einsum("kin,kjn->ijn", cols, cols.conj())
        a_id = np.einsum("kij,klj->il", ch.kraus, ch.kraus.conj())

        def hexes(m):
            return [(z.real.hex(), z.imag.hex()) for z in (m + 0.0).ravel().tolist()]

        for m in (gram, a_id):
            assert hexes(m) == hexes(m.swapaxes(0, 1).conj())

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_unitarity_forms_the_upper_triangle_only(self, monkeypatch, d):
        """Per sample the unitarity estimator forms d (d + 1) / 2 of the d^2 entries of
        its Hermitian matrix, one einsum per row i over the columns j >= i."""
        formed, einsum = [], np.einsum

        def spy(subscripts, *operands, **kwargs):
            out = einsum(subscripts, *operands, **kwargs)
            if subscripts == "kn,kjn->jn":
                formed.append(out.size)
            return out

        monkeypatch.setattr(np, "einsum", spy)
        metrics.haar_unitarity_mc(genlib.random_cptp(d, 3, 6), n_samples=1000, seed=20)
        assert sum(formed) == d * (d + 1) // 2 * 1000

    def test_pairwise_sum_has_the_bits_of_add_reduce(self):
        """In order below 8 terms, 8 running sums up to 128, split in halves above."""
        rng = np.random.default_rng(29)
        for m in range(1, 301):
            rows = rng.standard_normal((7, m)) * 10.0 ** rng.uniform(-8, 8, (7, m))
            want = np.array([np.add.reduce(row) for row in rows])
            assert metrics._pairwise_sum(rows.T).tobytes() == want.tobytes(), m

    @pytest.mark.parametrize("target, message", [
        (np.eye(3), "target must be 2 x 2, got (3, 3)"),
        (np.diag([1.0, 1.5]), "target is not unitary within tolerance"),
    ])
    def test_fidelity_refuses_target_before_drawing(self, target, message):
        metrics._haar_states.cache_clear()
        with pytest.raises(TargetNotUnitary, match=f"^{re.escape(message)}$"):
            metrics.haar_fidelity_mc(genlib.amplitude_damping(2, 0.19), target, seed=20)
        assert metrics._haar_states.cache_info().misses == 0

    @pytest.mark.parametrize("call", [
        metrics.haar_unitarity_mc,
        lambda ch, n_samples: metrics.haar_fidelity_mc(ch, n_samples=n_samples),
    ], ids=["unitarity", "fidelity"])
    def test_estimators_peak_within_their_states(self, call):
        """The n x d states plus 8 MiB at d = 8, k = 64 and n = 100,000: both estimators
        take O(1 MiB) blocks of samples, with no whole n x d array beyond the states."""
        ch, n = genlib.depolarizing(8, 0.9), 100000  # k = 64
        metrics._haar_states.cache_clear()  # the states count too
        tracemalloc.start()
        try:
            call(ch, n_samples=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n * 8 * 16 + 8 * 2**20

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
        ParamOutOfRange, "n_samples must be at least 100",
    ),
    "float MC samples": (
        lambda: metrics.haar_unitarity_mc(genlib.identity_channel(2), n_samples=1e5),
        ParamOutOfRange, "n_samples must be an integer, got 100000.0",
    ),
    "fractional MC samples": (
        lambda: metrics.haar_fidelity_mc(genlib.identity_channel(2), n_samples=2000.5),
        ParamOutOfRange, "n_samples must be an integer, got 2000.5",
    ),
    "string MC samples": (
        lambda: metrics.haar_unitarity_mc(genlib.identity_channel(2), n_samples="2000"),
        ParamOutOfRange, "n_samples must be an integer, got '2000'",
    ),
    "bool MC samples": (
        lambda: metrics.haar_fidelity_mc(genlib.identity_channel(2), n_samples=True),
        ParamOutOfRange, "n_samples must be an integer, got True",
    ),
}


@pytest.mark.parametrize("call, exc, message", REFUSALS.values(), ids=REFUSALS)
def test_input_refused(call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is exc
