import numpy as np
import pytest

from chanpolar import channel as chn
from chanpolar import genlib, matcore, metrics, polar
from chanpolar.errors import ParamOutOfRange

ALL_SPECS = [
    genlib.FamilySpec("identity", 3),
    genlib.FamilySpec("depolarizing", 2, {"p": 0.9}),
    genlib.FamilySpec("depolarizing", 3, {"p": 0.7}),
    genlib.FamilySpec("dephasing", 2, {"q": 0.1}),
    genlib.FamilySpec("dephasing", 4, {"q": 0.3}),
    genlib.FamilySpec("stochastic_weyl", 3, {"p": 0.8}, seed=4),
    genlib.FamilySpec("amplitude_damping", 2, {"gamma": 0.19}),
    genlib.FamilySpec("amplitude_damping", 3, {"gamma": 0.4}),
    genlib.FamilySpec("rotation", 2, {"theta": 0.3}),
    genlib.FamilySpec("rotation", 4, {"theta": -0.2}),
    genlib.FamilySpec("rotation", 3, {"theta": 0.15}),
    genlib.FamilySpec("random_unitary_error", 3, {"strength": 0.2}, seed=5),
    genlib.FamilySpec("random_cptp", 2, {"kraus_rank": 4}, seed=6),
    genlib.FamilySpec("random_cptp", 3, {"kraus_rank": 3, "strength": 0.05}, seed=7),
    genlib.FamilySpec("psd_lk_decoherent", 2, {"strength": 0.1}, seed=8),
    genlib.FamilySpec("extremal_dephaser", 4),
    genlib.FamilySpec(
        "extremal_dephaser",
        16,
        {"base_scale": 2.5e-3, "n_outliers": 2, "outlier_depth": 0.02},
        seed=9,
    ),
    genlib.FamilySpec("extremal_unitary", 8),
    genlib.FamilySpec("spiral", 3, {"alpha": 0.3}),
    genlib.FamilySpec("coherence_mix", 2, {"infidelity": 1e-3, "level": 0.3}),
]


def test_every_registered_family_has_a_cptp_case():
    assert set(genlib.FAMILIES) == {spec.family for spec in ALL_SPECS}
    assert genlib.FAMILIES == tuple(genlib.BUILDERS)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.family}-d{s.dim}")
def test_every_family_is_cptp(spec):
    ch = genlib.make_channel(spec)
    rep = chn.validate_cptp(ch)
    assert rep.ok, f"{spec.family}: tp_slack={rep.tp_slack}"


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.family}-d{s.dim}")
def test_every_family_holds_a_c_contiguous_stack(spec):
    """``channel._by_shape`` stacks channels by shape alone, which relies on this."""
    ch = genlib.make_channel(spec)
    assert ch.kraus.flags.c_contiguous
    assert chn.canonical(ch).kraus.flags.c_contiguous


# the first spec of each family, for builds at other dimensions
FIRST_SPECS = {spec.family: spec for spec in reversed(ALL_SPECS)}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("family", genlib.FAMILIES)
def test_every_family_at_small_d_is_cptp_or_refused(family, d):
    spec = FIRST_SPECS[family]
    try:
        ch = genlib.make_channel(genlib.FamilySpec(family, d, spec.params, spec.seed))
    except ParamOutOfRange:
        return
    rep = chn.validate_cptp(ch)
    assert rep.ok, f"{family} at d = {d}: tp_slack={rep.tp_slack}"


class TestClosedForms:
    @pytest.mark.parametrize("d", [2, 3])
    def test_depolarizing_unitarity(self, d):
        for p in (0.3, 0.8, 0.95):
            ups = metrics.upsilon(genlib.depolarizing(d, p))
            assert metrics.unitarity(ups, d) == pytest.approx(p * p, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_dephasing_phi(self, d):
        for q in (0.05, 0.2, 0.5):
            assert metrics.phi(genlib.dephasing(d, q)) == pytest.approx(
                1 - q, abs=1e-12
            )

    def test_amplitude_damping_phi(self):
        for g in (0.1, 0.19, 0.5):
            expect = (1 + np.sqrt(1 - g)) ** 2 / 4
            assert metrics.phi(genlib.amplitude_damping(2, g)) == pytest.approx(
                expect, abs=1e-12
            )

    def test_depolarizing_weights(self):
        canon = chn.canonical(genlib.depolarizing(2, 0.9))
        assert np.allclose(canon.weights, [0.925, 0.025, 0.025, 0.025], atol=1e-12)

    def test_rotation_phi_even_dims(self):
        for d in (2, 4):
            assert metrics.phi(genlib.rotation(d, 0.2)) == pytest.approx(
                np.cos(0.2) ** 2, abs=1e-12
            )


class TestExtremalFamilies:
    def test_extremal_dephaser_d4_construction(self):
        ch = genlib.extremal_dephaser(4)
        assert np.allclose(ch.kraus[0], np.diag([0.0, 1.0, 1.0, 1.0]), atol=0)
        proj = np.zeros((4, 4))
        proj[0, 0] = 1.0
        assert np.allclose(ch.kraus[1], proj, atol=0)
        assert metrics.phi(ch) == pytest.approx(0.625, abs=1e-12)  # (9+1)/16

    def test_extremal_dephaser_large_d_analytic(self):
        d = 1024
        ch = genlib.extremal_dephaser(d)
        rep = metrics.report(ch)
        expect_r = 2.0 * (d - 1) / (d * (d + 1))
        assert rep.infidelity == pytest.approx(expect_r, abs=1e-12)
        assert 2.0**-11 <= rep.infidelity <= 2.0**-9
        assert rep.non_catastrophic

    def test_extremal_unitary_construction(self):
        ch = genlib.extremal_unitary(8)
        assert np.allclose(ch.kraus[0], np.diag([-1.0] + [1.0] * 7), atol=0)

    def test_extremal_families_fail_equability(self):
        assert not polar.equability(genlib.extremal_dephaser(4)).sse_ok
        assert not polar.equability(genlib.extremal_unitary(8)).sse_ok

    def test_equable_families_pass(self):
        assert polar.equability(genlib.depolarizing(2, 0.99)).sse_ok
        assert polar.equability(genlib.rotation(2, 0.05)).sse_ok


class TestSpiral:
    def test_tp_exact(self):
        ch = genlib.spiral(0.3)
        acc = sum(a.conj().T @ a for a in ch.kraus)
        assert np.linalg.norm(acc - np.eye(3)) < 1e-15

    def test_matches_display(self):
        a = 0.3
        ch = genlib.spiral(a)
        ph = np.exp(1j * a**3 / 2)
        assert np.allclose(
            np.diag(ch.kraus[0]),
            [np.cos(a), np.cos(a / 2) * ph, np.cos(a / 2) * np.conj(ph)],
            atol=1e-15,
        )


class TestRandomUnitary:
    def test_d1_is_phase(self):
        u = genlib.random_unitary(1, seed=0)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_deterministic(self):
        a = genlib.random_unitary(4, seed=5)
        b = genlib.random_unitary(4, seed=5)
        assert a.tobytes() == b.tobytes()

    def test_unitary(self):
        for seed in range(5):
            u = genlib.random_unitary(3, seed=seed)
            assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-10

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 16])
    def test_stacked_draws_equal_single_calls(self, d):
        """One stacked QR gives each seed the bits of its own draw, and the
        single call keeps those of the per-seed formula."""
        seeds = [0, 1, 7, 2**62 + 3, [4, d], 123456789]
        stack = genlib._haar_unitaries(d, seeds)
        for u, seed in zip(stack, seeds, strict=True):
            single = genlib.random_unitary(d, seed)
            assert u.tobytes() == single.tobytes() and single.flags.c_contiguous
            rng = np.random.default_rng(seed)
            z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
            q, r = np.linalg.qr(z)
            assert single.tobytes() == (q * (np.diag(r) / np.abs(np.diag(r)))).tobytes()
        assert genlib._haar_unitaries(d, []).shape == (0, d, d)

    def test_haar_trace_moment(self):
        # E |tr U|^2 = 1 for Haar
        n = 10000
        vals = np.array(
            [abs(np.trace(genlib.random_unitary(2, seed=i))) ** 2 for i in range(n)]
        )
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 1.0) <= 3 * se


class TestRandomCptp:
    def test_rank_one_is_unitary(self):
        ch = genlib.random_cptp(3, 1, seed=2)
        u = ch.kraus[0]
        assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-10

    def test_tp_exact_by_construction(self):
        ch = genlib.random_cptp(2, 4, seed=3)
        assert chn.validate_cptp(ch).tp_slack <= 1e-12

    def test_near_identity_noncatastrophic(self):
        ch = genlib.random_cptp(2, 3, seed=4, strength=0.05)
        assert metrics.non_catastrophic(ch)

    def test_generator_size_capped_before_drawing(self, monkeypatch):
        """d * kraus_rank above MAX_EIGENSOLVER_DIM^2 = 4096 is refused
        before any isometry is drawn; 4096 itself reaches the draw."""
        class Drew(Exception):
            pass

        def draw(n, *args):
            raise Drew(n)

        monkeypatch.setattr(genlib, "random_unitary", draw)
        monkeypatch.setattr(genlib, "_gue_eig", draw)
        assert chn.MAX_EIGENSOLVER_DIM**2 == 4096
        for strength in (None, 0.1):
            with pytest.raises(Drew, match="4096"):
                genlib.random_cptp(32, 128, seed=0, strength=strength)
            for d, k in ((32, 129), (64, 65), (64, 4096)):
                with pytest.raises(ParamOutOfRange, match="at most 4096"):
                    genlib.random_cptp(d, k, seed=0, strength=strength)
        with pytest.raises(ParamOutOfRange, match="at most 4096"):
            genlib.psd_lk_decoherent(64, 0.1, seed=0, kraus_rank=4096)

    @pytest.mark.parametrize("d, k", [(2, 1), (2, 4), (3, 2)])
    def test_near_identity_stack_equals_single_calls(self, d, k):
        """One stacked exponential gives each seed the Kraus bits of its own
        random_cptp call (at k = 1 also of random_unitary_error), the first d
        columns of exp(-i strength H) cut into k blocks."""
        seeds, strengths = [0, 5, [3, d]], [0.0, 0.05, 0.3]
        stack = genlib._near_identity_kraus(d, k, genlib._gue_eig(d * k, seeds), strengths)
        assert stack.shape == (3, k, d, d)
        for kraus, seed, eps in zip(stack, seeds, strengths, strict=True):
            ch = genlib.random_cptp(d, k, seed, strength=eps)
            assert kraus.tobytes() == ch.kraus.tobytes() and ch.kraus.flags.c_contiguous
            iso = matcore._expi_eig(*genlib._gue_eig(d * k, [seed]), -eps)[0, :, :d]
            assert kraus.tobytes() == iso.reshape(k, d, d).tobytes()
            if k == 1:
                assert kraus.tobytes() == genlib.random_unitary_error(d, eps, seed).kraus.tobytes()

    def test_negative_or_nan_strength_refused_in_a_stack(self):
        eig = genlib._gue_eig(2, [0, 1])
        for bad in (-0.1, float("nan")):
            with pytest.raises(ParamOutOfRange, match="^strength must be non-negative$"):
                genlib._near_identity_kraus(2, 1, eig, [0.1, bad])
            for call in (lambda: genlib.random_cptp(2, 2, 0, strength=bad),
                         lambda: genlib.random_unitary_error(2, bad, 0)):
                with pytest.raises(ParamOutOfRange, match="^strength must be non-negative$"):
                    call()


class TestPsdLkDecoherent:
    def test_strength_zero_limit(self):
        ch = genlib.psd_lk_decoherent(2, 1e-4, seed=5)
        assert metrics.phi(ch) > 1 - 1e-3

    def test_construction_properties(self):
        ch = genlib.psd_lk_decoherent(2, 0.1, seed=6)
        assert polar.is_decoherent(ch)
        assert metrics.non_catastrophic(ch)

    @pytest.mark.parametrize("d", [2, 3])
    def test_sweep_always_decoherent(self, d):
        for t in range(200):
            ch = genlib.psd_lk_decoherent(d, 0.12, seed=1000 * d + t)
            assert polar.is_decoherent(ch)


class TestCoherenceMix:
    @pytest.mark.parametrize("level", [0.0, 0.1, 0.5, 1.0])
    def test_level_realized(self, level):
        r = 1e-3
        ch = genlib.coherence_mix(r, level)
        split = polar.infidelity_split(ch)
        assert split.r == pytest.approx(r, rel=1e-9)
        if level > 0:
            assert split.coherence_level == pytest.approx(level, rel=0.05)
        else:
            assert split.coherence_level <= 1e-9

    def test_params_recorded(self):
        p = genlib.coherence_mix_params(1e-4, 0.01)
        assert 0 < p["theta"] < 1e-2
        assert 0 < p["q"] < 1e-3


class TestFamilySpec:
    def test_json_round_trip(self):
        spec = genlib.FamilySpec("depolarizing", 2, {"p": 0.9}, seed=3)
        obj = {"family": "depolarizing", "dim": 2, "params": {"p": 0.9}, "seed": 3}
        assert genlib.FamilySpec.from_dict(obj) == spec
        del obj["seed"]
        assert genlib.FamilySpec.from_dict(obj) == genlib.FamilySpec(
            "depolarizing", 2, {"p": 0.9}
        )
        assert genlib.FamilySpec.from_dict({"family": "identity", "dim": 3}) == (
            genlib.FamilySpec("identity", 3)
        )

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            genlib.FamilySpec.from_dict({"family": "nope", "dim": 2})

    @pytest.mark.parametrize(
        "fn,args",
        [
            (genlib.depolarizing, (2, 1.5)),
            (genlib.dephasing, (2, 0.7)),
            (genlib.amplitude_damping, (2, -0.1)),
            (genlib.rotation, (2, 4.0)),
            (genlib.stochastic_weyl, (2, 0.4, 0)),
            (genlib.psd_lk_decoherent, (2, 0.5, 0)),
            (genlib.spiral, (2.0,)),
            (genlib.coherence_mix, (0.5, 0.5)),
            (genlib.random_unitary, (0, 0)),
        ],
    )
    def test_param_out_of_range(self, fn, args):
        with pytest.raises(ParamOutOfRange):
            fn(*args)

    @pytest.mark.parametrize("fn, args, inside, message", [
        (genlib.extremal_dephaser, (4, 0.01, 0, 0.2, 1), (4, 0.01, 1, 0.2, 1),
         r"n_outliers must be in \(0, d\)"),
        (genlib.extremal_dephaser, (4, 0.01, 4, 0.2, 1), (4, 0.01, 3, 0.2, 1),
         r"n_outliers must be in \(0, d\)"),
        (genlib.spiral, (0.5, 2), (0.5, 3), "spiral is a d = 3 construction"),
        (genlib.spiral, (0.5, 4), (0.5, 3), "spiral is a d = 3 construction"),
        (genlib.coherence_mix, (1e-3, 0.5, 3), (1e-3, 0.5, 2),
         "coherence_mix is a d = 2 construction"),
        (genlib.extremal_dephaser, (4, 0.1, 1, 0.2, 1), (4, 0.0999, 1, 0.2, 1),
         r"base_scale must be in \(0, 0.1\)"),
    ], ids=["dephaser-0-outliers", "dephaser-d-outliers", "spiral-d2", "spiral-d4",
            "coherence_mix-d3", "dephaser-base-scale-0.1"])
    def test_range_check_message(self, fn, args, inside, message):
        """Each range check refuses with its own message, and the values one
        step inside its range build a CPTP channel."""
        with pytest.raises(ParamOutOfRange, match=f"^{message}$"):
            fn(*args)
        assert chn.validate_cptp(fn(*inside)).ok


class TestClassificationLabels:
    def test_table_rows(self):
        assert polar.classify(genlib.depolarizing(2, 0.99)).label.startswith(
            "Decoherent, SSE"
        )
        rot = polar.classify(genlib.rotation(2, 0.05))
        assert rot.coherence_level == pytest.approx(1.0, abs=1e-9)
        assert polar.classify(genlib.amplitude_damping(2, 0.05)).decoherent
        assert polar.classify(genlib.stochastic_weyl(2, 0.95, seed=1)).decoherent
