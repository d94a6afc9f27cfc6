import re

import numpy as np
import pytest

from chanpolar import bounds, channel as chn, genlib, metrics, suites
from chanpolar.errors import (
    ChanPolarError,
    DimensionMismatch,
    NotDecoherent,
    NotHermitian,
    NotNonCatastrophic,
    NotTraceless,
    RatioOutOfRange,
    TargetNotUnitary,
)
from chanpolar.polar import _spectrum_constants

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def unitary_circuit(d, m, seed):
    chans = [
        chn.KrausChannel(dim=d, kraus=genlib.random_unitary(d, seed + i)[np.newaxis])
        for i in range(m)
    ]
    return bounds.CircuitSpec(chans, [c.kraus[0] for c in chans])


def rot_deph(theta, q):
    r = genlib.rotation_matrix(2, theta)
    kraus = np.einsum("ij,kjl->kil", r, genlib.dephasing(2, q).kraus)
    return chn.KrausChannel(dim=2, kraus=kraus)


class TestThm1:
    def test_unitary_circuit_zero(self):
        rep = bounds.thm1_uni_evo(unitary_circuit(2, 4, seed=3))
        assert rep.observed == pytest.approx(0.0, abs=1e-12)
        assert rep.holds

    def test_two_depolarizing_frozen_values(self):
        dep = genlib.depolarizing(2, 0.9)
        rep = bounds.thm1_uni_evo(bounds.CircuitSpec([dep, dep]))
        # Ups^2(P_0.81) = (1 + 3*0.81^2)/4; Ups(A*) = 0.925^2
        assert rep.observed == pytest.approx(0.742075 - 0.855625**2, abs=1e-12)
        assert rep.terms["upper_intermediate_form"] == pytest.approx(
            (1 - 0.855625) ** 2, abs=1e-12
        )
        assert rep.upper == pytest.approx((1 - 0.742075) ** 2, abs=1e-12)
        assert rep.holds and rep.terms["holds_intermediate_form"] == 1.0

    def test_intermediate_form_counterexample(self):
        # {sqrt(0.9) I, sqrt(0.1) X} twice: the product-family Gram cross
        # terms push the gap past (1 - Ups(A*_{m:1}))^2.
        el = chn.KrausChannel.from_ops([np.sqrt(0.9) * I2, np.sqrt(0.1) * X])
        rep = bounds.thm1_uni_evo(bounds.CircuitSpec([el, el]))
        assert rep.observed == pytest.approx(0.7048 - 0.6561, abs=1e-12)
        assert rep.terms["holds_intermediate_form"] == 0.0
        assert rep.holds  # outer chain member still holds

    def test_not_noncatastrophic(self):
        bad = genlib.depolarizing(2, 0.1)
        with pytest.warns(UserWarning, match="catastrophic"):
            with pytest.raises(NotNonCatastrophic):
                bounds.thm1_uni_evo(bounds.CircuitSpec([bad, bad]))


class TestThm2:
    def test_unitary_circuit_zero(self):
        rep = bounds.thm2_fid_evo(unitary_circuit(2, 3, seed=5))
        assert rep.observed == pytest.approx(0.0, abs=1e-12)
        assert rep.holds

    def test_stochastic_example_frozen_values(self):
        delta = 0.1
        el = chn.KrausChannel.from_ops([np.sqrt(1 - delta) * I2, np.sqrt(delta) * X])
        rep = bounds.thm2_fid_evo(bounds.CircuitSpec([el, el]))
        assert rep.observed == pytest.approx(0.01, abs=1e-12)
        assert rep.terms["upper_star_form"] == pytest.approx(0.058, abs=1e-12)
        # appendix star-free form: S = 2*(1 - 0.82) = 0.36
        s = 0.36
        expect = 0.5 * s**2 + 0.18 * s + 0.5 * s**3 + 0.19 * s**2
        assert rep.upper == pytest.approx(expect, abs=1e-12)
        assert rep.holds and rep.terms["holds_star_form"] == 1.0
        assert not rep.hot_truncated


class TestThm4:
    def test_single_depolarizing_trivial(self):
        circ = bounds.CircuitSpec([genlib.depolarizing(2, 0.95)])
        mono, sub = bounds.thm4_decoherent_features(circ)
        assert mono.holds and sub.holds
        assert mono.observed == pytest.approx(metrics.phi(circ.channels[0]))
        assert mono.upper >= mono.observed  # slack from the quadratic terms

    def test_three_amplitude_damping_with_rotation(self):
        circ = bounds.CircuitSpec([genlib.amplitude_damping(2, 0.1)] * 3)
        v = genlib.rotation_matrix(2, 0.05)
        mono, sub = bounds.thm4_decoherent_features(circ, v)
        assert mono.holds and sub.holds

    def test_rejects_coherent_elements(self):
        with pytest.raises(NotDecoherent):
            bounds.thm4_decoherent_features(
                bounds.CircuitSpec([genlib.rotation(2, 0.2)])
            )

    def test_random_decoherent_sweep(self):
        for t in range(25):
            rng = np.random.default_rng([431, t])
            d = 2 + t % 2
            m = int(rng.integers(1, 9))
            els = [
                genlib.psd_lk_decoherent(d, 0.1, int(rng.integers(0, 2**62)))
                for _ in range(m)
            ]
            v = genlib.random_unitary_error(d, 0.1, int(rng.integers(0, 2**62)))
            mono, sub = bounds.thm4_decoherent_features(
                bounds.CircuitSpec(els), v.kraus[0]
            )
            assert mono.holds and sub.holds


class TestThm5:
    def test_unitary_circuit_zero(self):
        rep = bounds.thm5_unitarity_decay(unitary_circuit(3, 3, seed=8))
        assert rep.observed == pytest.approx(0.0, abs=1e-12)
        assert rep.holds and rep.hot_truncated

    def test_two_depolarizing_values(self):
        dep = genlib.depolarizing(2, 0.9)
        rep = bounds.thm5_unitarity_decay(bounds.CircuitSpec([dep, dep]))
        assert rep.observed == pytest.approx(
            abs(np.sqrt(0.742075) - 0.8575), abs=1e-12
        )
        assert rep.terms["gamma_decoh"] == pytest.approx(0.0, abs=1e-12)
        # gamma = 0: upper = (1 - Ups*_comp)^2 + sum (1 - w1_i)^2
        assert rep.upper == pytest.approx(
            (1 - 0.855625) ** 2 + 2 * 0.075**2, abs=1e-12
        )
        assert rep.holds

    def test_depolarizing_u_multiplicativity_exact(self):
        dep = genlib.depolarizing(2, 0.9)
        rep = bounds.thm5_unitarity_decay(bounds.CircuitSpec([dep, dep]))
        assert rep.terms["u_gap"] <= 1e-12  # u(P_p o P_q) = u(P_p) u(P_q)


class TestThm6:
    def test_single_element_zero(self):
        rep = bounds.thm6_fidelity_decay(
            bounds.CircuitSpec([genlib.amplitude_damping(2, 0.1)])
        )
        assert rep.observed == pytest.approx(0.0, abs=1e-12)
        assert rep.holds

    def test_dephasing_composition(self):
        q, m = 0.01, 10
        rep = bounds.thm6_fidelity_decay(
            bounds.CircuitSpec([genlib.dephasing(2, q)] * m)
        )
        expect = abs((1 + (1 - 2 * q) ** m) / 2 - (1 - q) ** m)
        assert rep.observed == pytest.approx(expect, abs=1e-12)
        assert rep.holds and rep.hot_truncated

    def test_rejects_coherent(self):
        with pytest.raises(NotDecoherent):
            bounds.thm6_fidelity_decay(bounds.CircuitSpec([genlib.rotation(2, 0.1)]))

    def test_rejects_non_identity_targets(self):
        from chanpolar.errors import TargetNotUnitary

        circ = bounds.CircuitSpec(
            [genlib.amplitude_damping(2, 0.1)], [genlib.rotation_matrix(2, 0.2)]
        )
        with pytest.raises(TargetNotUnitary):
            bounds.thm6_fidelity_decay(circ)


class TestThm7:
    def test_decoherent_input_observed_is_phi(self):
        ch = genlib.amplitude_damping(2, 0.19)
        rep = bounds.thm7_max_correction(ch)
        assert rep.observed == pytest.approx(metrics.phi(ch), abs=1e-12)
        assert rep.holds
        # optimizer finds at most second-order improvements at the polar point
        assert rep.terms["optimizer_improvement"] <= 1.5 * (1 - 0.82805) ** 2 + 1e-9

    def test_rotation_dephasing_frozen_interval(self):
        rep = bounds.thm7_max_correction(rot_deph(0.1, 0.01))
        assert rep.observed == pytest.approx(0.99, abs=1e-12)
        ups = np.sqrt(0.9802)
        assert rep.lower == pytest.approx(0.9802 - (1 - 0.9802) ** 2, abs=1e-12)
        assert rep.upper == pytest.approx(ups + 1.5 * (1 - 0.9802) ** 2, abs=1e-12)
        assert rep.holds

    def test_pure_rotation_recovers_unity(self):
        rep = bounds.thm7_max_correction(genlib.rotation(2, 0.1))
        assert rep.observed == pytest.approx(1.0, abs=1e-12)  # W0 = R(-0.1)
        assert rep.terms["phi_optimized"] == pytest.approx(1.0, abs=1e-12)


class TestCheckCounts:
    """The decoherence check runs once per primed run of circuits, as one stacked
    test of their elements, the thm7 target check once per call."""

    @staticmethod
    def counting(monkeypatch, owner, name):
        calls = []
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
        return calls

    def test_one_decoherence_check_per_circuit(self, monkeypatch):
        calls = self.counting(monkeypatch, bounds, "_decoherent")
        circ = bounds.CircuitSpec(
            [genlib.amplitude_damping(2, 0.1), genlib.dephasing(2, 0.02)] * 2
        )
        bounds.thm4_decoherent_features(circ)
        bounds.thm6_fidelity_decay(circ)
        bounds.thm8_equable_composition(genlib.rotation_matrix(2, 0.05), circ)
        bounds.thm6_fidelity_decay(circ)
        assert len(calls) == 1
        assert np.array_equal(calls[0][0], [c.a1 for c in circ.channels])

    def test_failed_check_repeats_with_first_failing_element(self, monkeypatch):
        calls = self.counting(monkeypatch, bounds, "_decoherent")
        circ = bounds.CircuitSpec(
            [genlib.dephasing(2, 0.02), genlib.rotation(2, 0.1),
             genlib.rotation(2, 0.2)]
        )
        for evaluate in (
            bounds.thm4_decoherent_features,
            bounds.thm6_fidelity_decay,
            lambda c: bounds.thm8_equable_composition(None, c),
        ):
            with pytest.raises(NotDecoherent, match="element 1 is not"):
                evaluate(circ)
        assert [len(c[0]) for c in calls] == [3]  # the primed verdicts are read again

    def test_one_decoherence_check_per_primed_run(self, monkeypatch):
        calls = self.counting(monkeypatch, bounds, "_decoherent")
        circuits = [bounds.CircuitSpec([genlib.dephasing(2, 0.01 * m)] * m) for m in (1, 2, 3)]
        circuits.append(bounds.CircuitSpec([genlib.dephasing(2, 0.02), genlib.rotation(2, 0.1)]))
        bounds._prime(circuits)
        for circ in circuits[:3]:
            bounds.thm6_fidelity_decay(circ)
        with pytest.raises(NotDecoherent, match="element 1 is not"):
            bounds.thm6_fidelity_decay(circuits[3])
        assert len(calls) == 1
        assert np.array_equal(calls[0][0], [c.a1 for circ in circuits for c in circ.channels])

    def test_target_error_of_an_earlier_element_comes_first(self):
        # element 0 carries a rotation target, element 1 is not decoherent
        chans = [genlib.amplitude_damping(2, 0.1), genlib.rotation(2, 0.1)]
        circ = bounds.CircuitSpec(chans, [genlib.rotation_matrix(2, 0.2), I2])
        with pytest.raises(TargetNotUnitary, match="element 0 carries"):
            bounds.thm6_fidelity_decay(circ)
        with pytest.raises(NotDecoherent, match="element 1 is not"):
            bounds.thm6_fidelity_decay(bounds.CircuitSpec(chans, [I2, I2]))

    def test_thm7_checks_target_once(self, monkeypatch):
        calls = self.counting(monkeypatch, metrics, "_check_target")
        u = genlib.rotation_matrix(2, 0.1)
        bounds.thm7_max_correction(rot_deph(0.1, 0.01), u)
        assert len(calls) == 1 and calls[0][0] is u

    def test_thm7_target_error_comes_first(self):
        # a bad target is reported before the non-catastrophic check
        with pytest.raises(TargetNotUnitary):
            bounds.thm7_max_correction(genlib.rotation(2, 1.2), 2 * I2)
        with pytest.raises(NotNonCatastrophic):
            bounds.thm7_max_correction(genlib.rotation(2, 1.2), I2)

    def test_optimizer_result_unchanged_by_thm7_route(self):
        ch = rot_deph(0.1, 0.01)
        u = genlib.rotation_matrix(2, 0.1)
        rep = bounds.thm7_max_correction(ch, u)
        opt = bounds.optimize_unitary_correction(ch, target=u)
        assert rep.terms["phi_optimized"] == opt.phi_achieved


class TestThm8:
    def test_identity_prefix_reduces_to_thm6(self):
        circ = bounds.CircuitSpec([genlib.dephasing(2, 0.01)] * 5)
        r6 = bounds.thm6_fidelity_decay(circ)
        r8 = bounds.thm8_equable_composition(None, circ)
        assert r8.observed == pytest.approx(r6.observed, abs=1e-12)
        assert r8.holds

    def test_rotation_dephasing_exact_multiplicativity(self):
        rep = bounds.thm8_equable_composition(
            genlib.rotation_matrix(2, 0.1),
            bounds.CircuitSpec([genlib.dephasing(2, 0.01)]),
        )
        assert rep.observed <= 1e-12  # tr(R Z) = 0 kills the cross term
        assert rep.holds

    def test_random_pairs(self):
        for t in range(25):
            rng = np.random.default_rng([831, t])
            d = 2 + t % 2
            m = int(rng.integers(1, 7))
            els = [
                genlib.psd_lk_decoherent(d, 0.08, int(rng.integers(0, 2**62)))
                for _ in range(m)
            ]
            v = genlib.random_unitary_error(d, 0.1, int(rng.integers(0, 2**62)))
            rep = bounds.thm8_equable_composition(v.kraus[0], bounds.CircuitSpec(els))
            assert rep.holds

    def test_catastrophic_prefix_refused(self):
        # Phi(X o D, I) = 0 for the dephasing D: the prefixed composition
        # is catastrophic although the element is not
        with pytest.raises(NotNonCatastrophic):
            bounds.thm8_equable_composition(
                X, bounds.CircuitSpec([genlib.dephasing(2, 0.01)])
            )


class TestThm9:
    def test_all_unitary(self):
        rep = bounds.thm9_max_correction_multi(unitary_circuit(2, 4, seed=13))
        assert rep.observed == pytest.approx(1.0, abs=1e-12)
        assert rep.terms["prod_upsilon"] == pytest.approx(1.0, abs=1e-12)
        assert rep.observed - rep.lower == pytest.approx(0.0, abs=1e-9)
        assert rep.holds

    def test_three_rotation_dephasing(self):
        circ = bounds.CircuitSpec([rot_deph(0.05, 0.005)] * 3)
        rep = bounds.thm9_max_correction_multi(circ)
        assert rep.holds
        assert rep.observed == pytest.approx((1 - 0.005) ** 3, abs=1e-3)

    def test_conjugated_factorization_identity(self):
        # A_{m:1} = V_{m:1} o D'_{m:1} with D'_k = (V_{k:1})^dag D_k V_{k:1}
        # built from the right decoherent factors A_k = D_k o V_k
        rng = np.random.default_rng(77)
        els = [rot_deph(0.1, 0.01), genlib.amplitude_damping(2, 0.05), rot_deph(-0.07, 0.02)]
        circ = bounds.CircuitSpec(els)
        data = bounds._data(circ)
        v_c = np.eye(2, dtype=complex)
        parts = []
        for pol in data.polars:
            v_c = pol.unitary @ v_c
            conj = np.einsum(
                "ij,kjl,lm->kim", v_c.conj().T, pol.decoherent_right.kraus, v_c
            )
            parts.append(chn.KrausChannel(dim=2, kraus=conj))
        rebuilt = chn.compose(parts + [chn.KrausChannel(dim=2, kraus=v_c[np.newaxis])])
        for _ in range(5):
            psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            rho = np.outer(psi, psi.conj()) / np.linalg.norm(psi) ** 2
            assert np.allclose(
                chn.apply(rebuilt, rho), chn.apply(data.composite, rho), atol=1e-9
            )


class TestCircuitData:
    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    @pytest.mark.parametrize("m", [2, 32])
    @pytest.mark.parametrize("decoherent", [False, True], ids=["general", "decoherent"])
    def test_stacked_sigma_statistics_equal_per_element_route(self, d, m, decoherent):
        """The statistics of the stacked (m, d) LK singular values have the
        bits of one call per element."""
        rng = np.random.default_rng([11, d, m])
        drawn = suites._draw_circuit(d, m, rng)
        data = bounds._data(suites._build_circuits(d, [drawn], decoherent)[0])
        sigmas = [p.singular_values for p in data.polars]
        assert len(sigmas) == m
        means = [float(np.mean(s)) for s in sigmas]
        assert data.mean_sigma.tolist() == means
        assert data.pert.tolist() == [1.0 - x for x in means]
        assert data.gamma_max == max(_spectrum_constants(s)[1] for s in sigmas)


    def test_stacked_data_equal_single_circuit_calls(self):
        """_prime over circuits of mixed depths, Kraus counts and targets
        gives each circuit the bytes of priming it alone, every field."""
        def circuits():
            rng = np.random.default_rng(21)
            drawn = [suites._draw_circuit(3, m, rng, with_targets=m % 2 == 0) for m in (1, 2, 3, 5)]
            dec = [suites._draw_circuit(3, m, rng) for m in (2, 4)]
            return suites._build_circuits(3, drawn) + suites._build_circuits(3, dec, True)

        stacked, singles = circuits(), circuits()
        assert len({ch.n_kraus for c in stacked for ch in c.channels}) > 1
        bounds._prime(stacked)
        for a, b in zip(stacked, singles, strict=True):
            got, want = vars(a._data), vars(bounds._data(b))
            assert got.keys() == want.keys()
            for key, value in got.items():
                other = want[key]
                if key == "polars":
                    for p, q in zip(value, other, strict=True):
                        assert p.unitary.tobytes() == q.unitary.tobytes()
                        assert p.singular_values.tobytes() == q.singular_values.tobytes()
                elif key == "composite":
                    assert value.kraus.tobytes() == other.kraus.tobytes()
                elif isinstance(value, np.ndarray):
                    assert value.tobytes() == other.tobytes(), key
                else:
                    assert type(value) is type(other) and value == other, key

    def test_element_upsilon_taken_from_the_polar_cache(self, monkeypatch):
        """_prime computes Gram rows only for the composites: the elements'
        Upsilon were cached by channel_polars."""
        upsilons, calls, rows = metrics._upsilons, [], []
        gram = chn._gram
        monkeypatch.setattr(chn, "_gram", lambda k: rows.append(len(k)) or gram(k))

        def spy(channels):
            uncached = [ch._upsilon is None for ch in channels]
            rows.clear()
            out = upsilons(channels)
            calls.append((uncached, sum(rows)))
            return out

        monkeypatch.setattr(metrics, "_upsilons", spy)
        circuits = [bounds.CircuitSpec([rot_deph(0.1 * i + 0.1 * j, 0.01) for j in range(3)])
                    for i in range(2)]
        bounds._prime(circuits)
        assert calls == [([True] * 6, 6), ([False] * 6 + [True] * 2, 2)]

    def test_stacked_composite_target_test_refuses_any_item(self):
        u = genlib.random_unitary(2, 1)
        stack = np.stack([u, u @ u, 1.001 * u])
        head = stack[:2]
        assert metrics._check_targets(head, 2) is head
        with pytest.raises(TargetNotUnitary, match="^target is not unitary within tolerance$"):
            metrics._check_targets(stack, 2)


class TestCircuitTargets:
    """A circuit tests its targets' shapes one by one, the first misshapen one
    raising, then their unitarity as one stack; a kept target is its input array
    when that is already complex."""

    def test_targets_kept_and_refused_as_one_by_one(self):
        chans = [genlib.rotation(2, 0.1)] * 3
        u = genlib.random_unitary(2, 4)
        circ = bounds.CircuitSpec(chans, [u, None, genlib.rotation_matrix(2, 0.3).real.tolist()])
        assert circ.targets[0] is u
        assert np.array_equal(circ.targets[1], I2)
        assert circ.targets[2].dtype == np.complex128
        for targets, message in (
            ([u, 2 * u, np.eye(3)], "target must be 2 x 2, got (3, 3)"),
            ([u, np.eye(3), 2 * u], "target must be 2 x 2, got (3, 3)"),
            ([u, u, 2 * u], "target is not unitary within tolerance"),
        ):
            with pytest.raises(TargetNotUnitary, match=f"^{re.escape(message)}$"):
                bounds.CircuitSpec(chans, targets)

    def test_one_stacked_unitarity_test_per_circuit(self, monkeypatch):
        calls = TestCheckCounts.counting(monkeypatch, metrics, "_check_targets")
        single = TestCheckCounts.counting(monkeypatch, metrics, "_check_target")
        chans = [genlib.rotation(3, 0.1)] * 4
        us = [genlib.random_unitary(3, s) for s in range(3)] + [None]
        circ = bounds.CircuitSpec(chans, us)
        bounds.CircuitSpec(chans)  # the default identities are not tested
        assert single == [] and len(calls) == 1
        assert calls[0][0].shape == (4, 3, 3) and calls[0][1] == 3
        assert np.array_equal(calls[0][0], circ.targets)
        assert all(t is u for t, u in zip(circ.targets[:3], us))

    @pytest.mark.parametrize("where", [0, 3])
    @pytest.mark.parametrize("bad", [lambda u: 1.001 * u, lambda u: np.full_like(u, np.nan)],
                             ids=["scaled", "nan"])
    def test_bad_first_or_last_target_refused(self, where, bad):
        chans = [genlib.rotation(2, 0.1)] * 4
        us = [genlib.random_unitary(2, s) for s in range(4)]
        us[where] = bad(us[where])
        with pytest.raises(TargetNotUnitary, match="^target is not unitary within tolerance$"):
            bounds.CircuitSpec(chans, us)

    def test_misshapen_first_target_names_its_shape(self):
        with pytest.raises(TargetNotUnitary, match=re.escape("target must be 2 x 2, got (2,)")):
            bounds.CircuitSpec([genlib.rotation(2, 0.1)] * 2, [[1.0, 0.0], I2])


class TestThm7Stack:
    def test_stack_equals_single_calls(self):
        """Mixed Kraus counts and targets, one stacked call against one call each."""
        chs, us = [], []
        for t in range(6):
            ch, u = suites.sample_noncatastrophic(2 + t % 2, np.random.default_rng([2, t]))
            if ch.dim == 2:
                chs.append(ch)
                us.append(u)
        chs.append(rot_deph(0.1, 0.01))
        us.append(genlib.rotation_matrix(2, 0.1))
        assert len({ch.n_kraus for ch in chs}) > 1
        fresh = [chn.KrausChannel(dim=2, kraus=ch.kraus.copy()) for ch in chs]
        stacked = bounds._thm7_reports(chs, np.array(us))
        for rep, ch, u in zip(stacked, fresh, us, strict=True):
            assert repr(rep) == repr(bounds.thm7_max_correction(ch, u))


class TestCoherentEnvelope:
    def test_all_ratios_one(self):
        env = bounds.coherent_envelope([1.0, 1.0], 2, upsilons=[0.9, 0.8])
        assert env.lower == pytest.approx(0.72)
        assert env.upper == pytest.approx(0.72)

    def test_three_rotations_even(self):
        x = np.cos(0.1) ** 2
        env = bounds.coherent_envelope([x] * 3, 2)
        assert env.lower == pytest.approx(np.cos(0.3) ** 2, abs=1e-9)
        assert env.upper == pytest.approx(1.0)

    def test_odd_single_element_consistency(self):
        phi = 0.9
        env = bounds.coherent_envelope([phi], 3)
        assert env.lower == pytest.approx(phi, abs=1e-12)

    def test_ratio_out_of_range(self):
        with pytest.raises(RatioOutOfRange):
            bounds.coherent_envelope([0.4], 2)

    @pytest.mark.parametrize("d", [2, 3])
    def test_nan_ratio_out_of_range(self, d):
        with pytest.raises(RatioOutOfRange):
            bounds.coherent_envelope([0.9, np.nan], d)

    def test_float_noise_clipped(self):
        env = bounds.coherent_envelope([1.0 + 5e-10], 2)
        assert env.clipped
        assert env.lower == pytest.approx(1.0)

    def test_saturation_by_commuting_rotations(self):
        for d in (2, 4):
            thetas = [0.1, 0.07, 0.05]
            els = [genlib.rotation(d, t) for t in thetas]
            comp = chn.compose(els)
            ratios = [metrics.phi(e) for e in els]
            env = bounds.coherent_envelope(ratios, d, upsilons=[1.0] * 3)
            assert metrics.phi(comp) == pytest.approx(env.lower, abs=1e-9)


class TestOptimizer:
    def test_never_below_polar_start(self):
        for t in range(10):
            rng = np.random.default_rng([91, t])
            ch, target = suites.sample_noncatastrophic(2, rng)
            opt = bounds.optimize_unitary_correction(ch, target)
            assert opt.improvement >= -1e-12

    def test_improvement_within_interval_width(self):
        for t in range(10):
            rng = np.random.default_rng([92, t])
            ch, target = suites.sample_noncatastrophic(2, rng)
            rep = bounds.thm7_max_correction(ch, target)
            assert rep.terms["optimizer_improvement"] <= rep.upper - rep.lower + 1e-9

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_stationary_at_the_returned_correction(self, d):
        # W G is Hermitian PSD at a fixed point of the polar step
        for t in range(5):
            rng = np.random.default_rng([93, d, t])
            ch, target = suites.sample_noncatastrophic(d, rng)
            opt = bounds.optimize_unitary_correction(ch, target)
            uc = target.conj().T
            c = np.einsum("ij,kji->k", uc @ opt.unitary, ch.kraus)
            g = np.einsum("k,kij->ij", c.conj(), ch.kraus) @ uc
            wg = opt.unitary @ g
            assert np.linalg.norm(wg - wg.conj().T) <= 1e-6 * np.linalg.norm(wg)
            herm = (wg + wg.conj().T) / 2.0
            assert np.linalg.eigvalsh(herm).min() >= -1e-9 * np.linalg.norm(g)
            assert opt.improvement >= 0.0
            assert 2 <= opt.evaluations <= bounds._CORRECTION_MAX_STEPS + 1

    def test_runs_above_the_theorem_cap(self):
        rng = np.random.default_rng([94, 16])
        ch, target = suites.sample_noncatastrophic(16, rng)
        opt = bounds.optimize_unitary_correction(ch, target)
        assert opt.improvement >= 0.0
        rep = bounds.thm7_max_correction(ch, target)
        assert rep.terms["phi_optimized"] == opt.phi_achieved


class TestLindblad:
    def test_pauli_example_orthogonal(self):
        spec = bounds.LindbladSpec(
            dim=2, hamiltonian=Z, lindblad_ops=[X / np.sqrt(2.0)]
        )
        st = bounds.lindblad_structure(spec)
        assert st.orthogonal

    def test_zero_hamiltonian_lowering_operator(self):
        lower = (X + 1j * Y) / 2.0  # |0><1|
        spec = bounds.LindbladSpec(dim=2, hamiltonian=np.zeros((2, 2)), lindblad_ops=[lower])
        st = bounds.lindblad_structure(spec)
        assert np.allclose(st.term_hamiltonian, 0.0)
        assert st.orthogonal

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_worst_overlap_is_the_ratio_recomputed_from_the_terms(self, d):
        rng = np.random.default_rng(d)
        ops = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
               for _ in range(3)]
        h = (ops[0] + ops[0].conj().T) / 2.0
        jumps = [l - np.trace(l) / d * np.eye(d) for l in ops[1:]]
        for lops in (jumps, [np.zeros((d, d))]):
            st = bounds.lindblad_structure(
                bounds.LindbladSpec(dim=d, hamiltonian=h, lindblad_ops=lops)
            )
            # reference route: term norms and the "a.b" keys of inner_products
            norms = {
                "hamiltonian": np.linalg.norm(st.term_hamiltonian),
                "anticommutator": np.linalg.norm(st.term_anticommutator),
                "jump": np.linalg.norm(st.term_jump),
            }
            worst = 0.0
            for key, ip in st.inner_products.items():
                a, b = key.split(".")
                denom = norms[a] * norms[b]
                if denom > 0:
                    worst = max(worst, abs(ip) / denom)
            assert st.worst_overlap == worst

    def test_overlapping_terms_are_not_orthogonal(self):
        # below unit norm the traceless check allows |tr L| up to 1e-9 in
        # absolute terms, which is large next to a 1e-6 operator: the trace
        # 9e-10 i makes the Hamiltonian and jump terms overlap by about 6e-4
        lop = 1e-6 * Z + 4.5e-10j * I2
        st = bounds.lindblad_structure(
            bounds.LindbladSpec(dim=2, hamiltonian=Z, lindblad_ops=[lop])
        )
        assert not st.orthogonal
        assert st.worst_overlap > 1e-9
        assert abs(st.inner_products["hamiltonian.jump"]) > 1e-9 * (
            np.linalg.norm(st.term_hamiltonian) * np.linalg.norm(st.term_jump)
        )

    def test_millinorm_jump_with_a_nanoscale_trace_is_not_orthogonal(self):
        # a jump operator of norm 1e-3 whose trace 9e-10 i passes the absolute
        # 1e-9 traceless floor: the Hamiltonian and jump terms overlap
        lop = 1e-3 / np.sqrt(2.0) * Z + 4.5e-10j * I2
        assert np.linalg.norm(lop) < 1.0 and abs(np.trace(lop)) < 1e-9
        st = bounds.lindblad_structure(
            bounds.LindbladSpec(dim=2, hamiltonian=Z, lindblad_ops=[lop])
        )
        assert not st.orthogonal
        assert 1e-9 < st.worst_overlap < 1e-5

    def test_traceful_rejected(self):
        spec = bounds.LindbladSpec(dim=2, hamiltonian=Z, lindblad_ops=[np.eye(2)])
        with pytest.raises(NotTraceless):
            bounds.lindblad_structure(spec)

    def test_canonicalize_traceless_unchanged(self):
        spec = bounds.LindbladSpec(dim=2, hamiltonian=Z, lindblad_ops=[X / np.sqrt(2.0)])
        out = bounds.canonicalize_lindblad(spec)
        assert np.allclose(out.hamiltonian, Z, atol=1e-12)
        assert np.allclose(out.lindblad_ops[0], X / np.sqrt(2.0), atol=1e-12)

    def test_identity_lindblad_trivial(self):
        spec = bounds.LindbladSpec(
            dim=2, hamiltonian=Z, lindblad_ops=[np.eye(2) / np.sqrt(2.0)]
        )
        out = bounds.canonicalize_lindblad(spec)
        assert np.allclose(out.lindblad_ops[0], 0.0, atol=1e-12)
        assert np.allclose(out.hamiltonian, Z, atol=1e-12)
        assert np.allclose(bounds.lindblad_superop(out), bounds.lindblad_superop(spec), atol=1e-12)

    def test_projector_lindblad_superop_preserved(self):
        proj = np.diag([1.0, 0.0]).astype(complex)
        spec = bounds.LindbladSpec(dim=2, hamiltonian=np.zeros((2, 2)), lindblad_ops=[proj])
        out = bounds.canonicalize_lindblad(spec)
        assert max(abs(np.trace(l)) for l in out.lindblad_ops) <= 1e-12
        before = bounds.lindblad_superop(spec)
        after = bounds.lindblad_superop(out)
        assert np.linalg.norm(before - after) <= 1e-9


REFUSALS = {
    "empty circuit": (
        lambda: bounds.CircuitSpec([]),
        DimensionMismatch, "circuit needs at least one channel",
    ),
    "mixed dimensions": (
        lambda: bounds.CircuitSpec([genlib.identity_channel(2), genlib.identity_channel(3)]),
        DimensionMismatch, "circuit channels must share a dimension",
    ),
    "target count": (
        lambda: bounds.CircuitSpec([genlib.identity_channel(2)] * 2, [I2]),
        DimensionMismatch, "one target per channel required",
    ),
    "no ratios": (
        lambda: bounds.coherent_envelope([], 2),
        RatioOutOfRange, "need at least one ratio",
    ),
    "H shape": (
        lambda: bounds.LindbladSpec(dim=2, hamiltonian=np.eye(3), lindblad_ops=[X]),
        DimensionMismatch, "H dimension mismatch",
    ),
    "H not Hermitian": (
        lambda: bounds.LindbladSpec(dim=2, hamiltonian=(X + 1j * Y) / 2, lindblad_ops=[X]),
        NotHermitian, "H must be Hermitian within 1e-9",
    ),
    "L shape": (
        lambda: bounds.LindbladSpec(dim=2, hamiltonian=Z, lindblad_ops=[X, np.eye(3)]),
        DimensionMismatch, "Lindblad operator dimension mismatch",
    ),
}


@pytest.mark.parametrize("call, exc, message", REFUSALS.values(), ids=REFUSALS)
def test_input_refused(call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is exc


@pytest.mark.parametrize("call", [
    lambda: chn.compose([]),
    lambda: bounds.CircuitSpec([]),
    lambda: bounds.coherent_envelope([], 2),
    lambda: chn.KrausChannel(2, np.zeros((0, 2, 2))),
], ids=["compose", "circuit", "envelope", "kraus"])
def test_empty_input_raises_typed_error(call):
    """An empty channel list, circuit, ratio list or Kraus stack is a typed
    error, not a plain ValueError."""
    with pytest.raises(ChanPolarError) as info:
        call()
    assert type(info.value) in (DimensionMismatch, RatioOutOfRange)
