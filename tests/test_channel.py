import json
import re
import warnings

import numpy as np
import pytest

from chanpolar import channel as chn
from chanpolar import genlib, matcore, metrics, polar, suites
from chanpolar.errors import ChanPolarError, DegenerateLeading, DimensionMismatch, NotCP
from wire_format import choi_to_json

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def col(a):
    """Column stacking, the vectorization of the channel module:
    col(A)[j*d + i] = A[i, j]."""
    return np.asarray(a).flatten(order="F")


def rotation(theta):
    return genlib.rotation_matrix(2, theta)


def random_state(d, rng):
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def explicit_choi(ch):
    """Independent oracle: literal sum_ij E_ij (x) A(E_ij)."""
    d = ch.dim
    out = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            out += np.kron(e, chn.apply(ch, e))
    return out


class TestValidateCptp:
    def test_identity_ok(self):
        rep = chn.validate_cptp(genlib.identity_channel(2))
        assert rep.ok and rep.cp_slack == 0.0 and rep.tp_slack == pytest.approx(0.0)

    def test_bit_flip_mixture_ok(self):
        ch = chn.KrausChannel.from_ops([np.sqrt(0.9) * I2, np.sqrt(0.1) * X])
        assert chn.validate_cptp(ch).ok

    def test_double_identity_not_ok(self):
        ch = chn.KrausChannel.from_ops([I2, I2])
        rep = chn.validate_cptp(ch)
        assert not rep.ok
        assert rep.tp_slack == pytest.approx(np.sqrt(2.0))  # ||2I - I||_2 at d=2

    @pytest.mark.parametrize("scale", [1e100, 1e200])
    def test_overflowing_tp_slack_is_inf(self, scale):
        """sum A^dag A - I has an overflowing norm at 1e100 and overflowing
        entries at 1e200: tp_slack is +inf either way, without a warning."""
        rep = chn.validate_cptp(chn.KrausChannel.from_ops([scale * I2]))
        assert rep.tp_slack == np.inf and not rep.ok


class TestChoiConversions:
    def test_matches_explicit_construction(self):
        ch = genlib.amplitude_damping(2, 0.19)
        choi = chn.to_choi(ch)
        assert isinstance(choi, np.ndarray) and choi.shape == (4, 4)
        assert np.allclose(choi, explicit_choi(ch), atol=1e-12)

    def test_unitary_channel_rank_one(self):
        u = genlib.random_unitary(3, seed=4)
        ch = chn.KrausChannel(dim=3, kraus=u[np.newaxis])
        choi = chn.to_choi(ch)
        v = col(u)
        assert np.allclose(choi, np.outer(v, v.conj()), atol=1e-12)
        canon = chn.from_choi(chn.to_choi(ch))
        assert canon.kraus.shape[0] == 1
        assert canon.weights[0] == pytest.approx(1.0)

    def test_identity_rotation_mixture(self):
        theta = 0.2
        ch = chn.KrausChannel.from_ops(
            [I2 / np.sqrt(2.0), rotation(theta) / np.sqrt(2.0)]
        )
        # independent oracle: eigendecompose the explicitly built 4x4 Choi
        vals = np.sort(np.linalg.eigvalsh(explicit_choi(ch)))[::-1]
        assert np.allclose(vals[:2], [1 + np.cos(theta), 1 - np.cos(theta)], atol=1e-12)
        canon = chn.canonical(ch)
        assert canon.w1 == pytest.approx((1 + np.cos(theta)) / 2.0)  # 0.990033
        a1 = canon.a1
        blend = I2 + rotation(theta)
        blend = blend / np.linalg.norm(blend) * np.linalg.norm(a1)
        assert np.allclose(a1, blend, atol=1e-9)

    def test_amplitude_damping_canonical(self):
        canon = chn.canonical(genlib.amplitude_damping(2, 0.19))
        assert np.allclose(canon.weights, [0.905, 0.095], atol=1e-12)
        assert np.allclose(canon.kraus[0], np.diag([1.0, 0.9]), atol=1e-12)
        expect = np.zeros((2, 2))
        expect[0, 1] = np.sqrt(0.19)
        assert np.allclose(canon.kraus[1], expect, atol=1e-12)

    def test_round_trip(self):
        ch = genlib.random_cptp(3, 4, seed=8)
        choi = chn.to_choi(ch)
        back = chn.to_choi(chn.from_choi(choi))
        assert np.linalg.norm(back - choi) <= 1e-9

    @pytest.mark.parametrize("shape", [(3, 3), (4, 9), (0, 0), (4,)])
    def test_from_choi_wrong_shape_raises(self, shape):
        err = ValueError if len(shape) == 1 else DimensionMismatch
        with pytest.raises(err):
            chn.from_choi(np.zeros(shape))

    def test_from_choi_not_cp_raises(self):
        with pytest.raises(NotCP, match="below CP floor"):
            chn.from_choi(np.diag([1.5, 1.0, -0.5, 0.0]))
        with pytest.raises(NotCP, match="numerically zero"):
            chn.from_choi(np.zeros((4, 4)))


class TestCanonical:
    def test_already_canonical_unchanged(self):
        ch = chn.KrausChannel.from_ops([np.sqrt(0.9) * I2, np.sqrt(0.1) * X])
        canon = chn.canonical(ch)
        assert np.allclose(canon.weights, [0.9, 0.1], atol=1e-12)
        assert np.allclose(canon.kraus[0], np.sqrt(0.9) * I2, atol=1e-9)
        assert np.allclose(canon.kraus[1], np.sqrt(0.1) * X, atol=1e-9)

    def test_orthogonal_family_sorted_with_its_weights(self):
        """The Gram route sorts an orthogonal family by weight, each weight staying
        with its operator."""
        ch = chn.KrausChannel.from_ops([np.sqrt(0.1) * X, np.sqrt(0.9) * I2])
        canon = chn.canonical(ch)
        assert np.allclose(canon.weights, [0.9, 0.1], atol=1e-12)
        assert np.allclose(canon.kraus, [np.sqrt(0.9) * I2, np.sqrt(0.1) * X], atol=1e-9)

    def test_depolarizing_from_mixed_representation(self):
        # same depolarizing channel, Kraus family scrambled by a unitary mix
        ch = genlib.depolarizing(2, 0.9)
        rng = np.random.default_rng(2)
        u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        mixed = np.einsum("ab,bij->aij", u, ch.kraus)
        canon = chn.canonical(chn.KrausChannel(dim=2, kraus=mixed))
        assert canon.w1 == pytest.approx(0.925, abs=1e-12)
        a1 = canon.a1
        assert np.allclose(a1, np.diag([a1[0, 0], a1[0, 0]]), atol=1e-9)

    def test_degenerate_leading_flagged(self):
        ch = chn.KrausChannel.from_ops([X / np.sqrt(2.0), Y / np.sqrt(2.0)])
        canon = chn.canonical(ch)
        assert canon.degenerate_leading

    def test_overflowing_trace_meets_the_non_finite_guard(self):
        """The Gram route takes |A|^2 = inf and tr A = inf, so the phase fix
        writes NaN, which the views' non-finite guard refuses."""
        ch = chn.KrausChannel(2, [np.diag([1.5e308, 1.5e308])])
        with np.errstate(all="ignore"), pytest.raises(
                ValueError, match="^Kraus operators contain non-finite entries$"):
            chn.canonical(ch)

    def test_equals_from_choi_route(self):
        ch = genlib.random_cptp(2, 3, seed=12)
        canon = chn.canonical(ch)
        via_choi = chn.from_choi(chn.to_choi(ch))
        assert np.allclose(canon.weights, via_choi.weights, atol=1e-10)
        assert np.allclose(canon.kraus, via_choi.kraus, atol=1e-8)


class TestCanonicalView:
    """The canonical form is a cached KrausChannel view of the channel."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_unitary_remix_invariance(self, d):
        for seed in range(5):
            ch = genlib.random_cptp(d, 3, seed=seed)
            rng = np.random.default_rng([seed, d])
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            u = np.linalg.qr(g)[0]
            mixed = chn.KrausChannel(dim=d, kraus=np.einsum("ab,bij->aij", u, ch.kraus))
            a, b = chn.canonical(ch), chn.canonical(mixed)
            assert np.max(np.abs(a.kraus - b.kraus)) <= 1e-12
            assert np.max(np.abs(a.weights - b.weights)) <= 1e-12
            assert a.degenerate_leading == b.degenerate_leading

    @pytest.mark.parametrize("d", [2, 3])
    def test_choi_kraus_round_trip(self, d):
        for seed in range(5):
            ch = genlib.random_cptp(d, 3, seed=seed)
            canon = chn.canonical(ch)
            back = chn.from_choi(chn.to_choi(canon))
            assert isinstance(back, chn.KrausChannel)
            assert np.max(np.abs(back.kraus - canon.kraus)) <= 1e-12
            assert np.max(np.abs(back.weights - canon.weights)) <= 1e-12
            choi = chn.to_choi(ch)
            assert np.max(np.abs(chn.to_choi(back) - choi)) <= 1e-12

    def test_canonical_of_view_is_view(self):
        for ch in (genlib.random_cptp(3, 3, seed=4), genlib.amplitude_damping(2, 0.2)):
            canon = chn.canonical(ch)
            assert chn.canonical(canon) is canon
            assert chn.canonical(ch) is canon
        view = chn.from_choi(chn.to_choi(genlib.depolarizing(2, 0.8)))
        assert chn.canonical(view) is view

    def test_channel_reads_its_view(self):
        ch = genlib.random_cptp(2, 3, seed=7)
        canon = chn.canonical(ch)
        assert np.array_equal(ch.a1, canon.kraus[0])
        assert ch.w1 == canon.w1 == float(canon.weights[0])
        assert np.array_equal(ch.weights, canon.weights)
        assert ch.degenerate_leading is canon.degenerate_leading is False


def weyl_mixture(d, probs):
    """Stochastic channel over the first len(probs) Weyl unitaries: an
    orthogonal family whose Choi eigenvalues are d * probs and zeros."""
    ops = genlib.weyl_ops(d)
    return chn.KrausChannel.from_ops([np.sqrt(p) * ops[i] for i, p in enumerate(probs)])


class TestFromChoiDropFloor:
    """from_choi orders only the Choi eigenvectors it keeps."""

    @staticmethod
    def with_and_without_floor(choi, monkeypatch):
        cut = chn.from_choi(choi)
        eig = matcore.hermitian_eig
        with monkeypatch.context() as mp:
            mp.setattr(matcore, "hermitian_eig", lambda m, drop_floor: eig(m))
            full = chn.from_choi(choi)
        return cut, full

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_same_bytes_for_rank_deficient_channels(self, d, monkeypatch):
        tiny = 5e-11 / d  # Choi eigenvalue 5e-11: kept, yet within 1e-10 of 0
        chans = [genlib.random_cptp(d, k, seed=seed) for k in (1, 3) for seed in range(3)]
        chans.append(weyl_mixture(d, [0.9 - tiny, 0.1, tiny]))
        for ch in chans:
            choi = chn.to_choi(ch)
            cut, full = self.with_and_without_floor(choi, monkeypatch)
            assert cut.kraus.tobytes() == full.kraus.tobytes()
            assert cut.weights.tobytes() == full.weights.tobytes()
        # the last channel's kept block straddles the floor
        vals = matcore.hermitian_eig(choi).values
        n_keep = cut.n_kraus
        assert n_keep == 3 and cut.weights[-1] == pytest.approx(tiny, rel=1e-3)
        assert vals[n_keep - 1] - vals[n_keep] < matcore.DEGENERACY_TOL

    def test_dropped_null_block_is_not_ordered(self, monkeypatch):
        calls = []
        lex_key = matcore._lex_key
        monkeypatch.setattr(
            matcore, "_lex_key", lambda col: calls.append(1) or lex_key(col)
        )
        canon = chn.from_choi(chn.to_choi(genlib.random_cptp(8, 3, seed=2)))
        assert canon.n_kraus == 3
        assert calls == []


def remixed(ch, seed):
    """The channel over its Kraus operators mixed by a Haar unitary, a
    non-orthogonal family that takes the Choi route."""
    u = genlib.random_unitary(ch.n_kraus, seed)
    return chn.KrausChannel(dim=ch.dim, kraus=np.einsum("ij,jkl->ikl", u, ch.kraus))


def assert_same_view(a, b):
    assert a.kraus.shape == b.kraus.shape
    assert a.kraus.tobytes() == b.kraus.tobytes()
    assert a.weights.tobytes() == b.weights.tobytes()


class TestStackedCanonical:
    """A stack of Choi matrices, or a list of channels, gives the bits of
    one call per item."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_from_choi_stack(self, d, monkeypatch):
        # Kraus counts 1 to d^2 keep 1 to d^2 operators; the remixed
        # depolarizing channel has a degenerate Choi block above the floor
        chans = [genlib.random_cptp(d, k, seed=k) for k in range(1, d * d + 1)]
        chans.append(remixed(genlib.depolarizing(d, 0.9), seed=d))
        chois = np.stack([chn.to_choi(c) for c in chans])
        sorted_cols = []
        lex_key = matcore._lex_key
        monkeypatch.setattr(matcore, "_lex_key",
                            lambda col: sorted_cols.append(1) or lex_key(col))
        views = chn.from_choi(chois)
        assert len(sorted_cols) == d * d - 1  # the depolarizing block alone
        assert [v.n_kraus for v in views] == list(range(1, d * d + 1)) + [d * d]
        for choi, view in zip(chois, views):
            assert_same_view(view, chn.from_choi(choi))

    @pytest.mark.parametrize("scale", [1e155, 1e308])
    def test_from_choi_stack_refuses_an_overflowing_item(self, scale):
        """A Choi matrix whose norm overflows is refused, alone or anywhere in a
        stack, before any spectrum is taken; 1e153 is still decomposed."""
        choi = chn.to_choi(genlib.random_cptp(2, 2, seed=1))
        with np.errstate(over="ignore"):
            assert np.linalg.norm(choi * 1e155) == np.inf > np.linalg.norm(choi * 1e153)
        message = "^matrix has a norm beyond the float range$"
        for chois in (choi * scale, np.stack([choi, choi * scale, choi])):
            with pytest.raises(ChanPolarError, match=message) as info:
                chn.from_choi(chois)
            assert type(info.value) is ChanPolarError
        assert chn.from_choi(choi * 1e153).weights[0] > 1e152

    def test_from_choi_stack_refuses_a_non_cp_item(self):
        chois = np.stack([chn.to_choi(genlib.depolarizing(2, 0.5)),
                          np.diag([1.5, 1.0, -0.5, 0.0]).astype(complex)])
        with pytest.raises(NotCP):
            chn.from_choi(chois)

    @pytest.mark.parametrize("d", [2, 3])
    def test_canonicalize_list(self, d):
        chans = [genlib.random_cptp(d, k, seed=k + 10) for k in range(1, 5)]
        chans += [genlib.amplitude_damping(d, 0.3), weyl_mixture(d, [0.7, 0.2, 0.1]),
                  genlib.rotation(d, 0.4), remixed(genlib.amplitude_damping(d, 1.0), 3)]
        view = chn.canonical(chans[0])
        listed = chans + [chans[1], view]  # a repeat and a canonical view
        canons = chn._canonicalize(listed)
        assert canons[-1] is view and canons[len(chans)] is canons[1]
        for ch, canon in zip(chans, canons):
            assert chn.canonical(ch) is canon
            fresh = chn.KrausChannel(dim=d, kraus=ch.kraus.copy())
            assert_same_view(canon, chn.canonical(fresh))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_canonicalize_batch_equals_single_calls(self, d):
        """Kraus counts from 1 to past d^2 on both routes, several of one
        count on each, with a repeat and a view, canonicalized in one batch:
        each view has the bytes of a single call on a fresh copy."""
        choi_route, gram_route = [], []
        for k in range(1, d * d + 3):
            if k <= d * d:
                choi_route.append(genlib.random_cptp(d, k, seed=10 * d + k))
                probs = np.linspace(2.0, 1.0, k) / np.linspace(2.0, 1.0, k).sum()
                gram_route.append(weyl_mixture(d, probs))
            else:  # a mixture of two draws; an orthogonal family padded with zeros
                a, b = (genlib.random_cptp(d, n, seed=k + n) for n in (d * d, k - d * d))
                kraus = np.concatenate([np.sqrt(0.7) * a.kraus, np.sqrt(0.3) * b.kraus])
                choi_route.append(chn.KrausChannel(dim=d, kraus=kraus))
                pad = np.zeros((k - d * d, d, d))
                gram_route.append(chn.KrausChannel(
                    dim=d, kraus=np.concatenate([genlib.depolarizing(d, 0.8).kraus, pad])))
        chans = choi_route + gram_route + [remixed(genlib.depolarizing(d, 0.9), seed=d)]
        view = chn.canonical(genlib.random_cptp(d, 2, seed=99))
        listed = chans + [chans[2], view, chans[-1]]
        canons = chn._canonicalize(listed)
        assert canons[-3] is canons[2] and canons[-2] is view and canons[-1] is canons[len(chans) - 1]
        # the Gram route keeps 1 to d^2 operators, and drops the zero padding
        gram_counts = [c.n_kraus for c in canons[d * d + 2:2 * d * d + 4]]
        assert gram_counts == list(range(1, d * d + 1)) + [d * d, d * d]
        for ch, canon in zip(chans, canons):
            assert chn.canonical(ch) is canon
            assert_same_view(canon, chn.canonical(chn.KrausChannel(dim=d, kraus=ch.kraus.copy())))


@pytest.mark.parametrize("kraus", [
    np.zeros((1, 2, 2)), np.zeros((2, 2, 2)), 1e-14 * np.stack([I2, I2]),
], ids=["one zero", "two zeros", "two tiny"])
def test_numerically_zero_family_is_not_cp(kraus):
    """A family that keeps no operator is refused as not CP on the Gram route
    (here: off-diagonal Gram entries below the tolerance), alone and in a
    batch, as on the Choi route, where every eigenvalue is below the floor."""
    zero = chn.KrausChannel(dim=2, kraus=kraus)
    with pytest.raises(NotCP, match="^Choi matrix is numerically zero$"):
        chn.canonical(zero)
    with pytest.raises(NotCP, match="^Choi matrix is numerically zero$"):
        chn._canonicalize([genlib.random_cptp(2, 3, seed=1), zero])
    chois = np.stack([chn.to_choi(genlib.depolarizing(2, 0.5)), chn.to_choi(zero)])
    with pytest.raises(NotCP, match="^Choi matrix is numerically zero$"):
        chn.from_choi(chois)
    assert zero._canonical is None


class TestLk:
    def test_unitary_channel(self):
        u = genlib.random_unitary(2, seed=3)
        lkm = chn.lk(chn.KrausChannel(dim=2, kraus=u[np.newaxis]))
        assert metrics.upsilon(lkm) == pytest.approx(1.0)
        # phase-fixed copy of u: same channel action
        assert np.allclose(np.abs(lkm.kraus[0]), np.abs(u), atol=1e-9)

    def test_extremal_dephaser_d4(self):
        lkm = chn.lk(genlib.extremal_dephaser(4))
        assert np.allclose(lkm.kraus[0], np.diag([0.0, 1.0, 1.0, 1.0]), atol=1e-12)
        assert metrics.upsilon(lkm) == pytest.approx(0.75)

    def test_amplitude_damping(self):
        lkm = chn.lk(genlib.amplitude_damping(2, 0.19))
        assert np.allclose(lkm.kraus[0], np.diag([1.0, 0.9]), atol=1e-12)

    @pytest.mark.parametrize("ch", [
        genlib.amplitude_damping(2, 0.19),
        genlib.random_cptp(3, 4, seed=1, strength=0.2),
        genlib.random_unitary_error(4, 0.3, seed=2),
        genlib.depolarizing(3, 0.9),
    ])
    def test_one_operator_channel_of_a1(self, ch):
        lkm = chn.lk(ch)
        assert isinstance(lkm, chn.KrausChannel)
        assert lkm.n_kraus == 1 and lkm.dim == ch.dim
        assert np.array_equal(lkm.kraus[0], ch.a1)
        # a copy: writing to the LK map leaves the canonical view intact
        assert not np.shares_memory(lkm.kraus, chn.canonical(ch).kraus)
        assert abs(metrics.upsilon(lkm) - ch.w1) <= 1e-15
        # einsum over all d^2 entries against a diagonal trace: last bits differ
        assert abs(metrics.phi(lkm) - metrics.report(ch).lk_phi) <= 1e-15

    def test_catastrophic_warns(self):
        ch = chn.KrausChannel.from_ops([I2 / np.sqrt(2.0), X / np.sqrt(2.0)])
        with pytest.warns(UserWarning, match="catastrophic"):
            chn.lk(ch)

    def test_warns_at_one_half_exactly(self):
        """{|0><0|, |1><1|} has w_1 = 1/2 exactly and warns; one ulp above
        1/2 (A_1 = diag(1, 2^-26), w_1 = (1 + 2^-52) / 2) does not."""
        ch = chn.KrausChannel.from_ops([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        assert ch.w1 == 0.5
        with pytest.warns(UserWarning, match=r"^leading Kraus weight 0\.5000 <= 1/2"):
            chn.lk(ch)
        lower = np.sqrt(1.0 - 2.0**-52) * np.array([[0.0, 1.0], [0.0, 0.0]])  # orthogonal to A_1
        above = chn.KrausChannel.from_ops([np.diag([1.0, 2.0**-26]), lower])
        assert above.w1 == np.nextafter(0.5, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chn.lk(above)

    def test_strict_degenerate_raises(self):
        # lk reports a degenerate leading weight through the flag; the
        # strict refusal is channel_polar's
        ch = chn.KrausChannel.from_ops([X / np.sqrt(2.0), Y / np.sqrt(2.0)])
        assert ch.degenerate_leading
        with pytest.warns(UserWarning, match="catastrophic"):
            assert chn.lk(ch).kraus.shape == (1, 2, 2)
        with pytest.raises(DegenerateLeading):
            polar.channel_polar(ch, strict=True)


def compose_sequential(channels):
    """One product at a time, each one over d^2 operators canonicalized on
    its own: the reference route that :func:`chn._compose_circuits` must
    match bit for bit."""
    d = channels[0].dim
    acc = channels[0]
    for ch in channels[1:]:
        prod = np.einsum("aij,bjk->abik", ch.kraus, acc.kraus).reshape(-1, d, d)
        acc = chn.KrausChannel(dim=d, kraus=prod)
        if prod.shape[0] > d * d:
            acc = chn.canonical(acc)
    return acc


class TestCompose:
    def test_two_identities(self):
        ch = chn.compose([genlib.identity_channel(2), genlib.identity_channel(2)])
        rho = random_state(2, np.random.default_rng(0))
        assert np.allclose(chn.apply(ch, rho), rho, atol=1e-12)

    def test_paper_stochastic_example(self):
        # {sqrt(1-delta) I, sqrt(delta) X} twice, delta = 0.1
        delta = 0.1
        el = chn.KrausChannel.from_ops(
            [np.sqrt(1 - delta) * I2, np.sqrt(delta) * X]
        )
        comp = chn.compose([el, el])
        assert metrics.phi(comp) == pytest.approx(0.82, abs=1e-12)
        lk_comp = chn.compose([chn.lk(el), chn.lk(el)])
        assert lk_comp.n_kraus == 1
        assert metrics.phi(lk_comp) == pytest.approx(0.81, abs=1e-12)

    def test_rotation_additivity(self):
        c = chn.compose([genlib.rotation(2, 0.1), genlib.rotation(2, 0.2)])
        rho = random_state(2, np.random.default_rng(1))
        expect = rotation(0.3) @ rho @ rotation(0.3).conj().T
        assert np.allclose(chn.apply(c, rho), expect, atol=1e-12)

    def test_associativity(self):
        rng = np.random.default_rng(5)
        a = genlib.random_cptp(2, 2, seed=1)
        b = genlib.random_cptp(2, 3, seed=2)
        c = genlib.random_cptp(2, 2, seed=3)
        left = chn.compose([chn.compose([a, b]), c])
        right = chn.compose([a, chn.compose([b, c])])
        for _ in range(5):
            rho = random_state(2, rng)
            assert np.allclose(chn.apply(left, rho), chn.apply(right, rho), atol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            chn.compose([genlib.identity_channel(2), genlib.identity_channel(3)])

    def test_recanonicalization_bounds_family_size(self):
        els = [genlib.depolarizing(2, 0.95)] * 4
        comp = chn.compose(els)
        assert comp.n_kraus <= 4

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_circuits_in_lockstep_equal_one_at_a_time(self, d):
        """Each composite of a lockstep batch has the bytes of the
        sequential one-circuit loop and of its own compose call.  At the
        first step one product stays at d^2 operators, one stays below, one
        takes the Gram route (2d^2 products, of which 2d orthogonal non-zero
        ones) and one the Choi route (d = 2, 3) or stays below (d = 4)."""
        proj = np.eye(d)[:, :, np.newaxis] * np.eye(d)[:, np.newaxis, :]
        shift = np.roll(proj, 1, axis=1)
        dephase = chn.KrausChannel(dim=d, kraus=proj)
        hop = chn.KrausChannel(dim=d, kraus=np.sqrt(0.5) * np.concatenate([proj, shift]))
        rcp = lambda k, seed: genlib.random_cptp(d, k, seed=seed, strength=0.2)
        circuits = [
            [rcp(2, 1)],
            [rcp(2, 2), genlib.rotation(d, 0.3), rcp(3, 3)],
            [dephase, hop, rcp(2, 4), dephase],
            [rcp(d, 5), rcp(d, 6)],
            [rcp(3, 7), rcp(4, 8), rcp(2, 9), rcp(2, 10), genlib.rotation(d, 0.1)],
            [rcp(1 + i % 4, 11 + i) for i in range(9)],
        ]
        batched = chn._compose_circuits(circuits)
        for circuit, got in zip(circuits, batched, strict=True):
            for want in (compose_sequential(circuit), chn.compose(circuit)):
                assert (got._weights is None) == (want._weights is None)
                assert got.kraus.shape == want.kraus.shape
                assert got.kraus.tobytes() == want.kraus.tobytes()
                if got._weights is not None:
                    assert got.weights.tobytes() == want.weights.tobytes()
        assert batched[0] is circuits[0][0]
        gram = chn.KrausChannel(dim=d, kraus=np.einsum(
            "aij,bjk->abik", hop.kraus, dephase.kraus).reshape(-1, d, d))
        g = chn._gram(gram.kraus)
        assert gram.n_kraus > d * d and not np.any(g - np.diag(np.diag(g)))

    def test_circuits_of_mixed_dimensions_refused(self):
        with pytest.raises(DimensionMismatch):
            chn._compose_circuits([[genlib.identity_channel(2)] * 2,
                                   [genlib.identity_channel(3)]])

    def test_weight_multiset_unitary_invariance(self):
        ch = genlib.random_cptp(3, 3, seed=21)
        u = genlib.random_unitary(3, seed=22)
        uch = chn.KrausChannel(dim=3, kraus=u[np.newaxis])
        w0 = np.sort(chn.canonical(ch).weights)
        w1 = np.sort(chn.canonical(chn.compose([ch, uch])).weights)
        w2 = np.sort(chn.canonical(chn.compose([uch, ch])).weights)
        assert np.allclose(w0, w1, atol=1e-9)
        assert np.allclose(w0, w2, atol=1e-9)

    def test_canonical_defines_same_channel(self):
        rng = np.random.default_rng(17)
        ch = genlib.random_cptp(3, 4, seed=33)
        canon = chn.canonical(ch)
        for _ in range(20):
            rho = random_state(3, rng)
            assert np.allclose(
                chn.apply(ch, rho), chn.apply(canon, rho), atol=1e-9
            )

    def test_weights_sum_to_one(self):
        for seed in range(5):
            canon = chn.canonical(genlib.random_cptp(3, 4, seed=seed))
            assert canon.weights.sum() == pytest.approx(1.0, abs=1e-9)


class TestCContiguousKraus:
    """Every channel the library builds holds a C-contiguous Kraus stack, and so does
    its canonical view: ``channel._by_shape`` stacks channels by shape alone, which
    sums as each single call only over C-contiguous operators."""

    @staticmethod
    def assert_c(channels):
        for ch in channels:
            assert ch.kraus.flags.c_contiguous
            assert chn.canonical(ch).kraus.flags.c_contiguous

    def test_sampler_elements(self):
        rng = np.random.default_rng(5)
        draws = [(k, suites._subseed(rng)) for k in (1, 2, 3, 4, 2, 10)]
        r_ts = [1e-3, 2e-3, 0.0, 1e-4, 5e-3, 1e-3]
        us = [None if i % 2 else genlib.random_unitary(3, i) for i in range(len(draws))]
        self.assert_c(suites.element_for_infidelity(3, r_ts, draws))
        self.assert_c(suites.element_for_infidelity(3, r_ts, draws, targets=us))
        self.assert_c(suites.element_for_infidelity(3, r_ts, draws, decoherent=True))
        self.assert_c(suites._noncatastrophic(3, [np.random.default_rng(s) for s in range(4)])[0])

    def test_products_and_canonical_views(self):
        a, b, c = (genlib.random_cptp(3, k, seed=k) for k in (2, 2, 3))
        self.assert_c([chn.compose([a, b]), chn.compose([c, c, c]), chn.compose([a])])
        self.assert_c(chn._compose_circuits([[a, b], [c, c, c], [b]]))
        self.assert_c(chn._canonicalize([a, genlib.depolarizing(3, 0.7), genlib.rotation(3, 0.1)]))

    def test_from_choi_views(self):
        chans = [genlib.random_cptp(2, k, seed=k) for k in (1, 2, 4)]
        chois = np.array([chn.to_choi(ch) for ch in chans])
        self.assert_c([chn.from_choi(chois[1]), *chn.from_choi(chois)])
        self.assert_c([chn.channel_from_json(choi_to_json(chois[2]))])

    def test_polar_factors_and_lk(self):
        chans = [genlib.random_cptp(3, 3, seed=4, strength=0.2), genlib.amplitude_damping(3, 0.1),
                 genlib.extremal_dephaser(4)]
        for ch in chans:
            pol = polar.channel_polar(ch)
            self.assert_c([pol.coherent, pol.decoherent_left, pol.decoherent_right, chn.lk(ch)])
        self.assert_c(polar._decoherent_lefts(polar.channel_polars(chans[:2])))


class TestApply:
    def test_depolarizing_on_ground_state(self):
        p = 0.9
        out = chn.apply(genlib.depolarizing(2, p), np.diag([1.0, 0.0]))
        assert np.allclose(out, np.diag([p + (1 - p) / 2, (1 - p) / 2]), atol=1e-12)

    def test_full_dephasing_kills_coherence(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        out = chn.apply(genlib.dephasing(2, 0.5), plus)
        assert np.allclose(out, np.diag([0.5, 0.5]), atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(23)
        ch = genlib.random_cptp(2, 4, seed=14)
        rho = random_state(2, rng)
        assert np.trace(chn.apply(ch, rho)).real == pytest.approx(1.0, abs=1e-10)


class TestSuperoperator:
    def test_identity(self):
        s = chn.to_superop(genlib.identity_channel(2))
        assert isinstance(s, np.ndarray)
        assert np.allclose(s, np.eye(4), atol=1e-12)

    def test_unitary(self):
        u = genlib.random_unitary(2, seed=6)
        s = chn.to_superop(chn.KrausChannel(dim=2, kraus=u[np.newaxis]))
        assert np.allclose(s, np.kron(u.conj(), u), atol=1e-12)

    def test_action_matches_apply(self):
        rng = np.random.default_rng(31)
        ch = genlib.random_cptp(2, 3, seed=9)
        s = chn.to_superop(ch)
        for _ in range(20):
            rho = random_state(2, rng)
            lhs = (s @ col(rho)).reshape((2, 2), order="F")
            assert np.allclose(lhs, chn.apply(ch, rho), atol=1e-10)


class TestJson:
    def test_round_trip(self):
        ch = genlib.amplitude_damping(2, 0.19)
        obj = chn.channel_to_json(ch)
        text = json.dumps(obj)
        back = chn.channel_from_json(json.loads(text))
        assert isinstance(back, chn.KrausChannel)
        assert np.allclose(back.kraus, ch.kraus, atol=0)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 16), (1, 1)])
    def test_pairs_equal_per_entry_route(self, shape):
        # reference: the per-entry conversion the wire format used to make
        rng = np.random.default_rng(list(shape))
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        m.real[0, 0], m.imag[-1, -1] = -0.0, 0.0
        m.flat[m.size // 2] = complex(0.0, -0.0)
        for mat in (m, m.T, m.real):  # m.T and m.real are strided views
            ref = [[float(z.real), float(z.imag)] for z in np.asarray(mat).flatten()]
            pairs = chn._matrix_to_pairs(mat)
            assert pairs == ref
            assert all(type(x) is float for pair in pairs for x in pair)
            # == does not see the sign of zero; the JSON text does
            assert json.dumps(pairs) == json.dumps(ref)

    def test_choi_variant(self):
        ch = genlib.depolarizing(2, 0.8)
        obj = choi_to_json(chn.to_choi(ch))
        back = chn.channel_from_json(obj)
        assert isinstance(back, chn.KrausChannel)
        assert chn.canonical(back) is back  # the canonical view
        assert back.w1 == pytest.approx(0.85, abs=1e-12)  # 0.8 + 0.2/4

    @pytest.mark.parametrize(
        "obj",
        [
            {"kraus": [[[1, 0]]]},
            {"dim": 2},
            {"dim": 2, "kraus": []},
            {"dim": 2, "kraus": [[[1.0, 0.0]]]},
            {"dim": 0, "kraus": [[[1.0, 0.0]]]},
            "not an object",
        ],
    )
    def test_malformed_raises(self, obj):
        with pytest.raises(ValueError):
            chn.channel_from_json(obj)


REFUSALS = {
    "kraus shape": (
        lambda: chn.KrausChannel(dim=2, kraus=np.zeros((1, 3, 3))),
        DimensionMismatch, "kraus must have shape (k, 2, 2), got (1, 3, 3)",
    ),
    "2-d kraus": (
        lambda: chn.KrausChannel(dim=2, kraus=I2),
        DimensionMismatch, "kraus must have shape (k, 2, 2), got (2, 2)",
    ),
    "no kraus operator": (
        lambda: chn.KrausChannel(dim=2, kraus=np.zeros((0, 2, 2))),
        DimensionMismatch, "channel needs at least one Kraus operator",
    ),
    "non-finite kraus": (
        lambda: chn.KrausChannel(dim=2, kraus=np.array([[[1.0, 0.0], [0.0, np.nan]]])),
        ValueError, "Kraus operators contain non-finite entries",
    ),
    "rho shape": (
        lambda: chn.apply(genlib.identity_channel(2), np.eye(3)),
        DimensionMismatch, "rho must be 2 x 2, got (3, 3)",
    ),
    "compose nothing": (
        lambda: chn.compose([]),
        DimensionMismatch, "need at least one channel",
    ),
    "overflowing product": (
        lambda: chn.compose([chn.KrausChannel(dim=2, kraus=1e200 * np.stack([I2, X]))] * 2),
        ValueError, "Kraus operators contain non-finite entries",
    ),
}


@pytest.mark.parametrize("call, exc, message", REFUSALS.values(), ids=REFUSALS)
def test_input_refused(call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is exc
