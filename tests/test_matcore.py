import re

import numpy as np
import pytest

from chanpolar import matcore
from chanpolar.errors import NotContraction, NotHermitian

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(d, rng, scale=1.0):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (g + g.conj().T) / 2.0


def random_contraction(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    u, s, vh = np.linalg.svd(g)
    return (u * np.minimum(s, 1.0)) @ vh


class TestHermitianEig:
    def test_diagonal_input_sorted(self):
        eig = matcore.hermitian_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(eig.values, [3.0, 2.0, 1.0])
        # canonical basis vectors permuted accordingly
        expect = np.zeros((3, 3))
        expect[0, 0] = 1.0  # eigenvalue 3 -> e0
        expect[2, 1] = 1.0  # eigenvalue 2 -> e2
        expect[1, 2] = 1.0  # eigenvalue 1 -> e1
        assert np.allclose(eig.vectors, expect, atol=1e-12)

    def test_pauli_x(self):
        eig = matcore.hermitian_eig(X)
        assert np.allclose(eig.values, [1.0, -1.0], atol=1e-12)
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(eig.vectors[:, 0], [s, s], atol=1e-12)
        assert np.allclose(eig.vectors[:, 1], [s, -s], atol=1e-12)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(7)
        m = random_hermitian(8, rng)
        eig = matcore.hermitian_eig(m)
        recon = (eig.vectors * eig.values) @ eig.vectors.conj().T
        assert np.linalg.norm(recon - m) <= 1e-9 * np.linalg.norm(m)
        gram = eig.vectors.conj().T @ eig.vectors
        assert np.max(np.abs(gram - np.eye(8))) < 1e-10

    def test_not_hermitian_raises(self):
        with pytest.raises(NotHermitian):
            matcore.hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_hermiticity_check_where_the_norms_overflow(self):
        big = 1e308
        matcore._require_hermitian(np.array([[big, 1j * big], [-1j * big, big]]), "M")
        with pytest.raises(NotHermitian):
            matcore._require_hermitian(np.diag([big, big - 1j * big]), "M")

    def test_degenerate_flag_and_determinism(self):
        rng = np.random.default_rng(3)
        u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        m = u @ np.diag([2.0, 1.0, 1.0]) @ u.conj().T
        e1 = matcore.hermitian_eig(m)
        e2 = matcore.hermitian_eig(m.copy())
        assert e1.vectors.tobytes() == e2.vectors.tobytes()

    @pytest.mark.parametrize("d", [6, 9, 16])
    def test_drop_floor_keeps_upper_columns(self, d, monkeypatch):
        # a block wholly at or below the floor keeps solver order; a block
        # above it, or straddling it (5e-11 chains to the zeros within the
        # 1e-10 degeneracy gap), is ordered whole
        rng = np.random.default_rng([17, d])
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        u = np.linalg.qr(g)[0]
        floor = 1e-12 * d
        calls = []
        lex_key = matcore._lex_key
        monkeypatch.setattr(
            matcore, "_lex_key", lambda col: calls.append(1) or lex_key(col)
        )
        for tail, ordered in ((1e-3, 2), (5e-11, d - 1)):
            vals = np.zeros(d)
            vals[:4] = [1.0, 0.5, 0.5, tail]
            m = (u * vals) @ u.conj().T
            full = matcore.hermitian_eig(m)
            calls.clear()
            cut = matcore.hermitian_eig(m, drop_floor=floor)
            assert len(calls) == ordered
            assert cut.values.tobytes() == full.values.tobytes()
            keep = full.values > floor
            assert keep.sum() == 4
            assert cut.vectors[:, keep].tobytes() == full.vectors[:, keep].tobytes()

    def test_trace_identity_and_conjugation_invariance(self):
        rng = np.random.default_rng(11)
        for d in (2, 3, 5):
            m = random_hermitian(d, rng)
            eig = matcore.hermitian_eig(m)
            tr = float(np.trace(m).real)
            assert abs(eig.values.sum() - tr) <= 1e-9 * abs(tr) + 1e-12
            u = np.linalg.qr(
                rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            )[0]
            eig2 = matcore.hermitian_eig(u @ m @ u.conj().T)
            assert np.allclose(np.sort(eig.values), np.sort(eig2.values), atol=1e-9)


class TestPolarDecompose:
    @pytest.mark.parametrize("s", [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 1e-11, 0.0],
                                   [1.0, 1.0, 3e-12], [1.0, 1.0, 4e-12], [1.0, 0.5, 0.2]])
    def test_rank_is_the_full_rank_test(self, s):
        rng = np.random.default_rng(11)
        u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        pol = matcore.polar_decompose(u @ np.diag(s))
        sv = pol.singular_values
        assert pol.rank == int(np.sum(sv > sv[0] * 3 * 1e-12))
        assert (pol.rank == 3) == bool(sv[-1] > sv[0] * 3 * 1e-12)
    def test_identity(self):
        pol = matcore.polar_decompose(np.eye(3))
        assert np.allclose(pol.unitary, np.eye(3), atol=1e-12)
        assert np.allclose(pol.psd, np.eye(3), atol=1e-12)
        assert pol.phase_fixed

    def test_spiral_leading_kraus(self):
        # diag(cos a, cos(a/2) e^{i a^3/2}, cos(a/2) e^{-i a^3/2}), a = 0.3
        a = 0.3
        ph = np.exp(1j * a**3 / 2.0)
        m = np.diag([np.cos(a), np.cos(a / 2) * ph, np.cos(a / 2) * np.conj(ph)])
        pol = matcore.polar_decompose(m)
        assert np.allclose(np.diag(pol.unitary), [1.0, ph, np.conj(ph)], atol=1e-12)
        assert np.allclose(
            np.diag(pol.psd), [np.cos(a), np.cos(a / 2), np.cos(a / 2)], atol=1e-12
        )

    def test_rank_deficient_closest_to_identity(self):
        pol = matcore.polar_decompose(np.diag([0.0, 1.0]))
        assert np.allclose(pol.unitary, np.eye(2), atol=1e-12)
        assert np.allclose(pol.psd, np.diag([0.0, 1.0]), atol=1e-12)
        # oracle: enumerate the diagonal-unitary completions diag(e^{i phi}, 1)
        best = min(
            np.linalg.norm(np.diag([np.exp(1j * phi), 1.0]) - np.eye(2))
            for phi in np.linspace(-np.pi, np.pi, 721)
        )
        assert np.linalg.norm(pol.unitary - np.eye(2)) <= best + 1e-12

    def test_reconstruction_and_singular_values(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 5):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            pol = matcore.polar_decompose(a)
            assert (
                np.linalg.norm(pol.phase * pol.unitary @ pol.psd - a)
                <= 1e-9 * np.linalg.norm(a)
            )
            assert np.allclose(
                np.sort(np.linalg.eigvalsh(pol.psd)),
                np.sort(pol.singular_values),
                atol=1e-9,
            )
            vvd = pol.unitary @ pol.unitary.conj().T
            assert np.max(np.abs(vvd - np.eye(d))) < 1e-10

    def test_bit_identical_runs(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        p1 = matcore.polar_decompose(a)
        p2 = matcore.polar_decompose(a.copy())
        assert p1.unitary.tobytes() == p2.unitary.tobytes()
        assert p1.psd.tobytes() == p2.psd.tobytes()


def random_unitary(d, rng):
    return np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]


class TestStackedKernels:
    """A stack of N matrices gives the bits of N single calls."""

    @staticmethod
    def hermitian_stack(n, rng):
        u = random_unitary(n, rng)
        degenerate = np.zeros(n)
        degenerate[:3] = [1.0, 0.5, 0.5]  # a block above any floor, zeros below
        return np.stack([random_hermitian(n, rng), (u * degenerate) @ u.conj().T,
                         random_hermitian(n, rng, 1e-3), np.eye(n)])

    @pytest.mark.parametrize("n", [3, 4, 9, 16])
    @pytest.mark.parametrize("floor", [-np.inf, 1e-12])
    def test_hermitian_eig(self, n, floor, monkeypatch):
        ms = self.hermitian_stack(n, np.random.default_rng([3, n]))
        sorted_cols = []
        lex_key = matcore._lex_key
        monkeypatch.setattr(matcore, "_lex_key",
                            lambda col: sorted_cols.append(1) or lex_key(col))
        stacked = matcore.hermitian_eig(ms, drop_floor=floor)
        # the 0.5 pair and the identity are sorted; the zeros of the
        # degenerate matrix form a block (of n - 3) only without a floor
        zeros = n - 3 if n - 3 >= 2 and floor == -np.inf else 0
        assert len(sorted_cols) == 2 + n + zeros
        for i, m in enumerate(ms):
            single = matcore.hermitian_eig(m, drop_floor=floor)
            assert np.array_equal(stacked.values[i], single.values)
            assert np.array_equal(stacked.vectors[i], single.vectors)

    def test_hermitian_eig_refuses_any_non_hermitian_item(self):
        ms = np.stack([np.eye(2, dtype=complex), np.array([[0, 1], [0, 0]], dtype=complex)])
        with pytest.raises(NotHermitian):
            matcore.hermitian_eig(ms)

    def test_norms_have_the_bits_of_linalg_norm(self):
        """The dot form has the bits of np.linalg.norm at every size up to
        256 x 256, the sizes where the Hermiticity check takes it, for a
        matrix and its skew part A - A^dag."""
        rng = np.random.default_rng(11)
        for n in range(1, 257):
            ms = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
            ms *= np.array([1.0, 1e-150, 1e150])[:, None, None]
            for stack in (ms, ms - np.conj(ms).swapaxes(-1, -2)):
                want = np.array([np.linalg.norm(m) for m in stack])
                assert matcore._norms(stack).tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape, layout, per_matrix", [
        ((2, 256, 256), "C", 0), ((2, 257, 257), "C", 2), ((3, 4, 4), "F", 3),
        ((4, 4), "F", 1), ((3, 4, 4), "C", 0),
    ])
    def test_hermiticity_norms_per_matrix_outside_the_pinned_sizes(
            self, shape, layout, per_matrix, monkeypatch):
        m = np.zeros(shape, dtype=complex)
        m[..., 0, 0] = 1.0
        if layout == "F":
            m = np.asfortranarray(m)
        calls = []
        tamed = matcore._tamed
        monkeypatch.setattr(matcore, "_tamed", lambda a: calls.append(1) or tamed(a))
        matcore._require_hermitian(m, "M")
        assert len(calls) == per_matrix

    def test_hermiticity_verdict_at_the_tolerance(self):
        """Matrices H + tK (K anti-Hermitian) on both sides of the last float
        t where ||A - A^dag|| <= HERMITICITY_RTOL ||A||: a matrix is refused,
        alone or in a stack, exactly where the per-matrix formula refuses it."""
        rng = np.random.default_rng(5)

        def refused(a):
            size = max(np.linalg.norm(a), 1e-300)
            return np.linalg.norm(a - a.conj().T) > matcore.HERMITICITY_RTOL * size

        for n in (1, 2, 3, 9, 16, 64):
            h, k = random_hermitian(n, rng), 1j * random_hermitian(n, rng)
            lo, hi = 0.0, 1e-6  # refused(h + lo k) is False, refused(h + hi k) True
            while np.nextafter(lo, hi) != hi:
                mid = (lo + hi) / 2.0
                lo, hi = (mid, hi) if not refused(h + mid * k) else (lo, mid)
            ts = [np.nextafter(lo, 0.0), lo, hi, np.nextafter(hi, 1.0)]
            stack = np.stack([h + t * k for t in ts])
            verdicts = [refused(a) for a in stack]
            assert verdicts == [False, False, True, True]
            for a, bad in zip(stack, verdicts):
                if bad:
                    with pytest.raises(NotHermitian):
                        matcore._require_hermitian(a, "M")
                else:
                    matcore._require_hermitian(a, "M")
            matcore._require_hermitian(stack[:2], "M")
            for bad in (stack[1:3], stack[2:], stack[::-1]):
                with pytest.raises(NotHermitian):
                    matcore._require_hermitian(bad, "M")

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_polar_decompose(self, n):
        rng = np.random.default_rng([5, n])
        u = random_unitary(n, rng)
        s = np.linspace(1.0, 0.5, n)
        s[-1] = 0.0
        shift = np.roll(np.eye(n), 1, axis=0)  # traceless unitary: |tr V| = 0
        ms = np.stack([
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
            u @ np.diag(s),  # rank-deficient: closest-to-identity completion
            np.zeros((n, n)),
            shift,
            np.eye(n),
        ])
        stacked = matcore.polar_decompose(ms)
        assert list(stacked.rank) == [n, n - 1, 0, n, n]
        assert list(stacked.phase_fixed) == [True, True, True, False, True]
        for i, m in enumerate(ms):
            single = matcore.polar_decompose(m)
            assert np.array_equal(stacked.unitary[i], single.unitary)
            assert np.array_equal(stacked.psd[i], single.psd)
            assert np.array_equal(stacked.singular_values[i], single.singular_values)
            assert stacked.phase[i] == single.phase
            assert stacked.phase_fixed[i] == single.phase_fixed
            assert stacked.rank[i] == single.rank
            assert type(single.phase_fixed) is bool and type(single.rank) is int
            assert type(single.phase) is complex

    def test_phase_fixes(self):
        rng = np.random.default_rng(7)
        ops = np.stack([rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
                        np.zeros((3, 3)), np.roll(np.eye(3), 1, axis=0)])
        fixed = matcore.fix_entry_phase(ops)
        phase, ok = matcore._trace_phase(ops)
        assert list(ok) == [True, False, False]
        for i, op in enumerate(ops):
            assert np.array_equal(fixed[i], matcore.fix_entry_phase(op))
            one_phase, one_ok = matcore._trace_phase(op)
            assert phase[i] == one_phase and ok[i] == one_ok
        assert np.array_equal(fixed[1], ops[1])


class TestTraceInequality:
    def test_pauli_z_pair(self):
        chk = matcore.check_trace_inequality(Z, Z)
        assert chk.observed == pytest.approx(1.0)
        assert chk.lower == pytest.approx(-1.0)
        assert chk.holds

    def test_identity_saturation(self):
        chk = matcore.check_trace_inequality(np.eye(2), np.eye(2))
        assert chk.observed == pytest.approx(1.0)
        assert chk.lower == pytest.approx(1.0)
        assert chk.holds

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            matcore.check_trace_inequality(np.array([[0, 1], [0, 0]]), Z)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_random_sweep(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(200):
            chk = matcore.check_trace_inequality(
                random_hermitian(d, rng), random_hermitian(d, rng)
            )
            assert chk.holds


class TestVnInequality:
    def test_identity_equality(self):
        chk = matcore.check_vn_inequality(np.eye(2), np.eye(2))
        assert chk.observed == pytest.approx(1.0)
        assert chk.upper == pytest.approx(1.0)
        assert chk.holds

    def test_orthogonal_paulis(self):
        chk = matcore.check_vn_inequality(X, Z)
        assert chk.observed == pytest.approx(0.0, abs=1e-12)
        assert chk.upper == pytest.approx(1.0)
        assert chk.holds

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_random_sweep(self, d):
        rng = np.random.default_rng(200 + d)
        for _ in range(200):
            chk = matcore.check_vn_inequality(
                random_contraction(d, rng), random_contraction(d, rng)
            )
            assert chk.holds


class TestNormInequality:
    def test_identity(self):
        chk = matcore.check_norm_inequality(np.eye(2), np.eye(2))
        assert (chk.lower, chk.observed, chk.upper) == pytest.approx((1.0, 1.0, 1.0))
        assert chk.holds

    def test_disjoint_projectors(self):
        chk = matcore.check_norm_inequality(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert chk.lower == pytest.approx(0.0)
        assert chk.observed == pytest.approx(0.0, abs=1e-15)
        assert chk.upper == pytest.approx(0.5)
        assert chk.holds

    def test_not_contraction(self):
        with pytest.raises(NotContraction):
            matcore.check_norm_inequality(2.0 * np.eye(2), np.eye(2))

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_random_sweep(self, d):
        rng = np.random.default_rng(300 + d)
        for _ in range(200):
            chk = matcore.check_norm_inequality(
                random_contraction(d, rng), random_contraction(d, rng)
            )
            assert chk.holds


class TestAppendixReports:
    """The three checks return the one verification record under their
    theorem names, with the slack to the nearer side."""

    @pytest.mark.parametrize("check, theorem", [
        (matcore.check_trace_inequality, "appendix_trace"),
        (matcore.check_vn_inequality, "appendix_vn"),
        (matcore.check_norm_inequality, "appendix_norm"),
    ])
    def test_theorem_name_and_slack(self, check, theorem):
        rng = np.random.default_rng(400)
        rep = check(random_hermitian(3, rng, 0.1), random_hermitian(3, rng, 0.1))
        assert isinstance(rep, matcore.BoundReport)
        assert rep.theorem == theorem and rep.case_id == ""
        assert rep.slack == min(rep.observed - rep.lower, rep.upper - rep.observed)
        assert rep.holds


REFUSALS = {
    "non-finite entry": (
        lambda: matcore.as_complex_matrix([[1.0, np.inf], [0.0, 1.0]]),
        ValueError, "matrix contains non-finite entries",
    ),
    "non-square": (
        lambda: matcore.check_vn_inequality(np.zeros((2, 3)), np.eye(2)),
        ValueError, "A must be square, got shape (2, 3)",
    ),
    "pair size mismatch": (
        lambda: matcore.check_norm_inequality(np.eye(2), np.eye(3)),
        ValueError, "A and B must share a dimension",
    ),
}


@pytest.mark.parametrize("call, exc, message", REFUSALS.values(), ids=REFUSALS)
def test_input_refused(call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is exc
