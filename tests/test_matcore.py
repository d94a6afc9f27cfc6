import re

import numpy as np
import pytest

from chanpolar import channel as chn
from chanpolar import matcore
from chanpolar.errors import ChanPolarError, DimensionMismatch, NotContraction, NotHermitian

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
        """A matrix whose norm overflows is refused whether or not it is
        Hermitian; at 1e153 the norms are finite and the verdict is taken.  In a
        stack, the first failing matrix decides which error is raised."""
        message = "^M has a norm beyond the float range$"
        for big in (1e155, 1e308):
            hermitian = np.array([[big, 1j * big], [-1j * big, big]])
            for m in (hermitian, np.diag([big, big - 1j * big])):
                with pytest.raises(ChanPolarError, match=message) as info:
                    matcore._require_hermitian(m, ("M",))
                assert type(info.value) is ChanPolarError
        big = 1e153
        matcore._require_hermitian(np.array([[big, 1j * big], [-1j * big, big]]), ("M",))
        with pytest.raises(NotHermitian):
            matcore._require_hermitian(np.diag([big, big - 1j * big]), ("M",))
        skew, huge = np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([1e308, 1.0])
        with pytest.raises(NotHermitian, match="^B is not Hermitian"):
            matcore._require_hermitian(np.stack([np.eye(2), skew, huge]), ("A", "B"))
        with pytest.raises(ChanPolarError, match="^B has a norm beyond the float range$"):
            matcore._require_hermitian(np.stack([np.eye(2), huge, skew]), ("A", "B"))

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

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_largest_accepted_norm(self, n):
        """x I_n with n x^2 = max (x = sqrt(max / n), ||x I_n||_2 finite) is decomposed,
        without a warning; its next float is refused, though s_1 is far below max."""
        top = np.sqrt(np.finfo(float).max / n)
        pol = matcore.polar_decompose(top * np.eye(n))
        assert pol.rank == n and np.array_equal(pol.unitary, np.eye(n))
        assert np.array_equal(pol.psd, top * np.eye(n))
        with pytest.raises(ChanPolarError, match="^A has a norm beyond the float range$"):
            matcore.polar_decompose(np.nextafter(top, np.inf) * np.eye(n))

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0)])
    def test_empty_matrices(self, shape):
        pol = matcore.polar_decompose(np.zeros(shape))
        assert pol.unitary.shape == pol.psd.shape == shape and np.all(pol.rank == 0)

    def test_phase_is_one_where_the_trace_vanishes(self):
        pol = matcore.polar_decompose(X)  # tr V = tr X = 0
        assert not pol.phase_fixed and pol.phase == 1.0
        assert np.array_equal(pol.unitary, X)

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

    def test_norms_of_one_matrix_have_the_bits_of_linalg_norm(self):
        """One matrix, or a stack of them, at every size up to 64 and past 256, where
        the Hermiticity check once left the dot form for per-matrix norms."""
        rng = np.random.default_rng(12)
        for n in [*range(1, 65), 255, 256, 257, 512, 1024]:
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            stack = np.stack((m, 1e-150 * m, 1e150 * m, m - m.conj().T))
            want = [np.linalg.norm(a).tobytes() for a in stack]
            assert [matcore._norms(a).tobytes() for a in stack] == want
            assert [x.tobytes() for x in matcore._norms(stack)] == want

    def test_slice_reductions_have_the_bits_of_a_copy(self):
        """np.sum (pairwise) and np.prod over a contiguous slice at any
        offset of a longer array equal those over a fresh copy of it."""
        rng = np.random.default_rng(13)
        x = 1.0 - rng.random(300) * 1e-3
        for n in range(1, 140):
            for at in (0, 1, 3, 7, 160 - n % 9):
                part = x[at:at + n]
                assert np.sum(part) == np.sum(part.copy())
                assert np.prod(part) == np.prod(part.copy())

    def test_matmul_of_a_pair_has_the_bits_of_two_calls(self):
        """For C-contiguous d x d operands, d = 1 ... 16, np.matmul of a
        (2, d, d) stack with ``out=`` equals two single calls bit for bit,
        and so does a stack written to every other matrix of a buffer.  The
        composition sweep relies on this: one such call per depth steps its
        V^m and P^m chains, whose rows are pinned to the single-call route."""
        rng = np.random.default_rng(14)
        for d in range(1, 17):
            a, b = (rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d))
                    for _ in range(2))
            want = [np.matmul(x, y).tobytes() for x, y in zip(a, b)]
            buf = np.empty((3, 2, d, d), dtype=complex)
            np.matmul(a, b, out=buf[1])
            assert [m.tobytes() for m in buf[1]] == want
            np.matmul(a, b, out=buf[:2, 1])
            assert [m.tobytes() for m in buf[:2, 1]] == want

    @pytest.mark.parametrize("shape, layout, per_matrix", [
        ((2, 256, 256), "C", 0), ((2, 257, 257), "C", 0), ((3, 4, 4), "F", 0),
        ((4, 4), "F", 0), ((3, 4, 4), "C", 0), ((2, 257, 257), "C", 1), ((3, 4, 4), "F", 2),
        ((4, 4), "F", 1),
    ])
    def test_hermiticity_norms_per_matrix_outside_the_pinned_sizes(
            self, shape, layout, per_matrix):
        """Every size and layout takes the stacked norms: the stack is refused at the
        first of its ``per_matrix`` leading 1e308 matrices, each of which is refused
        alone, and the Hermitian matrices after them pass."""
        m = np.zeros(shape, dtype=complex)
        m[..., 0, 0] = 1.0
        m.reshape((-1,) + shape[-2:])[:per_matrix, 0, 0] = 1e308
        if layout == "F":
            m = np.asfortranarray(m)
        items = m.reshape((-1,) + shape[-2:])
        names = tuple(f"M{i}" for i in range(len(items)))
        if per_matrix:
            with pytest.raises(ChanPolarError, match="^M0 has a norm beyond the float range$"):
                matcore._require_hermitian(m, names)
        for item in items[:per_matrix]:
            with pytest.raises(ChanPolarError, match="^M has a norm beyond the float range$"):
                matcore._require_hermitian(item, ("M",))
        if per_matrix < len(items):
            parts = matcore._require_hermitian(items[per_matrix:], names)
            assert np.array_equal(parts, items[per_matrix:])

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

    def test_report_fields_are_python_floats(self):
        rep = matcore.make_report("t", np.float64(0.5), np.float32(0.25), np.float64(1.0))
        for value in (rep.observed, rep.lower, rep.upper, rep.slack):
            assert type(value) is float
        assert (rep.observed, rep.lower, rep.upper, rep.slack) == (0.5, 0.25, 1.0, 0.25)

    @pytest.mark.parametrize("observed, holds", [
        (1.0 + 1e-10, True), (1.0 + 5e-10, False), (-1e-10, True), (-5e-10, False),
    ])
    def test_checks_hold_within_ineq_tol_not_holds_tol(self, observed, holds):
        """The checks' rows hold within INEQ_TOL (1e-10) of [0, 1], tighter than
        make_report's HOLDS_TOL (1e-9), which holds all four rows."""
        assert matcore.INEQ_TOL < 5e-10 < matcore.HOLDS_TOL
        rep = matcore._reports("t", np.eye(2), [(observed, 0.0, 1.0)])
        assert rep.holds is holds
        assert matcore.make_report("t", observed, 0.0, 1.0).holds

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


class TestStackedChecks:
    """A stack of pairs gives each pair's single-call report, and raises as the
    first failing single call."""

    @pytest.mark.parametrize("check, make", [
        (matcore.check_trace_inequality, random_hermitian),
        (matcore.check_vn_inequality, random_contraction),
        (matcore.check_norm_inequality, random_contraction),
    ])
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_stack_returns_each_single_report(self, check, make, d):
        rng = np.random.default_rng(500 + d)
        a, b = (np.array([make(d, rng) for _ in range(6)]) for _ in range(2))
        reps = check(a, b)
        assert isinstance(reps, list) and len(reps) == 6
        for rep, x, y in zip(reps, a, b, strict=True):
            assert repr(rep) == repr(check(x, y))
        # leading axes (2, 3) give the same reports, in C order
        assert repr(check(a.reshape(2, 3, d, d), b.reshape(2, 3, d, d))) == repr(reps)

    @staticmethod
    def single_error(check, a, b, exc):
        for x, y in zip(a, b):
            try:
                check(x, y)
            except exc as err:
                return str(err)

    @pytest.mark.parametrize("check, exc, bad", [
        (matcore.check_trace_inequality, NotHermitian, np.array([[0, 1], [0, 0]])),
        (matcore.check_norm_inequality, NotContraction, 3.0 * np.eye(2)),
    ])
    def test_stack_raises_as_first_failing_single_call(self, check, exc, bad):
        good = random_hermitian(2, np.random.default_rng(6), 0.1)
        worse = 2.0 * bad
        for a, b in (
            ([good, bad, good], [worse, good, good]),  # pair 0 fails at B
            ([good, bad, worse], [good, good, good]),  # pair 1 at A, pair 2 at A
            ([good, good, good], [good, worse, bad]),  # pair 1 at B
        ):
            message = self.single_error(check, a, b, exc)
            assert message is not None
            with pytest.raises(exc, match=f"^{re.escape(message)}$"):
                check(np.array(a, dtype=complex), np.array(b, dtype=complex))
        assert self.single_error(check, [bad], [good], exc).startswith("A ")
        if exc is NotContraction:  # the radius of the first failing operand, not of a later one
            with pytest.raises(exc, match=r"^A has spectral radius 3\.000e\+00 > 1$"):
                check(np.array([good, bad]), np.array([good, worse]))


REFUSALS = {
    "non-finite entry": (
        lambda: matcore.as_complex_matrix([[1.0, np.inf], [0.0, 1.0]]),
        ChanPolarError, "matrix contains non-finite entries",
    ),
    "not 2-dimensional": (
        lambda: matcore.as_complex_matrix([1.0, 0.0], "rho"),
        DimensionMismatch, "rho must be 2-dimensional, got shape (2,)",
    ),
    "non-square": (
        lambda: matcore.check_vn_inequality(np.zeros((2, 3)), np.eye(2)),
        DimensionMismatch, "A must be square, got shape (2, 3)",
    ),
    "pair size mismatch": (
        lambda: matcore.check_norm_inequality(np.eye(2), np.eye(3)),
        DimensionMismatch, "A and B must share a dimension",
    ),
    "eig of a norm beyond the float range": (
        lambda: matcore.hermitian_eig(np.diag([1e155, 1.0])),
        ChanPolarError, "matrix has a norm beyond the float range",
    ),
    # polar_decompose refuses by the norm rule of hermitian_eig.  Here s_1 n
    # overflows, so the rank threshold would be inf: the Hadamard matrix's
    # polar factor would be completed to the identity at rank 0
    "polar with s_1 n beyond the float range": (
        lambda: matcore.polar_decompose(1.2e308 * np.array([[1.0, 1.0], [1.0, -1.0]])),
        ChanPolarError, "A has a norm beyond the float range",
    ),
    # s_1 < max but s_1 2n > max: P + P^dag would overflow
    "polar with s_1 above max / 2n at n = 1": (
        lambda: matcore.polar_decompose([[1.5e308]]),
        ChanPolarError, "A has a norm beyond the float range",
    ),
    "polar with s_1 above max / 2n at n = 4, in a stack": (
        lambda: matcore.polar_decompose(np.stack([np.eye(4), 1e308 * np.eye(4)])),
        ChanPolarError, "A has a norm beyond the float range",
    ),
    # s_1 = 1e155 is finite, and so are s_1 n 1e-12 and P + P^dag, but the norm overflows
    "polar of a norm beyond the float range": (
        lambda: matcore.polar_decompose(np.diag([1e155, 1.0])),
        ChanPolarError, "A has a norm beyond the float range",
    ),
    "eig of a 0 x 0 matrix": (
        lambda: matcore.hermitian_eig(np.zeros((0, 0))),
        DimensionMismatch, "M must be at least 1 x 1, got shape (0, 0)",
    ),
    "polar of an empty stack": (
        lambda: matcore.polar_decompose(np.zeros((0, 2, 2))),
        DimensionMismatch, "A is an empty stack, got shape (0, 2, 2)",
    ),
    "choi of an empty stack": (
        lambda: chn.from_choi(np.zeros((0, 4, 4))),
        DimensionMismatch, "choi is an empty stack, got shape (0, 4, 4)",
    ),
    "trace inequality of a 0 x 0 pair": (
        lambda: matcore.check_trace_inequality(np.zeros((0, 0)), np.zeros((0, 0))),
        DimensionMismatch, "A must be at least 1 x 1, got shape (0, 0)",
    ),
    "vN inequality of a 0 x 0 pair": (
        lambda: matcore.check_vn_inequality(np.zeros((0, 0)), np.zeros((0, 0))),
        DimensionMismatch, "A must be at least 1 x 1, got shape (0, 0)",
    ),
    "norm inequality of a 0 x 0 pair": (
        lambda: matcore.check_norm_inequality(np.zeros((0, 0)), np.zeros((0, 0))),
        DimensionMismatch, "A must be at least 1 x 1, got shape (0, 0)",
    ),
}


@pytest.mark.parametrize("call, exc, message", REFUSALS.values(), ids=REFUSALS)
def test_input_refused(call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is exc
