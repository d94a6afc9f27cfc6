"""Dense complex linear-algebra kernel.

Hermitian eigendecompositions with a deterministic ordering convention,
matrix polar factorization with a closest-to-identity completion for
rank-deficient inputs, and :class:`BoundReport`, the one record of every
verification: an observed value between a lower and an upper envelope.  The
three trace/norm inequality checks of the appendix return it here; the
bound evaluators and the suites build it with :func:`make_report`.

Norm conventions: ``||.||_2`` written in docstrings means the Schatten
2-norm (Frobenius); the spectral radius of a general matrix means its
largest singular value.

Stacks: :func:`hermitian_eig`, :func:`polar_decompose` and
:func:`fix_entry_phase` take leading stack axes; a single matrix is the
N = 1 case, and a stack has the bits of N single calls.  Measured on numpy
2.4.6 at n = 2 ... 16: stacked ``eigh``, ``eigvalsh``, ``svd``, ``qr``,
``matmul`` and ``trace`` equal the per-matrix calls; ``np.abs`` of a complex
array differs in the last bit from Python ``abs()`` of its scalars, so where a
single path used ``abs()`` a stack uses ``np.hypot(re, im)`` (which ``np.abs``
does not match); ``np.linalg.norm(..., axis=(-2, -1))`` differs from each
matrix's norm, but its dot form :func:`_norms` does not, so the Hermiticity
check and Upsilon in ``metrics`` take the norms of a stack together.  A
scalar's ``** 2`` is libm ``pow`` and an array's x * x, so :func:`_squares`
squares an array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import NoConvergence, NotContraction, NotHermitian

HERMITICITY_RTOL = 1e-8
DEGENERACY_TOL = 1e-10
INEQ_TOL = 1e-10
HOLDS_TOL = 1e-9
PHASE_TRACE_TOL = 1e-9
ENTRY_ROUND_DECIMALS = 8


def as_complex_matrix(m, name: str = "matrix", stacked: bool = False) -> np.ndarray:
    """A finite complex128 2-d array, or stack if ``stacked`` (no copy when possible)."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 and not (stacked and a.ndim > 2):
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _require_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    if a.shape[-2] != a.shape[-1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def fix_entry_phase(op: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the largest-magnitude entry is real positive.

    Ties resolve to the first maximal entry in row-major order.  Zero
    matrices are returned unchanged.  Leading axes hold a stack; each
    matrix is rotated on its own.
    """
    flat = op.reshape(-1, op.shape[-2] * op.shape[-1])
    val = flat[np.arange(len(flat)), np.argmax(np.abs(flat), axis=1)]
    r = np.hypot(val.real, val.imag)
    nz = r != 0.0
    rot = (np.conj(val) / np.where(nz, r, 1.0)).reshape(op.shape[:-2] + (1, 1))
    return np.multiply(op, rot, out=op.copy(), where=nz.reshape(rot.shape))


def _trace_phase(op: np.ndarray):
    """``(tr(op) / |tr(op)|, |tr(op)| > PHASE_TRACE_TOL)`` over the leading
    axes; the phase is 1 where the test fails."""
    t = np.trace(op, axis1=-2, axis2=-1)
    r = np.hypot(t.real, t.imag)
    ok = r > PHASE_TRACE_TOL
    return np.divide(t, r, out=np.ones_like(t), where=ok), ok


def _hermitian_part_spectrum(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part (A + A^dag) / 2 over the
    leading axes."""
    return np.linalg.eigvalsh((a + np.conj(a).swapaxes(-1, -2)) / 2.0)


def _squares(x):
    """``x ** 2`` of a scalar, or of each item of a 1-d array as a scalar."""
    return x**2 if np.ndim(x) == 0 else np.array(list(map(pow, x.tolist(), repeat(2))))


def _expi_eig(w: np.ndarray, v: np.ndarray, scale) -> np.ndarray:
    """exp(1j * scale * H) from the eigendecomposition ``w, v`` of a
    Hermitian H as ``np.linalg.eigh`` returns it; a stack takes one scale
    per matrix."""
    e = np.exp(1j * np.asarray(scale)[..., None] * w)
    return (v * e[..., None, :]) @ np.conj(v).swapaxes(-1, -2)


@dataclass(eq=False)
class HermitianEig:
    """Spectral decomposition with eigenvalues sorted descending.

    ``vectors`` holds orthonormal eigenvectors as columns, each with its
    largest-magnitude entry rotated to the positive real axis.  Columns of
    a degenerate block (eigenvalue gap below ``DEGENERACY_TOL``) are ordered
    lexicographically on their entries rounded to 1e-8, which makes the
    output deterministic even when the underlying solver is free to mix
    them; blocks at or below a caller's ``drop_floor`` (see
    :func:`hermitian_eig`) are the exception.  For a stack of matrices both
    fields carry its leading axes.
    """

    values: np.ndarray
    vectors: np.ndarray


def _lex_key(col: np.ndarray):
    parts = np.stack((col.real, col.imag), axis=-1)  # re, im of each entry in turn
    return tuple((np.round(parts, ENTRY_ROUND_DECIMALS) + 0.0).ravel())  # + 0.0 kills -0.0


def _order_blocks(w: list, v: np.ndarray, drop_floor: float):
    """Sort in place the columns ``v`` of each degenerate block of the
    descending eigenvalues ``w`` whose top lies above ``drop_floor``."""
    cuts = [j for j in range(1, len(w)) if not w[j - 1] - w[j] < DEGENERACY_TOL]
    for start, stop in zip([0, *cuts], [*cuts, len(w)]):
        if stop - start > 1 and w[start] > drop_floor:
            order = sorted(range(start, stop), key=lambda j: _lex_key(v[:, j]))
            v[:, start:stop] = v[:, order]


def _tamed(a: np.ndarray) -> tuple[np.ndarray, float, int]:
    """``(A 2^-e, ||A 2^-e||_2, e)``: e is 0 while ``||A||_2`` is below
    2^1000 or A holds a non-finite entry, else the exponent that brings
    every entry below 1, so that no norm of the scaled matrix overflows
    (the scaling is exact)."""
    with np.errstate(over="ignore"):
        size = float(np.linalg.norm(a))
    if size < 2.0**1000 or not np.isfinite(a).all():
        return a, size, 0
    e = int(np.frexp(max(np.abs(a.real).max(), np.abs(a.imag).max()))[1])
    a = a * 2.0**-e
    return a, float(np.linalg.norm(a)), e


def _norms(a: np.ndarray) -> np.ndarray:
    """Each matrix's ``np.linalg.norm`` in its dot form, sqrt(re.re + im.im)
    over the entries in C order: its bits for a C-contiguous matrix."""
    flat = a.reshape(a.shape[:-2] + (-1,))
    return np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))


def _require_hermitian(a: np.ndarray, name: str):
    """``||A - A^dag||_2 > HERMITICITY_RTOL ||A||_2`` raises for any matrix A of a
    stack, the norms by :func:`_norms` for a C-contiguous stack up to 256 x 256 (where
    tests pin the bits), else, or where ``||A||_2`` reaches 2^1000, of :func:`_tamed` A."""
    items = a.reshape((-1,) + a.shape[-2:])
    size, skew = np.full((2, len(items)), np.inf)
    if items.flags.c_contiguous and items.shape[-1] <= 256:
        with np.errstate(over="ignore"):
            size[:], skew[:] = _norms(items), _norms(items - np.conj(items).swapaxes(-1, -2))
    for i in np.flatnonzero(~(size < 2.0**1000)):
        item, size[i], _ = _tamed(items[i])
        skew[i] = np.linalg.norm(item - item.conj().T)
    if (skew > HERMITICITY_RTOL * np.maximum(size, 1e-300)).any():
        raise NotHermitian(f"{name} is not Hermitian within tolerance")


def hermitian_eig(m, drop_floor: float = -np.inf) -> HermitianEig:
    """Eigendecompose a Hermitian matrix; descending, deterministic order.

    A caller that discards every eigenvalue at or below ``drop_floor``
    passes that floor: degenerate blocks lying entirely at or below it are
    then left in solver order.  A block that straddles the floor is still
    ordered whole, so the columns above it are the same as without the
    floor.  ``m`` may carry leading stack axes: one stacked solver call then
    serves every matrix, and only those with a small gap have blocks ordered.

    Raises
    ------
    NotHermitian
        when ``||M - M^dag||_2 > HERMITICITY_RTOL * ||M||_2`` for a matrix.
    NoConvergence
        when the underlying solver fails to converge.
    """
    a = _require_square(as_complex_matrix(m, "M", stacked=True), "M")
    _require_hermitian(a, "matrix")
    h = a / 2.0 + np.conj(a).swapaxes(-1, -2) / 2.0  # (a + a^dag) / 2 could overflow
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NoConvergence(str(exc)) from exc
    n = w.shape[-1]
    w = w[..., ::-1].copy()
    v = v[..., ::-1].reshape(-1, n, n)

    # per-column phase convention
    piv = v[np.arange(len(v))[:, None], np.argmax(np.abs(v), axis=1), np.arange(n)]
    size = np.abs(piv)
    v = v * np.divide(np.conj(piv), size, out=np.ones_like(piv), where=size > 0)[:, None, :]

    # deterministic order inside degenerate blocks, in the matrices with a
    # gap below the tolerance under a value above the floor (inf - inf is none)
    with np.errstate(invalid="ignore"):
        gap = w[..., :-1] - w[..., 1:] < DEGENERACY_TOL
    for i in np.flatnonzero(np.any(gap & (w[..., :-1] > drop_floor), axis=-1)):
        _order_blocks(w.reshape(-1, n)[i].tolist(), v[i], drop_floor)
    return HermitianEig(values=w, vectors=v.reshape(a.shape))


@dataclass(eq=False)
class MatrixPolar:
    """Polar factorization A = phase * unitary @ psd.

    ``unitary`` carries the tr V in R+ convention whenever |tr V| exceeds
    ``PHASE_TRACE_TOL`` (then ``phase_fixed`` is True and ``phase`` is the
    unit complex number restoring the raw factor); otherwise ``phase`` is 1.
    ``psd`` is (A^dag A)^(1/2), ``singular_values`` are the singular
    values of A in descending order and ``rank`` counts those above
    ``s_1 n 1e-12`` (0 for the zero matrix).  A stack of matrices gives
    arrays over its leading axes in every field.
    """

    unitary: np.ndarray
    psd: np.ndarray
    phase_fixed: bool
    phase: complex
    singular_values: np.ndarray
    rank: int


def polar_decompose(a) -> MatrixPolar:
    """Polar-decompose a square matrix, or a stack of them, via SVD.

    For rank-deficient input the unitary factor is completed on the null
    block so that it is closest (Frobenius) to the identity among all valid
    completions; this keeps the factor continuous with nearby full-rank
    inputs.  A stack takes one SVD call; rank-deficient matrices are completed
    one by one.
    """
    a = _require_square(as_complex_matrix(a, "A", stacked=True), "A")
    n = a.shape[-1]
    try:
        u, s, wh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NoConvergence(str(exc)) from exc
    w = np.conj(wh).swapaxes(-1, -2)
    rank = np.sum(s > s[..., :1] * n * 1e-12, axis=-1)  # 0 for the zero matrix
    full = rank == n
    if full.all():
        v = u @ wh
    else:
        v = np.empty_like(u)
        v[full] = u[full] @ wh[full]
        for i in zip(*np.nonzero(~full)) if a.ndim > 2 else [()]:
            ui, wi, r = u[i], w[i], rank[i]
            un = ui[:, r:]
            wn = wi[:, r:]
            # max Re tr over the free block -> polar phase of Wn^dag Un
            um, _, vmh = np.linalg.svd(wn.conj().T @ un)
            np.matmul(ui[:, :r], wh[i][:r, :], out=v[i])
            v[i] += un @ (um @ vmh).conj().T @ wn.conj().T
    psd = (w * s[..., None, :]) @ wh  # wh holds W^dag's values in its C layout
    np.divide(np.add(psd, np.conj(psd).swapaxes(-1, -2), out=psd), 2.0, out=psd)
    phase, fixed = _trace_phase(v)
    np.multiply(v, np.conj(phase)[..., None, None], out=v, where=fixed[..., None, None])
    if a.ndim == 2:
        fixed, phase, rank = fixed.item(), phase.item(), rank.item()
    return MatrixPolar(
        unitary=v,
        psd=psd,
        phase_fixed=fixed,
        phase=phase,
        singular_values=s,
        rank=rank,
    )


@dataclass(kw_only=True)
class BoundReport:
    """An observed value against its lower/upper envelope.

    ``slack`` is min(observed - lower, upper - observed), the distance to
    the nearer side (the Lindblad records of ``suites.lindblad_suite`` take
    upper - observed); an open side is -inf or +inf.  ``holds`` is the
    verdict, ``lower - HOLDS_TOL <= observed <= upper + HOLDS_TOL`` from
    :func:`make_report` unless the check says otherwise.  ``terms``
    itemizes the summands of a bound and ``hot_truncated`` marks bounds
    whose source expression ends in omitted higher-order terms.  The
    fields from ``case_id`` to ``holds`` are the columns of a verify row;
    ``case_id`` is set by the suites.
    """

    case_id: str = ""
    theorem: str
    observed: float
    lower: float
    upper: float
    slack: float
    holds: bool
    terms: dict = field(default_factory=dict)
    hot_truncated: bool = False


def make_report(
    theorem: str,
    observed: float,
    lower: float,
    upper: float,
    terms: dict | None = None,
    hot_truncated: bool = False,
) -> BoundReport:
    observed = float(observed)
    lower = float(lower)
    upper = float(upper)
    return BoundReport(
        theorem=theorem,
        observed=observed,
        lower=lower,
        upper=upper,
        slack=min(observed - lower, upper - observed),
        holds=bool(lower - HOLDS_TOL <= observed <= upper + HOLDS_TOL),
        terms=terms or {},
        hot_truncated=hot_truncated,
    )


def _square_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """The operands of an inequality check as square matrices of one size."""
    a = _require_square(as_complex_matrix(a, "A"), "A")
    b = _require_square(as_complex_matrix(b, "B"), "B")
    if a.shape != b.shape:
        raise ValueError("A and B must share a dimension")
    return a, b


def check_trace_inequality(a, b) -> BoundReport:
    """tr(AB)/d against rho_B tr(A)/d + rho_A tr(B)/d - rho_A rho_B.

    A and B must be Hermitian; the eigenvalue caps rho are the largest
    (signed) eigenvalues.  The report's theorem is ``appendix_trace``,
    ``observed`` is tr(AB)/d, ``lower`` the right side and ``upper`` +inf;
    ``holds`` means observed >= lower - ``INEQ_TOL``.
    """
    a, b = _square_pair(a, b)
    _require_hermitian(a, "A")
    _require_hermitian(b, "B")
    d = a.shape[0]
    rho_a, rho_b = (float(_hermitian_part_spectrum(m)[-1]) for m in (a, b))
    lhs = float(np.trace(a @ b).real) / d
    rhs = rho_b * float(np.trace(a).real) / d + rho_a * float(np.trace(b).real) / d - rho_a * rho_b
    rep = make_report("appendix_trace", lhs, rhs, np.inf)
    rep.holds = bool(lhs >= rhs - INEQ_TOL)
    return rep


def check_vn_inequality(a, b) -> BoundReport:
    """|tr(AB)/d| against min(rho_B tr|A|/d, rho_A tr|B|/d).

    The spectral radii rho and the trace norms come from singular values.
    The report's theorem is ``appendix_vn``, ``observed`` is |tr(AB)/d|,
    ``lower`` -inf and ``upper`` the right side; ``holds`` means
    observed <= upper + ``INEQ_TOL``.
    """
    a, b = _square_pair(a, b)
    d = a.shape[0]
    sa = np.linalg.svd(a, compute_uv=False)
    sb = np.linalg.svd(b, compute_uv=False)
    lhs = abs(np.trace(a @ b)) / d
    rhs = min(sb[0] * sa.sum() / d, sa[0] * sb.sum() / d)
    rep = make_report("appendix_vn", lhs, -np.inf, rhs)
    rep.holds = bool(lhs <= rhs + INEQ_TOL)
    return rep


def check_norm_inequality(a, b) -> BoundReport:
    """||A||^2/d + ||B||^2/d - 1  <=  ||AB||^2/d  <=  min(||A||^2, ||B||^2)/d.

    Both operands must be contractions (largest singular value at most
    1 + 1e-10), else :class:`NotContraction` is raised.  The report's
    theorem is ``appendix_norm`` and ``observed`` is ||AB||^2/d; ``holds``
    allows ``INEQ_TOL`` on either side.
    """
    a, b = _square_pair(a, b)
    d = a.shape[0]
    for m, name in ((a, "A"), (b, "B")):
        top = np.linalg.svd(m, compute_uv=False)[0]
        if top > 1.0 + 1e-10:
            raise NotContraction(f"{name} has spectral radius {top:.3e} > 1")
    na = np.linalg.norm(a) ** 2 / d
    nb = np.linalg.norm(b) ** 2 / d
    nab = np.linalg.norm(a @ b) ** 2 / d
    lower = na + nb - 1.0
    upper = min(na, nb)
    rep = make_report("appendix_norm", nab, lower, upper)
    rep.holds = bool(lower - INEQ_TOL <= nab <= upper + INEQ_TOL)
    return rep
