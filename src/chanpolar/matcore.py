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

Stacks: :func:`hermitian_eig`, :func:`polar_decompose`, :func:`fix_entry_phase` and the
three inequality checks take leading stack axes; a single matrix (or pair) is the N = 1
case, and a stack has the bits of N single calls.  Arrays enter C-contiguous (here, in
``metrics._as_target`` and ``KrausChannel``), so results depend on values, not layout.
Measured on numpy 2.4.6 at n = 2 ... 16: stacked ``eigh``, ``eigvalsh``, ``svd``, ``qr``,
``matmul`` and ``trace`` equal the per-matrix calls, and ``sum``/``prod`` over a
contiguous slice of a stack equal those over a copy; ``np.abs`` of a complex array
differs in the last bit from Python ``abs()`` of its scalars, so a stack uses
``np.hypot(re, im)`` where a single path used ``abs()``; ``np.linalg.norm(..., axis=(-2,
-1))`` differs from each matrix's norm, but its dot form :func:`_norms` has the bits of
each C-contiguous matrix's norm, so the Hermiticity check and Upsilon take the norms of a
stack together.  A scalar's ``** 2`` is libm ``pow`` and an array's x * x, so
:func:`_squares` squares an array.  A one-row ``matmul`` operand takes numpy's
matrix-vector path (other bits than in 2 to 64 rows); complex ``x.conj() * x`` is fused,
fma(re, re, im * im), which ``re * re + im * im`` misses in about 16% of entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import ChanPolarError, DimensionMismatch, NoConvergence, NotContraction, NotHermitian

HERMITICITY_RTOL = 1e-8
DEGENERACY_TOL = 1e-10
INEQ_TOL = 1e-10
HOLDS_TOL = 1e-9
PHASE_TRACE_TOL = 1e-9
ENTRY_ROUND_DECIMALS = 8


def as_complex_matrix(m, name: str = "matrix", stacked: bool = False) -> np.ndarray:
    """A finite complex128 2-d array, or non-empty stack if ``stacked``, C-contiguous."""
    a = np.asarray(m, dtype=np.complex128, order="C")
    if a.ndim != 2 and not (stacked and a.ndim > 2):
        raise DimensionMismatch(f"{name} must be 2-dimensional, got shape {a.shape}")
    if 0 in a.shape[:-2]:
        raise DimensionMismatch(f"{name} is an empty stack, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ChanPolarError(f"{name} contains non-finite entries")
    return a


def _require_square(a: np.ndarray, name: str = "matrix", empty: bool = False) -> np.ndarray:
    """``a`` if its matrices are square and, unless ``empty``, at least 1 x 1."""
    if a.shape[-2] != a.shape[-1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    if a.shape[-1] == 0 and not empty:
        raise DimensionMismatch(f"{name} must be at least 1 x 1, got shape {a.shape}")
    return a


def fix_entry_phase(op: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the largest-magnitude entry is real positive.

    Ties resolve to the first maximal entry in row-major order.  Zero
    matrices are returned unchanged.  Leading axes hold a stack; each
    matrix is rotated on its own.
    """
    flat = op.reshape(-1, op.shape[-2] * op.shape[-1])
    val = flat[np.arange(len(flat)), np.abs(flat).argmax(axis=1)]
    r = np.hypot(val.real, val.imag)
    nz = r != 0.0
    rot = (np.conj(val) / np.where(nz, r, 1.0)).reshape(op.shape[:-2] + (1, 1))
    return np.multiply(op, rot, out=op.copy(), where=nz.reshape(rot.shape))


def _trace_phase(op: np.ndarray):
    """``(tr(op) / |tr(op)|, |tr(op)| > PHASE_TRACE_TOL)`` over the leading
    axes; the phase is 1 where the test fails."""
    t = op.trace(axis1=-2, axis2=-1)
    r = np.hypot(t.real, t.imag)
    ok = r > PHASE_TRACE_TOL
    return np.where(ok, t / np.where(ok, r, 1.0), 1.0), ok


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


def _norms(a: np.ndarray) -> np.ndarray:
    """Each matrix's ``np.linalg.norm`` in its dot form, sqrt(re.re + im.im)
    over the entries in C order: its bits for a C-contiguous matrix, one or a stack."""
    flat = a.reshape(a.shape[:-2] + (-1,))
    return np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))


def _require_in_range(a: np.ndarray, names=("matrix",), adj=None) -> None:
    """The float-range rule: the first failing matrix A of a stack, the i-th in C order
    named ``names[i % len(names)]``, raises :class:`ChanPolarError` where ``||A||_2``
    (:func:`_norms`) overflows, above about 1e154, or, given ``adj`` = A^dag,
    :class:`NotHermitian` where ``||A - A^dag||_2 > HERMITICITY_RTOL ||A||_2``."""
    with np.errstate(over="ignore"):
        size = _norms(a).ravel()
        refused = size == np.inf
        if adj is not None:
            refused |= _norms(a - adj) > HERMITICITY_RTOL * np.maximum(size, 1e-300)
    for i in refused.nonzero()[0][:1]:
        name = names[i % len(names)]
        if size[i] == np.inf:
            raise ChanPolarError(f"{name} has a norm beyond the float range")
        raise NotHermitian(f"{name} is not Hermitian within tolerance")


def _require_hermitian(a: np.ndarray, names=("matrix",)) -> np.ndarray:
    """The (N, n, n) Hermitian parts A / 2 + A^dag / 2 of a stack that passes
    :func:`_require_in_range` with ``adj``."""
    items = a.reshape((-1,) + a.shape[-2:])
    adj = np.conj(items).swapaxes(-1, -2)
    _require_in_range(items, names, adj)
    return items / 2.0 + adj / 2.0


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
    DimensionMismatch
        for a non-square or 0 x 0 matrix or an empty stack.
    ChanPolarError
        when ``||M||_2`` overflows (entries above about 1e154) for a matrix.
    NotHermitian
        when ``||M - M^dag||_2 > HERMITICITY_RTOL * ||M||_2`` for a matrix.
    NoConvergence
        when the underlying solver fails to converge.
    """
    a = _require_square(as_complex_matrix(m, "M", stacked=True), "M")
    try:
        w, v = np.linalg.eigh(_require_hermitian(a))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NoConvergence(str(exc)) from exc
    w, v = w[:, ::-1].copy(), v[..., ::-1]

    # per-column phase convention (an eigenvector has a non-zero entry)
    size = np.abs(v)
    piv = v[np.arange(len(v))[:, None], size.argmax(axis=1), np.arange(v.shape[-1])]
    v = v * (np.conj(piv) / size.max(axis=1))[:, None, :]

    # deterministic order inside degenerate blocks, in the matrices with a
    # gap below the tolerance under a value above the floor (inf - inf is none)
    with np.errstate(invalid="ignore"):
        gap = w[:, :-1] - w[:, 1:] < DEGENERACY_TOL
    for i in (gap & (w[:, :-1] > drop_floor)).any(axis=1).nonzero()[0]:
        _order_blocks(w[i].tolist(), v[i], drop_floor)
    return HermitianEig(values=w.reshape(a.shape[:-1]), vectors=v.reshape(a.shape))


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
    one by one.  A matrix whose ``||A||_2`` overflows raises :class:`ChanPolarError`
    (:func:`_require_in_range`); s_1 <= ||A||_2 keeps s_1 n 1e-12 and P + P^dag finite.
    """
    a = _require_square(as_complex_matrix(a, "A", stacked=True), "A", empty=True)
    _require_in_range(a, ("A",))
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
    return MatrixPolar(unitary=v, psd=psd, phase_fixed=fixed, phase=phase,
                       singular_values=s, rank=rank)


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


def _square_pairs(a, b) -> np.ndarray:
    """The operands of an inequality check, two square matrices of one size or two
    equal stacks of them, as the C-contiguous (2N, d, d) stack A_1, B_1, A_2, B_2, ..."""
    a = _require_square(as_complex_matrix(a, "A", stacked=True), "A")
    b = _require_square(as_complex_matrix(b, "B", stacked=True), "B")
    if a.shape != b.shape:
        raise DimensionMismatch("A and B must share a dimension")
    return np.stack((a, b), axis=-3).reshape((-1,) + a.shape[-2:])


def _reports(theorem: str, a, rows) -> BoundReport | list[BoundReport]:
    """The report of each (observed, lower, upper) row, holding within ``INEQ_TOL``
    of either side: the one report of a single pair ``a``, or the list of a stack's."""
    reps = []
    for observed, lower, upper in rows:
        rep = make_report(theorem, observed, lower, upper)
        rep.holds = lower - INEQ_TOL <= observed <= upper + INEQ_TOL
        reps.append(rep)
    return reps if np.ndim(a) > 2 else reps[0]


def check_trace_inequality(a, b) -> BoundReport | list[BoundReport]:
    """tr(AB)/d against rho_B tr(A)/d + rho_A tr(B)/d - rho_A rho_B.

    A and B must be Hermitian; the eigenvalue caps rho are the largest
    (signed) eigenvalues.  The report's theorem is ``appendix_trace``,
    ``observed`` is tr(AB)/d, ``lower`` the right side and ``upper`` +inf;
    ``holds`` means observed >= lower - ``INEQ_TOL``.

    Two equal stacks of operands give the list of their pairs' reports, from
    one ``eigvalsh``, ``matmul`` and ``trace`` call each; each report has the
    bits of its single call, and a non-Hermitian operand raises as the first
    failing single call would.
    """
    ab = _square_pairs(a, b)
    _require_hermitian(ab, ("A", "B"))
    d = ab.shape[-1]
    rho = _hermitian_part_spectrum(ab)[:, -1].tolist()
    tr = np.trace(ab, axis1=-2, axis2=-1).real.tolist()
    tr_ab = np.trace(ab[0::2] @ ab[1::2], axis1=-2, axis2=-1).real.tolist()
    return _reports("appendix_trace", a, [
        (t / d, rho_b * tr_a / d + rho_a * tr_b / d - rho_a * rho_b, np.inf)
        for rho_a, rho_b, tr_a, tr_b, t in zip(rho[0::2], rho[1::2], tr[0::2], tr[1::2], tr_ab)])


def check_vn_inequality(a, b) -> BoundReport | list[BoundReport]:
    """|tr(AB)/d| against min(rho_B tr|A|/d, rho_A tr|B|/d).

    The spectral radii rho and the trace norms come from singular values.
    The report's theorem is ``appendix_vn``, ``observed`` is |tr(AB)/d|,
    ``lower`` -inf and ``upper`` the right side; ``holds`` means
    observed <= upper + ``INEQ_TOL``.  Two equal stacks give the list of their
    pairs' reports, from one ``svd``, ``matmul`` and ``trace`` call each, with the
    bits of single calls.
    """
    ab = _square_pairs(a, b)
    d = ab.shape[-1]
    s = np.linalg.svd(ab, compute_uv=False)
    top, s_sum = s[:, 0].tolist(), s.sum(axis=-1).tolist()
    t = np.trace(ab[0::2] @ ab[1::2], axis1=-2, axis2=-1)
    return _reports("appendix_vn", a, [
        (abs_t / d, -np.inf, min(top_b * sum_a / d, top_a * sum_b / d))
        for abs_t, top_a, top_b, sum_a, sum_b in zip(
            np.hypot(t.real, t.imag).tolist(), top[0::2], top[1::2], s_sum[0::2], s_sum[1::2])])


def check_norm_inequality(a, b) -> BoundReport | list[BoundReport]:
    """||A||^2/d + ||B||^2/d - 1  <=  ||AB||^2/d  <=  min(||A||^2, ||B||^2)/d.

    Both operands must be contractions (largest singular value at most
    1 + 1e-10), else :class:`NotContraction` is raised.  The report's
    theorem is ``appendix_norm`` and ``observed`` is ||AB||^2/d; ``holds``
    allows ``INEQ_TOL`` on either side.  Two equal stacks give the list of
    their pairs' reports, from one ``svd``, ``matmul`` and two :func:`_norms`
    calls, with the bits of single calls; a stack raises as its first failing
    single call would, with the same spectral radius.
    """
    ab = _square_pairs(a, b)
    d = ab.shape[-1]
    top = np.linalg.svd(ab, compute_uv=False)[:, 0]
    for i in (top > 1.0 + 1e-10).nonzero()[0][:1].tolist():
        raise NotContraction(f"{'AB'[i % 2]} has spectral radius {top[i]:.3e} > 1")
    sq = [n**2 / d for n in _norms(ab).tolist()]  # ||A||^2/d and ||B||^2/d in turn
    return _reports("appendix_norm", a, [
        (n_ab**2 / d, na + nb - 1.0, min(na, nb))
        for na, nb, n_ab in zip(sq[0::2], sq[1::2], _norms(ab[0::2] @ ab[1::2]).tolist())])
