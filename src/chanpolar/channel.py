"""Channel representations and conversions.

A channel is a list of d x d Kraus matrices (:class:`KrausChannel`).  This
module converts between that form, the Choi matrix, the column-stacking
superoperator, and the ordered canonical Kraus decomposition (a mutually
orthogonal family is sorted as it is, any other goes through the Choi
eigendecomposition, see :func:`canonical`); it also provides CPTP
validation, the leading-Kraus (LK) extraction, composition, and the JSON
wire format.

Vectorization convention (used everywhere): column stacking,
``col(A)[j*d + i] = A[i, j]`` so that ``col(A B C) = C^T (x) A col(B)``.
"""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import matcore
from .errors import DimensionMismatch, NotCP

CP_EIG_TOL = 1e-10          # per-dim floor below which CP is declared broken
CHOI_DROP_TOL = 1e-12       # per-dim floor below which eigenvalues are noise
TP_TOL = 1e-9
WEIGHT_DEGENERACY_TOL = 1e-10
GRAM_ORTHO_TOL = 1e-12      # per-dim off-diagonal Gram tolerance
MAX_EIGENSOLVER_DIM = 64    # Choi eigendecompositions are refused above this


@dataclass(eq=False)
class KrausChannel:
    """A channel as a stack of d x d complex Kraus matrices.

    ``kraus`` has shape (k, d, d) and is kept C-contiguous (copied if not).
    The trace-preserving condition sum_i A_i^dag A_i = I is *not* enforced at
    construction: the LK map of :func:`lk` is not TP, and deliberately broken
    inputs can be fed to :func:`validate_cptp`.  Each instance caches its
    canonical view (see :func:`canonical`; a view is the one kind that carries
    ``_weights``), the polar factors of :func:`polar.channel_polar` on that
    view and its own Upsilon (:func:`metrics.upsilon`), so instances must not
    be mutated.  The canonical quantities below read the cached view.
    """

    dim: int
    kraus: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.kraus, dtype=np.complex128, order="C")
        if k.ndim != 3 or k.shape[1] != self.dim or k.shape[2] != self.dim:
            raise DimensionMismatch(
                f"kraus must have shape (k, {self.dim}, {self.dim}), got {k.shape}"
            )
        if k.shape[0] == 0:
            raise DimensionMismatch("channel needs at least one Kraus operator")
        if not np.isfinite(k).all():
            raise ValueError("Kraus operators contain non-finite entries")
        self.__dict__.update(kraus=k, _canonical=None, _weights=None, _polar=None, _upsilon=None)

    @classmethod
    def from_ops(cls, ops: Sequence[np.ndarray]) -> "KrausChannel":
        ops = [np.asarray(o, dtype=np.complex128) for o in ops]
        return cls(dim=ops[0].shape[0], kraus=np.stack(ops))

    @property
    def n_kraus(self) -> int:
        return self.kraus.shape[0]

    @property
    def weights(self) -> np.ndarray:
        """Canonical weights w_i = ||A_i||_2^2 / d, in descending order."""
        return canonical(self)._weights

    @property
    def degenerate_leading(self) -> bool:
        """True when the leading canonical weight is degenerate
        (w_1 - w_2 < 1e-10).

        A clear flag does not make A_1 accurate to full precision: on the
        Choi route (a non-orthogonal Kraus family) A_1 carries an error of
        about eps / (w_1 - w_2), so at a gap of 1e-10 the LK singular
        values can be off by about 1e-6.  Orthogonal families take the
        Gram route and are exact.
        """
        w = self.weights
        return bool(w.size > 1 and w[0] - w[1] < WEIGHT_DEGENERACY_TOL)

    @property
    def a1(self) -> np.ndarray:
        """The leading (LK) canonical Kraus operator A_1."""
        return canonical(self).kraus[0]

    @property
    def w1(self) -> float:
        """The leading canonical weight w_1."""
        return float(self.weights[0])


@dataclass
class CptpValidation:
    """Slack report for the CP and TP conditions."""

    dim: int
    cp_slack: float
    tp_slack: float
    ok: bool


def validate_cptp(ch: KrausChannel) -> CptpValidation:
    """Check complete positivity and trace preservation of a Kraus channel.

    A Kraus representation is CP by construction, so ``cp_slack`` (the most
    negative Choi eigenvalue) is exactly 0; a Choi matrix is checked for CP
    by :func:`from_choi`.  ``tp_slack`` is ``||sum A_i^dag A_i - I||_2``
    and ``ok`` requires tp_slack <= 1e-9; it is +inf only where the norm
    exceeds the float range.
    """
    k = ch.kraus
    acc = np.einsum("kij,kil->jl", k.conj(), k)
    _, size, e = matcore._tamed(acc - np.eye(ch.dim))
    tp_slack = size * 2.0 ** (e - 1) * 2.0  # a Python float: overflows to inf
    return CptpValidation(
        dim=ch.dim, cp_slack=0.0, tp_slack=tp_slack, ok=tp_slack <= TP_TOL
    )


def to_choi(ch: KrausChannel) -> np.ndarray:
    """Choi matrix sum_ij E_ij (x) A(E_ij) of a channel, the d^2 x d^2
    ndarray sum over Kraus of col(A) col(A)^dag."""
    return _chois(ch.kraus[np.newaxis])[0]


def _chois(kraus: np.ndarray) -> np.ndarray:
    """:func:`to_choi` of each family of an (N, k, d, d) stack, by one matmul."""
    n, k, d = kraus.shape[:3]
    cols = np.swapaxes(kraus, -1, -2).reshape(n, k, d * d)  # rows are col(A_i)
    return cols.swapaxes(-1, -2) @ cols.conj()


def _unchecked(dim: int, kraus: np.ndarray, weights=None) -> KrausChannel:
    """A channel over a stack that passes the constructor's checks, unchecked."""
    ch = object.__new__(KrausChannel)
    ch.__dict__.update(dim=dim, kraus=kraus, _canonical=None, _weights=weights, _polar=None,
                       _upsilon=None)
    return ch


def _channels(ops: np.ndarray) -> list:
    """One channel over each (k, d, d) family of the stack ``ops``, refused as by
    the constructor if an entry is not finite (the shapes pass its checks)."""
    if not np.isfinite(ops).all():
        raise ValueError("Kraus operators contain non-finite entries")
    return [_unchecked(ops.shape[-1], k) for k in ops]


def _canonical_views(ops: np.ndarray, weights: np.ndarray, counts) -> list:
    """Channels over operators already in canonical order, the i-th over the
    next ``counts[i]`` operators and weights (none raises :class:`NotCP`), with
    the phase convention applied: the largest-magnitude entry of each operator
    is real positive, except that the leading one prefers tr A_1 real positive.
    The operators are stored C-contiguous, which fixes the summation order of
    the einsum-based figures of merit."""
    if not all(counts):
        raise NotCP("Choi matrix is numerically zero")
    bounds = [0, *itertools.accumulate(counts)]
    fixed = matcore.fix_entry_phase(ops)
    phase, ok = matcore._trace_phase(ops)
    lead = np.zeros(len(ops), dtype=bool)
    lead[bounds[:-1]] = ok[bounds[:-1]]
    np.multiply(ops, np.conj(phase)[:, None, None], out=fixed, where=lead[:, None, None])
    if not np.isfinite(fixed).all():
        raise ValueError("Kraus operators contain non-finite entries")
    return [_unchecked(ops.shape[-1], fixed[start:stop], weights[start:stop])
            for start, stop in zip(bounds, bounds[1:])]


def from_choi(choi: np.ndarray):
    """Canonical Kraus decomposition from the Choi eigendecomposition.

    ``choi`` is a finite d^2 x d^2 matrix (as returned by :func:`to_choi`);
    another shape raises :class:`DimensionMismatch`.  Eigenvalues below
    ``1e-12*d`` are dropped as float noise; an eigenvalue below
    ``-1e-10*max(d, lambda_max)`` raises :class:`NotCP` (for a CPTP map
    lambda_max <= tr C = d).  A spectrum beyond the float range is
    decomposed as that of C/4^256, with the square roots scaled back and
    the weights +inf.  A stack of Choi matrices gives the list of views.
    """
    m = matcore.as_complex_matrix(choi, "choi", stacked=True)
    d = math.isqrt(m.shape[-1])
    if d == 0 or m.shape[-2:] != (d * d, d * d):
        raise DimensionMismatch(
            f"choi must be d^2 x d^2 for some d >= 1, got {m.shape}"
        )
    stack = m.reshape((-1, d * d, d * d))
    floor = CHOI_DROP_TOL * d
    eig = matcore.hermitian_eig(stack, drop_floor=floor)
    vals, vecs = eig.values, eig.vectors
    big = vals[:, 0] == np.inf
    root = np.where(big, 2.0**256, 1.0)  # the square root of the factor each C was divided by
    if big.any():
        eig = matcore.hermitian_eig(stack[big] / 2.0**512, drop_floor=floor / 2.0**512)
        vals[big], vecs[big] = eig.values, eig.vectors
    for i in (vals[:, -1] < -CP_EIG_TOL * np.maximum(d, vals[:, 0])).nonzero()[0][:1]:
        raise NotCP(f"Choi eigenvalue {float(vals[i, -1]) * root[i]**2:.3e} below CP floor")
    keep = vals > (floor / root**2)[:, None]
    counts = keep.sum(axis=1)
    vals, root = vals[keep], root.repeat(counts)
    # each kept column v as the matrix M with col(M) = v
    cols = vecs.swapaxes(1, 2)[keep].reshape(-1, d, d).swapaxes(1, 2)
    ops = (np.sqrt(vals) * root)[:, None, None] * cols
    with np.errstate(over="ignore"):
        weights = vals / d * root**2
    views = _canonical_views(ops, weights, counts.tolist())
    return views if m.ndim > 2 else views[0]


def _gram(k: np.ndarray) -> np.ndarray:
    """The Gram matrix tr(A_i^dag A_j) of a Kraus family, over leading axes."""
    flat = k.reshape(k.shape[:-2] + (-1,))
    return flat.conj() @ flat.swapaxes(-1, -2)


def canonical(ch: KrausChannel) -> KrausChannel:
    """Ordered canonical Kraus decomposition of a channel, as a cached view.

    The view's operators are mutually orthogonal under the Hilbert-Schmidt
    inner product, sorted by descending weight w_i = ||A_i||_2^2 / d and
    phase-fixed (see :func:`_canonical_views`); ``canonical`` of a view is
    the view itself.  Equivalent to ``from_choi(to_choi(ch))``.  A family
    that is already mutually orthogonal (off-diagonal Gram entries below
    ``1e-12*d``) is sorted and phase-fixed directly, which keeps large
    analytic constructions (d > 64) away from the Choi eigensolver; other
    channels above d = 64 are refused.
    """
    if ch._weights is not None:  # ch is a canonical view
        return ch
    if ch._canonical is None:
        _canonicalize([ch])
    return ch._canonical


def _by_shape(kraus, *per_channel) -> list:
    """(indices, stack of ``kraus``, stack of each ``per_channel`` list) per shape of
    the Kraus stacks ``kraus``, one per channel; a group of one is a stack of views.
    Every array ``src/`` holds is C-contiguous, so a stack sums as each of its items."""
    lists = (kraus, *per_channel)
    groups = {}
    for i, k in enumerate(kraus):
        groups.setdefault(k.shape, []).append(i)
    return [(idx, *[x[idx[0]][None] if len(idx) == 1 else np.array([x[i] for i in idx])
                    for x in lists]) for idx in groups.values()]


def _canonicalize(channels) -> list:
    """The canonical views of channels of one dimension, each cached as by
    :func:`canonical` and with the bits of its single call: one stacked Gram
    test per Kraus shape, the orthogonal families sorted and phase-fixed
    together, the others' Choi matrices to one stacked :func:`from_choi`."""
    todo = [ch for ch in dict.fromkeys(channels) if ch._weights is None and ch._canonical is None]
    gram, views, choi, chois = [], [], [], []
    for idx, kraus in _by_shape([ch.kraus for ch in todo]):
        n, k, d = kraus.shape[:3]
        g = _gram(kraus).reshape(n, k * k)  # the diagonal is every (k + 1)-th entry
        off = np.abs(g)  # each |G - diag(G)|: on the diagonal |g| * 0, NaN where not finite
        off[:, ::k + 1] *= 0.0
        orth = (off.max(axis=1) <= GRAM_ORTHO_TOL * d) | (k == 1)
        flags = orth.tolist()
        if not all(flags):
            if d > MAX_EIGENSOLVER_DIM:
                raise DimensionMismatch(
                    f"canonicalization of non-orthogonal Kraus families above d="
                    f"{MAX_EIGENSOLVER_DIM} requires a Choi eigendecomposition that "
                    "is out of range; supply an orthogonal family")
            choi += [todo[i] for i, o in zip(idx, flags) if not o]
            chois.append(_chois(kraus[~orth] if any(flags) else kraus))
        if any(flags):
            rows = orth.nonzero()[0]
            norms2 = g[rows, ::k + 1].real
            order = (-norms2).argsort(axis=1, kind="stable")
            norms2 = norms2[np.arange(len(rows))[:, None], order]
            keep = norms2 > CHOI_DROP_TOL * d  # the stable order of the kept
            counts = keep.sum(axis=1)
            gram += [todo[i] for i, o in zip(idx, flags) if o]
            ops = kraus[rows.repeat(counts), order[keep]]  # one copy
            views += _canonical_views(ops, norms2[keep] / d, counts.tolist())
    if choi:
        views += from_choi(chois[0] if len(chois) == 1 else np.concatenate(chois))
    for ch, view in zip(gram + choi, views):
        ch._canonical = view
    return [c if c._weights is not None else c._canonical for c in channels]


def lk(ch: KrausChannel) -> KrausChannel:
    """Leading-Kraus approximation of a channel: the generally non-TP map
    A_1 . A_1^dag, returned as a one-operator :class:`KrausChannel` that
    holds a copy of the canonical A_1.

    Its Phi and Upsilon are :func:`metrics.phi` and :func:`metrics.upsilon`
    (Upsilon equals w_1), and :func:`compose` multiplies LK maps.  Warns
    when the leading weight w_1 <= 1/2 (catastrophic territory, where
    uniqueness of the LK operator is no longer guaranteed).  A degenerate
    leading weight is reported by ``degenerate_leading``, and
    ``polar.channel_polar(ch, strict=True)`` refuses it.
    """
    canon = canonical(ch)
    if canon.w1 <= 0.5:
        warnings.warn(
            f"leading Kraus weight {canon.w1:.4f} <= 1/2: channel is in "
            "catastrophic territory and the LK operator may not be unique",
            stacklevel=2,
        )
    return KrausChannel(dim=canon.dim, kraus=canon.a1[np.newaxis].copy())


def apply(ch: KrausChannel, rho) -> np.ndarray:
    """Apply the channel: sum_i A_i rho A_i^dag."""
    r = matcore.as_complex_matrix(rho, "rho")
    if r.shape != (ch.dim, ch.dim):
        raise DimensionMismatch(f"rho must be {ch.dim} x {ch.dim}, got {r.shape}")
    k = ch.kraus
    return np.einsum("kij,jl,kml->im", k, r, k.conj())


def compose(channels: Sequence[KrausChannel]) -> KrausChannel:
    """Compose channels in circuit order: index 0 is applied first.

    Product Kraus families are re-canonicalized whenever their size exceeds
    d^2, keeping memory bounded for deep circuits.  The one-circuit case of
    :func:`_compose_circuits`.
    """
    return _compose_circuits([channels])[0]


def _compose_circuits(circuits) -> list:
    """:func:`compose` of each circuit, all of one dimension, in lockstep:
    at each step every circuit that is still deeper takes its next product,
    and the products with more than d^2 operators are re-canonicalized
    together by one :func:`_canonicalize`.  Each result has the bits of its
    single call."""
    if not all(circuits):
        raise DimensionMismatch("need at least one channel")
    if len({c.dim for circuit in circuits for c in circuit}) != 1:
        raise DimensionMismatch("composed channels must share a dimension")
    d = circuits[0][0].dim
    accs = [circuit[0] for circuit in circuits]
    for j in range(1, max(map(len, circuits))):
        step = [i for i, circuit in enumerate(circuits) if j < len(circuit)]
        prods = [np.einsum("aij,bjk->abik", circuits[i][j].kraus, accs[i].kraus) for i in step]
        if not all(np.isfinite(prod).all() for prod in prods):
            raise ValueError("Kraus operators contain non-finite entries")
        for i, prod in zip(step, prods):
            accs[i] = _unchecked(d, prod.reshape(-1, d, d))
        big = [i for i in step if accs[i].n_kraus > d * d]
        for i, view in zip(big, _canonicalize([accs[i] for i in big])):
            accs[i] = view
    return accs


def to_superop(ch: KrausChannel) -> np.ndarray:
    """Column-stacking superoperator matrix sum_i A_i^* (x) A_i, acting on
    ``col(rho)``."""
    d = ch.dim
    s = np.zeros((d * d, d * d), dtype=np.complex128)
    for a in ch.kraus:
        s += np.kron(a.conj(), a)
    return s


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


def _matrix_to_pairs(m: np.ndarray) -> list:
    """Row-major [re, im] pairs of Python floats."""
    flat = np.asarray(m, dtype=np.complex128).ravel()
    return np.stack([flat.real, flat.imag], 1).tolist()


def _pairs_to_matrix(pairs, rows: int, cols: int, name: str) -> np.ndarray:
    arr = np.asarray(pairs, dtype=np.float64)
    if arr.ndim != 2 or arr.shape != (rows * cols, 2):
        raise ValueError(
            f"{name} must be a flat row-major list of {rows * cols} [re, im] pairs"
        )
    # the float64 conversion also reads numeric strings and booleans
    if not set(map(type, itertools.chain.from_iterable(pairs))) <= {int, float}:
        raise ValueError(f"{name} entries must be JSON numbers")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return (arr[:, 0] + 1j * arr[:, 1]).reshape(rows, cols)


def channel_to_json(ch: KrausChannel) -> dict:
    """Serialize a channel to the JSON wire format."""
    return {
        "dim": int(ch.dim),
        "kraus": [_matrix_to_pairs(a) for a in ch.kraus],
    }


# {error text: test} of a JSON input value; type() is int excludes bool, and
# abs() <= the float maximum refuses NaN, +-inf and ints beyond the floats
KINDS = {
    "an integer": lambda v: type(v) is int,
    "an integer >= 0": lambda v: type(v) is int and v >= 0,
    "an integer >= 1": lambda v: type(v) is int and v >= 1,
    "a finite JSON number":
        lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
    "a non-empty string": lambda v: isinstance(v, str) and v != "",
    "a non-empty list": lambda v: isinstance(v, list) and v != [],
    "a JSON object": lambda v: isinstance(v, dict),
}
REQUIRED = object()  # the default of a key that must be present


def read_fields(obj, table: dict, what: str, kinds=KINDS, unread=()) -> dict:
    """Each key of ``table``, ``{key: (kind name in kinds, default)}``, mapped
    to its value in the JSON object ``obj`` or else its default; keys in
    ``unread`` are allowed.  ``ValueError``, naming the key in quotes, for a
    non-object, any other key, a missing ``REQUIRED`` key or a wrong kind."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    for key in obj:
        if key not in table and key not in unread:
            raise ValueError(f"{what} has unknown key '{key}'")
    for key, (kind, default) in table.items():
        if key not in obj and default is REQUIRED:
            raise ValueError(f"{what} needs '{key}'")
        if key in obj and not kinds[kind](obj[key]):
            raise ValueError(f"{what} '{key}' must be {kind}")
    return {key: obj.get(key, default) for key, (_, default) in table.items()}


_CHANNEL_FIELDS = {
    "dim": ("an integer >= 1", REQUIRED),
    "kraus": ("a non-empty list", None),
    "choi": ("a non-empty list", None),
}
_UNITARY_FIELDS = {
    "dim": ("an integer >= 1", REQUIRED),
    "unitary": ("a non-empty list", REQUIRED),
}


def channel_from_json(obj) -> KrausChannel:
    """The channel of a JSON object read against ``_CHANNEL_FIELDS``:
    ``{"dim": d, "kraus": [...]}`` as given, ``{"dim": d, "choi": [...]}``
    as its canonical view (:func:`from_choi` raises :class:`NotCP` for a
    non-CP matrix).  Raises ``ValueError`` on malformed input, including
    both ``kraus`` and ``choi`` or neither."""
    d, ops, choi = read_fields(obj, _CHANNEL_FIELDS, "channel JSON").values()
    if (ops is None) == (choi is None):
        raise ValueError("channel JSON needs exactly one of 'kraus' and 'choi'")
    if choi is not None:
        return from_choi(_pairs_to_matrix(choi, d * d, d * d, "choi"))
    return KrausChannel.from_ops(
        [_pairs_to_matrix(o, d, d, "kraus operator") for o in ops]
    )


def unitary_from_json(obj) -> np.ndarray:
    """The d x d matrix of a JSON object read against ``_UNITARY_FIELDS``,
    ``{"dim": d, "unitary": [...]}`` (``ValueError`` otherwise)."""
    d, pairs = read_fields(obj, _UNITARY_FIELDS, "unitary JSON").values()
    return _pairs_to_matrix(pairs, d, d, "unitary")
