"""Deterministic, seeded construction of the named channel families.

Every generator returns a valid CPTP :class:`~chanpolar.channel.KrausChannel`
and is reproducible from its seed.  Families are also reachable through the
JSON-friendly :class:`FamilySpec` / :func:`make_channel` pair used by the
CLI, which looks each family up in the one :data:`BUILDERS` table.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from . import channel as chn
from . import matcore
from . import polar as polar_mod
from .errors import ParamOutOfRange


def _require(cond: bool, msg: str):
    if not cond:
        raise ParamOutOfRange(msg)


def random_unitary(d: int, seed) -> np.ndarray:
    """Haar-random unitary: QR of a complex Ginibre matrix with the
    phase-of-diagonal correction."""
    _require(d >= 1, "dimension must be >= 1")
    return _haar_unitaries(d, [seed])[0]


def _haar_unitaries(d: int, seeds) -> np.ndarray:
    """The :func:`random_unitary` of each seed, from one stacked QR."""
    z = np.array([(r.standard_normal((d, d)) + 1j * r.standard_normal((d, d))) / np.sqrt(2.0)
                  for r in map(np.random.default_rng, seeds)]).reshape(-1, d, d)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


# ---------------------------------------------------------------------------
# operator bases
# ---------------------------------------------------------------------------


def weyl_ops(d: int) -> list[np.ndarray]:
    """The d^2 Heisenberg-Weyl unitaries X^a Z^b (orthogonal basis)."""
    _require(d >= 1, "dimension must be >= 1")
    omega = np.exp(2j * np.pi / d)
    shift = np.zeros((d, d), dtype=np.complex128)
    for j in range(d):
        shift[(j + 1) % d, j] = 1.0
    clock = np.diag(omega ** np.arange(d))
    ops = []
    xa = np.eye(d, dtype=np.complex128)
    for _ in range(d):
        zb = np.eye(d, dtype=np.complex128)
        for _ in range(d):
            ops.append(xa @ zb)
            zb = zb @ clock
        xa = xa @ shift
    return ops


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------


def identity_channel(d: int) -> chn.KrausChannel:
    _require(d >= 1, "dimension must be >= 1")
    return chn.KrausChannel(dim=d, kraus=np.eye(d, dtype=np.complex128)[np.newaxis])


def depolarizing(d: int, p: float) -> chn.KrausChannel:
    """rho -> p rho + (1-p) tr(rho) I/d, in the Weyl Kraus form with
    weights c_0 = p + (1-p)/d^2 on the identity and (1-p)/d^2 elsewhere."""
    _require(0.0 <= p <= 1.0, "depolarizing p must be in [0, 1]")
    ops = weyl_ops(d)
    c0 = p + (1.0 - p) / d**2
    c = (1.0 - p) / d**2
    kraus = [np.sqrt(c0) * ops[0]] + [np.sqrt(c) * w for w in ops[1:]]
    return chn.KrausChannel.from_ops(kraus)


def dephasing(d: int, q: float) -> chn.KrausChannel:
    """rho -> (1-q) rho + q/(d-1) sum_k Z^k rho Z^-k over the clock powers;
    for d = 2 this is the standard (1-q) rho + q Z rho Z dephasing."""
    _require(0.0 <= q <= 0.5, "dephasing q must be in [0, 1/2]")
    _require(d >= 2, "dephasing needs d >= 2")
    omega = np.exp(2j * np.pi / d)
    clock = np.diag(omega ** np.arange(d))
    kraus = [np.sqrt(1.0 - q) * np.eye(d, dtype=np.complex128)]
    zb = np.eye(d, dtype=np.complex128)
    for _ in range(d - 1):
        zb = zb @ clock
        kraus.append(np.sqrt(q / (d - 1)) * zb)
    return chn.KrausChannel.from_ops(kraus)


def stochastic_weyl(d: int, p: float, seed) -> chn.KrausChannel:
    """Stochastic channel: identity with weight p, the remaining 1-p split
    randomly (seeded) over the other Weyl unitaries.  p > 1/2 keeps the
    identity component leading."""
    _require(0.5 < p <= 1.0, "stochastic_weyl p must be in (1/2, 1]")
    _require(d >= 2, "stochastic_weyl needs d >= 2")
    rng = np.random.default_rng(seed)
    ops = weyl_ops(d)
    raw = rng.random(d * d - 1)
    raw = raw / raw.sum() * (1.0 - p)
    kraus = [np.sqrt(p) * ops[0]] + [
        np.sqrt(w) * op for w, op in zip(raw, ops[1:])
    ]
    return chn.KrausChannel.from_ops(kraus)


def amplitude_damping(d: int, gamma: float) -> chn.KrausChannel:
    """Decay of every excited level into the ground state.

    For d = 2 this is the textbook channel with Kraus operators
    diag(1, sqrt(1-gamma)) and sqrt(gamma) |0><1|.
    """
    _require(0.0 <= gamma <= 1.0, "amplitude damping gamma must be in [0, 1]")
    _require(d >= 2, "amplitude damping needs d >= 2")
    a1 = np.diag([1.0] + [np.sqrt(1.0 - gamma)] * (d - 1)).astype(np.complex128)
    kraus = [a1]
    for i in range(1, d):
        b = np.zeros((d, d), dtype=np.complex128)
        b[0, i] = np.sqrt(gamma)
        kraus.append(b)
    return chn.KrausChannel.from_ops(kraus)


def rotation_matrix(d: int, theta: float) -> np.ndarray:
    """R(theta) (x) I_{d/2} for even d, R(theta) (+) I_{d-2} for odd d."""
    _require(-np.pi < theta <= np.pi, "rotation theta must be in (-pi, pi]")
    _require(d >= 2, "rotation needs d >= 2")
    r = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
        dtype=np.complex128,
    )
    if d == 2:
        return r
    if d % 2 == 0:
        return np.kron(r, np.eye(d // 2, dtype=np.complex128))
    out = np.eye(d, dtype=np.complex128)
    out[:2, :2] = r
    return out


def rotation(d: int, theta: float) -> chn.KrausChannel:
    """Coherent over-rotation error channel (single unitary Kraus)."""
    return chn.KrausChannel(dim=d, kraus=rotation_matrix(d, theta)[np.newaxis])


def _gue_eig(n: int, seeds) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of the n x n GUE draw H of each seed (real then
    imaginary normals of the seeded stream), normalized to unit spectral
    radius; one stacked solver call for all seeds."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    g = np.stack([r.standard_normal((n, n)) + 1j * r.standard_normal((n, n)) for r in rngs])
    h = (g + np.conj(g).swapaxes(-1, -2)) / 2.0
    top = np.abs(np.linalg.eigvalsh(h)).max(axis=-1)[:, None, None]
    np.divide(h, top, out=h, where=top > 0)
    return np.linalg.eigh(h)


def random_unitary_error(d: int, strength: float, seed) -> chn.KrausChannel:
    """exp(-i strength H) with H a seeded GUE draw normalized to unit
    spectral radius; strength is then the largest rotation angle."""
    return random_cptp(d, 1, seed, strength=strength)


def _near_identity_kraus(d: int, k: int, eig, strengths) -> np.ndarray:
    """The (N, k, d, d) Kraus stacks of ``random_cptp(d, k, seed, strength)`` of N
    seeds' ``_gue_eig(d * k, seeds)`` and N strengths, one stacked exponential."""
    _require(bool((np.asarray(strengths) >= 0.0).all()), "strength must be non-negative")
    iso = matcore._expi_eig(*eig, -np.asarray(strengths))[..., :d]
    return iso.reshape(len(iso), k, d, d).copy()


def random_cptp(
    d: int, kraus_rank: int, seed, strength: float | None = None
) -> chn.KrausChannel:
    """Random CPTP channel carved from an isometry into d * kraus_rank.

    With ``strength=None`` the isometry is a block of a Haar unitary; with
    a strength the isometry is exp(-i strength H) J for a normalized GUE
    generator H and the embedding J, which produces a channel close to the
    identity (exactly the identity at strength 0).  TP holds exactly by
    construction.  The isometry's size d * kraus_rank is capped at
    ``MAX_EIGENSOLVER_DIM^2``, the size of the largest Choi matrix that
    :func:`~chanpolar.channel.canonical` decomposes.
    """
    _require(1 <= kraus_rank <= d * d, "kraus_rank must be in [1, d^2]")
    n = d * kraus_rank
    _require(n <= chn.MAX_EIGENSOLVER_DIM**2,
             f"d * kraus_rank must be at most {chn.MAX_EIGENSOLVER_DIM**2}")
    if strength is not None:
        kraus = _near_identity_kraus(d, kraus_rank, _gue_eig(n, [seed]), [strength])[0]
        return chn.KrausChannel(dim=d, kraus=kraus)
    iso = random_unitary(n, seed)[:, :d]
    return chn.KrausChannel(dim=d, kraus=iso.reshape(kraus_rank, d, d).copy())


def psd_lk_decoherent(
    d: int, strength: float, seed, kraus_rank: int = 3
) -> chn.KrausChannel:
    """Random decoherent channel: the left decoherent polar factor of a
    near-identity random CPTP draw (its LK operator is PSD by
    construction)."""
    _require(0.0 < strength <= 0.3, "strength must be in (0, 0.3]")
    ch = random_cptp(d, kraus_rank, seed, strength=strength)
    return polar_mod.channel_polar(ch).decoherent_left


def extremal_dephaser(
    d: int,
    base_scale: float | None = None,
    n_outliers: int | None = None,
    outlier_depth: float | None = None,
    seed=None,
) -> chn.KrausChannel:
    """Channel whose LK singular-value profile has far-outlying dips.

    Called with no profile parameters it builds the exact projector form:
    Kraus {P, |0><0|} with P = sum_{i>0} |i><i|, whose LK operator is
    diag(0, 1, ..., 1) (the completion by the complementary projector is a
    choice; only the LK operator is pinned down).  This form is analytic:
    the Kraus family is orthogonal by construction, so no Choi
    eigendecomposition is ever needed and arbitrary d (e.g. 1024) is fine.

    With profile parameters it draws sigma_i = 1 - |N(0, base_scale^2)|
    and sinks ``n_outliers`` randomly chosen entries to
    1 - outlier_depth (10% jitter), then completes {diag(sigma)} with the
    ladder operators sqrt(1 - sigma_i^2) |i+1 mod d><i|, again orthogonal
    by construction.
    """
    _require(d >= 2, "extremal dephaser needs d >= 2")
    if base_scale is None and n_outliers is None and outlier_depth is None:
        a1 = np.diag([0.0] + [1.0] * (d - 1)).astype(np.complex128)
        b = np.zeros((d, d), dtype=np.complex128)
        b[0, 0] = 1.0
        return chn.KrausChannel.from_ops([a1, b])
    _require(
        base_scale is not None and n_outliers is not None and outlier_depth is not None,
        "randomized extremal dephaser needs base_scale, n_outliers and outlier_depth",
    )
    _require(0.0 < base_scale < 0.1, "base_scale must be in (0, 0.1)")
    _require(0 < n_outliers < d, "n_outliers must be in (0, d)")
    _require(
        base_scale < outlier_depth <= 0.5, "outlier_depth must be in (base_scale, 0.5]"
    )
    rng = np.random.default_rng(seed)
    sigma = 1.0 - np.abs(rng.standard_normal(d)) * base_scale
    pos = rng.choice(d, size=n_outliers, replace=False)
    sigma[pos] = 1.0 - outlier_depth * (1.0 + 0.1 * rng.random(n_outliers))
    sigma = np.clip(sigma, 0.0, 1.0)
    kraus = [np.diag(sigma).astype(np.complex128)]
    for i in range(d):
        t2 = 1.0 - sigma[i] ** 2
        if t2 > 1e-30:
            b = np.zeros((d, d), dtype=np.complex128)
            b[(i + 1) % d, i] = np.sqrt(t2)
            kraus.append(b)
    return chn.KrausChannel.from_ops(kraus)


def extremal_unitary(d: int) -> chn.KrausChannel:
    """Unitary error -|0><0| + sum_{i>0} |i><i| (one eigenvalue flipped)."""
    _require(d >= 2, "extremal unitary needs d >= 2")
    v = np.diag([-1.0] + [1.0] * (d - 1)).astype(np.complex128)
    return chn.KrausChannel(dim=d, kraus=v[np.newaxis])


def spiral(alpha: float, d: int = 3) -> chn.KrausChannel:
    """The two-Kraus channel at d = 3 (the only ``d`` accepted) whose unital action
    spirals: its polar unitary carries a lone conjugate phase pair exp(+/- i alpha^3 / 2)."""
    _require(d == 3, "spiral is a d = 3 construction")
    _require(0.0 < alpha < np.pi / 2, "spiral alpha must be in (0, pi/2)")
    ph = np.exp(1j * alpha**3 / 2.0)
    a1 = np.diag(
        [np.cos(alpha), np.cos(alpha / 2.0) * ph, np.cos(alpha / 2.0) * np.conj(ph)]
    )
    ph2 = np.exp(1j * (alpha + alpha**3 / 2.0))
    a2 = np.diag(
        [
            np.sin(alpha),
            -np.sin(alpha / 2.0) * ph2,
            -np.sin(alpha / 2.0) * np.conj(ph2),
        ]
    )
    return chn.KrausChannel.from_ops([a1, a2])


def coherence_mix_params(infidelity: float, level: float) -> dict:
    """Rotation angle and dephasing rate realizing a d = 2 channel with the
    requested average infidelity r and coherence level r_coh / r.

    Closed forms for the R(theta) o dephasing(q) family:
    Phi = (1-q) cos^2(theta), r = (2/3)(1 - Phi), r_coh = (2/3)(1 - cos^2),
    r_decoh = (2/3) q.
    """
    _require(0.0 < infidelity < 1.0 / 3.0, "infidelity must be in (0, 1/3)")
    _require(0.0 <= level <= 1.0, "coherence level must be in [0, 1]")
    cos2 = 1.0 - 1.5 * level * infidelity
    q = 1.0 - (1.0 - 1.5 * infidelity) / cos2  # cos2 <= 1, so q <= 1.5 r < 1/2
    theta = float(np.arccos(np.sqrt(cos2)))
    return {"theta": theta, "q": float(q)}


def coherence_mix(infidelity: float, level: float, d: int = 2) -> chn.KrausChannel:
    """d = 2 channel V o D with target infidelity r and coherence level
    r_coh / r = level, built from the closed forms of the
    rotation-after-dephasing family."""
    _require(d == 2, "coherence_mix is a d = 2 construction")
    p = coherence_mix_params(infidelity, level)
    r = rotation_matrix(2, p["theta"])
    deph = dephasing(2, p["q"])
    kraus = np.einsum("ij,kjl->kil", r, deph.kraus)
    return chn.KrausChannel(dim=2, kraus=kraus)


# ---------------------------------------------------------------------------
# the family registry
# ---------------------------------------------------------------------------


# {family name: builder}; a family's params are its builder's parameters
BUILDERS = {
    "identity": identity_channel,
    "depolarizing": depolarizing,
    "dephasing": dephasing,
    "stochastic_weyl": stochastic_weyl,
    "amplitude_damping": amplitude_damping,
    "rotation": rotation,
    "random_unitary_error": random_unitary_error,
    "random_cptp": random_cptp,
    "psd_lk_decoherent": psd_lk_decoherent,
    "extremal_dephaser": extremal_dephaser,
    "extremal_unitary": extremal_unitary,
    "spiral": spiral,
    "coherence_mix": coherence_mix,
}
FAMILIES = tuple(BUILDERS)

# a family's dimension is capped at the Choi eigensolver's limit, as verify --dims is
_DIM_KIND = f"an integer in [1, {chn.MAX_EIGENSOLVER_DIM}]"
_SPEC_KINDS = {
    **chn.KINDS,
    "a family name": lambda v: isinstance(v, str) and v in FAMILIES,
    _DIM_KIND: lambda v: type(v) is int and 1 <= v <= chn.MAX_EIGENSOLVER_DIM,
}
_SPEC_FIELDS = {
    "family": ("a family name", chn.REQUIRED),
    "dim": (_DIM_KIND, chn.REQUIRED),
    "params": ("a JSON object", {}),
    "seed": ("an integer >= 0", None),
}


@dataclass
class FamilySpec:
    """JSON-friendly description of a channel family instance."""

    family: str
    dim: int
    params: dict = field(default_factory=dict)
    seed: int | None = None

    @classmethod
    def from_dict(cls, obj) -> "FamilySpec":
        """The spec of a JSON object read against ``_SPEC_FIELDS``
        (:class:`ParseError` otherwise); :func:`make_channel` reads its params."""
        fields = chn.read_fields(obj, _SPEC_FIELDS, "family spec", _SPEC_KINDS)
        return cls(**dict(fields, params=dict(fields["params"])))


def _params_table(build) -> dict:
    """The field table of a builder's parameters but ``d`` and ``seed``: an
    integer where annotated ``int``, else a finite number; defaulted ones optional."""
    return {
        p.name: (
            "an integer" if p.annotation.startswith("int") else "a finite JSON number",
            chn.REQUIRED if p.default is p.empty else p.default,
        )
        for p in inspect.signature(build).parameters.values()
        if p.name not in ("d", "seed")
    }


def make_channel(spec: FamilySpec) -> chn.KrausChannel:
    """The family's builder called by keyword: ``d=spec.dim``, the params read
    against its :func:`_params_table` and, if it takes one, ``seed=spec.seed``."""
    build = BUILDERS.get(spec.family)
    _require(build is not None, f"unknown family '{spec.family}'")
    kwargs = chn.read_fields(
        spec.params, _params_table(build), f"family '{spec.family}' params"
    )
    if "seed" in inspect.signature(build).parameters:
        kwargs["seed"] = spec.seed
    return build(d=spec.dim, **kwargs)
