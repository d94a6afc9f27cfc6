"""Writers of the Choi and unitary variants of the JSON wire format, used
by the tests to make input files (``chanpolar`` itself only reads them)."""

import math

import numpy as np

from chanpolar import channel as chn


def choi_to_json(choi: np.ndarray) -> dict:
    """Serialize a d^2 x d^2 Choi matrix to the Choi variant of the wire format."""
    return {"dim": math.isqrt(choi.shape[0]), "choi": chn._matrix_to_pairs(choi)}


def unitary_to_json(u: np.ndarray) -> dict:
    """Serialize a d x d unitary to the unitary-target wire format."""
    u = np.asarray(u, dtype=np.complex128)
    return {"dim": int(u.shape[0]), "unitary": chn._matrix_to_pairs(u)}
