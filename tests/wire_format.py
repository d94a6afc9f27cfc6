"""Writers of the Choi and unitary variants of the JSON wire format, used
by the tests to make input files (``chanpolar`` itself only reads them), and
the per-cell reference route of the CSV outputs."""

import csv
import io
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


def fmt_cell(x) -> str:
    """CSV cell: a string as is, a bool as 1 or 0, an integer in decimal, any
    other number in fixed 17-significant-digit decimal rendering."""
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def per_cell_csv(columns, records) -> str:
    """CSV text of the records' named fields, one :func:`fmt_cell` call per cell
    written by ``csv.writer``: the reference for the program's CSV writers."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([fmt_cell(getattr(r, c)) for c in columns] for r in records)
    return buf.getvalue()
