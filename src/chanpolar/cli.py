"""Command-line front end.

Commands: ``decompose``, ``metrics``, ``compose``, ``verify``, ``sweep``.
Data outputs are byte-identical for identical (inputs, flags, seed); every
output *file* is accompanied by a ``<file>.manifest.json`` sidecar carrying
the resolved configuration, seed, wall-clock, and interpretation notes
(the sidecar contains the wall clock and is therefore not byte-stable).

Exit codes: 0 ok, 1 bound violation, 2 an input file or config that
cannot be read (including a family parameter out of range), 3 domain
error (any other ``ChanPolarError``: not CPTP, a composition leaving the
non-catastrophic regime, a dimension out of range), 64 usage error, 70
internal error (an unexpected exception: a defect, reported with its
traceback).  Every command runs through
:func:`main`, which writes the output and its manifest, writes every
error line and is the one place that maps exceptions to these codes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import operator
import sys
import time
import traceback
from dataclasses import fields
from typing import NamedTuple

from . import __version__, channel as chn, genlib, matcore, metrics, polar, suites
from .errors import ChanPolarError, DimensionMismatch, ParamOutOfRange
from .matcore import BoundReport

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_USAGE = 64
EXIT_INTERNAL = 70

# a composition sweep holds every row in memory and steps the d^2 x d^2
# superoperator power one depth at a time.  On a 2-core Xeon a d = 2 sweep
# takes 0.6 s end to end to depth 2*10^4 (10^5: 3.7 s), and a depth costs
# 0.075 ms at d = 8, 1.4 ms at d = 16 and 0.05 s at d = 32, where building
# the superoperator of a d^2-operator family takes 4 s (it grows as d^6).  So
# with the dim cap at 16, 10^5 keeps one run to minutes where 10^6 (its angle
# prefix sums are quadratic in depth) or d = 32 would take hours.
MAX_SWEEP_DEPTH = 10**5
_MAX_SWEEP_DIM = 16


class _UsageError(Exception):
    pass


class _ParseError(Exception):
    """An input file or config that cannot be read."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _Result(NamedTuple):
    """What a command handler returns to :func:`main`."""

    payload: str
    config: dict
    seed: int | None = None
    notes: tuple = ()
    code: int = EXIT_OK
    error: str | None = None  # the detail of a domain error found mid-run


def _error_json(kind: str, detail: str):
    sys.stderr.write(json.dumps({"error": kind, "detail": detail}) + "\n")


@contextlib.contextmanager
def _reading(path: str):
    """Re-raise what reading ``path`` raises as :class:`_ParseError`.

    A ``ParamOutOfRange`` from a family spec counts as unreadable input;
    every other ``ChanPolarError`` passes through, its message prefixed with ``path``.
    ``OSError`` is an unreadable file, ``ValueError`` bad JSON or a field
    its table refuses, ``TypeError`` a matrix entry that is an object,
    ``OverflowError`` an integer entry beyond the float range or a family
    ``dim`` beyond the index range and ``RecursionError`` JSON nested too deep.
    """
    try:
        yield
    except ParamOutOfRange as exc:
        raise _ParseError(str(exc)) from exc
    except ChanPolarError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
    except (OSError, ValueError, TypeError, OverflowError, RecursionError) as exc:
        raise _ParseError(f"cannot parse {path}: {exc}") from exc


def _read(path: str, parse=lambda obj: obj):
    """``parse`` applied to the JSON content of ``path``."""
    with _reading(path), open(path, "r", encoding="utf-8") as fh:
        return parse(json.load(fh))


def _load_channel(path: str) -> chn.KrausChannel:
    """A CPTP channel from a Kraus or Choi file, its operators within the float range."""
    ch = _read(path, chn.channel_from_json)
    with _reading(path):
        matcore._require_in_range(ch.kraus, ("kraus operator",))
    val = chn.validate_cptp(ch)
    if not val.ok:
        raise ChanPolarError(
            f"{path} is not CPTP (cp_slack={val.cp_slack:.3e}, "
            f"tp_slack={val.tp_slack:.3e})"
        )
    return ch


def _load_target(path: str | None):
    return None if path is None else _read(path, chn.unitary_from_json)


def _finite(text: str) -> float:
    """argparse type of ``--kappa``: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type of ``--seed``: an integer >= 0 (digits only)."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _dims(text: str) -> tuple:
    """argparse type of ``--dims``: distinct comma-separated integers in [2, 64]
    (random channels above d = 64 would need a refused Choi eigensolve)."""
    try:
        dims = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if not all(2 <= d <= chn.MAX_EIGENSOLVER_DIM for d in dims):
        raise argparse.ArgumentTypeError(
            f"each dimension must lie in [2, {chn.MAX_EIGENSOLVER_DIM}], got {text!r}"
        )
    if len(set(dims)) < len(dims):
        raise argparse.ArgumentTypeError(f"a dimension is repeated in {text!r}")
    return dims


def _write_manifest(out_path: str, command: str, config: dict, seed, notes, t0: float):
    manifest = {
        "tool": "chanpolar",
        "version": __version__,
        "command": command,
        "config": config,
        "seed": seed,
        "wallclock_s": time.time() - t0,
        "notes": list(notes),
    }
    with open(out_path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _csv(header, formats, rows) -> str:
    """CSV text of a header row and rows of cells filling the columns'
    %-formats: csv.writer's bytes, as no cell the program writes needs CSV
    quoting (none holds ',', '"', CR or LF, and no table is one str column)."""
    line = ",".join(formats) + "\n"
    return ",".join(header) + "\n" + "".join(map(line.__mod__, rows))


# {declared field type: (%-format, column conversion)}: a str as is, a bool
# as 1 or 0, an int in decimal, a float in 17 significant digits
_COLUMN_FORMATS = {
    "str": ("%s", str),
    "bool": ("%d", bool),
    "int": ("%d", int),
    "float": ("%.17g", float),
}


def _column_formats(record_type, columns):
    """Each named column's (%-format, conversion), by its field's declared type
    (str, bool, int or float)."""
    kinds = {f.name: getattr(f.type, "__name__", f.type) for f in fields(record_type)}
    return zip(*(_COLUMN_FORMATS[kinds[c]] for c in columns))


def _records_csv(record_type, columns, records) -> str:
    """CSV text with one row per record, each cell the named field's value.

    Each column's format is picked once, by :func:`_column_formats`, and the
    rows are formatted lazily as the text is joined, never as a whole table
    of cells."""
    formats, convs = _column_formats(record_type, columns)
    cols = (map(conv, map(operator.attrgetter(c), records)) for c, conv in zip(columns, convs))
    return _csv(columns, formats, zip(*cols))


def _emit(payload: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


# ---------------------------------------------------------------------------
# decompose / metrics
# ---------------------------------------------------------------------------


def _decompose_report(ch: chn.KrausChannel, target, kappa: float, strict: bool) -> dict:
    canon = chn.canonical(ch)
    pol = polar.channel_polar(ch, strict=strict)
    try:
        eq_rep = polar.equability(ch, kappa)
        eq = {f.name: getattr(eq_rep, f.name) for f in fields(eq_rep)
              if not f.name.endswith("_threshold")}
        eq["sigma"], eq["lambda_re"] = eq_rep.sigma.tolist(), eq_rep.lambda_re.tolist()
    except ChanPolarError as exc:
        eq = {"error": str(exc), "kappa": kappa}
    rep = metrics.report(ch, target)
    split = polar.infidelity_split(ch, target)
    cls = polar.classify(ch, target, kappa)
    return {
        "dim": ch.dim,
        "canonical_kraus": [chn._matrix_to_pairs(a) for a in canon.kraus],
        "weights": [float(w) for w in canon.weights],
        "degenerate_leading": canon.degenerate_leading,
        "lk": {"a1": chn._matrix_to_pairs(canon.a1), "weight": canon.w1},
        "polar": {
            "unitary": chn._matrix_to_pairs(pol.unitary),
            "psd": chn._matrix_to_pairs(pol.psd),
            "phase_fixed": pol.phase_fixed,
            "unique": pol.unique,
            "singular_values": [float(s) for s in pol.singular_values],
        },
        "decoherent": cls.decoherent,
        "equability": eq,
        "metrics": rep.as_dict(),
        "infidelity_split": split.as_dict(),
        "classification": cls.as_dict(),
    }


def _cmd_decompose(args) -> _Result:
    ch = _load_channel(args.infile)
    report = _decompose_report(
        ch, _load_target(args.target), args.kappa, args.strict_lk
    )
    return _Result(
        json.dumps(report, indent=2) + "\n",
        {"in": args.infile, "target": args.target, "kappa": args.kappa,
         "strict_lk": args.strict_lk},
    )


def _cmd_metrics(args) -> _Result:
    rep = metrics.report(_load_channel(args.infile), _load_target(args.target))
    return _Result(
        json.dumps(rep.as_dict(), indent=2) + "\n",
        {"in": args.infile, "target": args.target},
    )


def _cmd_compose(args) -> _Result:
    chans = [_load_channel(p) for p in args.infile]
    composed = chn.canonical(chn.compose(chans))
    return _Result(
        json.dumps(chn.channel_to_json(composed), indent=2) + "\n",
        {"in": list(args.infile)},
    )


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# every field of the record except the itemized terms and the flag
_VERIFY_COLUMNS = tuple(
    f.name for f in fields(BoundReport) if f.name not in ("terms", "hot_truncated")
)


def _cmd_verify(args) -> _Result:
    if args.trials < 1:
        raise _UsageError("--trials must be >= 1")
    cases = suites.run_suite(
        args.suite, dims=args.dims, trials=args.trials, seed=args.seed
    )
    caps = suites.DIM_CAPS.items() if args.suite in ("theorems", "all") else ()
    if not cases:
        raise _UsageError(
            f"--suite {args.suite} selects no case at --dims "
            f"{','.join(map(str, args.dims))}: its "
            + " and ".join(f"{name} cases run only at d <= {cap}" for name, cap in caps)
        )
    n_fail = sum(1 for c in cases if not c.holds)
    sys.stderr.write(f"verify {args.suite}: {len(cases)} cases, {n_fail} violations\n")
    return _Result(
        _records_csv(BoundReport, _VERIFY_COLUMNS, cases),
        {"suite": args.suite, "dims": args.dims, "trials": args.trials},
        args.seed,
        notes=tuple(f"the {name} cases skip d = {d}: they run only at d <= {cap}"
                    for name, cap in caps for d in args.dims or () if d > cap),
        code=EXIT_OK if n_fail == 0 else EXIT_VIOLATION,
    )


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_SWEEP_COLUMNS = tuple(f.name for f in fields(suites.SweepRow))
# the summary row's columns are the profile's fields after the spectrum
_PROFILE_SUMMARY = tuple(f.name for f in fields(suites.SigmaProfile) if f.name != "sigma")
_PROFILE_COLUMNS = ("row_type", "index", "value") + _PROFILE_SUMMARY

_FIG3_NOTE = (
    "coherence_mix 'infidelity' is the average infidelity r = 1 - F of the "
    "element; figure-style captions quoting a decoherent-factor process "
    "fidelity of 1e-4 are interpreted as infidelity 1 - Phi = 1e-4 (a "
    "literal Phi of 1e-4 would be catastrophic)."
)


# {key: (kind, default)} read in both modes, then the keys of each mode; a
# key of the other mode is not read, and the manifest notes it
_SWEEP_FIELDS = {
    "mode": ("'composition' or 'sigma_profile'", "composition"),
    "family": ("a JSON object", chn.REQUIRED),
    "out": ("a non-empty string", None),
}
_MODE_FIELDS = {
    "composition": {"max_depth": (f"an integer in [1, {MAX_SWEEP_DEPTH}]", 1),
                    "metrics": ("a list of sweep column names", None)},
    "sigma_profile": {"kappa": ("a finite JSON number", polar.DEFAULT_KAPPA)},
}
_MODE_KEYS = {key for table in _MODE_FIELDS.values() for key in table}
_SWEEP_KINDS = {
    **chn.KINDS,
    "'composition' or 'sigma_profile'":
        lambda v: isinstance(v, str) and v in _MODE_FIELDS,
    f"an integer in [1, {MAX_SWEEP_DEPTH}]":
        lambda v: type(v) is int and 1 <= v <= MAX_SWEEP_DEPTH,
    "a list of sweep column names":
        lambda v: isinstance(v, list) and all(c in _SWEEP_COLUMNS for c in v),
}


def _cmd_sweep(args) -> _Result:
    cfg = _read(args.config)
    with _reading(args.config):
        mode = chn.read_fields(
            cfg, _SWEEP_FIELDS, "sweep config", _SWEEP_KINDS, _MODE_KEYS
        )["mode"]
        table = {**_SWEEP_FIELDS, **_MODE_FIELDS[mode]}
        unread = sorted(_MODE_KEYS.intersection(cfg).difference(table))
        val = chn.read_fields(cfg, table, "sweep config", _SWEEP_KINDS, unread)
        fam = genlib.FamilySpec.from_dict(val["family"])
        if args.seed is not None:
            fam.seed = args.seed
        element = genlib.make_channel(fam)
    # after the family's own checks, so that a parameter out of range stays
    # a parse error; before the superoperator and the rows
    if mode == "composition" and element.dim > _MAX_SWEEP_DIM:
        raise DimensionMismatch(
            f"a composition sweep runs at family dim <= {_MAX_SWEEP_DIM}, "
            f"got {element.dim}"
        )
    args.out = args.out or val["out"]
    notes = (_FIG3_NOTE,) if fam.family == "coherence_mix" else ()
    notes += tuple(f"sweep config '{key}' is not read in {mode} mode" for key in unread)
    if mode == "sigma_profile":
        prof = suites.sigma_profile(
            element, args.kappa if args.kappa is not None else float(val["kappa"])
        )
        cells = zip(*_column_formats(suites.SigmaProfile, _PROFILE_SUMMARY), _PROFILE_SUMMARY)
        summary = [fmt % conv(getattr(prof, c)) for fmt, conv, c in cells]
        table = [("sigma", str(i), "%.17g" % x) + ("",) * len(summary)
                 for i, x in enumerate(prof.sigma)]
        table.append(("summary", "", "", *summary))  # no cell needs csv quotes
        payload = _csv(_PROFILE_COLUMNS, ("%s",) * len(_PROFILE_COLUMNS), table)
        return _Result(payload, cfg, fam.seed, notes)
    rows = suites.composition_sweep(element, val["max_depth"])
    columns = _SWEEP_COLUMNS
    if val["metrics"] is not None:  # depth, then the named columns in table order
        columns = tuple(c for c in columns if c == "depth" or c in val["metrics"])
    payload = _records_csv(suites.SweepRow, columns, rows)
    if all(r.non_catastrophic for r in rows):
        return _Result(payload, cfg, fam.seed, notes)
    return _Result(payload, cfg, fam.seed, notes, EXIT_DOMAIN,
                   "composition left the non-catastrophic regime mid-sweep")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="chanpolar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="canonical Kraus / LK / polar report")
    p_dec.add_argument("--in", dest="infile", required=True, metavar="PATH")
    p_dec.add_argument("--target", default=None, metavar="PATH")
    p_dec.add_argument("--kappa", type=_finite, default=polar.DEFAULT_KAPPA)
    p_dec.add_argument("--strict-lk", action="store_true", dest="strict_lk")

    p_met = sub.add_parser("metrics", help="figures-of-merit report")
    p_met.add_argument("--in", dest="infile", required=True, metavar="PATH")
    p_met.add_argument("--target", default=None, metavar="PATH")

    p_comp = sub.add_parser("compose", help="compose channel files in order")
    p_comp.add_argument(
        "--in", dest="infile", required=True, action="append", metavar="PATH"
    )

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", choices=suites.SUITES, default="all")
    p_ver.add_argument(
        "--dim", "--dims", dest="dims", type=_dims, default=None,
        help=f"comma-separated dimensions in [2, {chn.MAX_EIGENSOLVER_DIM}]",
    )
    p_ver.add_argument("--trials", type=int, default=100)
    p_ver.add_argument("--seed", type=_seed, default=0)

    p_sw = sub.add_parser("sweep", help="composition / profile sweep from a config")
    p_sw.add_argument("--config", required=True, metavar="PATH")
    p_sw.add_argument("--seed", type=_seed, default=None, help="override config seed")
    p_sw.add_argument("--kappa", type=_finite, default=None, help="override config kappa")
    for p in sub.choices.values():  # main writes every command's output
        p.add_argument("--out", default=None, metavar="PATH")
    return parser


_PARSER = _build_parser()  # built once: parse_args reads it and fills a new namespace
_COMMANDS = {
    "decompose": _cmd_decompose,
    "metrics": _cmd_metrics,
    "compose": _cmd_compose,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    """Run one command: write its output (and the manifest sidecar when the
    output is a file) and any error it returns, and map any exception to its
    exit code and error line."""
    t0 = time.time()
    try:
        args = _PARSER.parse_args(argv)
        res = _COMMANDS[args.command](args)
        if res.error is not None:
            _error_json("domain", res.error)
        _emit(res.payload, args.out)
        if args.out:
            _write_manifest(args.out, args.command, res.config, res.seed, res.notes, t0)
        return res.code
    except _UsageError as exc:
        _error_json("usage", str(exc))
        return EXIT_USAGE
    except _ParseError as exc:
        _error_json("parse", str(exc))
        return EXIT_PARSE
    except ChanPolarError as exc:
        _error_json("domain", str(exc))
        return EXIT_DOMAIN
    except Exception as exc:  # a defect: keep the traceback, exit distinctly
        traceback.print_exc()
        _error_json("internal", f"{type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
