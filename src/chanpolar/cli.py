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
:func:`main`, which writes the output and its manifest and is the one
place that maps exceptions to these codes.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys
import time
import traceback
from typing import NamedTuple

import numpy as np

from . import __version__, channel as chn, genlib, metrics, polar, suites
from .errors import ChanPolarError, ParamOutOfRange

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_USAGE = 64
EXIT_INTERNAL = 70


def _fmt(x) -> str:
    """Fixed 17-significant-digit decimal rendering for CSV cells."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


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


def _error_json(kind: str, detail: str):
    sys.stderr.write(json.dumps({"error": kind, "detail": detail}) + "\n")


@contextlib.contextmanager
def _reading(path: str):
    """Re-raise what reading ``path`` raises as :class:`_ParseError`.

    A ``ParamOutOfRange`` from a family spec counts as unreadable input;
    every other ``ChanPolarError`` passes through as a domain error.
    """
    try:
        yield
    except ParamOutOfRange as exc:
        raise _ParseError(str(exc)) from exc
    except ChanPolarError:
        raise
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise _ParseError(f"cannot parse {path}: {exc}") from exc


def _read(path: str, parse=lambda obj: obj):
    """``parse`` applied to the JSON content of ``path``."""
    with _reading(path), open(path, "r", encoding="utf-8") as fh:
        return parse(json.load(fh))


def _load_channel(path: str) -> chn.KrausChannel:
    """A CPTP channel from a Kraus or Choi file."""
    ch = _read(path, chn.channel_from_json)
    if isinstance(ch, chn.ChoiMatrix):
        ch = chn.from_choi(ch)
    val = chn.validate_cptp(ch)
    if not val.ok:
        raise ChanPolarError(
            f"{path} is not CPTP (cp_slack={val.cp_slack:.3e}, "
            f"tp_slack={val.tp_slack:.3e})"
        )
    return ch


def _load_target(path: str | None):
    return None if path is None else _read(path, chn.unitary_from_json)


def _dims(text: str) -> tuple:
    """argparse type of ``--dims``: comma-separated integers in [2, 64]
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


def _csv(header, rows) -> str:
    """CSV text of a header row and rows of formatted cells."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


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
        eq = {
            "sigma": [float(s) for s in eq_rep.sigma],
            "lambda_re": [float(x) for x in eq_rep.lambda_re],
            "Gamma_decoh": eq_rep.Gamma_decoh,
            "Gamma_coh": eq_rep.Gamma_coh,
            "gamma_decoh": eq_rep.gamma_decoh,
            "gamma_coh": eq_rep.gamma_coh,
            "sse_ok": eq_rep.sse_ok,
            "wse_ok": eq_rep.wse_ok,
            "kappa": eq_rep.kappa,
        }
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
        "decoherent": polar.is_decoherent(ch),
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

_VERIFY_COLUMNS = ("case_id", "theorem", "observed", "lower", "upper", "slack", "holds")


def _cmd_verify(args) -> _Result:
    if args.trials < 1:
        raise _UsageError("--trials must be >= 1")
    if args.seed < 0:
        raise _UsageError("--seed must be non-negative")
    cases = suites.run_suite(
        args.suite, dims=args.dims, trials=args.trials, seed=args.seed
    )
    n_fail = sum(1 for c in cases if not c.holds)
    sys.stderr.write(f"verify {args.suite}: {len(cases)} cases, {n_fail} violations\n")
    rows = (
        [c.case_id, c.theorem, _fmt(c.observed), _fmt(c.lower), _fmt(c.upper),
         _fmt(c.slack), _fmt(c.holds)]
        for c in cases
    )
    return _Result(
        _csv(_VERIFY_COLUMNS, rows),
        {"suite": args.suite, "dims": args.dims, "trials": args.trials},
        args.seed,
        code=EXIT_OK if n_fail == 0 else EXIT_VIOLATION,
    )


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_SWEEP_COLUMNS = (
    "depth", "phi", "upsilon_envelope", "thm8_centre", "thm8_lower", "thm8_upper",
    "coherent_lower", "non_catastrophic", "contained",
)
_PROFILE_COLUMNS = (
    "row_type", "index", "value", "mean", "sd", "gamma_decoh", "Gamma_decoh",
    "threshold", "sse_decoh_ok", "wse_decoh_ok",
)

_FIG3_NOTE = (
    "coherence_mix 'infidelity' is the average infidelity r = 1 - F of the "
    "element; figure-style captions quoting a decoherent-factor process "
    "fidelity of 1e-4 are interpreted as infidelity 1 - Phi = 1e-4 (a "
    "literal Phi of 1e-4 would be catastrophic)."
)


def _cmd_sweep(args) -> _Result:
    cfg = _read(args.config)
    with _reading(args.config):
        if not isinstance(cfg, dict):
            raise ValueError("sweep config must be a JSON object")
        if "family" not in cfg:
            raise ValueError("sweep config needs a 'family' entry")
        mode = cfg.get("mode", "composition")
        fam = genlib.FamilySpec.from_dict(cfg["family"])
        if args.seed is not None:
            fam.seed = args.seed
        if "out" in cfg and not (isinstance(cfg["out"], str) and cfg["out"]):
            raise ValueError("sweep config 'out' must be a non-empty path string")
        args.out = args.out or cfg.get("out")
        element = genlib.make_channel(fam)
        if mode == "sigma_profile":
            kappa = (
                args.kappa if args.kappa is not None else float(cfg.get("kappa", 0.1))
            )
        elif mode == "composition":
            max_depth = int(cfg.get("max_depth", 1))
            if max_depth < 1:
                raise ValueError("max_depth must be >= 1")
            wanted = cfg.get("metrics")
            if wanted is not None:
                if not isinstance(wanted, list) or not all(
                    isinstance(name, str) for name in wanted
                ):
                    raise ValueError("sweep config 'metrics' must be a list of names")
                unknown = set(wanted) - set(_SWEEP_COLUMNS)
                if unknown:
                    raise ValueError(f"unknown metric names: {sorted(unknown)}")
        else:
            raise ValueError(f"unknown sweep mode '{mode}'")
    notes = (_FIG3_NOTE,) if fam.family == "coherence_mix" else ()
    if mode == "sigma_profile":
        prof = suites.sigma_profile(element, kappa)
        table = [
            ["sigma", str(i), _fmt(x)] + [""] * 7 for i, x in enumerate(prof.sigma)
        ]
        table.append(
            ["summary", "", "", _fmt(prof.mean), _fmt(prof.sd),
             _fmt(prof.gamma_decoh), _fmt(prof.Gamma_decoh), _fmt(prof.threshold),
             _fmt(prof.sse_decoh_ok), _fmt(prof.wse_decoh_ok)]
        )
        return _Result(_csv(_PROFILE_COLUMNS, table), cfg, fam.seed, notes)
    rows = suites.composition_sweep(element, max_depth)
    table = (
        [str(r.depth), _fmt(r.phi), _fmt(r.upsilon_envelope), _fmt(r.thm8_centre),
         _fmt(r.thm8_lower), _fmt(r.thm8_upper), _fmt(r.coherent_lower),
         _fmt(r.non_catastrophic), _fmt(r.contained)]
        for r in rows
    )
    columns = _SWEEP_COLUMNS
    if wanted is not None:  # depth, then the named columns in table order
        keep = [i for i, c in enumerate(columns) if c == "depth" or c in wanted]
        columns = [columns[i] for i in keep]
        table = ([cells[i] for i in keep] for cells in table)
    code = EXIT_OK
    if any(not r.non_catastrophic for r in rows):
        _error_json("domain", "composition left the non-catastrophic regime mid-sweep")
        code = EXIT_DOMAIN
    return _Result(_csv(columns, table), cfg, fam.seed, notes, code)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="chanpolar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="canonical Kraus / LK / polar report")
    p_dec.add_argument("--in", dest="infile", required=True, metavar="PATH")
    p_dec.add_argument("--target", default=None, metavar="PATH")
    p_dec.add_argument("--kappa", type=float, default=0.1)
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
    p_ver.add_argument("--seed", type=int, default=0)

    p_sw = sub.add_parser("sweep", help="composition / profile sweep from a config")
    p_sw.add_argument("--config", required=True, metavar="PATH")
    p_sw.add_argument("--seed", type=int, default=None, help="override config seed")
    p_sw.add_argument("--kappa", type=float, default=None, help="override config kappa")
    for p in sub.choices.values():  # main writes every command's output
        p.add_argument("--out", default=None, metavar="PATH")
    return parser


_COMMANDS = {
    "decompose": _cmd_decompose,
    "metrics": _cmd_metrics,
    "compose": _cmd_compose,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    """Run one command: write its output (and the manifest sidecar when the
    output is a file) and map any exception to its exit code."""
    t0 = time.time()
    try:
        args = _build_parser().parse_args(argv)
        res = _COMMANDS[args.command](args)
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
