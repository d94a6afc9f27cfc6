"""Seeded fuzzing of the CLI exit-code contract.

Each case applies one to three JSON-level mutations to a base file (one of
``tests/golden/inputs`` or an extra base below) and runs ``decompose``,
``metrics`` or ``sweep`` on it in-process; after those, every base also
runs once as it is.  Every case must end in exit 0, 1, 2, 3 or 64, never in 70
(an internal error); on exit 2 or 64 stderr holds exactly one JSON error
line, no Python warning is raised and no data is written, neither to
stdout nor to a file.  A JSON output of exit 0 must be strict JSON (no
NaN or Infinity).  A case whose one mutation turns a number of a matrix
(``kraus``, ``choi``, ``unitary``) or of a family's ``params`` into a
string or a boolean must exit 2: only JSON numbers are read as numbers.
Besides the seeded draws, the first such number of every base is turned
into a numeric string and into ``true``.

The generative half walks the field tables instead: every field of every
table (a family's params table comes from its builder's signature) gets
each value of ``PROBES``, and every table one key it lacks.  ``TAKES``
says which probes each kind takes, and the kinds must agree.  A value the
field's kind refuses, or the extra key, must exit 2 with one JSON line
naming the key, no warning and nothing written; any other case exits 0,
1, 2 or 3 (2 from a check past the kind, such as a builder's range or a
matrix shape).
"""

import copy
import json
import math
import random
import warnings
from pathlib import Path

from chanpolar import channel as chn
from chanpolar import cli, genlib
from chanpolar.cli import main

INPUTS = Path(__file__).parent / "golden" / "inputs"
N_CASES = 400
# the base sweep configs are cut to this depth, and no replacement value is
# a large integer: a mutated dim or max_depth must not allocate or run long
# before its check (large values are tested against the schema in test_cli)
MAX_DEPTH = 40
VALUES = (
    None, True, False, 0, 1, -1, 2, 3, 5, 0.5, -0.0, 2.5, 1e308, -1e308,
    math.nan, math.inf, "", "x", "2", "rotation", [], {}, [1.0, 0.0], {"dim": 2},
)
KEYS = ("dim", "seed", "params", "family", "mode", "max_depth", "kappa",
        "metrics", "out", "kraus", "choi", "unitary", "junk")
# bases besides the golden inputs: a sweep of a family that builds at dim 1
# (no golden sweep does), so that cases reach the sweep's own d >= 2 check;
# a tweak of its dim gives the valid d = 2 sweep
EXTRA_BASES = {
    "sweep-composition-depolarizing-d1.json": {
        "mode": "composition",
        "family": {"family": "depolarizing", "dim": 1, "params": {"p": 0.9}},
        "max_depth": MAX_DEPTH,
    },
}


def _read_as_number(path):
    """Whether a value at ``path`` (None for no path) must be a JSON
    number: a matrix entry or a family parameter."""
    return bool(path) and (
        path[0] in ("kraus", "choi", "unitary") or path[:2] == ("family", "params")
    )


def _paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield from _paths(child, path + (key,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    if not path:
        return value
    _get(doc, path[:-1])[path[-1]] = value
    return doc


def _tweak(x, rng):
    """A nearby number, or now and then a retyped one."""
    if rng.random() < 0.75:
        return rng.choice([-x, x * 1.5, x + 1, x - 1, x / 2, 0 * x, x * (1 + 1e-9)])
    if isinstance(x, int):
        return rng.choice([float(x), str(x), [x]])
    return rng.choice([int(x) if math.isfinite(x) else 0, str(x), [x]])


def _mutate(doc, rng):
    """One random mutation of ``doc``; returns (doc, description, path),
    where path locates a number that became a string or a boolean, or is
    None."""
    paths = list(_paths(doc))
    leaves = [p for p in paths if not isinstance(_get(doc, p), (dict, list))] or paths
    shallow = [p for p in paths if len(p) <= 2]  # the structural fields
    path = rng.choice(rng.choice([leaves, leaves, shallow, paths]))
    node = _get(doc, path)
    op = rng.choice(["replace", "delete", "duplicate", "tweak", "tweak", "add"])
    new = None
    if op == "delete" and path:
        parent = _get(doc, path[:-1])
        del parent[path[-1]]
    elif op == "duplicate" and isinstance(node, list) and node:
        node.append(copy.deepcopy(rng.choice(node)))
    elif op == "tweak" and type(node) in (int, float):
        new = _tweak(node, rng)
        doc = _set(doc, path, new)
    elif op == "add" and isinstance(node, dict):
        node[rng.choice(KEYS)] = rng.choice(VALUES)
    else:
        op = "replace"
        new = rng.choice(VALUES)
        doc = _set(doc, path, new)
    retyped = type(node) in (int, float) and isinstance(new, (str, bool))
    return doc, f"{op} {list(path)}", path if retyped else None


def _cases():
    rng = random.Random(0)
    bases = {p.name: json.loads(p.read_text()) for p in sorted(INPUTS.glob("*.json"))}
    bases.update(copy.deepcopy(EXTRA_BASES))
    for doc in bases.values():
        if "max_depth" in doc:
            doc["max_depth"] = min(doc["max_depth"], MAX_DEPTH)
    names = sorted(bases)
    for i in range(N_CASES):
        name = rng.choice(names)
        doc = copy.deepcopy(bases[name])
        log, retyped = [], []
        for _ in range(rng.randint(1, 3)):
            doc, what, path = _mutate(doc, rng)
            log.append(what)
            retyped.append(path)
        text = json.dumps(doc)
        if rng.random() < 0.05:
            cut = rng.randrange(len(text))
            text = text[:cut]
            log.append(f"truncate at {cut}")
        refuse = len(log) == 1 and _read_as_number(retyped[0])
        yield i, name, log, text, _argv(name, rng), refuse
    for i, name in enumerate(names, N_CASES):
        yield i, name, [], json.dumps(bases[name]), _argv(name, rng), False
    i = N_CASES + len(names)
    for name in names:
        doc = bases[name]
        path = next(p for p in _paths(doc)
                    if _read_as_number(p) and type(_get(doc, p)) in (int, float))
        for new in (str(_get(doc, path)), True):
            text = json.dumps(_set(copy.deepcopy(doc), path, new))
            yield i, name, [f"retype {list(path)}"], text, _argv(name, rng), True
            i += 1


def _argv(name, rng):
    if name.startswith("sweep"):
        argv = ["sweep", "--config", "{path}"]
    elif name.startswith("target"):
        argv = [rng.choice(["metrics", "decompose"]),
                "--in", str(INPUTS / "random_unitary_error-d3.json"),
                "--target", "{path}"]
    else:
        argv = [rng.choice(["metrics", "decompose"]), "--in", "{path}"]
        if name.endswith("-d3.json") and rng.random() < 0.3:
            argv += ["--target", str(INPUTS / "target-d3.json")]
    if rng.random() < 0.5:
        argv += ["--out", "data.out"]
    return argv


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-finite number {name} in the output")

    return json.loads(text, parse_constant=refuse)


def test_exit_code_contract(tmp_path, monkeypatch, capsys):
    inputs = tmp_path / "in"
    inputs.mkdir()
    for i, name, log, text, argv, refuse in _cases():
        src = inputs / f"{i}-{name}"
        src.write_text(text)
        work = tmp_path / f"run{i}"
        work.mkdir()
        monkeypatch.chdir(work)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([str(src) if a == "{path}" else a for a in argv])
        cap = capsys.readouterr()
        where = f"case {i}: {name} {log} argv={argv[0]} -> exit {code}\n{text[:300]}"
        assert code in (0, 1, 2, 3, 64), where + "\n" + cap.err[-2000:]
        assert code == 2 or not refuse, where + " (a retyped number was read)"
        if code == 0 and argv[0] != "sweep":
            out = (work / "data.out").read_text() if "--out" in argv else cap.out
            _strict_json(out)
        if code in (2, 64):
            assert [str(w.message) for w in caught] == [], where
            lines = cap.err.splitlines()
            assert len(lines) == 1, where + "\n" + cap.err
            assert set(json.loads(lines[0])) == {"error", "detail"}, where
            assert cap.out == "", where
            assert list(work.iterdir()) == [], where


# ---------------------------------------------------------------------------
# generative half
# ---------------------------------------------------------------------------

PROBES = (True, 2**70, 1e308, math.nan, "", None, [], {})
# {kind: the reprs of the probes it takes}; it refuses every other probe
TAKES = {
    "an integer": {repr(2**70)},
    "an integer >= 0": {repr(2**70)},
    "an integer >= 1": {repr(2**70)},
    "a finite JSON number": {repr(2**70), "1e+308"},
    "a non-empty string": set(),
    "a non-empty list": set(),
    "a JSON object": {"{}"},
    "a family name": set(),
    "'composition' or 'sigma_profile'": set(),
    "an integer in [1, 100000]": set(),
    "an integer in [1, 64]": set(),
    "a list of sweep column names": {"[]"},
}
# (dim, params) of a valid sweep of each family, every builder parameter given
FAMILY_BASES = {
    "identity": (2, {}),
    "depolarizing": (2, {"p": 0.9}),
    "dephasing": (2, {"q": 0.1}),
    "stochastic_weyl": (2, {"p": 0.9}),
    "amplitude_damping": (2, {"gamma": 0.1}),
    "rotation": (2, {"theta": 0.1}),
    "random_unitary_error": (2, {"strength": 0.1}),
    "random_cptp": (2, {"kraus_rank": 2, "strength": 0.05}),
    "psd_lk_decoherent": (2, {"strength": 0.1, "kraus_rank": 2}),
    "extremal_dephaser": (4, {"base_scale": 2.5e-3, "n_outliers": 1,
                              "outlier_depth": 0.02}),
    "extremal_unitary": (2, {}),
    "spiral": (3, {"alpha": 0.1}),
    "coherence_mix": (2, {"infidelity": 1e-4, "level": 0.5}),
}


def _sweep(family, **cfg):
    dim, params = FAMILY_BASES[family]
    return dict(cfg, family={"family": family, "dim": dim, "params": params,
                             "seed": 1})


def _targets():
    """(base document, argv, path of the object read against the table, the
    table, its kinds, the keys read) for every field table."""
    chan = ["metrics", "--in", "{path}"]
    sweep = ["sweep", "--config", "{path}"]
    for name in ("amplitude_damping-d2.json", "random_cptp-d2-choi.json"):
        doc = json.loads((INPUTS / name).read_text())
        yield doc, chan, (), chn._CHANNEL_FIELDS, chn.KINDS, set(chn._CHANNEL_FIELDS)
    doc = json.loads((INPUTS / "target-d3.json").read_text())
    argv = chan[:2] + [str(INPUTS / "random_unitary_error-d3.json"), "--target", "{path}"]
    yield doc, argv, (), chn._UNITARY_FIELDS, chn.KINDS, set(chn._UNITARY_FIELDS)
    modes = cli._MODE_FIELDS
    table = {**cli._SWEEP_FIELDS, **modes["composition"], **modes["sigma_profile"]}
    bases = {"composition": _sweep("rotation", max_depth=3),
             "sigma_profile": _sweep("extremal_dephaser", mode="sigma_profile")}
    for mode, doc in bases.items():
        yield doc, sweep, (), table, cli._SWEEP_KINDS, {*cli._SWEEP_FIELDS, *modes[mode]}
    yield (bases["composition"], sweep, ("family",), genlib._SPEC_FIELDS,
           genlib._SPEC_KINDS, set(genlib._SPEC_FIELDS))
    for family in FAMILY_BASES:
        table = genlib._params_table(genlib.BUILDERS[family])
        yield (_sweep(family, max_depth=3), sweep, ("family", "params"), table,
               chn.KINDS, set(table))


def _field_cases():
    """(description, document, argv, key, whether the case must exit 2)."""
    for base, argv, path, table, kinds, read in _targets():
        for key, (kind, _) in table.items():
            for value in PROBES:
                takes = repr(value) in TAKES[kind]
                assert kinds[kind](value) == takes, (kind, value)
                doc = copy.deepcopy(base)
                _get(doc, path)[key] = value
                refuse = key in read and not takes
                yield f"{list(path)} {key}={value!r}", doc, argv, key, refuse
        doc = copy.deepcopy(base)
        _get(doc, path)["extra"] = 1
        yield f"{list(path)} extra key", doc, argv, "extra", True


def test_field_tables(tmp_path, monkeypatch, capsys):
    assert set(FAMILY_BASES) == set(genlib.BUILDERS)
    for i, (what, doc, argv, key, refuse) in enumerate(_field_cases()):
        src = tmp_path / f"in{i}.json"
        src.write_text(json.dumps(doc))
        work = tmp_path / f"run{i}"
        work.mkdir()
        monkeypatch.chdir(work)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([str(src) if a == "{path}" else a for a in argv]
                        + ["--out", "data.out"])
        cap = capsys.readouterr()
        where = f"case {i}: {argv[0]} {what} -> exit {code}\n{cap.err[-2000:]}"
        assert code in (0, 1, 2, 3), where
        if refuse:
            assert code == 2, where
            assert [str(w.message) for w in caught] == [], where
            lines = cap.err.splitlines()
            assert len(lines) == 1 and json.loads(lines[0])["error"] == "parse", where
            assert f"'{key}'" in json.loads(lines[0])["detail"], where
            assert cap.out == "" and list(work.iterdir()) == [], where
