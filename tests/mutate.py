"""Seeded mutation probe of ``src/chanpolar`` against tier-1.

    python tests/mutate.py [--per-module N] [--seed S]

Run from anywhere; it takes the checkout this file sits in.  It copies the
checkout (without ``.git``) into a temporary directory and draws ``N`` mutants
per module (default 10 in each of the eight computing modules, 80 in all) from
a ``random.Random`` seeded with ``S`` and the module name.  A mutant is one of:

- ``op``: ``+`` <-> ``-`` or ``*`` <-> ``/`` in one binary operation;
- ``cmp``: ``<`` <-> ``<=`` or ``>`` <-> ``>=`` in one comparison;
- ``const``: one float literal scaled by 1 + 2^-20;
- ``delete``: one simple statement of a function body replaced by ``pass``;
- ``branch``: the test of one ``if`` replaced by ``False``.

Each mutant is written into the copy and run with ``pytest -x`` first against
the test files that import its module, then, if they pass, against all of
``tests/``; the original module is restored after each run.  A mutant that
passes both survives.  A run that exceeds ``TIMEOUT`` (600 s) counts as
killed.  The script prints one line per mutant as it goes, then a
table of the survivors, and exits 0.  It writes nothing in the checkout.
"""

from __future__ import annotations

import argparse
import ast
import os
import pathlib
import random
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = ("matcore", "channel", "metrics", "polar", "bounds", "suites", "genlib", "cli")
TIMEOUT = 600.0
SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
         ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
TOKENS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
          ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}
SIMPLE = (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Expr, ast.Return, ast.Raise,
          ast.Assert, ast.Delete)


def _offset(lines: list, lineno: int, col: int) -> int:
    """The index in the joined source of column ``col`` (UTF-8 bytes) of line ``lineno``."""
    line = lines[lineno - 1]
    return sum(len(x) for x in lines[:lineno - 1]) + len(line.encode()[:col].decode())


def _span(lines: list, node) -> tuple:
    return (_offset(lines, node.lineno, node.col_offset),
            _offset(lines, node.end_lineno, node.end_col_offset))


def _token_edit(src: str, start: int, stop: int, old: str, new: str):
    """Replace the operator token ``old`` in ``src[start:stop]``, the text between two
    operands, by ``new``; None where the text holds no such token outside a comment."""
    gap = src[start:stop]
    at = gap.split("#")[0].find(old)
    if at < 0 or (len(old) == 1 and gap[at:at + 2] in ("<=", ">=", "**", "//")):
        return None
    return start + at, start + at + len(old), new


def sites(src: str) -> list:
    """Every mutant of one module's source, as (kind, description, (start, stop, text)):
    the text that replaces ``src[start:stop]``."""
    tree = ast.parse(src)
    lines = src.splitlines(keepends=True)
    docstrings = {id(n.body[0]) for n in ast.walk(tree)
                  if isinstance(n, (ast.Module, ast.FunctionDef, ast.ClassDef))
                  and n.body and isinstance(n.body[0], ast.Expr)
                  and isinstance(n.body[0].value, ast.Constant)}
    funcs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    in_body = {id(s) for f in funcs for s in ast.walk(f) if isinstance(s, ast.stmt) and s is not f}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            old, new = TOKENS[type(node.op)], TOKENS[SWAPS[type(node.op)]]
            edit = _token_edit(src, _span(lines, node.left)[1], _span(lines, node.right)[0],
                               old, new)
            if edit:
                out.append(("op", f"{old} -> {new}", edit))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if type(op) in SWAPS:
                    old, new = TOKENS[type(op)], TOKENS[SWAPS[type(op)]]
                    edit = _token_edit(src, _span(lines, left)[1], _span(lines, right)[0],
                                       old, new)
                    if edit:
                        out.append(("cmp", f"{old} -> {new}", edit))
        elif isinstance(node, ast.Constant) and type(node.value) is float and node.value:
            scaled = repr(node.value * (1.0 + 2.0**-20))
            out.append(("const", f"{node.value!r} -> {scaled}", (*_span(lines, node), scaled)))
        if isinstance(node, SIMPLE) and id(node) in in_body and id(node) not in docstrings:
            text = ast.get_source_segment(src, node).splitlines()[0][:48]
            out.append(("delete", f"delete `{text}`", (*_span(lines, node), "pass")))
        elif isinstance(node, ast.If) and id(node) in in_body:
            text = ast.get_source_segment(src, node.test).splitlines()[0][:48]
            out.append(("branch", f"if `{text}` -> False", (*_span(lines, node.test), "False")))
    return out


def importers(tests: pathlib.Path) -> dict:
    """{module: [test files that import it]} over ``tests/test_*.py``."""
    found = {m: [] for m in MODULES}
    for path in sorted(tests.glob("test_*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "chanpolar":
                names.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("chanpolar."):
                names.add(node.module.split(".")[1])
        for m in names.intersection(found):
            found[m].append(str(path.relative_to(tests.parent)))
    return found


def passes(work: pathlib.Path, targets: list) -> bool | None:
    """True if pytest passes on ``targets`` in ``work``, False if it fails, None on timeout."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *targets]
    try:
        res = subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None
    return res.returncode == 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--per-module", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    survivors, total = [], 0
    with tempfile.TemporaryDirectory(prefix="chanpolar-mutate-") as tmp:
        work = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".bench_build"))
        users = importers(work / "tests")
        for module in MODULES:
            path = work / "src" / "chanpolar" / f"{module}.py"
            src = path.read_text(encoding="utf-8")
            rng = random.Random(f"{args.seed}:{module}")
            all_sites = sites(src)
            drawn = sorted(rng.sample(all_sites, min(args.per_module, len(all_sites))),
                           key=lambda s: s[2])
            for kind, what, (start, stop, text) in drawn:
                total += 1
                line, col = src.count("\n", 0, start) + 1, start - src.rfind("\n", 0, start)
                where = f"{module}.py:{line}:{col}"
                path.write_text(src[:start] + text + src[stop:], encoding="utf-8")
                t0 = time.perf_counter()
                verdict = "killed (own tests)"
                try:
                    ok = passes(work, users[module]) if users[module] else True
                    if ok:
                        ok = passes(work, ["tests"])
                        verdict = "killed (tier-1)"
                finally:
                    path.write_text(src, encoding="utf-8")
                if ok is None:
                    verdict = "killed (timeout)"
                elif ok:
                    verdict = "SURVIVED"
                    survivors.append((where, kind, what))
                print(f"{total:3d} {where} {kind} {what}: {verdict} "
                      f"({time.perf_counter() - t0:.1f} s)", flush=True)
    print(f"\n{len(survivors)} of {total} mutants survived (seed {args.seed})")
    if survivors:
        print("\n| module:line:column | kind | mutation |\n|---|---|---|")
        for where, kind, what in survivors:
            print(f"| {where} | {kind} | {what} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
