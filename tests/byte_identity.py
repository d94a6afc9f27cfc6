"""Byte-identity check of every data output against the committed references.

    python tests/byte_identity.py

Run from anywhere; it takes the checkout this file sits in.  It runs
``tests/test_golden.py --diff`` and counts any golden with a changed field
or exit code, or a numeric field moved by more than 0.  It then runs
``perfbench/run.py --make-reference`` in a temporary copy of ``src/`` and
``perfbench/`` and lists each benchmark unit whose ``[exit code, sha256]``
differs from the committed ``perfbench/reference.json`` (or is missing on
one side).  It exits 1 on any difference, 0 otherwise, and writes nothing
in the checkout.  The reference rewrite takes about a minute.  Beside the
verdict it prints the line count of the ``*.py`` files under ``src/``, the
size measure that a byte-identical change is meant to lower.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "perfbench" / "reference.json"


def _run(cmd, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)


def golden_moves() -> list:
    """The lines of the golden ``--diff`` report that show a difference."""
    res = _run([sys.executable, "tests/test_golden.py", "--diff"], ROOT)
    bad, name = [], ""
    for line in res.stdout.splitlines():
        if not line.startswith("  "):  # "<golden>: ok" or "<golden>: CHANGED ..."
            name = line.split(": ")[0]
        if "CHANGED" in line or (line.startswith("  ") and not line.endswith(": 0")):
            bad.append(f"{name}: {line.strip()}" if line.startswith("  ") else line)
    if res.returncode != 0 and not bad:
        bad.append(f"test_golden.py --diff exited {res.returncode}: {res.stderr.strip()}")
    return bad


def reference_moves() -> list:
    """The benchmark units whose [exit code, sha256] differ from the committed reference."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for sub in ("src", "perfbench"):
            shutil.copytree(ROOT / sub, tmp / sub, ignore=shutil.ignore_patterns("__pycache__"))
        res = _run([sys.executable, "perfbench/run.py", "--make-reference"], tmp)
        if res.returncode != 0:
            return [f"perfbench/run.py --make-reference exited {res.returncode}: "
                    f"{res.stderr.strip()}"]
        new = json.loads((tmp / "perfbench" / "reference.json").read_text(encoding="utf-8"))
    old = json.loads(REFERENCE.read_text(encoding="utf-8"))
    moved = []
    for workload in sorted(set(old) | set(new)):
        was, now = old.get(workload, {}), new.get(workload, {})
        moved += [f"{workload} {unit}: {was.get(unit)} -> {now.get(unit)}"
                  for unit in sorted(set(was) | set(now)) if was.get(unit) != now.get(unit)]
    print(f"reference: {sum(map(len, new.values()))} units rewritten, {len(moved)} moved")
    return moved


def src_lines() -> int:
    """The number of lines of the ``*.py`` files under ``src/``."""
    return sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def main() -> int:
    bad = golden_moves()
    print("goldens: " + (f"{len(bad)} difference(s)" if bad else "every field moved by 0"))
    bad += reference_moves()
    for line in bad:
        print(f"DIFF {line.strip()}")
    print(("FAIL" if bad else "byte-identical") + f" (src/: {src_lines():,} lines)")
    return int(bool(bad))


if __name__ == "__main__":
    sys.exit(main())
