"""Every refusal that src/chanpolar raises is a typed ``ChanPolarError``: no
module raises a builtin exception class, so the CLI decides its exit code by
class alone."""

import ast
import builtins
from pathlib import Path

import chanpolar
from chanpolar.errors import ChanPolarError, ParamOutOfRange, ParseError

SRC = Path(chanpolar.__file__).parent
BUILTIN_ERRORS = {name for name, obj in vars(builtins).items()
                  if isinstance(obj, type) and issubclass(obj, BaseException)}


def builtin_raises(source: str, name: str) -> list:
    """``<name>:<line>: raise <class>`` for each raise of a builtin exception class."""
    hits = []
    for node in ast.walk(ast.parse(source, name)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in BUILTIN_ERRORS:
                hits.append(f"{name}:{node.lineno}: raise {exc.id}")
    return hits


def test_src_raises_no_builtin_exception():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 5
    assert [hit for p in paths for hit in builtin_raises(p.read_text(), p.name)] == []


def test_detector_sees_each_form():
    source = (
        "raise ValueError('x')\n"
        "raise KeyError\n"
        "raise ParseError('x') from exc\n"
        "raise\n"
        "raise argparse.ArgumentTypeError('x')\n"
    )
    assert builtin_raises(source, "m.py") == ["m.py:1: raise ValueError", "m.py:2: raise KeyError"]


def test_param_out_of_range_is_a_parse_error():
    assert issubclass(ParamOutOfRange, ParseError)
    assert issubclass(ParseError, ChanPolarError)
