"""The package root exports exactly the names its documented callers use:
the README's "Library" example and the acceptance suite."""

import importlib.util
import pathlib
import re

import ffrnn

ROOT = pathlib.Path(__file__).resolve().parent.parent
CALLERS = (ROOT / "README.md", ROOT / "tests" / "test_acceptance.py")


def referenced_names():
    names = set()
    for path in CALLERS:
        names |= set(re.findall(r"\bffrnn\.(\w+)", path.read_text()))
    return names


def is_submodule(name):
    return importlib.util.find_spec(f"ffrnn.{name}") is not None


def test_every_referenced_name_resolves():
    names = referenced_names()
    assert names, "no ffrnn.<name> found in the callers"
    for name in names:
        assert is_submodule(name) or hasattr(ffrnn, name), name


def test_all_lists_exactly_the_referenced_names():
    names = {n for n in referenced_names() if not is_submodule(n)}
    assert sorted(ffrnn.__all__) == sorted(names)
    assert len(ffrnn.__all__) == 12
