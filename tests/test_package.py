"""The package root exports exactly the names its documented callers use:
the README's "Library" example and the acceptance suite. Only ``tensorio``
writes files."""

import ast
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


# calls that write a file or serialise JSON, by their last name
WRITERS = {"dump", "dumps", "write_text", "write_bytes", "tofile", "save",
           "savez", "savetxt"}


def open_mode(call):
    """The mode of an ``open`` call; "?" when it is not a literal."""
    given = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    if not given:
        return "r"
    return given[0].value if isinstance(given[0], ast.Constant) else "?"


def test_only_tensorio_writes_files():
    found = []
    for path in sorted((ROOT / "src" / "ffrnn").glob("*.py")):
        if path.name == "tensorio.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = ast.unparse(node.func).split(".")[-1]
            if name in WRITERS or (name == "open" and set(open_mode(node)) & set("wax+?")):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node.func)}")
    assert found == []
