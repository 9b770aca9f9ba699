"""The README names what a user can type, catch, import or write.

Every name below is derived from the code: the command line's subcommands
and flags, the sweep script's flags, the error classes, the package's
exports, the store record's fields and the container magics, the manifest
keys and the acceptance criteria. Each must appear in README.md as a whole
token, so `--k` is not satisfied by `--keep`. Every `segtta` command in the
README's fenced blocks must also be one that CI runs, its manifest and
Python examples must work, and each docstring it points to must exist.
"""

import argparse
import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

import segtta
from segtta import __all__ as exports
from segtta import cli, errors, fileio, support

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")

# the README describes use; how the code works is in its docstrings
MAX_README_LINES = 300


def _mentioned(name: str) -> bool:
    return re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", README) is not None


def _cli_names() -> list:
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    names = []
    for command, sub in commands.choices.items():
        names.append(command)
        names += [flag for action in sub._actions for flag in action.option_strings
                  if flag.startswith("--") and flag != "--help"]
    return names


def _sweep_flags() -> list:
    tree = ast.parse((ROOT / "scripts" / "run_sweep.py").read_text(encoding="utf-8"))
    return [node.args[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
            and isinstance(node.args[0], ast.Constant) and node.args[0].value.startswith("--")]


def _error_classes() -> list:
    return [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
            if issubclass(cls, errors.SegttaError)]


def _format_names() -> list:
    magics = [fileio.MAGIC_TENSOR, fileio.MAGIC_MASK, fileio.MAGIC_STORE]
    return list(support.row_dtype(1).names) + [m.decode("ascii") for m in magics]


def _manifest_keys() -> list:
    keys = [f.name for f in dataclasses.fields(fileio.Manifest) if f.name != "root"]
    for ref in (fileio.ManifestClass, fileio.SupportImageRef, fileio.QueryImageRef):
        keys += [f.name for f in dataclasses.fields(ref)]
    return keys


def _criteria() -> list:
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    return [f"criterion {node.args[0].value:02d} [{node.args[1].value}]"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "criterion"
            and all(isinstance(a, ast.Constant) for a in node.args[:2])]


NAMES = {
    "command line": _cli_names(),
    "sweep script": _sweep_flags(),
    "errors": [cls.__name__ for cls in _error_classes()],
    "exports": list(exports),
    "formats": _format_names(),
    "manifest": _manifest_keys(),
}


@pytest.mark.parametrize("kind", sorted(NAMES))
def test_readme_names_every(kind):
    names = NAMES[kind]
    assert names, f"no {kind} names found in the code"
    missing = sorted({n for n in names if not _mentioned(n)})
    assert not missing, f"README.md does not name these {kind} names: {missing}"


def test_readme_lists_every_criterion():
    criteria = _criteria()
    assert criteria, "no criterion(N, name) calls found in tests/test_acceptance.py"
    missing = [c for c in criteria if c not in README]
    assert not missing, f"README.md does not list these acceptance criteria: {missing}"


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_error_table_gives_the_exit_code(cls, monkeypatch):
    row = re.search(rf"^\| `{cls.__name__}` \|.*\| (\S+) \|$", README, re.MULTILINE)
    assert row, f"README.md's error table has no row for {cls.__name__}"

    def fail(args):
        raise cls("raised by a command")

    monkeypatch.setattr(cli, "_cmd_synth", fail)
    try:
        code = str(cli.main(["synth", "--out", "unused"]))
    except errors.SegttaError:  # the base, which cli.main does not map to a code
        code = "-"
    assert row.group(1) == code


def _logical_lines(text: str) -> list:
    """The lines of text with backslash continuations joined and runs of
    whitespace made one space."""
    return [" ".join(line.split()) for line in re.sub(r"\\\n", " ", text).splitlines()]


def _readme_commands() -> list:
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README, re.MULTILINE | re.DOTALL)
    return [line for block in blocks for line in _logical_lines(block)
            if line.startswith("segtta ")]


def test_readme_commands_are_run_by_ci():
    commands = _readme_commands()
    assert commands, "README.md shows no segtta command"
    ran = set(_logical_lines(WORKFLOW))
    missing = [c for c in commands if c not in ran]
    assert not missing, f"CI does not run these README commands: {missing}"


def _guarantee_refs() -> list:
    """(module, name) for each backticked name in the paragraphs of "What
    each module guarantees", whose first words are the module's, in bold."""
    section = README.split("## What each module guarantees", 1)[1].split("\n## ", 1)[0]
    paragraphs = re.findall(r"^\*\*(\w+)\.\*\*(.*?)(?=^\*\*|\Z)", section,
                            re.MULTILINE | re.DOTALL)
    return [(module, ref) for module, text in paragraphs
            for ref in re.findall(r"`([\w.]+)`", text)]


@pytest.mark.parametrize("module, ref", _guarantee_refs())
def test_guarantees_point_at_code(module, ref):
    """A name the README sends a reader to exists, and a class or function
    there has a docstring."""
    parts = ref.split(".")
    if parts[0] in segtta._SUBMODULES:
        module, parts = parts[0], parts[1:]
    obj = importlib.import_module(f"segtta.{module}")
    assert inspect.getdoc(obj)
    for part in parts:
        obj = getattr(obj, part)
    if inspect.isclass(obj) or inspect.isroutine(obj):
        assert inspect.getdoc(obj), f"{ref} has no docstring"


def _block(language: str) -> str:
    (block,) = re.findall(rf"^```{language}\n(.*?)^```", README, re.MULTILINE | re.DOTALL)
    return block


def test_readme_manifest_loads(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(_block("json"), encoding="utf-8")
    manifest = fileio.load_manifest(path)
    assert manifest.support_images and manifest.query_images


def test_readme_python_example_runs(capsys):
    exec(compile(_block("python"), "README.md", "exec"), {})
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0


def test_readme_is_short():
    lines = README.count("\n")
    assert lines <= MAX_README_LINES, (
        f"README.md has {lines} lines; it describes use, and derivations belong in "
        f"docstrings and measurements in CHANGES.md")
