"""Every import in the repository is declared in ``pyproject.toml``.

A top-level import must name the stdlib, first-party code or a
distribution listed in ``dependencies`` or the ``test`` extra, so that
``pip install ".[test]"`` installs everything the code and its tests load.
"""

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks", "tools", "examples", "perfbench")


def _declared() -> set:
    """Import names of ``dependencies`` plus the ``test`` extra (one-line arrays)."""
    wanted = {("project", "dependencies"), ("project.optional-dependencies", "test")}
    found, table = {}, None
    for line in (REPO / "pyproject.toml").read_text().splitlines():
        header = re.fullmatch(r"\s*\[([^\]]+)\]\s*", line)
        if header:
            table = header.group(1).strip()
            continue
        array = re.fullmatch(r'\s*"?([\w.-]+)"?\s*=\s*\[(.*)\]\s*', line)
        if array and (table, array.group(1)) in wanted:
            found[table, array.group(1)] = re.findall(r'"([^"]+)"', array.group(2))
    assert set(found) == wanted, f"pyproject.toml lacks a one-line {wanted - set(found)}"
    return {
        re.split(r"[\s\[<>=!~;]", requirement, maxsplit=1)[0].lower().replace("-", "_")
        for requirements in found.values()
        for requirement in requirements
    }


def _first_party(path: Path) -> set:
    """Packages and modules at the repository root, in ``src/`` and beside ``path``."""
    return {
        entry.stem
        for directory in (REPO, REPO / "src", path.parent)
        for entry in directory.iterdir()
        if entry.is_dir() or entry.suffix == ".py"
    }


def _imports(path: Path):
    """Top-level names of every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_the_manifest_reads_the_declared_distributions():
    assert {"numpy", "scipy", "networkx", "pytest", "hypothesis"} <= _declared()


def test_every_import_is_stdlib_first_party_or_declared():
    declared = _declared()
    undeclared = sorted(
        f"{path.relative_to(REPO)}: {name}"
        for root in SCANNED
        for path in (REPO / root).rglob("*.py")
        for name in set(_imports(path))
        if name not in sys.stdlib_module_names
        and name not in declared
        and name not in _first_party(path)
    )
    assert not undeclared, "imports missing from pyproject.toml:\n" + "\n".join(undeclared)
