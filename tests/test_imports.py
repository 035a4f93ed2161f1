"""Every name a beamfocus module imports is used in that module, and every
public top-level function and class of beamfocus is referenced by beamfocus
or the bench."""

import ast
from pathlib import Path

import pytest

import beamfocus

MODULES = sorted(Path(beamfocus.__file__).parent.glob("*.py"))
BENCH_FILES = sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))

# public names that no pipeline path calls, kept on purpose
UNREFERENCED_OK = {
    # the critic's analytic gradient, which the critic tests and acceptance
    # criterion 7a check against finite differences
    "critic.critic_loss_and_gradient",
    # the distance-difference regime that acceptance criterion 7c checks
    "geometry.ddf_regime",
}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = "import os\nimport numpy as np\nfrom x import y, z\nnp.ones(z)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: y"]


def unreferenced_public_names(modules: dict, others: list) -> list:
    """`module.name` of each public top-level function and class in `modules`
    (module name -> source) that no source, `others` included, names."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    referenced = set()
    for tree in [*trees.values(), *(ast.parse(source) for source in others)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in referenced
    )


def test_every_public_name_is_referenced():
    assert BENCH_FILES, "the bench sources are missing"
    modules = {path.stem: path.read_text() for path in MODULES}
    found = unreferenced_public_names(modules, [path.read_text() for path in BENCH_FILES])
    assert sorted(set(found) - UNREFERENCED_OK) == []
    assert sorted(UNREFERENCED_OK - set(found)) == []  # each exemption is still needed


def test_unreferenced_public_name_is_found():
    lib = (
        "def called():\n    pass\n\n"
        "def _private():\n    pass\n\n"
        "class Dead:\n    def method(self):\n        return called()\n\n"
        "def via_attribute():\n    pass\n\n"
        "def dead():\n    pass\n"
    )
    user = "import lib\nlib.via_attribute()\n"
    assert unreferenced_public_names({"lib": lib}, [user]) == ["lib.Dead", "lib.dead"]
