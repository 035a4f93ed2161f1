"""Every name a beamfocus module imports is used in that module, every
public top-level function and class of beamfocus is referenced by beamfocus
or the bench, no library module imports the command line, and the focus
locator cannot reach the true user position or the channel."""

import ast
from pathlib import Path

import pytest

import beamfocus

MODULES = sorted(Path(beamfocus.__file__).parent.glob("*.py"))
BENCH_FILES = sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))

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


def _own_nodes(func):
    # the nodes of a function's body, not descending into nested scopes
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, ast.FunctionDef):
            stack.extend(ast.iter_child_nodes(node))


def unread_locals(source: str) -> list[str]:
    """`function: name` for each local a function assigns and never reads.

    A nested function's reads count for the function around it; names a
    function declares global or nonlocal, and `_`, are not its locals.
    """
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef):
            continue
        own = list(_own_nodes(func))
        declared = {n for node in own if isinstance(node, (ast.Global, ast.Nonlocal)) for n in node.names}
        stored = {
            node.id for node in own if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        }
        read = {
            node.id
            for node in ast.walk(func)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        found += [f"{func.name}: {name}" for name in sorted(stored - read - declared - {"_"})]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_local(path):
    assert unread_locals(path.read_text()) == []


def test_unread_local_is_found():
    source = (
        "def f(a):\n"
        "    used, unused = a\n"
        "    for _ in range(2):\n"
        "        closed = 1\n"
        "    def g():\n"
        "        nonlocal used\n"
        "        used = closed\n"
        "    with open(a) as fh:\n"
        "        pass\n"
        "    return used, g\n"
        "\n"
        "def h():\n"
        "    x = [y for y in range(3)]\n"
        "    x += [1]\n"
    )
    assert unread_locals(source) == ["f: fh", "f: unused", "h: x"]


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
    assert unreferenced_public_names(modules, [path.read_text() for path in BENCH_FILES]) == []


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


def imported_modules(source: str) -> set:
    """The beamfocus module names `source` imports, relatively or absolutely."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module.startswith("beamfocus"):
                parts = module.split(".")
                if parts[0] == "beamfocus":
                    parts = parts[1:]
                found.update(parts[:1] if parts and parts[0] else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1] for alias in node.names if alias.name.startswith("beamfocus.")
            )
    return found


@pytest.mark.parametrize(
    "path", [path for path in MODULES if path.stem != "__main__"], ids=lambda p: p.name
)
def test_library_never_imports_the_cli(path):
    # the layering runs one way: cli builds on the library, and only the
    # `python -m beamfocus` entry point imports cli
    assert "cli" not in imported_modules(path.read_text())


def test_cli_import_is_found():
    for source in (
        "from .cli import main\n",
        "from . import cli\n",
        "from beamfocus import cli\n",
        "from beamfocus.cli import gain_map\n",
        "import beamfocus.cli\n",
    ):
        assert imported_modules(source) == {"cli"}, source
    source = (
        "import numpy as np\n"
        "import click\n"
        "from .geometry import point_distances\n"
        "from . import sim\n"
        "from beamfocus.config import build_ue\n"
        "from beamfocus import baselines\n"
        "import beamfocus.channel\n"
    )
    assert imported_modules(source) == {"geometry", "sim", "config", "baselines", "channel"}


def test_focus_locator_is_measurement_only():
    # the locator reads phases and the array geometry only: the modules that
    # build or hold the true user position and the channel stay out of
    # reach, directly or through the modules it imports
    package = Path(beamfocus.__file__).parent
    reached, todo = set(), ["focus"]
    while todo:
        found = imported_modules((package / f"{todo.pop()}.py").read_text()) - reached
        reached |= found
        todo.extend(found)
    assert reached.isdisjoint({"baselines", "config", "sim", "channel", "cli"})
