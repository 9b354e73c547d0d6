"""Package layout guards: pure-Python runtime with no third-party imports,
exports that resolve, and no module-level name that nothing uses."""

import ast
import collections
import pathlib
import re
import subprocess
import sys

import pytest

import casimir
import casimir.models

PACKAGE = pathlib.Path(casimir.__file__).parent
REPO = pathlib.Path(__file__).resolve().parent.parent

# Block the test-only oracles, then import every module of the package.
_IMPORT_ALL = """
import importlib, pkgutil, sys

BLOCKED = ("numpy", "mpmath", "sympy", "hypothesis")

class Block:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in BLOCKED:
            raise ImportError(f"{name} is a test-only dependency")
        return None

sys.meta_path.insert(0, Block())
import casimir
for mod in pkgutil.walk_packages(casimir.__path__, "casimir."):
    importlib.import_module(mod.name)
print("imported", sorted(m for m in sys.modules if m.startswith("casimir")))
"""


def test_every_module_imports_without_test_dependencies():
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_ALL],
        cwd=PACKAGE.parent,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "casimir.models.so3" in proc.stdout


@pytest.mark.parametrize("package", [casimir, casimir.models], ids=lambda p: p.__name__)
def test_every_exported_name_resolves(package):
    assert [name for name in package.__all__ if not hasattr(package, name)] == []


def test_no_compiled_or_generated_sources():
    found = [p for pattern in ("*.c", "*.so", "*.pyx") for p in PACKAGE.rglob(pattern)]
    assert found == []


def _module_level_names(path: pathlib.Path):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def test_every_module_level_name_is_used():
    """Each name defined at module level in the package is named somewhere
    besides its definitions: in the sources, the tests, the benchmark or the
    project file.  Dunder names (`__all__`, `__version__`) are read by Python
    and packaging tools, not by name."""
    texts = [p.read_text() for d in ("src", "tests", "perfbench") for p in sorted((REPO / d).rglob("*.py"))]
    texts.append((REPO / "pyproject.toml").read_text())
    words = collections.Counter(re.findall(r"\w+", "\n".join(texts)))
    defined = collections.Counter(
        name for path in (REPO / "src" / "casimir").rglob("*.py") for name in _module_level_names(path)
        if not (name.startswith("__") and name.endswith("__"))
    )
    assert sorted(name for name, n in defined.items() if words[name] <= n) == []
