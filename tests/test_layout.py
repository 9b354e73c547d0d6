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


# Import the CLI and build one model under `python -S`, so that no site hook
# preloads modules; print which of the modules named in argv are loaded.
_COLD_START = """
import sys
import casimir.cli
import casimir.models

casimir.models.{model}_model()
print(sorted(set(sys.argv[1:]) & set(sys.modules)))
"""
_INTROSPECTION = ("dataclasses", "inspect", "typing")


@pytest.mark.parametrize("model, absent", [
    ("so3", _INTROSPECTION + ("casimir.models.bianchi2", "casimir.models.hypergeom")),
    ("bianchi2", _INTROSPECTION + ("casimir.models.so3",)),
])
def test_cold_start_loads_only_the_model_it_builds(model, absent):
    """A process that builds one model compiles neither the other model nor
    the standard library's code-generation and introspection modules."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _COLD_START.format(model=model), *absent],
        cwd=PACKAGE.parent,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_module_imports_dataclasses():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(n.split(".")[0] == "dataclasses" for n in names):
                found.append(path.relative_to(PACKAGE).as_posix())
    assert found == []


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


def test_only_evalcore_evaluates_functions():
    """Expressions are turned into numbers only by `casimir.evalcore`'s
    compiled programs.  (`hypergeom` takes ``cmath.sqrt`` of a float, not of
    an expression.)"""
    calls = re.compile(r"cmath\.(sin|cos|exp)\b")
    found = [p.relative_to(PACKAGE).as_posix() for p in sorted(PACKAGE.rglob("*.py"))
             if p.name != "evalcore.py" and calls.search(p.read_text())]
    assert found == []


def test_kernel_has_no_evaluator():
    """The kernel builds, differentiates and prints expressions; it does not evaluate them."""
    assert not hasattr(casimir.expr, "evaluate")


def _stores_only(init: ast.FunctionDef) -> bool:
    """Whether an ``__init__`` without defaults does nothing but store its
    arguments, through ``self.__dict__.update(...)``, ``super().__init__(...)``
    or ``self.name = ...``."""
    if init.args.defaults or any(init.args.kw_defaults):
        return False
    body = [s for s in init.body
            if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]  # docstring
    for stmt in body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            if ast.unparse(stmt.value.func) not in ("self.__dict__.update", "super().__init__"):
                return False
        elif isinstance(stmt, ast.Assign):
            if not all(ast.unparse(t).startswith("self.") for t in stmt.targets):
                return False
        else:
            return False
    return True


def test_records_leave_field_storing_to_record():
    """`Record.__init__` binds every record's fields, so a record's own
    ``__init__`` must check input, fill a default or start a memo."""
    classes = [node for path in sorted(PACKAGE.rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ClassDef)]
    records = {"Record"}
    grew = True
    while grew:
        subclasses = {c.name for c in classes if any(ast.unparse(b) in records for b in c.bases)}
        grew = not subclasses <= records
        records |= subclasses
    found = [c.name for c in classes if c.name in records for s in c.body
             if isinstance(s, ast.FunctionDef) and s.name == "__init__" and _stores_only(s)]
    assert found == []


def _private_reads(path: pathlib.Path) -> list:
    """The `_`-prefixed names that a module reads from another module of the
    package: through an attribute of an imported module, or by import."""
    tree = ast.parse(path.read_text())
    modules = set()  # names bound to a package module in this file
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if not node.module:  # `from . import expr as ex` binds modules
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_") and not node.attr.startswith("__")):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    """A module's `_`-prefixed names are its own: what another module needs is public."""
    found = {path.relative_to(PACKAGE).as_posix(): _private_reads(path) for path in sorted(PACKAGE.rglob("*.py"))}
    assert {name: reads for name, reads in found.items() if reads} == {}
