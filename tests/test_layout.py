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


# Names kept on purpose although only the tests call them: the frame
# components of a tensor, which ROADMAP's item on `verify --family`
# recomputing every stored claim may adopt.
KEPT_FOR_TESTS = {"project_component"}


def test_every_module_level_name_is_used():
    """Each name defined at module level in the package is named somewhere
    besides its definitions: in the sources, the benchmark or the project
    file.  A name that only the tests use is dead code kept alive by its
    tests, unless it is one of `KEPT_FOR_TESTS`.  Dunder names (`__all__`,
    `__version__`) are read by Python and packaging tools, not by name."""
    texts = [p.read_text() for d in ("src", "perfbench") for p in sorted((REPO / d).rglob("*.py"))]
    texts.append((REPO / "pyproject.toml").read_text())
    words = collections.Counter(re.findall(r"\w+", "\n".join(texts)))
    defined = collections.Counter(
        name for path in (REPO / "src" / "casimir").rglob("*.py") for name in _module_level_names(path)
        if not (name.startswith("__") and name.endswith("__"))
    )
    unused = {name for name, n in defined.items() if words[name] <= n}
    assert sorted(unused - KEPT_FOR_TESTS) == []
    assert sorted(KEPT_FOR_TESTS - unused) == []  # the set names only such names


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


def _record_classes() -> list:
    """The class definitions of `Record` and of every subclass of it in the package."""
    classes = [node for path in sorted(PACKAGE.rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ClassDef)]
    records = {"Record"}
    grew = True
    while grew:
        subclasses = {c.name for c in classes if any(ast.unparse(b) in records for b in c.bases)}
        grew = not subclasses <= records
        records |= subclasses
    return [c for c in classes if c.name in records]


def test_records_leave_field_storing_to_record():
    """`Record.__init__` binds every record's fields, so a record's own
    ``__init__`` must check input, fill a default or start a memo."""
    found = [c.name for c in _record_classes() for s in c.body
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


def _attribute_reads() -> set:
    """The names read as an attribute (``x.name``) in the sources or the benchmark."""
    return {node.attr for d in ("src", "perfbench") for p in sorted((REPO / d).rglob("*.py"))
            for node in ast.walk(ast.parse(p.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


# Record fields that nothing in the package reads, kept because the
# acceptance tests read them: the Cartan tensor's invariance verdict
# (criterion 1) and the integrability reports of the scale factors
# (criterion 5).
READ_BY_ACCEPTANCE = {"CartanTensor.invariance_ok", "MuFactors.integrability"}


def test_every_record_field_is_read():
    """Each field of a record is read as an attribute (``x.field``) somewhere
    in the sources or the benchmark: a field that nothing reads is state the
    program stores for nothing.  `Record` reads every field by name for
    equality and repr; that does not count."""
    reads = _attribute_reads()
    unread = {f"{c.name}.{field}" for c in _record_classes() for s in c.body
              if isinstance(s, ast.Assign) and [ast.unparse(t) for t in s.targets] == ["_fields"]
              for field in ast.literal_eval(s.value) if field not in reads}
    assert sorted(unread - READ_BY_ACCEPTANCE) == []
    assert sorted(READ_BY_ACCEPTANCE - unread) == []  # the set names only such fields


# Methods that nothing in the package reads, kept because the acceptance tests
# call them: the ladder family of criterion 4 and a family's certificate by name.
METHODS_READ_BY_ACCEPTANCE = {"So3Model.ladder_family", "HarmonicFamily.certificate"}


def test_every_method_is_used():
    """Each method and property defined on a class in the package is read as
    an attribute (``x.method``) somewhere in the sources or the benchmark: a
    method that nothing calls is dead code, as an unused function is.  Dunder
    methods are called by Python, not by name."""
    reads = _attribute_reads()
    unused = {f"{c.name}.{s.name}" for path in sorted(PACKAGE.rglob("*.py"))
              for c in ast.walk(ast.parse(path.read_text())) if isinstance(c, ast.ClassDef)
              for s in c.body if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not (s.name.startswith("__") and s.name.endswith("__")) and s.name not in reads}
    assert sorted(unused - METHODS_READ_BY_ACCEPTANCE) == []
    assert sorted(METHODS_READ_BY_ACCEPTANCE - unused) == []  # the set names only such methods


def _atom_table_writes(path: pathlib.Path) -> list:
    """The lines of `path` that clear the kernel's table of canonical atoms
    or store into it: ``_ATOMS.clear()``, ``_ATOMS[...] = ...`` or ``del _ATOMS[...]``."""
    def is_table(node):
        return (isinstance(node, ast.Name) and node.id == "_ATOMS"
                or isinstance(node, ast.Attribute) and node.attr == "_ATOMS")

    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "clear" and is_table(node.func.value)):
            found.append(node.lineno)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
            found += [node.lineno for t in targets if isinstance(t, ast.Subscript) and is_table(t.value)]
    return found


def test_only_the_kernel_writes_its_atom_table():
    """Each atom is one object per key, so equality is identity; clearing
    the table or storing into it from outside `expr.py` could let a second
    equal atom exist."""
    paths = [p for d in ("src", "tests") for p in sorted((REPO / d).rglob("*.py")) if p.name != "expr.py"]
    found = {p.relative_to(REPO).as_posix(): lines for p in paths if (lines := _atom_table_writes(p))}
    assert found == {}


# CNum's representation: its constructor, its parts and its former real-valued
# helpers.  Other modules read a coefficient through `cnum.re_im`,
# `cnum.is_real` and `complex(c)`, so real coefficients can stay plain numbers.
_COEFFICIENT_INTERNALS = {"re", "im", "to_complex", "is_real"}


def test_only_the_kernel_touches_coefficient_internals():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name in ("cnum.py", "expr.py") and path.parent == PACKAGE:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "CNum":
                    found.append(f"{path.relative_to(PACKAGE).as_posix()}:{node.lineno} CNum(")
            elif (isinstance(node, ast.Attribute) and node.attr in _COEFFICIENT_INTERNALS
                  and not (isinstance(node.value, ast.Name) and node.value.id == "cnum")):
                found.append(f"{path.relative_to(PACKAGE).as_posix()}:{node.lineno} .{node.attr}")
    assert found == []
