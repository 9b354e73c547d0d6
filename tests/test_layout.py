"""Package layout guards: pure-Python runtime with no third-party imports."""

import pathlib
import subprocess
import sys

import casimir

PACKAGE = pathlib.Path(casimir.__file__).parent

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


def test_no_compiled_or_generated_sources():
    found = [p for pattern in ("*.c", "*.so", "*.pyx") for p in PACKAGE.rglob(pattern)]
    assert found == []
