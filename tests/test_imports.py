"""Import rules of the package, checked on each module's syntax tree.

No linter ships with the package, so these tests are its import lint:

* every imported name is used: it appears as a bare name anywhere in the
  module (an attribute base like ``np`` in ``np.zeros`` included) or is
  listed in ``__all__``. ``__future__`` imports and the re-exports of
  ``__init__.py`` are exempt;
* no module imports a ``_``-prefixed name from another module of the
  package, so a private helper or storage detail stays in its module;
* only ``quantum_algebra`` imports scipy, whose sparse arrays live inside
  its ``Tower``;
* ``spin_chain`` never imports ``boundary_charges``: the charges are built
  on the chain (and the spectrum's charge eigenspaces on its Hamiltonian),
  never the other way round.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "artifact"
MODULES = sorted(SRC.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def _imports(path: Path):
    """(line, module, name) of each name the module imports; ``module`` is
    None for a plain ``import``, and "." for a relative import of the package
    itself."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, None, alias.name
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                yield node.lineno, module, alias.name


def test_no_module_imports_a_private_name_of_another():
    private = [f"{path.name}:{line} {module}.{name}"
               for path in MODULES
               for line, module, name in _imports(path)
               if module is not None and module.startswith((".", "artifact"))
               and name.startswith("_")]
    assert private == []


def test_only_quantum_algebra_imports_scipy():
    importers = {path.name
                 for path in MODULES
                 for _, module, name in _imports(path)
                 if (module or name).split(".")[0] == "scipy"}
    assert importers <= {"quantum_algebra.py"}


def test_spin_chain_never_imports_boundary_charges():
    # "from .boundary_charges import x", "from . import boundary_charges" and
    # "import artifact.boundary_charges" each carry it as one dotted part
    parts = {part for _, module, name in _imports(SRC / "spin_chain.py")
             for part in f"{module or ''}.{name}".split(".")}
    assert "boundary_charges" not in parts
