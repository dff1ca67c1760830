"""Import rules of the package, checked on each module's syntax tree, and
what a run of each command loads.

No linter ships with the package, so these tests are its import lint:

* every imported name is used: it appears as a bare name anywhere in the
  module (an attribute base like ``np`` in ``np.zeros`` included) or is
  listed in ``__all__``. ``__future__`` imports and the re-exports of
  ``__init__.py`` are exempt;
* every name a module lists in ``__all__`` is bound in it, so a deleted
  function cannot stay exported;
* no module imports a ``_``-prefixed name from another module of the
  package, so a private helper or storage detail stays in its module;
* no module imports scipy: the package runs on numpy alone, and a
  ``Tower`` above ``CSR_ABOVE`` rows keeps its images as numpy entry lists;
* ``spin_chain`` never imports ``boundary_charges``: the charges are built
  on the chain (and the spectrum's charge eigenspaces on its Hamiltonian),
  never the other way round.

A fresh interpreter then shows that ``verify --suite all`` at its defaults,
``spectrum`` and a charge build on a sparse tower load no scipy either.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_name_in_all_is_bound(path):
    module = importlib.import_module("artifact" if path.stem == "__init__"
                                     else f"artifact.{path.stem}")
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []


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


def test_no_module_imports_scipy():
    # any import statement, at module level or in a function body
    importers = [f"{path.name}:{line}"
                 for path in MODULES
                 for line, module, name in _imports(path)
                 if (module or name).split(".")[0] == "scipy"]
    assert importers == []


# One fresh interpreter, so that no other test's imports hide what the runs
# load: argv[1] is the verify report's path, and the script prints the scipy
# modules loaded after the runs and one charge build at (2, 7), whose towers
# have up to 2^7 = 128 > CSR_ABOVE rows and so are sparse.
_RUNS = """
import json, sys
from artifact import cli
from artifact.boundary_charges import build_boundary_charges
from artifact.params import ModelParams

assert cli.main(["verify", "--suite", "all", "--out", sys.argv[1]]) == 0
for n, sites in ((3, 6), (2, 10)):
    cli.run_spectrum(dict(cli.DEFAULTS, n=n, sites=sites))
d = cli.DEFAULTS
charges = build_boundary_charges(ModelParams(n=2, mu=d["mu"], m=d["m"], zeta=d["zeta"], sites=7), 7)
assert charges.tower.sparse
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def test_verify_spectrum_and_a_sparse_tower_load_no_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", _RUNS, str(tmp_path / "verify.json")],
                          cwd=tmp_path, env=env, stdout=subprocess.PIPE, text=True,
                          check=True, timeout=300)
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []


def test_spin_chain_never_imports_boundary_charges():
    # "from .boundary_charges import x", "from . import boundary_charges" and
    # "import artifact.boundary_charges" each carry it as one dotted part
    parts = {part for _, module, name in _imports(SRC / "spin_chain.py")
             for part in f"{module or ''}.{name}".split(".")}
    assert "boundary_charges" not in parts
