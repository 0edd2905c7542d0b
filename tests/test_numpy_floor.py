"""The package runs on the floor and the dependencies it declares: its
sources use no NumPy name that the floor lacks, every private NumPy name
they take is one listed here, and the third-party modules they import
are those of pyproject's ``dependencies``, by DISTRIBUTIONS.

These tests have run on NumPy 2.4.6 only, so that the names of PRIVATE
exist at the 1.24 floor is unverified; a new private dependency is a
reviewed edit of that set."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FLOOR = "1.24"

# names of numpy and numpy.linalg that NumPy 1.24 lacks: the array-API
# functions and aliases of NumPy 2.x
NEWER_THAN_FLOOR = frozenset({
    "vecdot", "matvec", "vecmat", "concat", "permute_dims", "unstack",
    "astype", "cumulative_sum", "isdtype", "bool", "matrix_transpose",
    "vector_norm", "matrix_norm",
})

# the spray's direct entries (see the geometry and _kernels docstrings)
PRIVATE = frozenset({"numpy.linalg._umath_linalg", "np.bincount._implementation"})

# the distribution of each third-party module the package imports: a new
# runtime import or a stale dependency is a reviewed edit of this map
DISTRIBUTIONS = {"numpy": "numpy", "yaml": "PyYAML"}


def _newer_names(source):
    """The names of NEWER_THAN_FLOOR that ``source`` takes from numpy or
    numpy.linalg, by attribute (``np.concat``, ``np.linalg.vecdot``) or by
    import; a method such as ``ndarray.astype`` does not count."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in NEWER_THAN_FLOOR:
            owner = ast.unparse(node.value)
            if owner in ("np", "numpy", "np.linalg", "numpy.linalg"):
                found.add(f"{owner}.{node.attr}")
        elif (isinstance(node, ast.ImportFrom)
              and node.module in ("numpy", "numpy.linalg")):
            found.update(f"{node.module}.{a.name}" for a in node.names
                         if a.name in NEWER_THAN_FLOOR)
    return found


def test_the_declared_floor_is_the_one_scanned_for():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'"numpy>=([0-9.]+)"', text).group(1) == FLOOR


def test_the_scan_sees_a_newer_name_and_passes_a_method():
    assert _newer_names("x = np.vecdot(a, b)\n"
                        "n = np.linalg.vector_norm(a)\n"
                        "from numpy import concat\n") == {
        "np.vecdot", "np.linalg.vector_norm", "numpy.concat"}
    assert _newer_names("x = a.astype(float)\ny = np.bool_(x)\n") == set()


def test_the_package_uses_no_numpy_name_newer_than_its_floor():
    used = {f"{path.name}: {name}"
            for path in sorted((ROOT / "src" / "finslerlab").glob("*.py"))
            for name in _newer_names(path.read_text(encoding="utf-8"))}
    assert not used, sorted(used)


def _private_names(source):
    """The private names ``source`` takes from numpy: an attribute starting
    with ``_`` of a numpy name (``np.bincount._implementation``), or an
    import of one (``from numpy.linalg import _umath_linalg``)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            owner = ast.unparse(node.value)
            if owner.split(".")[0] in ("np", "numpy"):
                found.add(f"{owner}.{node.attr}")
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "numpy"):
            found.update(f"{node.module}.{a.name}" for a in node.names
                         if a.name.startswith("_") or "._" in f".{node.module}")
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names
                         if a.name.split(".")[0] == "numpy" and "._" in a.name)
    return found


def test_the_private_scan_sees_attributes_and_imports():
    assert _private_names("f = np.bincount._implementation\n"
                          "from numpy.linalg import _umath_linalg, inv\n"
                          "from numpy._core import umath\n"
                          "import numpy.linalg._linalg\n"
                          "v = x._private + np.linalg.inv(a)\n") == {
        "np.bincount._implementation", "numpy.linalg._umath_linalg",
        "numpy._core.umath", "numpy.linalg._linalg"}


def test_the_package_takes_only_the_listed_private_numpy_names():
    used = set().union(*(_private_names(path.read_text(encoding="utf-8"))
                         for path in (ROOT / "src" / "finslerlab").glob("*.py")))
    assert used == PRIVATE


def _third_party_modules(source):
    """The top-level modules outside the standard library that an
    ``import`` or ``from`` of ``source`` names at any depth; a relative
    import does not count."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found - sys.stdlib_module_names


def test_the_dependency_scan_sees_nested_imports_and_skips_the_rest():
    assert _third_party_modules("import math, numpy.linalg\n"
                                "from . import jets\n"
                                "from .errors import DomainError\n"
                                "from yaml import safe_load\n"
                                "def f():\n"
                                "    from scipy.integrate import quad\n"
                                "    import os.path\n") == {
        "numpy", "yaml", "scipy"}


def test_the_package_imports_exactly_the_dependencies_it_declares():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S).group(1)
    declared = set(re.findall(r'"([A-Za-z0-9_.-]+)', block))
    used = set().union(*(_third_party_modules(path.read_text(encoding="utf-8"))
                         for path in (ROOT / "src" / "finslerlab").glob("*.py")))
    assert used == set(DISTRIBUTIONS)
    assert declared == set(DISTRIBUTIONS.values())
