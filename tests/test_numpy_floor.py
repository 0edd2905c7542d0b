"""The package runs on the NumPy floor it declares: its sources use no
NumPy name that the floor lacks."""

import ast
import re
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
