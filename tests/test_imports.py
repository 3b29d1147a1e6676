"""Which commands load SciPy: only ``solve`` does; ``gen``, ``analyze`` and
``rank`` run on NumPy alone, and without ``concurrent.futures``, which only
the solve's worker thread needs. Each check starts a fresh interpreter, since
this one has loaded SciPy for other tests. And which modules import the
scalar oracle: none but the package's ``__init__``."""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import gridgauge

# Run with argv [package root, work directory, "1" to solve after the
# other commands]; prints a JSON record last.
SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import gridgauge
from gridgauge import cli

def scipy_modules():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))

work = sys.argv[2]
quad, irr = f"{work}/quad.txt", f"{work}/irr.txt"
commands = [
    ["gen", "--kind", "quad", "--nx", "9", "--ny", "9", "-o", quad],
    ["gen", "--kind", "tri-irregular", "--nx", "9", "--ny", "9", "-o", irr],
    ["analyze", irr, "--stencil", "vertex", "--vtk", f"{work}/irr.vtk"],
    ["rank", quad, irr],
]
record = {"codes": [], "scipy": []}
with contextlib.redirect_stdout(io.StringIO()):
    for argv in commands:
        record["codes"].append(cli.main(argv))
    record["scipy"] = scipy_modules()
    record["futures"] = "concurrent.futures" in sys.modules
    if sys.argv[3] == "1":
        record["solve"] = cli.main(["solve", irr, "--stencil", "vertex"])
        record["scipy_after_solve"] = "scipy.sparse.linalg" in sys.modules
print(json.dumps(record))
"""


def test_only_solve_loads_scipy(tmp_path):
    with_scipy = importlib.util.find_spec("scipy") is not None
    root = str(Path(gridgauge.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, root, str(tmp_path),
         "1" if with_scipy else "0"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["codes"] == [0, 0, 0, 0]
    assert record["scipy"] == []
    assert not record["futures"]
    if with_scipy:
        assert (record["solve"], record["scipy_after_solve"]) == (0, True)


# Blocks SciPy as a NumPy-only install lacks it; argv [package root, work
# directory]. Prints the exit codes of solve, with and without
# --first-order, after generating a grid.
NO_SCIPY = """
import sys
sys.modules["scipy"] = None
sys.path.insert(0, sys.argv[1])
from gridgauge import cli

grid = f"{sys.argv[2]}/quad.txt"
codes = [cli.main(["gen", "--kind", "quad", "--nx", "5", "--ny", "5",
                   "-o", grid])]
for extra in ([], ["--first-order"]):
    codes.append(cli.main(["solve", grid, *extra]))
print(codes)
"""


def test_solve_without_scipy_is_a_usage_error(tmp_path):
    root = str(Path(gridgauge.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY, root, str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout == "[0, 2, 2]\n", proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("gridgauge: solve needs SciPy: ")
               for line in lines)


def _top_level_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _imports_oracle(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(m.split(".")[-1] == "oracle" for m in modules):
            return True
    return False


def test_only_the_package_init_imports_the_oracle():
    package = Path(gridgauge.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    oracle_names = _top_level_names(trees.pop("oracle.py"))
    assert {"build_stencil", "build_system", "f_measure", "g_measure",
            "apply_gradient", "Stencil", "LsqSystem"} <= oracle_names
    importers = [name for name, tree in trees.items() if _imports_oracle(tree)]
    assert importers == ["__init__.py"]
    for name, tree in trees.items():
        assert not _top_level_names(tree) & oracle_names, name
