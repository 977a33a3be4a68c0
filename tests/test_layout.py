"""Module-layout rules of the package.

No module imports a sibling's ``_private`` helper, so each helper has
one owner; shared kernels live under public names in ``_numeric``.
The package runs on numpy alone: no module imports scipy, and both
commands, with every forecasting lane, run with scipy unimportable.
scipy took half of the 0.7 s a fresh interpreter spent importing the
command line, and its first LAPACK call loaded a second OpenBLAS, about
20 MB of peak RSS a run.  Importing the command line must start no
thread either: the bootstrap's worker pool lives for one round.  Every
golden file is named by some test, so none outlives the check that
reads it.  Each forecasting lane is one record of the harness's lane
table: a built-in lane's name is written there and nowhere else in the
harness or the command line.  Every name a module's ``__all__`` lists,
the package's included, exists, so a name deleted from a module but not
from an export list fails here, not at a user's import.
"""

import ast
import glob
import importlib
import os
import subprocess
import sys

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")

#: (importing module, imported module, name) -> why the import stays
ALLOWED_PRIVATE = {
    ("bootstrap", "unitroot", "_adf_tstat_batch"):
        "the benchmark tracer wraps this name in hdcoint.bootstrap",
    ("bootstrap", "unitroot", "_gls_detrend_batch"):
        "the benchmark tracer wraps this name in hdcoint.bootstrap",
    ("harness", "bootstrap", "_multiplier_matrix"):
        "the benchmark tracer wraps this name in hdcoint.harness",
}


def _private_imports():
    found = set()
    for path in sorted(glob.glob(os.path.join(SRC, "hdcoint", "*.py"))):
        module = os.path.splitext(os.path.basename(path))[0]
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("hdcoint"):
                continue
            source = (node.module or "").split(".")[-1]
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.add((module, source, alias.name))
    return found


def test_no_private_imports_across_modules():
    unexpected = _private_imports() - set(ALLOWED_PRIVATE)
    assert not unexpected, sorted(unexpected)


def _imported_packages(path):
    """Top-level packages that the module at ``path`` imports, anywhere in
    its source."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_no_module_imports_scipy():
    paths = sorted(glob.glob(os.path.join(SRC, "hdcoint", "*.py")))
    assert paths
    assert [os.path.basename(path) for path in paths
            if "scipy" in _imported_packages(path)] == []


def _after_cli_import(expr):
    """``expr`` printed by a fresh interpreter that imported the CLI."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    code = f"import sys, threading, hdcoint.cli; print({expr})"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout.strip()


def _loaded_after_cli_import(module):
    return _after_cli_import(f"{module!r} in sys.modules") == "True"


def test_cli_import_leaves_scipy_signal_unloaded():
    assert not _loaded_after_cli_import("scipy.signal")


def test_cli_import_leaves_scipy_optimize_unloaded():
    assert not _loaded_after_cli_import("scipy.optimize")


def test_commands_run_without_scipy(tmp_path):
    # a None entry in sys.modules makes every import of scipy fail
    panel = os.path.join(TESTS, "golden", "panel.csv")
    lanes = ",".join(sorted(BUILT_IN_LANES))
    code = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None",
        "from hdcoint.cli import main",
        f"rc = main(['classify', '--input', {panel!r}, '--boot-reps', '199',"
        f" '--output', {str(tmp_path / 'orders')!r}])",
        f"rc = rc or main(['forecast', '--input', {panel!r}, '--methods',"
        f" {lanes!r}, '--window', '397', '--horizons', '1', '--factors',"
        f" '1', '--targets', 's1', '--boot-reps', '199', '--output',"
        f" {str(tmp_path / 'forecast')!r}])",
        "sys.exit(rc)"])
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]


def test_cli_import_starts_no_thread():
    assert _after_cli_import("threading.active_count()") == "1"


def test_every_golden_file_is_named_by_a_test():
    sources = ""
    for path in glob.glob(os.path.join(TESTS, "*.py")):
        with open(path, encoding="utf-8") as fh:
            sources += fh.read()
    golden = sorted(os.listdir(os.path.join(TESTS, "golden")))
    assert golden
    unread = [name for name in golden if name not in sources]
    assert not unread, unread


BUILT_IN_LANES = {"ar", "var", "favar", "ml", "qr_vecm", "pml", "fecm",
                  "ndfm", "specs", "fa_specs", "padl", "fapadl"}


def _lane_literals(module):
    """(line, name, inside the ``_LANES`` table) for every string constant
    of ``module`` that is a built-in lane's name."""
    path = os.path.join(SRC, "hdcoint", f"{module}.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    table = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign) and \
                getattr(node.target, "id", None) == "_LANES":
            table = {id(key) for key in node.value.keys}
    return [(node.lineno, node.value, id(node) in table)
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in BUILT_IN_LANES]


def test_each_lane_is_named_once_in_its_record():
    found = _lane_literals("harness")
    assert sorted(name for _, name, keyed in found if keyed) == \
        sorted(BUILT_IN_LANES)
    assert [(line, name) for line, name, keyed in found if not keyed] == []


def test_the_command_line_names_no_lane():
    assert _lane_literals("cli") == []


def test_every_exported_name_resolves():
    modules = ["hdcoint"] + [
        "hdcoint." + os.path.splitext(os.path.basename(path))[0]
        for path in sorted(glob.glob(os.path.join(SRC, "hdcoint", "*.py")))
        if not path.endswith("__init__.py")]
    missing = []
    for name in modules:
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())
                    if not hasattr(module, attr)]
    assert not missing, missing
