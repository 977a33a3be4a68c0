"""Module-layout rules of the package.

No module imports a sibling's ``_private`` helper, so each helper has
one owner; shared kernels live under public names in ``_numeric``.
Importing the command line must stay cheap: ``scipy.signal`` alone
adds most of a second to start-up, and ``scipy.optimize`` about a
quarter of one.
"""

import ast
import glob
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

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


def _loaded_after_cli_import(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    code = f"import sys, hdcoint.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout.strip() == "True"


def test_cli_import_leaves_scipy_signal_unloaded():
    assert not _loaded_after_cli_import("scipy.signal")


def test_cli_import_leaves_scipy_optimize_unloaded():
    assert not _loaded_after_cli_import("scipy.optimize")
