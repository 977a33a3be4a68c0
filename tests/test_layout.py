"""Module-layout rules of the package.

No module imports a sibling's ``_private`` helper, so each helper has
one owner; shared kernels live under public names in ``_numeric``.
The package runs on numpy alone: no module imports scipy, and both
commands, with every forecasting lane, run with scipy unimportable.
scipy took half of the 0.7 s a fresh interpreter spent importing the
command line, and its first LAPACK call loaded a second OpenBLAS, about
20 MB of peak RSS a run.  Importing the command line must start no
thread either, nor load the process-pool modules: the bootstrap's worker
processes live for one round, which imports them.  Every golden file is
named by some test, so none outlives the check that reads it.  Each forecasting lane is one record of the harness's lane
table: a built-in lane's name is written there and nowhere else in the
harness or the command line.  Every name a module's ``__all__`` lists,
the package's included, exists, so a name deleted from a module but not
from an export list fails here, not at a user's import.  Every public
function and public method is entered by some command on a small panel,
or is listed in ``KEPT`` with the reason it stays, so code that nothing
runs is seen when it appears.
"""

import ast
import glob
import importlib
import json
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


def test_cli_import_loads_no_process_pool():
    # 13-21 ms of imports that only a round forking workers needs
    assert not _loaded_after_cli_import("multiprocessing")
    assert not _loaded_after_cli_import("concurrent.futures.process")


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


#: public functions, and public or dunder methods of public classes, that
#: no command of the reachability run below enters, with why each stays
KEPT = {
    "bootstrap.awb_draw": "item 16: oracle of the batched multiplier draw",
    "unitroot.dfgls_stat": "item 16: oracle of the batched DF-GLS legs",
    "unitroot.union_stat": "item 16: oracle of the batched union statistic",
    "singleeq.kkt_residual": "item 16: oracle of the sparse-group-lasso "
                             "solvers' optimality",
    "dgp.simulate_factor_dgp": "item 17: factor panels for the union tests",
    "dgp.FactorDgpParams.__post_init__": "item 17: simulate_factor_dgp's "
                                         "parameters",
    "dgp.FactorDgpParams.n": "item 17: simulate_factor_dgp's parameters",
    "dgp.FactorDgpParams.k": "item 17: simulate_factor_dgp's parameters",
    "panel.apply_transform": "item 12: the level stage of codes 4-7",
    "factors.count_factors": "the NDFM factor count when none is given",
    "harness.register_method": "item 7: the oracle-lane fixture",
    "harness.ar_benchmark": "the one-series AR forecast; oracle of the AR "
                            "lane's stacked fit (test_lag_bic, test_harness)",
    "singleeq.SingleEqFit.nonzero": "the benchmark reads a fit's support",
    "vecm.select_rank_ic": "the rank criterion; the benchmark's tracer "
                           "looks it up in harness and factors",
}

_TRACE_CALLS = """
import json, os, sys, threading
pkg, calls = sys.argv[1], json.loads(sys.argv[2])
entered = set()

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(pkg):
        module = os.path.splitext(os.path.basename(code.co_filename))[0]
        entered.add(module + "." + code.co_qualname)

threading.setprofile(profile)
sys.setprofile(profile)
from hdcoint.cli import main
for argv in calls:
    if main(argv):
        sys.exit(f"failed: {argv}")
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""


def _public_names():
    """``module.function`` and ``module.Class.method`` for every public
    function and every public or dunder method of a public class."""
    names = set()
    for path in sorted(glob.glob(os.path.join(SRC, "hdcoint", "*.py"))):
        module = os.path.splitext(os.path.basename(path))[0]
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in tree.body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                names.add(f"{module}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                names.update(
                    f"{module}.{node.name}.{f.name}" for f in node.body
                    if isinstance(f, ast.FunctionDef) and (
                        not f.name.startswith("_") or f.name.endswith("__")))
    return names


def test_every_public_name_is_reached_or_kept(tmp_path):
    # every command, classify method and lane on small panels, B = 199
    def out(name):
        return str(tmp_path / name)

    with open(out("codes.csv"), "w") as fh:
        fh.write("s1,1\ns2,2\ns3,6\n")
    with open(out("loss.csv"), "w") as fh:
        fh.write("a,b\n" + "".join(f"{i * 7 % 5 + 1},{i * 3 % 4 + 1}\n"
                                   for i in range(30)))
    boot = ["--boot-reps", "199"]
    mixed = ["--input", out("mixed.csv")]
    calls = [
        ["simulate", "--dgp", "mixed", "--n0", "1", "--n1", "1", "--n2", "1",
         "--t-obs", "80", "--output", out("mixed.csv")],
        ["simulate", "--dgp", "vecm", "--n-series", "4", "--rank", "1",
         "--t-obs", "64", "--output", out("vecm.csv")],
        *[["classify", *mixed, "--methods", method, *boot, "--output",
           out(method + ".json")]
          for method in ("iadf", "bsqt", "bfdr", "naive")],
        ["classify", *mixed, "--codes", out("codes.csv"), "--strategy", "1",
         *boot, "--output", out("strategy1.json")],
        ["forecast", "--input", out("vecm.csv"), "--methods",
         ",".join(sorted(BUILT_IN_LANES)), "--window", "60", "--horizons",
         "1,3", "--factors", "1", "--targets", "s1,s2", *boot, "--output",
         out("forecast")],
        ["nowcast", *mixed, "--codes", out("codes.csv"), "--methods",
         "ar,specs,fa_specs,padl,fapadl", "--window", "78", "--factors",
         "1", "--targets", "s1", *boot, "--output", out("nowcast")],
        ["mcs", "--input", out("loss.csv"), *boot, "--output",
         out("mcs.json")]]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    run = subprocess.run(
        [sys.executable, "-c", _TRACE_CALLS,
         os.path.join(SRC, "hdcoint") + os.sep, json.dumps(calls)],
        env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    entered = set(json.loads(run.stdout.splitlines()[-1]))
    # a lane that failed its windows would hide what it never reached
    for report in ("forecast.json", "nowcast.json"):
        with open(out(report), encoding="utf-8") as fh:
            assert json.load(fh)["diagnostics"] == []
    unreached = _public_names() - entered
    assert sorted(unreached - set(KEPT)) == []
    # a kept name that is gone, or that a command now reaches, leaves
    assert sorted(set(KEPT) - unreached) == []
