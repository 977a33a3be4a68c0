"""Exception hierarchy shared across the toolkit, the one rule for a
window's result or its error (:func:`attempt`, :func:`per_window`), and
the one rule for a stack of matrices that a linear-algebra routine fails
on (:func:`per_matrix`).

The command line maps these onto exit codes: parameter/configuration
problems exit 1, data problems exit 2 and numerical failures exit 3.
"""

import numpy as np


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(ToolkitError):
    """An argument or configuration value violates a documented contract."""


class DataError(ToolkitError):
    """Input data violates a documented precondition."""


class NumericalError(ToolkitError):
    """A numerical routine failed (singularity, instability, overflow)."""


class ConvergenceError(NumericalError):
    """An iterative solver exhausted its iteration budget."""


#: the errors that fail one window of a stack or of a rolling run, held
#: as that window's result; any other stops the caller
WINDOW_ERRORS = (ToolkitError, np.linalg.LinAlgError)


def attempt(fn, *args):
    """``fn(*args)``, or the window error it raised."""
    try:
        return fn(*args)
    except WINDOW_ERRORS as exc:
        return exc


def per_window(fn, results, *args, workers=1) -> list:
    """Per window, ``fn(result, *entries)`` attempted, with ``entries``
    the window's entry of each sequence in ``args``; a window whose
    result is an error keeps that error, the same object.  The package's
    one map: given ``os.fork`` and 2 or more of ``workers`` (``None``:
    every usable CPU) and of windows to attempt, these run on forked
    processes, at most one each, joined within the call; each inherits
    ``fn`` and the windows and pickles its outcomes back.  Otherwise
    they run in this process."""
    import os
    items = list(zip(results, *args))
    live = [a for a in items if not isinstance(a[0], WINDOW_ERRORS)]
    if workers is None:
        workers = len(os.sched_getaffinity(0)) if hasattr(
            os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(workers, len(live))
    if workers < 2 or not hasattr(os, "fork"):
        done = (attempt(fn, *a) for a in live)
    else:
        import multiprocessing
        from concurrent.futures.process import ProcessPoolExecutor
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, ctx, _inherit, (fn, live)) as pool:
            done = pool.map(_attempt_inherited, range(len(live)))
    return [a[0] if isinstance(a[0], WINDOW_ERRORS) else next(done)
            for a in items]


def _inherit(*work) -> None:
    """Keep a forked worker's function and windows."""
    global _work
    _work = work


def _attempt_inherited(i: int):
    """Window ``i`` of the worker's call, attempted."""
    return attempt(_work[0], *_work[1][i])


def per_matrix(fn, *stacks) -> tuple:
    """``fn`` (a numpy.linalg routine) over stacks of matrices in one
    call, and the LinAlgError of each matrix whose own call raises one,
    by position: ``(out, failed)``, ``failed`` empty when the one call
    succeeds.  A failing matrix gets NaN in ``out`` and fails alone; the
    others come out as in one call (numpy's batched LAPACK loops over the
    stack)."""
    try:
        return fn(*stacks), {}
    except np.linalg.LinAlgError:
        failed = {i: e for i, e in enumerate(
            attempt(fn, *args) for args in zip(*stacks))
            if isinstance(e, np.linalg.LinAlgError)}
    ok = np.ones(len(stacks[0]), dtype=bool)
    ok[list(failed)] = False
    part = fn(*(x[ok] for x in stacks))
    out = np.full((ok.size,) + part.shape[1:], np.nan)
    out[ok] = part
    return out, failed
