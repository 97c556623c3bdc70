"""Outside-in span tracing of the nchsolver layers.

The tracer wraps public callables of the library from outside, for the
duration of one traced cycle, and keeps every span in memory:
``[name, start_ns, end_ns, parent_index, child_ns, bytes, error]``.  A
span's self time is its duration minus the time covered by its direct
children (single-threaded, so children never overlap).

A name that a module imported directly (``from .solvers import
newton_solve``) is a separate binding, so each target function is replaced
at every place in the ``nchsolver`` package where it is bound.  The FFT
entry points are replaced in the ``numpy.fft`` and ``scipy.fft``
namespaces, which is where the library looks them up (``np.fft.fft2``).
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy.fft
import scipy.fft

# (module, attribute, span name).  ``driver._record`` is private, but it is
# the diagnostics layer the benchmark must separate from the step itself.
HOOKS = (
    ("nchsolver.driver", "run", "driver.run"),
    ("nchsolver.driver", "_record", "driver.record"),
    ("nchsolver.steppers", "advance", "steppers.advance"),
    ("nchsolver.steppers", "check_solvability", "steppers.check_solvability"),
    ("nchsolver.solvers", "newton_solve", "solvers.newton"),
    ("nchsolver.solvers", "gmres", "solvers.gmres"),
    ("nchsolver.kernels", "sample_kernel", "kernels.sample"),
    ("nchsolver.kernels", "convolve", "kernels.convolve"),
    ("nchsolver.kernels", "convolve_values", "kernels.convolve"),
    ("nchsolver.spectral", "make_cache", "spectral.make_cache"),
    ("nchsolver.spectral", "laplacian_apply", "spectral.laplacian_apply"),
    ("nchsolver.spectral", "norm_neg1", "spectral.norm_neg1"),
    ("nchsolver.energetics", "potential_value", "energetics.potential"),
    ("nchsolver.energetics", "potential_d1", "energetics.potential"),
    ("nchsolver.energetics", "potential_d2", "energetics.potential"),
    ("nchsolver.energetics", "energy", "energetics.energy"),
    ("nchsolver.fieldio", "write_field", "fieldio.write"),
    ("nchsolver.fieldio", "write_checkpoint", "fieldio.write"),
    ("nchsolver.fieldio", "write_diagnostics", "fieldio.write"),
    ("nchsolver.config", "load_config", "config.load"),
)

FFT_NAMESPACES = (numpy.fft, scipy.fft)
FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")

# Callables handed to newton_solve; each call is one span of its own.
NEWTON_CALLBACKS = {"residual_map": "solvers.residual",
                    "jacobian_apply": "solvers.matvec",
                    "preconditioner": "solvers.precond"}

NAME, START, END, PARENT, CHILD, BYTES, ERROR = range(7)


def _fft_bytes(args, kwargs, result):
    """Bytes read and written by one transform, computed from array sizes."""
    source = args[0] if args else kwargs.get("a", kwargs.get("x"))
    return getattr(source, "nbytes", 0) + getattr(result, "nbytes", 0)


def _file_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


class Tracer:
    """Installs span wrappers, records spans, and removes the wrappers again."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn, measure=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0, 0, parent, 0, 0, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += rec[END] - rec[START]
            if measure is not None:
                rec[BYTES] = measure(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_newton(self, fn):
        """Span around newton_solve that also spans the callables passed in."""
        signature = inspect.signature(fn)
        inner = self._wrap("solvers.newton", fn)

        def newton(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            for param, span_name in NEWTON_CALLBACKS.items():
                if param in bound.arguments:
                    bound.arguments[param] = self._wrap(span_name, bound.arguments[param])
            return inner(*bound.args, **bound.kwargs)

        newton.__wrapped__ = fn
        return newton

    def _replace(self, namespace, attr, original, wrapper):
        setattr(namespace, attr, wrapper)
        self._patched.append((namespace, attr, original))

    def install(self):
        """Wrap every hook target wherever the nchsolver package binds it."""
        self.missing = []
        packages = [m for n, m in list(sys.modules.items())
                    if m is not None and (n == "nchsolver" or n.startswith("nchsolver."))]
        targets = []
        for module_name, attr, span_name in HOOKS:
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if span_name == "solvers.newton":
                wrapper = self._wrap_newton(original)
            else:
                wrapper = self._wrap(span_name, original,
                                     _file_bytes if span_name == "fieldio.write" else None)
            targets.append((original, wrapper))
        for namespace in FFT_NAMESPACES:
            for attr in FFT_NAMES:
                original = getattr(namespace, attr)
                wrapper = self._wrap("fft", original, _fft_bytes)
                self._replace(namespace, attr, original, wrapper)
                targets.append((original, wrapper))
        for module in packages:
            for attr, value in list(vars(module).items()):
                for original, wrapper in targets:
                    if value is original:
                        self._replace(module, attr, original, wrapper)
                        break

    def remove(self) -> list[str]:
        """Restore every wrapped binding; returns the ones left wrapped."""
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        left = [f"{namespace.__name__}.{attr}" for namespace, attr, original in self._patched
                if getattr(namespace, attr) is not original]
        self._patched.clear()
        return left


def aggregate(spans, start: int = 0) -> dict:
    """Per span name: count, total and self time (ns), bytes and errors."""
    totals = defaultdict(lambda: {"count": 0, "total_ns": 0, "self_ns": 0,
                                  "bytes": 0, "errors": 0})
    for rec in spans[start:]:
        entry = totals[rec[NAME]]
        duration = rec[END] - rec[START]
        entry["count"] += 1
        entry["total_ns"] += duration
        entry["self_ns"] += duration - rec[CHILD]
        entry["bytes"] += rec[BYTES]
        entry["errors"] += int(rec[ERROR])
    return totals
