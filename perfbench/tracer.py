"""Per-layer tracing from outside the program.

Every public function of each `harmotop` layer module is wrapped, and the
wrapper is installed under every module attribute that binds the original
function (so `from .numerics import bessel_j` call sites are traced too).
Everything is aggregated into counters; no per-call record is kept, so
memory stays bounded however hot a kernel is.

Time accounting:
  * `<module>.<fn>.self_s` is the time inside `fn` minus the time spent in
    other traced functions it called.
  * `<module>.self_s` is the sum of those self times over the module.
  * `<module>.calls` counts entries into the layer from another layer (or
    from the benchmark); a nested call into the same layer counts once.
  * Scalar kernels in COUNT_ONLY are counted but not timed, because a
    timer around each of them would cost more than the kernel; their time
    stays in the self time of their caller.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = (
    "cli",
    "symbols",
    "radial_toeplitz",
    "numerics",
    "harmonic_basis",
    "grids",
    "galerkin_toeplitz",
    "kernel_berezin",
    "boundary_reduction",
    "krein_counting",
)

COUNT_ONLY = frozenset(
    {
        "harmonic_basis.multiplicity",
        "harmonic_basis.cumulative_multiplicity",
        "numerics.log_gamma",
    }
)

PACKAGE = "harmotop"


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """Wraps the layer functions of the package; `install`/`uninstall` swap them in and out."""

    def __init__(self):
        self.calls = defaultdict(int)      # "<layer>.<fn>" -> calls
        self.self_s = defaultdict(float)   # "<layer>.<fn>" -> self time
        self.layer_calls = defaultdict(int)
        self.extra = defaultdict(float)    # derived counters, see _after
        self.functions: dict[str, str] = {}  # "<layer>.<fn>" -> layer
        self._stack: list[list] = []       # [layer, child_time]
        self._swaps: list[tuple[object, str, object]] = []
        self._last_node_shape = (0, 0)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in _public_functions(module):
                key = f"{layer}.{name}"
                self.functions[key] = layer
                wrappers[id(fn)] = (fn, self._wrap(fn, key, layer))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, val in list(vars(module).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(module, attr, hit[1])
                    self._swaps.append((module, attr, val))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._swaps):
            setattr(module, attr, original)
        self._swaps.clear()

    def _wrap(self, fn, key: str, layer: str):
        calls = self.calls
        if key in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return counted

        stack = self._stack
        self_s = self.self_s
        layer_calls = self.layer_calls
        clock = time.perf_counter
        after = self._after

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not stack or stack[-1][0] != layer:
                layer_calls[layer] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[key] += 1
                self_s[key] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            after(key, result)
            return result

        return timed

    def _after(self, key: str, result) -> None:
        # Work counters measured where the work happens.
        if key == "grids.harmonic_node_matrix":
            self._last_node_shape = tuple(result.shape)
            self.extra["grids.node_matrix_mb"] = max(
                self.extra["grids.node_matrix_mb"], result.nbytes / 1e6
            )
        elif key == "galerkin_toeplitz.assemble":
            m, n = self._last_node_shape
            self.extra["galerkin_toeplitz.assemble.gflop"] += 2.0 * m * m * n / 1e9

    # -- report ----------------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if self.functions.get(k) == layer)

