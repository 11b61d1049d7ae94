"""Outside-in span tracer for the morsereduce layers.

The tracer replaces the public functions of each package module, and the
GF(2) kernel methods on `Gf2Matrix`, with wrappers that record one span per
call: name, parent span, start and end. A module that imported a function
by name holds its own reference (`pipeline` and `perturbation` each hold
`verify_reduction`), so every such reference is replaced. Spans stay in
memory; self time is a span's duration minus its direct children's.
`uninstall` puts every original back.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict
from collections.abc import Callable

# The modules under src/morsereduce/, by layer name.
LAYERS = (
    "image",
    "cubical",
    "vectorfield",
    "reduction",
    "complexes",
    "perturbation",
    "gf2",
    "pipeline",
    "cli",
    "verification",
)

# Gf2Matrix methods that do the matrix work.
GF2_KERNELS = (
    "mul",
    "transpose",
    "pow",
    "rank",
    "inverse",
    "inv_unit_lower_triangular",
    "right_kernel_basis",
    "nilpotent_series_inverse",
    "permute",
)


class Tracer:
    """Records nested spans around wrapped calls of one thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: Counter[str] = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_call: Callable[..., None] | None = None,
        on_return: Callable[[object], None] | None = None,
    ) -> Callable:
        """A stand-in for fn that records a span named ``name`` per call.

        ``on_call`` sees the arguments and ``on_return`` the result; both
        run outside the span's clock.
        """
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack
        )
        clock = self.clock

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(
        self,
        package: str = "morsereduce",
        on_call: dict[str, Callable[..., None]] | None = None,
        on_return: dict[str, Callable[[object], None]] | None = None,
    ) -> list[str]:
        """Wrap every layer's public functions and the Gf2Matrix kernels.

        Returns the span names installed. Hooks are keyed by span name.
        """
        on_call = on_call or {}
        on_return = on_return or {}
        installed = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self.wrap(name, fn, on_call.get(name), on_return.get(name))
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._undo.append((holder, key, fn))
                            setattr(holder, key, wrapper)
                installed.append(name)
        matrix = sys.modules[f"{package}.gf2"].Gf2Matrix
        for attr in GF2_KERNELS:
            fn = matrix.__dict__[attr]
            name = f"gf2.{attr}"
            self._undo.append((matrix, attr, fn))
            setattr(matrix, attr, self.wrap(name, fn, on_call.get(name), on_return.get(name)))
            installed.append(name)
        return installed

    def uninstall(self) -> None:
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = self.durations()
        out = list(own)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= own[idx]
        return out

    def roots(self) -> list[int]:
        return [i for i, p in enumerate(self.parents) if p < 0]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, and total seconds.

        Total counts only the outermost span of a name, so a name that
        calls itself is not counted twice.
        """
        own = self.durations()
        selfs = self.self_times()
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for idx, name in enumerate(self.names):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += selfs[idx]
            parent = self.parents[idx]
            while parent >= 0 and self.names[parent] != name:
                parent = self.parents[parent]
            if parent < 0:
                row["total_s"] += own[idx]
        return dict(out)

    def spans(self) -> list[dict]:
        """All spans, in start order, for writing out."""
        return [
            {"id": i, "name": n, "parent": p, "start": s, "end": e}
            for i, (n, p, s, e) in enumerate(zip(self.names, self.parents, self.starts, self.ends))
        ]
