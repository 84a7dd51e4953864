"""Call hooks that time the program's layers from outside it.

The package reaches its own public functions through module attributes
(``from .numeric import solve`` binds ``seldet.reml.solve``), and the
benchmark reaches them through ``seldet.<name>``.  Rebinding every such
attribute to a wrapper therefore sees every call without a change to the
program; ``Hooks.install`` puts the originals back when it exits.

Only the calls made through a rebound attribute are seen: a call from a
function to another function of its own module goes through that module's
globals, which are rebound too, but a call through a local alias taken
before ``install`` is not.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("sparse_core", "ordering", "symbolic", "numeric", "selinv", "reml")
# Kept in both modes: the output checks read the factor and selected
# inverse, which ``reml_report`` does not return.
CAPTURE = ("selinv.selected_inverse",)


@dataclass
class CallStats:
    """Totals over the calls to one function during one operation."""

    calls: int = 0
    s: float = 0.0          # inclusive wall seconds
    self_s: float = 0.0     # minus the time spent in wrapped callees
    flops: int = 0          # sum of the ``flops`` counters of the results


@dataclass
class Observed:
    """What the hooks saw during one operation."""

    stats: dict[str, CallStats] = field(default_factory=dict)
    # name -> (args, result) of the last call, for the names in CAPTURE
    captured: dict[str, tuple] = field(default_factory=dict)

    def get(self, name: str) -> CallStats:
        return self.stats.get(name, CallStats())


class Hooks:
    """Every public function defined in ``LAYERS`` and the attributes of
    the package's modules bound to it.
    """

    def __init__(self, package):
        self.sites: dict[str, tuple] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package.__name__}.{layer}")
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    self.sites[f"{layer}.{attr}"] = (fn, [])
        by_id = {id(fn): name for name, (fn, _) in self.sites.items()}
        prefix = package.__name__ + "."
        for modname, mod in list(sys.modules.items()):
            if modname != package.__name__ and not modname.startswith(prefix):
                continue
            for attr, val in vars(mod).items():
                name = by_id.get(id(val))
                if name is not None:
                    self.sites[name][1].append((mod, attr))

    @contextmanager
    def install(self, timed: bool):
        """Rebind for one operation: every function when ``timed``, else
        only the captured ones, which then cost one extra call each."""
        seen = Observed()
        open_children: list[float] = []  # wrapped-callee seconds per open call

        def wrap(name, fn):
            keep = name in CAPTURE

            def wrapper(*args, **kwargs):
                if not timed:
                    out = fn(*args, **kwargs)
                    seen.captured[name] = (args, out)
                    return out
                open_children.append(0.0)
                t0 = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    children = open_children.pop()
                    if open_children:
                        open_children[-1] += dt
                    st = seen.stats.setdefault(name, CallStats())
                    st.calls += 1
                    st.s += dt
                    st.self_s += dt - children
                flops = getattr(out, "flops", None)
                if flops is not None:
                    st.flops += int(flops)
                if keep:
                    seen.captured[name] = (args, out)
                return out

            return wrapper

        names = self.sites if timed else CAPTURE
        rebound = []
        try:
            for name in names:
                fn, where = self.sites[name]
                w = wrap(name, fn)
                for mod, attr in where:
                    setattr(mod, attr, w)
                    rebound.append((mod, attr, fn))
            yield seen
        finally:
            for mod, attr, fn in rebound:
                setattr(mod, attr, fn)
