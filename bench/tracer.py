"""Span tracer for one benchmark child process.

Wraps every public function of each flowgeo layer and rebinds the wrapper
at every module attribute that held the original, so calls made through
`from .geometry import pixel_grid` or `ad.box3` both enter a span. Spans
nest on a stack and are folded into per-function counters as they close:
calls, total time, self time (duration minus time in child spans), and
calls/time that crossed into the layer from another layer. Nothing under
src/ is changed; only module attributes of the running interpreter are.

Some functions carry extra counters, taken outside their own span:
autodiff.backward (per-call duration samples and the tape reachable from
the root), triangulate.triangulate_depth (valid pixels over pixels) and
the io_formats writers (bytes written).
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
from time import perf_counter

import numpy as np

LAYERS = ("cli", "scene", "geometry", "triangulate", "losses", "autodiff", "grad", "optim", "io_formats")

# as_var only coerces its argument and runs inside every tape op; a span
# there would mostly time the tracer itself
SKIP = {("autodiff", "as_var")}


def _tape_size(root):
    """Nodes reachable from a backward root and the bytes of their values."""
    seen = set()
    stack = [root]
    nbytes = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nbytes += np.asarray(node.value).nbytes
        for link in getattr(node, "_parents", ()):
            stack.append(link[0] if isinstance(link, tuple) else link)
    return len(seen), nbytes


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [layer, seconds spent in child spans]
        # (layer, name) -> [calls, calls from another layer, total s, self s,
        #                  total s of the calls from another layer]
        self.functions = {}
        self.backward_ms = []
        self.tape_nodes = 0
        self.tape_bytes = 0
        self.tri_valid = 0
        self.tri_pixels = 0
        self.bytes_written = 0

    # -- hooks: run outside the span of the function they observe --------

    def _before_backward(self, args, kwargs):
        nodes, nbytes = _tape_size(args[0] if args else kwargs["root"])
        self.tape_nodes += nodes
        self.tape_bytes += nbytes

    def _after_backward(self, args, result, seconds):
        self.backward_ms.append(seconds * 1e3)

    def _after_triangulate(self, args, result, seconds):
        self.tri_valid += int(np.count_nonzero(result.validity))
        self.tri_pixels += int(np.size(result.validity))

    def _after_write(self, args, result, seconds):
        self.bytes_written += os.path.getsize(args[0])

    def _hooks(self, layer, name):
        if (layer, name) == ("autodiff", "backward"):
            return self._before_backward, self._after_backward
        if (layer, name) == ("triangulate", "triangulate_depth"):
            return None, self._after_triangulate
        if layer == "io_formats" and name.startswith("write_"):
            return None, self._after_write
        return None, None

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, layer, name):
        rec = self.functions.setdefault((layer, name), [0, 0, 0.0, 0.0, 0.0])
        before, after = self._hooks(layer, name)
        stack = self.stack

        def span(*args, **kwargs):
            outer = stack[-1] if stack else None
            if before is not None:
                t = perf_counter()
                before(args, kwargs)
                if outer is not None:  # keep hook time out of the caller's self time
                    outer[1] += perf_counter() - t
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                rec[0] += 1
                rec[2] += dt
                rec[3] += dt - frame[1]
                if outer is None or outer[0] != layer:
                    rec[1] += 1
                    rec[4] += dt
                if outer is not None:
                    outer[1] += dt
            if after is not None:
                t = perf_counter()
                after(args, result, dt)
                if outer is not None:
                    outer[1] += perf_counter() - t
            return result

        span.__wrapped__ = fn
        return span

    def install(self):
        """Wrap the public functions of every layer in the loaded package."""
        modules = {layer: importlib.import_module(f"flowgeo.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                    and (layer, name) not in SKIP
                ):
                    wrappers[id(obj)] = (obj, self._wrap(obj, layer, name))
        package = [m for n, m in sys.modules.items() if n == "flowgeo" or n.startswith("flowgeo.")]
        for module in package:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    # -- results ------------------------------------------------------------

    def summary(self):
        """Counters of this process: per function, per layer and extras."""
        functions = {
            f"{layer}.{name}": {"calls": r[0], "total_s": r[2], "self_s": r[3]}
            for (layer, name), r in sorted(self.functions.items())
        }
        layers = {}
        for (layer, _), r in self.functions.items():
            acc = layers.setdefault(layer, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
            acc["calls"] += r[1]
            acc["inclusive_s"] += r[4]
            acc["self_s"] += r[3]
        return {
            "functions": functions,
            "layers": layers,
            "backward_ms": self.backward_ms,
            "tape_nodes": self.tape_nodes,
            "tape_bytes": self.tape_bytes,
            "tri_valid": self.tri_valid,
            "tri_pixels": self.tri_pixels,
            "bytes_written": self.bytes_written,
        }
