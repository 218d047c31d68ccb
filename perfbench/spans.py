"""In-memory span tracing of gtbezier's layers, from outside the package.

A Tracer wraps each public function of the layer modules under every name
it is bound to (totalpos imports from basis, pia from totalpos, cli from all
of them, and the package re-exports most), so a call is recorded whichever
module it goes through. The wrappers are in place only inside `with tracer:`.
A span is one call: its name, start and end (perf_counter_ns) and the index
of the span that was open when it began. Spans are kept in a flat integer
array, which the garbage collector does not scan, until the run writes them
out.
"""

import functools
import importlib
import inspect
import json
import time
from array import array

LAYERS = ("basis", "totalpos", "pia", "curve", "export", "config", "cli")

# Called once per CSV cell by write_csv; a span per cell would measure the
# tracer, not the export layer.
UNWRAPPED = {"export.format_float"}

# Work counts recorded alongside the span: basis values produced per call.
SIZES = {"basis.rational_basis_matrix": lambda out: out.size}

FIELDS = 4  # name id, start ns, end ns, parent span index (-1 for none)


class Tracer:
    def __init__(self, package):
        self.names = []
        self.spans = array("q")
        self.sizes = {}  # name -> summed work count
        self._stack = []
        self._patches = []  # (module, attribute, original, wrapper)
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package.__name__}.{layer}")
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or name in UNWRAPPED):
                    continue
                wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for mod in [package] + [importlib.import_module(f"{package.__name__}.{m}")
                                for m in LAYERS + ("datasets",)]:
            for attr, value in vars(mod).items():
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value, hit[1]))

    def __enter__(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)
        return False

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name, fn):
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        size_of, sizes = SIZES.get(name), self.sizes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            base = len(spans)
            spans.extend((name_id, clock(), 0, stack[-1] if stack else -1))
            stack.append(base // FIELDS)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[base + 2] = clock()
                stack.pop()
            if size_of is not None:
                sizes[name] = sizes.get(name, 0) + size_of(out)
            return out

        return wrapper

    def span(self, name):
        """Context manager for a span opened by the benchmark itself."""
        return _OpenSpan(self, self._name_id(name))

    def totals(self):
        """Per span name: [calls, inclusive ns, self ns], where self time is
        the inclusive time minus the time covered by direct child spans."""
        s = self.spans
        count = len(s) // FIELDS
        child_ns = [0] * count
        for i in range(count):
            parent = s[FIELDS * i + 3]
            if parent >= 0:
                child_ns[parent] += s[FIELDS * i + 2] - s[FIELDS * i + 1]
        out = {}
        for i in range(count):
            name_id, start, end = s[FIELDS * i], s[FIELDS * i + 1], s[FIELDS * i + 2]
            t = out.setdefault(self.names[name_id], [0, 0, 0])
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - child_ns[i]
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": self.spans.tolist()}, fh, separators=(",", ":"))
            fh.write("\n")


class _OpenSpan:
    def __init__(self, tracer, name_id):
        self.tracer, self.name_id = tracer, name_id

    def __enter__(self):
        spans, stack = self.tracer.spans, self.tracer._stack
        self.base = len(spans)
        spans.extend((self.name_id, time.perf_counter_ns(), 0, stack[-1] if stack else -1))
        stack.append(self.base // FIELDS)
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.base + 2] = time.perf_counter_ns()
        self.tracer._stack.pop()
        return False
