"""Span tracer for the traced benchmark run.

``Tracer.instrument`` replaces the public functions and methods of each
germlab module, and the operators ``*``, ``**`` and call, with wrappers.
``restore`` puts the originals back.  Nothing under ``src/`` changes; the
wrappers live only in the traced process.

Every wrapped call adds to its name's call count and self time, where self
time is the call's duration minus the time its wrapped child calls cover.
Calls that enter a layer (a germlab module) from outside it are also kept
in memory as spans: name, start, end and parent span.  ``write`` puts them
in a file at the end.  Calls inside a layer are only aggregated, because a
layer can make millions of them (``TreeAut.local_perm`` recurses) and
keeping each would cost hundreds of megabytes.

``Dyadic`` and ``QuadExt`` constructions are counted, not wrapped: a
wrapper costs more than the arithmetic, so their time stays in the
caller's self time.
"""

import functools
import inspect
import json
import time
from array import array

# dunder methods that are kernel operations: compose, power, evaluate
OPERATORS = ("__mul__", "__pow__", "__call__")


def _public(name):
    return not name.startswith("_") or name in OPERATORS


class Tracer:
    def __init__(self):
        self.names = []  # name of each name id
        self._ids = {}
        self.calls = []  # by name id: wrapped calls,
        self.self_ns = []  # their self time,
        self.total_ns = []  # and their duration, nested calls included
        self.counts = {}  # calls of counted-only methods, by name
        # spans at layer boundaries, one entry per span in each array
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        # open calls: [time covered by child calls, layer, innermost span]
        self._stack = [[0, None, -1]]
        self._undo = []

    # -- recording ----------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.total_ns.append(0)
        return self._ids[name]

    def _call(self, name_id, layer, fn, args, kwargs, hook):
        stack = self._stack
        caller = stack[-1]
        enters_layer = caller[1] != layer
        span = caller[2]
        if enters_layer:
            span = len(self.span_name)
            self.span_name.append(name_id)
            self.parent.append(caller[2])
            self.end.append(0)
        frame = [0, layer, span]
        stack.append(frame)
        start = time.perf_counter_ns()
        if enters_layer:
            self.start.append(start)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._close(name_id, frame, caller, start)
            if hook is not None:
                hook(args, None, exc)
            raise
        self._close(name_id, frame, caller, start)
        if hook is not None:
            hook(args, result, None)
        return result

    def _close(self, name_id, frame, caller, start):
        end = time.perf_counter_ns()
        self._stack.pop()
        duration = end - start
        caller[0] += duration
        self.calls[name_id] += 1
        self.self_ns[name_id] += duration - frame[0]
        self.total_ns[name_id] += duration
        if frame[2] != caller[2]:
            self.end[frame[2]] = end

    def _wrapped(self, name, layer, fn, hook):
        name_id = self._id(name)
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name_id, layer, fn, args, kwargs, hook)

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def run(self, name, fn):
        """Call ``fn()`` as a span of the benchmark's own layer."""
        return self._call(self._id(name), "bench", fn, (), {}, None)

    # -- instrumentation ----------------------------------------------------

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def count(self, owner, attr, name):
        """Count calls of ``owner.attr`` under ``name``, without wrapping it in a span."""
        self._replace(owner, attr, self._counted(name, owner.__dict__[attr]))

    def instrument(self, modules, hooks, namespaces):
        """Wrap every public function and method defined in ``modules``.

        ``hooks`` maps names to ``hook(args, result, exc)``, called after
        the call returns or raises.  Module-level functions are also
        rebound wherever ``namespaces`` imported them by name.
        """
        rebound = {}  # id of an original function -> its wrapper
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = "%s.%s" % (layer, attr)
                    wrapped = self._wrapped(name, layer, obj, hooks.get(name))
                    self._replace(module, attr, wrapped)
                    rebound[id(obj)] = wrapped
                elif inspect.isclass(obj):
                    self._instrument_class(layer, obj, hooks)
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in rebound:
                    self._replace(namespace, attr, rebound[id(obj)])

    def _instrument_class(self, layer, cls, hooks):
        for attr, raw in list(vars(cls).items()):
            if not _public(attr):
                continue
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            if isinstance(raw, (staticmethod, classmethod)):
                new = type(raw)(self._wrapped(name, layer, raw.__func__, hooks.get(name)))
            elif inspect.isfunction(raw):
                new = self._wrapped(name, layer, raw, hooks.get(name))
            else:
                continue
            self._replace(cls, attr, new)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def __len__(self):
        return len(self.span_name)

    def aggregate(self):
        """Per name: wrapped calls, self seconds and total seconds."""
        return {
            name: {"n": self.calls[i], "self_s": self.self_ns[i] / 1e9,
                   "total_s": self.total_ns[i] / 1e9}
            for i, name in enumerate(self.names) if self.calls[i]
        }

    def write(self, path):
        """Write the spans: one JSON header line, then the four arrays."""
        arrays = (("name", self.span_name), ("parent", self.parent),
                  ("start_ns", self.start), ("end_ns", self.end))
        header = {"names": self.names, "count": len(self.span_name),
                  "arrays": [[field, a.typecode, a.itemsize] for field, a in arrays]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("ascii") + b"\n")
            for _, a in arrays:
                a.tofile(fh)


def read_spans(path):
    """Spans written by ``Tracer.write``, as (name, start_ns, end_ns, parent index)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = {}
        for field, typecode, itemsize in header["arrays"]:
            column = array(typecode)
            if column.itemsize != itemsize:
                raise ValueError("%s was written on a machine with other integer sizes" % path)
            column.fromfile(fh, header["count"])
            columns[field] = column
    names = header["names"]
    return [
        (names[n], start, end, parent)
        for n, start, end, parent in zip(
            columns["name"], columns["start_ns"], columns["end_ns"], columns["parent"])
    ]
