"""Span tracer for the traced benchmark run.

The tracer lives in the benchmark, not in the program: it wraps public
functions and methods of each simulator layer for the duration of one
timed operation, records one span per call, and puts every original back
afterwards.  Scenario functions are never wrapped, so scenario source
fingerprints and sweep cache keys are unchanged under tracing.

Spans are kept in memory (name, start, end, parent) in flat arrays and
written once, as one ``.npz`` file, when the operation ends.
:func:`layer_metrics` turns that file into per-layer numbers: a span
name's ``host_s`` is its *self* time, i.e. each span's duration minus the
time its child spans cover, summed over all spans of that name.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Modules the wrappers live in.  Every repetition of a traced run, the
#: untraced one included, imports them before its timed operation starts
#: (``child.py``), so they are paid in the ``startup.import`` span and
#: ``trace.overhead_s`` compares like with like.
TRACED_MODULES = (
    "repro.cli",
    "repro.scenarios",
    "repro.sweep",
    "repro.sweep.cli",
    "repro.sweep.cache",
    "repro.sweep.runner",
    "repro.checks.depfp",
    "repro.checks.callgraph",
    "repro.bitstream.generator",
    "repro.core.reconfig",
    "repro.faults.campaign",
    "repro.faults.montecarlo",
    "repro.bus.bus",
    "repro.engine.batch",
    "repro.kernels",
    "repro.dock.plb_dock",
    "repro.dock.opb_dock",
    "repro.sw",
    "repro.serve.engine",
)

#: Module-level functions: (module, attribute, span name).  Every binding
#: of the same function object in any loaded ``repro`` module is replaced,
#: so callers that imported the name directly are traced too.
FUNCTIONS = (
    ("repro.sweep.runner", "run_sweep", "sweep.run_sweep"),
    ("repro.sweep.cache", "cache_key", "sweep.cache_key"),
    ("repro.checks.depfp", "package_graph", "depfp.package_graph"),
    ("repro.checks.depfp", "fingerprint_function", "depfp.fingerprint"),
    ("repro.scenarios.rigs", "build_rig32", "rigs.build"),
    ("repro.scenarios.rigs", "build_rig64", "rigs.build"),
    ("repro.faults.campaign", "run_trial", "faults.run_trial"),
    ("repro.faults.montecarlo", "calibrate_rig", "mc.calibrate_rig"),
    ("repro.faults.montecarlo", "classify_batch", "mc.classify_batch"),
    ("repro.faults.montecarlo", "classify_reference", "mc.classify_reference"),
    ("repro.engine.batch", "run_steady", "engine.run_steady"),
    ("repro.serve.engine", "simulate", "serve.simulate"),
)

#: Methods: (module, class, method, span name).  The method is wrapped on
#: the named class, so subclasses that inherit it are traced as well.
METHODS = (
    ("repro.scenarios.registry", "Scenario", "run", "sweep.scenario"),
    ("repro.sweep.cache", "ResultCache", "load", "sweep.cache_load"),
    ("repro.sweep.cache", "ResultCache", "store", "sweep.cache_store"),
    ("repro.core.reconfig", "ReconfigManager", "load", "reconfig.load"),
    ("repro.core.reconfig", "ReconfigManager", "load_robust", "reconfig.load_robust"),
    ("repro.core.reconfig", "ReconfigManager", "scrub", "reconfig.scrub"),
    ("repro.bus.bus", "Bus", "request", "bus.request"),
    ("repro.bus.bus", "Bus", "request_burst", "bus.request_burst"),
    ("repro.dock.plb_dock", "PlbDock", "feed_words", "dock.feed_words"),
    ("repro.dock.plb_dock", "PlbDock", "drain_words", "dock.drain_words"),
    ("repro.dock.opb_dock", "OpbDock", "feed_words", "dock.feed_words"),
    ("repro.dock.opb_dock", "OpbDock", "drain_words", "dock.drain_words"),
    ("repro.sw", "SwJenkinsHash", "run", "sw.run"),
    ("repro.sw", "SwPatternMatch", "run", "sw.run"),
    ("repro.sw", "SwSha1", "run", "sw.run"),
    ("repro.sw", "SwBrightness", "run", "sw.run"),
    ("repro.sw", "SwBlend", "run", "sw.run"),
    ("repro.sw", "SwFade", "run", "sw.run"),
)

#: Kernel functional models: class -> kernel span name.  Both the per-word
#: ``consume`` and the block ``consume_block`` entry points are wrapped.
KERNELS = (
    ("JenkinsHashKernel", "kernels.jenkins_hash"),
    ("Sha1Kernel", "kernels.sha1"),
    ("PatternMatchKernel", "kernels.pattern_match"),
    ("BrightnessKernel", "kernels.image_ops"),
    ("BlendKernel", "kernels.image_ops"),
    ("FadeKernel", "kernels.image_ops"),
)

#: Name of the inclusive accumulator over every kernel ``consume_block``
#: call (the block path's share of kernel time; not additive with spans).
BLOCK_TOTAL = "kernels.consume_block"


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: List[int] = []
        #: Named counters fed by wrappers (call counts of count-only hooks,
        #: request totals read from arguments).
        self.counters: Dict[str, int] = {}
        #: Inclusive host seconds of :data:`BLOCK_TOTAL`.
        self.block_seconds = 0.0
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, start: float, end: float) -> None:
        """Record a finished top-level span measured by the caller."""
        self.name_ids.append(self._name_id(name))
        self.parents.append(-1)
        self.starts.append(start)
        self.ends.append(end)

    def wrap(self, fn: Callable, name: str, count: Optional[Callable] = None,
             block: bool = False, outer: Sequence[str] = ()) -> Callable:
        """``fn`` recording one span named ``name`` per call.

        ``count(args, kwargs)`` (optional) returns a ``(counter, amount)``
        pair added to :attr:`counters`, except when the call is nested
        directly in a span named in ``outer``; ``block`` adds the call's
        duration to the :data:`BLOCK_TOTAL` accumulator.
        """
        name_id = self._name_id(name)
        skip = {self._name_id(n) for n in outer}
        stack, ids, parents, starts, ends = (
            self._stack, self.name_ids, self.parents, self.starts, self.ends)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(ids)
            parent = stack[-1] if stack else -1
            ids.append(name_id)
            parents.append(parent)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            if count is not None and (parent < 0 or ids[parent] not in skip):
                counter, amount = count(args, kwargs)
                self.counters[counter] = self.counters.get(counter, 0) + amount
            begin = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                finish = clock()
                starts[index] = begin
                ends[index] = finish
                stack.pop()
                if block:
                    self.block_seconds += finish - begin

        return traced

    def counting(self, fn: Callable, counter: str) -> Callable:
        """``fn`` bumping ``counter`` once per call, without a span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counters[counter] = self.counters.get(counter, 0) + 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------
    def _set(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_function(self, original: Callable, replacement: Callable) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def _wrap_method(self, cls: type, method: str, replacement: Callable) -> None:
        if method in cls.__dict__:
            self._set(cls, method, replacement)
        else:
            # Inherited: shadow it on this class only; uninstall deletes it.
            self._restore.append((cls, method, None))
            setattr(cls, method, replacement)

    def install(self) -> None:
        """Wrap every traced layer entry point (modules must be imported)."""
        for module_name in TRACED_MODULES:
            importlib.import_module(module_name)
        for module_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            self._replace_function(original, self.wrap(original, name, count=COUNTS.get(name)))
        for module_name, cls_name, method, name in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            self._wrap_method(cls, method, self.wrap(
                getattr(cls, method), name, count=COUNTS.get(name), outer=BUS_SPANS))
        kernels = sys.modules["repro.kernels"]
        for cls_name, name in KERNELS:
            cls = getattr(kernels, cls_name)
            self._wrap_method(cls, "consume", self.wrap(cls.consume, name))
            self._wrap_method(cls, "consume_block",
                              self.wrap(cls.consume_block, name, block=True))
        graph_cls = sys.modules["repro.checks.callgraph"].CallGraph
        build = graph_cls.__dict__["build"].__func__
        self._set(graph_cls, "build", classmethod(self.counting(build, "depfp.graph_builds")))

    def uninstall(self) -> None:
        """Put every original back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- output ------------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write every span and counter once, as one ``.npz`` file."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
            counter_names=np.array(sorted(self.counters), dtype=str),
            counter_values=np.array(
                [self.counters[k] for k in sorted(self.counters)], dtype=np.int64),
            block_seconds=np.float64(self.block_seconds),
        )


def _argument(args: Sequence[object], kwargs: Dict[str, object], index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


#: Counters read from call arguments: span name -> ``(args, kwargs) ->
#: (counter, amount)``.  Method arguments include ``self``.  Bus beats are
#: counted on the outermost bus call only (a burst issues sub-requests).
COUNTS: Dict[str, Callable] = {
    "mc.classify_batch": lambda a, k: ("mc.trials", int(_argument(a, k, 4, "count"))),
    "serve.simulate": lambda a, k: ("serve.requests", len(_argument(a, k, 0, "trace"))),
    "bus.request": lambda a, k: ("bus.beats", _argument(a, k, 2, "txn").beats),
    "bus.request_burst": lambda a, k: ("bus.beats", int(_argument(a, k, 5, "beats"))),
}

#: Spans whose nested bus calls are not counted again.
BUS_SPANS = ("bus.request", "bus.request_burst")


def span_totals(path: str, window: Tuple[float, float]) -> Dict[str, object]:
    """Per-name self seconds and call counts from a dumped span file.

    Also returns the seconds covered by top-level spans inside ``window``
    (the timed operation), which :func:`layer_metrics` subtracts from the
    operation's wall time to get the unattributed rest.
    """
    import numpy as np

    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        ids = data["name_ids"]
        parents = data["parents"]
        durations = data["ends"] - data["starts"]
        starts = data["starts"]
        counters = {str(k): int(v) for k, v in zip(data["counter_names"], data["counter_values"])}
        block_seconds = float(data["block_seconds"])
    child = np.zeros(len(durations))
    nested = parents >= 0
    np.add.at(child, parents[nested], durations[nested])
    own = durations - child
    self_seconds = np.bincount(ids, weights=own, minlength=len(names))
    inclusive = np.bincount(ids, weights=durations, minlength=len(names))
    calls = np.bincount(ids, minlength=len(names))
    roots = (~nested) & (starts >= window[0]) & (starts <= window[1])
    return {
        "self": {n: float(self_seconds[i]) for i, n in enumerate(names)},
        "inclusive": {n: float(inclusive[i]) for i, n in enumerate(names)},
        "calls": {n: int(calls[i]) for i, n in enumerate(names)},
        "counters": counters,
        "block_seconds": block_seconds,
        "covered": float(durations[roots].sum()),
    }
