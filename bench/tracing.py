"""Span tracing for the benchmark's traced run.

The tracer wraps public functions of the package in the module namespaces
where their callers look them up, so the program itself is not edited. A
function defined in one module and imported into another is a layer
boundary; each call through that binding records one span. Two harness
functions that are called from inside their own module are wrapped as well:
``write_csv`` (result output) and ``_sweep_task`` (one (trial, sweep point)
task, recorded as ``harness.task`` so that every span carries its task id).

Spans are kept in memory as tuples (name, start, end, parent, task, pid)
and written out once, by ``write_spans``. Pool workers forked after ``install``
inherit the wrappers; each worker writes its spans to a spill file when it
exits, and ``collect`` merges those files into the parent's list.
"""

import csv
import hashlib
import importlib
import inspect
import json
import multiprocessing.util
import os
import time
from pathlib import Path

MODULES = ("channel_gen", "model", "beamforming", "onoff", "phases", "ao", "harness")

# Harness functions called from inside the harness module itself.
HARNESS_INTERNAL = {"write_csv": "harness.write_csv", "_sweep_task": "harness.task"}

# Functions the benchmark calls directly; wrapping them would only time the
# benchmark's own call.
ENTRY_POINTS = {"run_experiment", "main", "load_config"}

TASK = "harness.task"
# gen_channels results are fingerprinted to count regenerations of channels
# that the same process has already produced.
CHANNEL_FN = "channel_gen.gen_channels"


def _channel_digest(ch) -> str:
    h = hashlib.sha1()
    for arr in (ch.g_ap_irs, ch.h_irs_user, ch.g_irs_eve):
        h.update(arr.tobytes())
    return h.hexdigest()


class Tracer:
    """Records one span per call of each wrapped function.

    A span is (name, start, end, parent, task, pid): perf_counter seconds,
    the index of the enclosing span in the same process (-1 at the root),
    the index of the enclosing ``harness.task`` span (-1 outside a task) and
    the process that ran it.
    """

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        self.wrapped = {}   # span name -> number of bindings patched
        self._patched = []  # (module, attribute, original)
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self._stack = []
        self._task = -1
        self.channel_digests = set()
        self.channel_repeats = 0

    def _enter_worker(self) -> None:
        """First span in a forked worker: start empty and spill at exit."""
        self._reset()
        multiprocessing.util.Finalize(self, self._spill, exitpriority=100)

    def _spill(self) -> None:
        path = self.spill_dir / f"spill-{self.pid}-{time.time_ns()}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans,
                       "channel_repeats": self.channel_repeats}, fh)

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer._enter_worker()
            spans, stack = tracer.spans, tracer._stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outer_task = tracer._task
            if name == TASK:
                tracer._task = idx
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer._task, tracer.pid)
                tracer._task = outer_task
            if name == CHANNEL_FN:
                digest = _channel_digest(result)
                if digest in tracer.channel_digests:
                    tracer.channel_repeats += 1
                tracer.channel_digests.add(digest)
            return result

        # Same name and module as the original, so a pool can pickle the
        # wrapped task function by reference.
        for attr in ("__name__", "__qualname__", "__module__", "__doc__"):
            setattr(traced, attr, getattr(fn, attr))
        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "irs_secrecy") -> None:
        """Patch every cross-module binding of a public package function,
        plus the harness internals in HARNESS_INTERNAL."""
        wrappers = {}
        for mod_name in MODULES:
            module = importlib.import_module(f"{package}.{mod_name}")
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or attr.startswith("_"):
                    continue
                if attr in ENTRY_POINTS or not obj.__module__.startswith(package + "."):
                    continue
                home = obj.__module__.rsplit(".", 1)[-1]
                if home == mod_name:
                    continue
                self._patch(module, attr, f"{home}.{obj.__name__}", wrappers)
        harness = importlib.import_module(f"{package}.harness")
        for attr, name in HARNESS_INTERNAL.items():
            if inspect.isfunction(getattr(harness, attr, None)):
                self._patch(harness, attr, name, wrappers)

    def _patch(self, module, attr, name, wrappers) -> None:
        original = getattr(module, attr)
        if id(original) not in wrappers:
            wrappers[id(original)] = self.wrap(name, original)
        setattr(module, attr, wrappers[id(original)])
        self._patched.append((module, attr, original))
        self.wrapped[name] = self.wrapped.get(name, 0) + 1

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def collect(self) -> None:
        """Merge the spill files that exited workers have written."""
        for path in sorted(self.spill_dir.glob("spill-*.json")):
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            path.unlink()
            base = len(self.spans)
            for name, start, end, parent, task, pid in data["spans"]:
                self.spans.append((name, start, end,
                                   parent + base if parent >= 0 else -1,
                                   task + base if task >= 0 else -1, pid))
            self.channel_repeats += data["channel_repeats"]

    def write_spans(self, path: Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start", "end", "parent", "task", "pid"])
            for idx, span in enumerate(self.spans):
                writer.writerow([idx, *span])


def layer_stats(spans) -> dict:
    """Per span name: calls, inclusive seconds and self seconds (inclusive
    minus the time of direct child spans)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {}
    for idx, (name, start, end, _, _, _) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[idx]
    return stats
