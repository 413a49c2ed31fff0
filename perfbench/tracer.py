"""Span recorder wrapped around the public functions of each patsim layer.

Spans are kept in memory and written once, when the traced process ends.
Each thread keeps its own stack of open spans. A span opened on a thread
whose stack is empty (a `cross_validate` pool thread) gets the innermost
open `cross_validate` span as its parent.

This module imports nothing from numpy or patsim, so a traced process can
time its own `import patsim.cli`.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time

# (layer, module, attribute); "Model.__init__" patches the class itself,
# so every binding of the class sees it.
TARGETS = (
    ("cli", "patsim.cli", "main"),
    ("ingest", "patsim.ingest", "parse_events"),
    ("ingest", "patsim.ingest", "parse_outcomes"),
    ("ingest", "patsim.ingest", "build_cohort"),
    ("framing", "patsim.framing", "frame_cohort"),
    ("framing", "patsim.framing", "fit_scaling"),
    ("framing", "patsim.framing", "impute_and_scale"),
    ("framing", "patsim.framing", "read_frames"),
    ("weights", "patsim.weights", "train_gd"),
    ("weights", "patsim.weights", "filter_weights"),
    ("weights", "patsim.weights", "load_manual_weights"),
    ("weights", "patsim.weights", "save_weights"),
    ("knn", "patsim.knn", "Model.__init__"),
    ("knn", "patsim.knn", "neighbors"),
    ("knn", "patsim.knn", "classify_batch"),
    ("evaluation", "patsim.evaluation", "cross_validate"),
    ("evaluation", "patsim.evaluation", "compare"),
    ("experiments", "patsim.experiments", "run_experiment"),
    ("synth", "patsim.synth", "generate"),
)


def _file_bytes(*paths):
    return sum(os.path.getsize(p) for p in paths if p is not None and os.path.exists(p))


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


# Counts recorded at the call boundary: fn(args, kwargs, result) -> dict.
_INFO = {
    "parse_events": lambda a, k, r: {"rows": len(r)},
    "read_frames": lambda a, k, r: {"bytes": _file_bytes(_arg(a, k, 0, "path"),
                                                         _arg(a, k, 1, "mask_path"))},
    "train_gd": lambda a, k, r: {"n": len(a[0]), "epochs": r[1].epochs_run},
    "neighbors": lambda a, k, r: {"pairs": len(_arg(a, k, 1, "model").frames)},
    "cross_validate": lambda a, k, r: {"workers": _arg(a, k, 4, "workers", 1) or 1},
}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, layer, thread, start, end, parent, info]
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open_cv = []       # indices of open cross_validate spans

    def _open(self, name, layer):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        else:
            parent = self._open_cv[-1] if self._open_cv else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, layer, threading.get_ident(), time.perf_counter(),
                               None, parent, None])
        stack.append(index)
        if name == "cross_validate":
            self._open_cv.append(index)
        return index

    def _close(self, index, info):
        span = self.spans[index]
        span[4] = time.perf_counter()
        span[6] = info
        self._local.stack.pop()
        if span[0] == "cross_validate":
            self._open_cv.remove(index)

    def wrap(self, name, layer, fn):
        info_fn = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name, layer)
            result, returned = None, False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                self._close(index, info_fn(args, kwargs, result) if info_fn and returned else None)

        return traced

    def install(self, layers=None):
        """Wrap every TARGET whose module is loaded, in every patsim binding.

        `from .weights import train_gd` copies the function into the
        importing module, so each loaded patsim module's namespace is
        searched for the original and rebound to the wrapper.
        """
        patsim_modules = [m for n, m in list(sys.modules.items())
                          if (n == "patsim" or n.startswith("patsim.")) and m is not None]
        for layer, module_name, attr in TARGETS:
            if layers is not None and layer not in layers:
                continue
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self.wrap(cls_name, layer, original))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(attr, layer, original)
            for m in patsim_modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def records(self):
        """Closed spans as dicts, ready to write as JSON."""
        return [
            {"name": s[0], "layer": s[1], "thread": s[2], "start": s[3], "end": s[4],
             "parent": s[5], "info": s[6] or {}}
            for s in self.spans
        ]


def span_errors(spans):
    """Spans that end before they start or do not lie inside their parent.

    A pool thread's span outside its `cross_validate` would mean the
    parent was guessed wrong, and its time would be charged to the
    wrong call.
    """
    errors = []
    for s in spans:
        if s["end"] < s["start"]:
            errors.append(f"trace: {s['name']} span ends before it starts")
        if s["parent"] is not None:
            p = spans[s["parent"]]
            if not p["start"] <= s["start"] <= s["end"] <= p["end"]:
                errors.append(f"trace: {s['name']} span lies outside its parent {p['name']}")
    return errors[:5]


def self_times(spans):
    """Wall-clock self time per span index.

    A span's own segments are its interval minus the union of its
    children's intervals. Where own segments of k spans (on different
    threads) overlap in time, each gets 1/k of that time, so the self
    times of all spans add up to at most the time the root spans cover:
    by construction, not as a check.
    """
    children = {}
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(i)
    edges = []
    for i, s in enumerate(spans):
        cursor = s["start"]
        for j in sorted(children.get(i, ()), key=lambda j: spans[j]["start"]):
            lo, hi = max(spans[j]["start"], s["start"]), min(spans[j]["end"], s["end"])
            if lo > cursor:
                edges.append((cursor, 1, i))
                edges.append((lo, -1, i))
            cursor = max(cursor, hi)
        if s["end"] > cursor:
            edges.append((cursor, 1, i))
            edges.append((s["end"], -1, i))
    edges.sort(key=lambda e: (e[0], e[1]))
    own = [0.0] * len(spans)
    active = set()
    last = None
    for t, kind, i in edges:
        if active and last is not None and t > last:
            share = (t - last) / len(active)
            for a in active:
                own[a] += share
        last = t
        if kind == 1:
            active.add(i)
        else:
            active.discard(i)
    return own
