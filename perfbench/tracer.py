"""Spans around the public functions of a package, recorded from outside.

``Tracer.install`` replaces a function by a timing wrapper under its name in
every loaded module of the package that binds it, so calls made through any
import path are seen; ``uninstall`` puts the originals back. A span holds
its name, start, end, the index of the span that was open when it began,
and the run id set by the caller. Spans and counts stay in memory until the
caller writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index or None, run id]
        self.counts = defaultdict(float)   # (run id, metric name) -> total
        self.run_id = None
        self._open = []
        self._patches = []

    def install(self, package, module, func_name, span_name, counter=None):
        """Wrap ``package.module.func_name`` wherever the package binds it.

        ``counter(args, kwargs, result)`` may return ``{suffix: amount}``;
        each amount is added to ``span_name + "." + suffix`` for the run id.
        """
        original = getattr(sys.modules[f"{package}.{module}"], func_name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            span = [span_name, time.perf_counter(), None, parent, self.run_id]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                for suffix, amount in counter(args, kwargs, result).items():
                    self.counts[(self.run_id, f"{span_name}.{suffix}")] += amount
            return result

        for name, mod in list(sys.modules.items()):
            if name == package or name.startswith(package + "."):
                if getattr(mod, func_name, None) is original:
                    setattr(mod, func_name, wrapper)
                    self._patches.append((mod, func_name, original))

    def uninstall(self):
        for mod, func_name, original in reversed(self._patches):
            setattr(mod, func_name, original)
        self._patches = []

    def self_times(self):
        """Duration of each span minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _run in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_n, start, end, _p, _r) in enumerate(self.spans)]

    def check_nesting(self):
        """True when every span closed inside its parent's interval."""
        for _name, start, end, parent, run in self.spans:
            if end is None or end < start:
                return False
            if parent is not None:
                p = self.spans[parent]
                if start < p[1] or end > p[2] or run != p[4]:
                    return False
        return True

    def totals(self, run_ids):
        """Per span name: total seconds and total self seconds over the
        given run ids; plus seconds under top-level spans per run id."""
        selfs = self.self_times()
        total = defaultdict(float)
        self_total = defaultdict(float)
        top = defaultdict(float)
        for (name, start, end, parent, run), own in zip(self.spans, selfs):
            if run in run_ids:
                total[name] += end - start
                self_total[name] += own
                if parent is None:
                    top[run] += end - start
        return total, self_total, top

    def count_totals(self, run_ids):
        out = defaultdict(float)
        for (run, metric), amount in self.counts.items():
            if run in run_ids:
                out[metric] += amount
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "run"],
                "spans": self.spans,
                "counts": [[run, metric, amount]
                           for (run, metric), amount in self.counts.items()],
            }, fh)
            fh.write("\n")
