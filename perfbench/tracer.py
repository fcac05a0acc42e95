"""Span tracing of convcode's public boundary functions, from outside.

The tracer patches module and class attributes of the imported package
for the duration of a ``with`` block and restores them afterwards; the
package's source is not touched.  Every call of a wrapped function is a
span (name, start, end, parent, run id).  Self time is the span's
duration minus the time its wrapped children took, accumulated online
for every call, so the per-layer totals are exact even though only the
first ``SPAN_CAP`` spans are kept for the span file.

Generator-returning functions get one span per ``next()`` pull; their
``calls`` count is the number of items yielded.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

# Module short name -> the layer it is reported as.
MODULES = ("gf2", "codes", "reedmuller", "conversion", "bounds", "oracle",
           "matio", "cli")
# Public class methods traced in addition to module-level functions.
CLASS_METHODS = (("gf2", "BitMatrix", "column_mask"),
                 ("gf2", "BitMatrix", "from_columns"),
                 ("gf2", "BitMatrix", "select_columns"))
# Functions that return a generator: traced per item pulled.
GENERATORS = frozenset({"gf2.enumerate_invertible",
                        "oracle.enumerate_conversions"})
# Spans kept for the span file; later ones are counted but not stored.
SPAN_CAP = 20_000


class LayerStats:
    __slots__ = ("calls", "self_s", "errors", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0
        self.extra: Dict[str, int] = {}


# Extra per-function counters: name -> counter, and the hooks that fill
# them before the call (from its arguments) or after it (from its result).
COUNTERS = {"codes.min_distance": "cache_hits",
            "matio.format_matrix": "bytes",
            "cli.main": "nonzero_exits",
            "oracle.candidate_count": "candidate_space"}


def _before_min_distance(st: LayerStats, args, kwargs) -> None:
    code = args[0] if args else kwargs.get("c")
    if getattr(code, "_d", None) is not None:
        st.extra["cache_hits"] += 1


def _after_format_matrix(st: LayerStats, result) -> None:
    st.extra["bytes"] += len(result.encode())


def _after_cli_main(st: LayerStats, result) -> None:
    st.extra["nonzero_exits"] += int(result != 0)


def _after_candidate_count(st: LayerStats, result) -> None:
    st.extra["candidate_space"] += int(result)


BEFORE = {"codes.min_distance": _before_min_distance}
AFTER = {"matio.format_matrix": _after_format_matrix,
         "cli.main": _after_cli_main,
         "oracle.candidate_count": _after_candidate_count}


class Tracer:
    """Collects spans and per-function stats while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.stats: Dict[str, LayerStats] = {}
        # Open spans: [span id, start, time covered by child spans].
        self._stack: List[list] = []
        self._next_id = 0
        self.spans: List[Tuple[int, str, float, float, Optional[int]]] = []
        self._undo: List[Callable[[], None]] = []

    # -- recording -------------------------------------------------------

    def _enter(self) -> list:
        frame = [self._next_id, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, st: LayerStats, frame: list, count: bool):
        end = time.perf_counter()
        self._stack.pop()
        sid, start, child = frame
        dur = end - start
        st.self_s += dur - child
        if count:
            st.calls += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        if sid < SPAN_CAP:
            self.spans.append(
                (sid, name, start, end, None if parent is None else parent[0])
            )

    def _stats(self, name: str) -> LayerStats:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = LayerStats()
            if name in COUNTERS:
                st.extra[COUNTERS[name]] = 0
        return st

    def wrap(self, name: str, fn: Callable) -> Callable:
        st = self._stats(name)
        before = BEFORE.get(name)
        after = AFTER.get(name)
        tracer = self

        if name in GENERATORS:
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                frame = tracer._enter()
                try:
                    it = fn(*args, **kwargs)
                except Exception:
                    st.errors += 1
                    raise
                finally:
                    tracer._exit(name, st, frame, count=False)
                return tracer._pull_each(name, st, it)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(st, args, kwargs)
            frame = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                st.errors += 1
                raise
            finally:
                tracer._exit(name, st, frame, count=True)
            if after is not None:
                after(st, result)
            return result
        return wrapper

    def _pull_each(self, name: str, st: LayerStats, it):
        while True:
            frame = self._enter()
            try:
                item = next(it)
            except StopIteration:
                self._exit(name, st, frame, count=False)
                return
            except Exception:
                st.errors += 1
                self._exit(name, st, frame, count=False)
                raise
            self._exit(name, st, frame, count=True)
            yield item

    # -- installing ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        import convcode

        mods = {short: getattr(convcode, short) for short in MODULES}
        namespaces = [convcode] + list(mods.values())
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped = self.wrap(f"{short}.{attr}", obj)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is obj:
                            self._patch(ns, key, wrapped)
        for short, cls_name, meth in CLASS_METHODS:
            cls = getattr(mods[short], cls_name)
            raw = cls.__dict__[meth]
            name = f"{short}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__))
            else:
                new = self.wrap(name, raw)
            self._patch(cls, meth, new)
        return self

    def _patch(self, owner, key: str, new) -> None:
        old = owner.__dict__[key]
        setattr(owner, key, new)
        self._undo.append(lambda: setattr(owner, key, old))

    def __exit__(self, *exc) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reporting -------------------------------------------------------

    @property
    def span_count(self) -> int:
        """Spans recorded, kept or not."""
        return self._next_id

    def module_totals(self) -> Dict[str, Tuple[int, float]]:
        """Per-module (calls, self seconds) over every traced function."""
        out = {short: (0, 0.0) for short in MODULES}
        for name, st in self.stats.items():
            short = name.split(".", 1)[0]
            calls, self_s = out[short]
            out[short] = (calls + st.calls, self_s + st.self_s)
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON object per kept span, times relative to the first."""
        spans = sorted(self.spans)
        t0 = spans[0][2] if spans else 0.0
        with open(path, "w") as fh:
            for sid, name, start, end, parent in spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": sid, "name": name,
                    "start": start - t0, "end": end - t0, "parent": parent,
                }) + "\n")
