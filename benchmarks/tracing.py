"""In-memory spans for the benchmark's traced pass.

The package has no tracing of its own, so the traced pass swaps each listed
public function for a timing wrapper in every `interference_lab` module
that refers to it (the defining module, the modules that imported it by
name, and the package namespace), and swaps the originals back afterwards.
Spans stay in memory with parent links and are written out once, at the
end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager


class Tracer:
    """Spans as (name, parent index, start, end, group); group names the replicate or CLI call."""

    def __init__(self):
        self.spans: list[list] = []
        self.group: str | None = None
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, time.perf_counter(), None, self.group])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self._stack.pop()
        self.spans[sid][3] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(sid)

        return traced

    def durations(self) -> list[float]:
        return [end - start for _, _, start, end, _ in self.spans]

    def self_times(self) -> list[float]:
        """Span duration minus the part covered by its direct children."""
        out = self.durations()
        for (_, parent, start, end, _) in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def total(self, name: str) -> float:
        """Summed duration of every span with this name (children included)."""
        return sum(d for (n, *_), d in zip(self.spans, self.durations()) if n == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def top_level_total(self) -> float:
        return sum(d for s, d in zip(self.spans, self.durations()) if s[1] is None)

    def self_time_by(self, key) -> dict[str, float]:
        out: dict[str, float] = {}
        for s, t in zip(self.spans, self.self_times()):
            k = key(s[0])
            out[k] = out.get(k, 0.0) + t
        return out

    def dump(self, path, meta: dict) -> None:
        t0 = min((s[2] for s in self.spans), default=0.0)
        rows = [
            {"id": i, "parent": p, "name": n, "group": g, "start_s": st - t0, "end_s": en - t0}
            for i, (n, p, st, en, g) in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"meta": meta, "spans": rows}, f, indent=1)
            f.write("\n")


def _package_modules(package: str):
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


@contextmanager
def patched(package: str, targets: dict, make_wrapper):
    """Replace each function `targets[module] = [names]` everywhere the package refers to it.

    `make_wrapper(span_name, func)` builds the replacement. Yields the span
    names of the listed functions the package no longer has, so a caller can
    report them instead of silently measuring nothing.
    """
    missing = []
    swaps = []
    modules = _package_modules(package)
    for mod_name, names in targets.items():
        owner = sys.modules.get(f"{package}.{mod_name}")
        for fname in names:
            span_name = f"{mod_name}.{fname}"
            orig = getattr(owner, fname, None) if owner is not None else None
            if orig is None:
                missing.append(span_name)
                continue
            wrapper = make_wrapper(span_name, orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        swaps.append((m, attr, orig))
                        setattr(m, attr, wrapper)
    try:
        yield missing
    finally:
        for m, attr, orig in reversed(swaps):
            setattr(m, attr, orig)
