"""Per-layer attribution from outside the library.

``patched(recorder)`` replaces every listed public function with a wrapper
that records one span per call, in every ``zetakit`` module namespace that
binds it: modules import each other's functions by name (``extended`` calls
its own binding of ``lerch_phi``; the catalog closures call
``identities.ext_fd``), so patching only the defining module would miss
those calls.  The originals are put back when the context exits.

A span holds its name, start and end in ns, its parent span, and either the
returned strategy tag and work or the raised exception's class name.  Spans
stay in memory; ``layer_stats`` folds one pass of them into per-layer sums.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Iterator

# module -> public functions whose calls are recorded
TARGETS: dict[str, tuple[str, ...]] = {
    "numeric_core": (
        "ln_gamma",
        "bernoulli_number",
        "alternating_sum_cvz",
        "bernoulli_poly_coeffs",
        "euler_poly_coeffs",
        "compensated_sum",
        "euler_transform_tail",
    ),
    "zeta": (
        "hurwitz_zeta",
        "lerch_phi",
        "riemann_zeta",
        "dirichlet_eta",
        "chi_ratio",
        "digamma",
    ),
    "weyl": ("weyl_transform", "weyl_negative_order"),
    "extended": (
        "ext_fd",
        "ext_be",
        "fd_zero_hurwitz_route",
        "fd_classical",
        "be_classical",
    ),
}

_TERMS = "numeric_core.compensated_sum"   # work = number of terms summed
_TUPLE_WORK = "numeric_core.euler_transform_tail"   # returns (value, err, work)
_EXT = ("extended.ext_fd", "extended.ext_be")


class Recorder:
    """Spans of one single-threaded run, as parallel lists indexed by span id."""

    def __init__(self) -> None:
        self.name: list[str] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.tag: list[str | None] = []
        self.work: list[int] = []
        self.error: list[str | None] = []
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.name)

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self.tag.append(None)
        self.work.append(0)
        self.error.append(None)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int, tag: str | None = None, work: int = 0,
              error: str | None = None) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()
        self.tag[idx] = tag
        self.work[idx] = work
        self.error[idx] = error

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A traced stand-in for ``fn`` that records spans under ``name``."""
        terms = name == _TERMS
        tuple_work = name == _TUPLE_WORK

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if terms:
                args = (list(args[0]),) + args[1:]
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(idx, error=type(exc).__name__)
                raise
            if terms:
                self.close(idx, work=len(args[0]))
            elif tuple_work:
                self.close(idx, work=out[2])
            else:
                self.close(idx, getattr(out, "strategy", None), getattr(out, "work", 0))
            return out

        traced.bench_traced = True
        return traced

    def clear(self) -> None:
        for field in (self.name, self.parent, self.start, self.end,
                      self.tag, self.work, self.error):
            field.clear()

    def snapshot(self) -> dict:
        """JSON-ready copy of the spans (names and tags interned)."""
        names = sorted(set(self.name))
        index = {n: i for i, n in enumerate(names)}
        return {
            "fields": ["name", "start_ns", "end_ns", "parent", "tag", "work", "error"],
            "names": names,
            "spans": [
                [index[n], s, e, p, t, w, x]
                for n, s, e, p, t, w, x in zip(self.name, self.start, self.end,
                                                self.parent, self.tag, self.work,
                                                self.error)
            ],
        }


def _zetakit_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "zetakit" or n.startswith("zetakit."))]


@contextmanager
def patched(recorder: Recorder) -> Iterator[list[tuple]]:
    """Route every binding of every TARGETS function through ``recorder``."""
    wrappers: dict[int, tuple[Callable, Callable]] = {}
    for module, names in TARGETS.items():
        mod = importlib.import_module(f"zetakit.{module}")
        for name in names:
            fn = getattr(mod, name)
            wrappers[id(fn)] = (fn, recorder.wrap(f"{module}.{name}", fn))
    restore: list[tuple] = []
    try:
        for mod in _zetakit_modules():
            for attr, value in list(vars(mod).items()):
                pair = wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    restore.append((mod, attr, value))
                    setattr(mod, attr, pair[1])
        yield restore
    finally:
        for mod, attr, value in restore:
            setattr(mod, attr, value)


def traced_bindings() -> list[str]:
    """``module.attr`` of every binding still pointing at a traced wrapper."""
    return [
        f"{mod.__name__}.{attr}"
        for mod in _zetakit_modules()
        for attr, value in vars(mod).items()
        if getattr(value, "bench_traced", False)
    ]


def self_times(start: list[int], end: list[int], parent: list[int]) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0
        cur_lo = cur_hi = None
        for a, b in sorted((max(start[k], lo), min(end[k], hi)) for k in kids):
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


def layer_stats(rec: Recorder) -> dict[str, float]:
    """Per-layer sums over the recorded spans.

    ``<name>.calls/.self_ms/.work/.fail/.fail_ms`` for every span name
    (``.terms`` instead of ``.work`` for compensated_sum), the routes taken
    inside ``lerch_phi``, ``hurwitz_zeta``'s reflection calls,
    ``extended.route.<kind>.<route>.calls/.ms`` per returned ext_* tag, and
    ``<name>.ms`` (inclusive) for the harness's ``identities.<entry>`` spans.
    """
    own = self_times(rec.start, rec.end, rec.parent)
    stats: dict[str, float] = defaultdict(float)
    for i, name in enumerate(rec.name):
        dur_ms = (rec.end[i] - rec.start[i]) / 1e6
        stats[f"{name}.calls"] += 1
        stats[f"{name}.self_ms"] += own[i] / 1e6
        stats[f"{name}.terms" if name == _TERMS else f"{name}.work"] += rec.work[i]
        if rec.error[i] is not None:
            stats[f"{name}.fail"] += 1
            stats[f"{name}.fail_ms"] += dur_ms
        tag = rec.tag[i]
        if name.startswith("identities."):
            stats[f"{name}.ms"] += dur_ms
        elif tag is None:
            continue
        elif name == "zeta.lerch_phi":
            route = tag.split("/", 1)[1]
            stats[f"zeta.lerch_phi.{route}.calls"] += 1
            stats[f"zeta.lerch_phi.{route}.work"] += rec.work[i]
        elif name == "zeta.hurwitz_zeta" and tag == "hurwitz/reflection":
            stats["zeta.hurwitz_zeta.reflection.calls"] += 1
        elif name in _EXT:
            route = tag.replace("/", ".")
            stats[f"extended.route.{route}.calls"] += 1
            stats[f"extended.route.{route}.ms"] += dur_ms
    return dict(stats)


COUNT_STATS = (".calls", ".work", ".terms", ".fail")


def count_stats(stats: dict[str, float]) -> dict[str, int]:
    """The deterministic part of ``layer_stats``: counts, no times."""
    return {k: int(v) for k, v in stats.items() if k.endswith(COUNT_STATS)}


def write_spans(path: Path, snapshot: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snapshot, separators=(",", ":")))
