"""Per-layer spans and counts, recorded from outside the library.

``LayerTracer.install`` replaces public functions at their module
attributes with timing wrappers, so every call that goes through the
module attribute (which is how the library calls its own layers) opens a
span.  Wrappers sit outside any ``lru_cache``: a cache hit still opens a
span, and cache misses are counted from ``cache_info()`` deltas.  Box
candidate counts come from the ``circsing.singexact`` DEBUG record
"kept K of N candidates".  Spans stay in memory until ``write``.
"""
from __future__ import annotations

import collections
import functools
import json
import logging
import re
import time

# (module, function) pairs wrapped while tracing.
LAYERS = (
    ("singexact", "singular_mask"),
    ("mcsim", "sample_singularity"),
    ("singexact", "prob_union_bruteforce"),
    ("singexact", "prob_divisor_general"),
    ("singexact", "hnf_basis"),
    ("polycyc", "cyclotomic"),
    ("binomstats", "power_sum_exact"),
    ("asym", "approx_main"),
)
CACHED = {"singexact.hnf_basis", "polycyc.cyclotomic"}

# Unit of every per-layer metric that pass_metrics returns.
UNITS = {
    "singexact.singular_mask.s": "s",
    "singexact.singular_mask.rows": "count",
    "singexact.singular_mask.singular_ratio": "ratio",
    "mcsim.sample_singularity.self_s": "s",
    "singexact.prob_union_bruteforce.s": "s",
    "singexact.prob_union_bruteforce.self_s": "s",
    "singexact.prob_union_bruteforce.rows": "count",
    "singexact.prob_divisor_general.s": "s",
    "singexact.prob_divisor_general.calls": "count",
    "singexact.prob_divisor_general.candidates": "count",
    "singexact.prob_divisor_general.kept": "count",
    "singexact.prob_divisor_general.kept_ratio": "ratio",
    "singexact.hnf_basis.s": "s",
    "singexact.hnf_basis.misses": "count",
    "polycyc.cyclotomic.s": "s",
    "polycyc.cyclotomic.misses": "count",
    "binomstats.power_sum_exact.s": "s",
    "binomstats.power_sum_exact.calls": "count",
    "asym.approx_main.s": "s",
    "cli.run.self_s": "s",
    "singexact.budget_refusals": "count",
}

_KEPT = re.compile(r"kept (\d+) of (\d+) candidates")


class _CandidateLog(logging.Handler):
    def __init__(self, counts):
        super().__init__(logging.DEBUG)
        self.counts = counts

    def emit(self, record):
        match = _KEPT.search(record.getMessage())
        if match:
            self.counts["singexact.prob_divisor_general.kept"] += int(match[1])
            self.counts["singexact.prob_divisor_general.candidates"] += int(match[2])


class LayerTracer:
    """Spans ``(pass, id, parent, name, start, end, self)`` and per-pass counts."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        self.pass_id = 0
        self._next_id = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self._restore: list = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += end - start
            self.spans.append((self.pass_id, span_id, parent, name,
                               start, end, end - start - frame[1]))

    def _wrapper(self, name: str, fn):
        counts = self.counts
        cache_info = getattr(fn, "cache_info", None) if name in CACHED else None

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            result = self.span(name, fn, *args, **kwargs)
            counts[name + ".calls"] += 1
            if cache_info:
                counts[name + ".misses"] += cache_info().misses - misses
            if name == "singexact.singular_mask":
                counts[name + ".rows"] += len(result)
                counts[name + ".singular"] += int(result.sum())
            elif name == "singexact.prob_union_bruteforce":
                counts[name + ".rows"] += 2 ** args[0]
            return result
        return wrapped

    def install(self, modules: dict, error_class) -> None:
        """Wrap every layer in LAYERS and start counting budget refusals."""
        for mod_name, attr in LAYERS:
            module = modules[mod_name]
            original = getattr(module, attr)
            setattr(module, attr, self._wrapper(f"{mod_name}.{attr}", original))
            self._restore.append((module, attr, original))

        counts = self.counts
        original_init = error_class.__init__

        def counting_init(exc, *args, **kwargs):
            counts["singexact.budget_refusals"] += 1
            original_init(exc, *args, **kwargs)
        error_class.__init__ = counting_init
        self._restore.append((error_class, "__init__", original_init))

        logger = logging.getLogger("circsing.singexact")
        handler = _CandidateLog(counts)
        saved = logger.level, logger.propagate
        logger.addHandler(handler)
        logger.setLevel(logging.DEBUG)
        logger.propagate = False

        def restore_logger():
            logger.removeHandler(handler)
            logger.level, logger.propagate = saved
        self._restore.append(restore_logger)

    def uninstall(self) -> None:
        while self._restore:
            item = self._restore.pop()
            if callable(item):
                item()
            else:
                setattr(*item)

    def start_pass(self) -> None:
        self.pass_id += 1
        self.counts.clear()

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the current pass."""
        total = collections.defaultdict(float)
        self_time = collections.defaultdict(float)
        for pass_id, _, _, name, start, end, own in self.spans:
            if pass_id == self.pass_id:
                total[name] += end - start
                self_time[name] += own
        c = self.counts
        mask, brute, box = ("singexact.singular_mask",
                            "singexact.prob_union_bruteforce",
                            "singexact.prob_divisor_general")
        return {
            mask + ".s": total[mask],
            mask + ".rows": c[mask + ".rows"],
            mask + ".singular_ratio": _ratio(c[mask + ".singular"], c[mask + ".rows"]),
            "mcsim.sample_singularity.self_s": self_time["mcsim.sample_singularity"],
            brute + ".s": total[brute],
            brute + ".self_s": self_time[brute],
            brute + ".rows": c[brute + ".rows"],
            box + ".s": total[box],
            box + ".calls": c[box + ".calls"],
            box + ".candidates": c[box + ".candidates"],
            box + ".kept": c[box + ".kept"],
            box + ".kept_ratio": _ratio(c[box + ".kept"], c[box + ".candidates"]),
            "singexact.hnf_basis.s": total["singexact.hnf_basis"],
            "singexact.hnf_basis.misses": c["singexact.hnf_basis.misses"],
            "polycyc.cyclotomic.s": total["polycyc.cyclotomic"],
            "polycyc.cyclotomic.misses": c["polycyc.cyclotomic.misses"],
            "binomstats.power_sum_exact.s": total["binomstats.power_sum_exact"],
            "binomstats.power_sum_exact.calls": c["binomstats.power_sum_exact.calls"],
            "asym.approx_main.s": total["asym.approx_main"],
            "cli.run.self_s": self_time["cli.run"],
            "singexact.budget_refusals": c["singexact.budget_refusals"],
        }

    def write(self, path) -> None:
        """Write every recorded span as one JSON object per line."""
        keys = ("pass", "id", "parent", "name", "start", "end", "self_s")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
