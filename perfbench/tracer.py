"""Per-layer spans for the traced run, recorded around the program's entry points.

Modules bind the functions they use by name (catalog and construct each
import find_irreducible), so wrapping only the defining module would miss
calls.  The tracer replaces every binding of each entry point in the loaded
aqmds modules with a wrapper that times the call and reads its arguments
and result.  A span's self time is its duration minus the part covered by
spans that start inside it.  An entry point that no longer exists is
reported as absent.
"""
from __future__ import annotations

import functools
import importlib
import math
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# span name -> entry points, as "module:qualified name"
ENTRY_POINTS: Dict[str, Tuple[str, ...]] = {
    "gf.make_field": ("aqmds.gf:make_field",),
    "gf.find_irreducible": ("aqmds.gf:find_irreducible",),
    "matrix.ksubset": ("aqmds.matrix:all_k_subsets_nonsingular",
                       "aqmds.matrix:first_singular_k_subset"),
    "matrix.rref": ("aqmds.matrix:rref",),
    "code.scan": ("aqmds.code:_enumerate_scan",),
    "code.complement_rows": ("aqmds.code:complement_rows",),
    "code.full_weight": ("aqmds.code:LinearCode.full_weight_codeword",),
    "construct.build": tuple(f"aqmds.construct:{name}" for name in (
        "grs", "extended_grs", "grs_subcode_irreducible", "q_plus_2_low", "q_plus_2_high")),
    "css.make_pair": ("aqmds.css:make_pair",),
    "catalog.recipe": ("aqmds.catalog:_designated_recipe",),
    "catalog.build_pair": ("aqmds.catalog:build_pair_from_recipe",),
    "catalog.oracles": ("aqmds.catalog:run_oracles",),
    "catalog.json": ("aqmds.catalog:certificates_to_json",
                     "aqmds.catalog:certificate_from_dict"),
}

# counters kept beside a span's calls and self time: name -> unit
COUNTERS: Dict[str, str] = {
    "gf.find_irreducible.distinct": "count",
    "matrix.ksubset.subsets": "count",
    "matrix.ksubset.subsets_per_s": "1/s",
    "code.scan.words": "count",
    "code.scan.words_per_s": "1/s",
    "code.scan.capped": "count",
    "catalog.oracles.skipped": "count",
}


def metric_names(entry_points: Dict[str, Tuple[str, ...]] = ENTRY_POINTS) -> List[Tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for span in entry_points:
        out += [(f"{span}.calls", "count"), (f"{span}.s", "s")]
        out += [(c, u) for c, u in COUNTERS.items() if c.startswith(span + ".")]
    return out


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def subset_index(subset, n: int) -> int:
    """Position of a sorted k-subset of range(n) in itertools.combinations order."""
    k, idx, prev = len(subset), 0, -1
    for i, c in enumerate(subset):
        idx += sum(math.comb(n - v - 1, k - i - 1) for v in range(prev + 1, c))
        prev = c
    return idx


@dataclass
class SpanStats:
    calls: int = 0
    self_s_by_second: Dict[int, float] = field(default_factory=dict)  # keyed by int(start)
    counts: Dict[str, float] = field(default_factory=dict)

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


class Tracer:
    """Wraps the entry points while installed; `active` switches recording."""

    def __init__(self, entry_points: Dict[str, Tuple[str, ...]] = ENTRY_POINTS):
        self.entry_points = entry_points
        self.stats: Dict[str, SpanStats] = {}
        self.absent: List[str] = []
        self.active = True
        self._stack: List[float] = []  # per open span: time covered by its children
        self._patches: List[Tuple[object, str, object]] = []
        self._fields_built = set()
        self._irreducible_args = set()
        self._first_singular: Optional[Callable] = None

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        self._first_singular = self._resolve("aqmds.matrix:first_singular_k_subset")
        for span, targets in self.entry_points.items():
            found = [(t, self._resolve(t)) for t in targets]
            found = [(t, fn) for t, fn in found if fn is not None]
            if not found:
                self.absent.append(span)
                continue
            self.stats[span] = SpanStats()
            for target, fn in found:
                self._patch(target, fn, self._wrap(span, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @staticmethod
    def _resolve(target: str):
        module_name, qualname = target.split(":")
        try:
            obj = importlib.import_module(module_name)
            for part in qualname.split("."):
                obj = getattr(obj, part)
        except (ImportError, AttributeError):
            return None
        return obj

    def _patch(self, target: str, original, wrapper) -> None:
        module_name, qualname = target.split(":")
        if "." in qualname:  # a method: one binding, on its class
            owner_name, attr = qualname.rsplit(".", 1)
            owners = [(self._resolve(f"{module_name}:{owner_name}"), attr)]
        else:
            owners = [(m, a) for name, m in list(sys.modules.items())
                      if name == "aqmds" or name.startswith("aqmds.")
                      for a, v in vars(m).items() if v is original]
        for owner, attr in owners:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    # -- spans ----------------------------------------------------------------

    def _wrap(self, span: str, fn: Callable) -> Callable:
        stats = self.stats[span]
        count = getattr(self, "_count_" + span.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active or (span == "gf.make_field" and not self._first_build(args, kwargs)):
                return fn(*args, **kwargs)
            self._stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(stats, count, t0, args, kwargs, None, exc)
                raise
            self._close(stats, count, t0, args, kwargs, result, None)
            return result

        return traced

    def _close(self, stats, count, t0, args, kwargs, result, error) -> None:
        t1 = perf_counter()
        covered = self._stack.pop()
        if count is not None:
            self.active = False  # program calls a counter makes are not spans
            try:
                count(stats, args, kwargs, result, error)
            finally:
                self.active = True
        stats.calls += 1
        second = int(t0)
        stats.self_s_by_second[second] = stats.self_s_by_second.get(second, 0.0) + (t1 - t0) - covered
        if self._stack:  # the counter's own work is not the parent's self time
            self._stack[-1] += perf_counter() - t0

    def exclude(self, seconds: float) -> None:
        """Keep `seconds` of outside work, done inside the open span, out of its self time."""
        if self._stack:
            self._stack[-1] += seconds

    def _first_build(self, args, kwargs) -> bool:
        q = _arg(args, kwargs, 0, "q")
        if q in self._fields_built:
            return False
        self._fields_built.add(q)
        return True

    def _count_gf_find_irreducible(self, stats, args, kwargs, result, error):
        self._irreducible_args.add((_arg(args, kwargs, 0, "field").q, _arg(args, kwargs, 1, "degree")))
        stats.counts["gf.find_irreducible.distinct"] = len(self._irreducible_args)

    def _count_matrix_ksubset(self, stats, args, kwargs, result, error):
        if error is not None:
            return
        M, k = _arg(args, kwargs, 0, "M"), _arg(args, kwargs, 1, "k")
        if result is False:  # all_k_subsets_nonsingular stopped at the first singular subset
            result = self._first_singular(M, k) if self._first_singular else None
        if result is True or result is None:
            stats.add("matrix.ksubset.subsets", math.comb(M.cols, k))
        else:
            stats.add("matrix.ksubset.subsets", subset_index(result, M.cols) + 1)

    def _count_code_scan(self, stats, args, kwargs, result, error):
        if error is None:
            field_, gen = _arg(args, kwargs, 0, "field"), _arg(args, kwargs, 1, "gen")
            stats.add("code.scan.words", field_.q ** gen.shape[0])
        elif type(error).__name__ == "CapExceeded":
            stats.add("code.scan.capped")

    def _count_catalog_oracles(self, stats, args, kwargs, result, error):
        if error is None:
            stats.add("catalog.oracles.skipped", sum("skipped(cap)" in e for e in result[1]))

    # -- report ---------------------------------------------------------------

    def metrics(self, passes: int = 1,
                scale: Optional[Callable[[float, float], float]] = None) -> Dict[str, Optional[float]]:
        """Every per-layer metric by name, per pass of the workload (gf.make_field,
        which runs in set-up, and the distinct count are not divided); None for a
        span whose entry points are absent.  `scale(t0, t1)` converts seconds
        measured between perf_counter times t0 and t1, as SpeedProbe.scale does."""
        out: Dict[str, Optional[float]] = {}
        for name, _unit in metric_names(self.entry_points):
            span = next(s for s in self.entry_points if name.startswith(s + "."))
            stats = self.stats.get(span)
            if stats is None:
                out[name] = None
                continue
            per = 1 if span == "gf.make_field" else passes
            self_s = sum(v * (scale(t, t + 1) if scale else 1.0)
                         for t, v in stats.self_s_by_second.items())
            if name == f"{span}.calls":
                out[name] = stats.calls / per
            elif name == f"{span}.s":
                out[name] = self_s / per
            elif name.endswith("_per_s"):
                work = stats.counts.get(name[: -len("_per_s")], 0)
                out[name] = work / self_s if self_s > 0 else 0.0
            elif name.endswith(".distinct"):
                out[name] = stats.counts.get(name, 0)
            else:
                out[name] = stats.counts.get(name, 0) / per
        return out
