"""Spans at the boundaries between boxal's modules, and the layer metrics they give.

``Tracer.install`` replaces functions in the module namespaces where
``orchestrator``, ``certainty``, ``simulator`` and ``cli`` look them up (and
``sampling``, whose functions ``orchestrator`` reaches as module
attributes), so each call records a span: name, start, end, parent span and
the loop iteration it belongs to. Spans stay in memory until ``write``. A
target that no longer exists is reported as absent and records no calls, so
a refactor that removes one does not break the benchmark.

Without ``install`` the tracer still records the spans the benchmark makes
itself, around ``run_loop`` and around the adapter's ``fulfill_*`` calls;
that is all an untraced repetition measures.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter


def _parsed_file(tracer, args, kwargs, result):
    tracer.files["parse"].append(str(args[0] if args else kwargs["path"]))


def _saved_file(tracer, args, kwargs, result):
    tracer.files["save"].append(str(args[1] if len(args) > 1 else kwargs["path"]))


def _grouped(tracer, args, kwargs, result):
    tracer.counts["grouping.sets"] += len(result)
    image = args[0] if args else kwargs["img"]
    if image.image_id in tracer.pool_ids:
        tracer.counts["grouping.pool_calls"] += 1


def _scored(tracer, args, kwargs, result):
    tracer.counts["certainty.sets"] += result.set_count


def _mapped(tracer, args, kwargs, result):
    preds_by_image = args[0] if args else kwargs["preds_by_image"]
    tracer.counts["evaluation.map_dets"] += sum(len(p) for p in preds_by_image.values())


# (module whose namespace is patched, attribute, span name, counter)
TARGETS = (
    ("orchestrator", "_run_iteration_locked", "iteration", None),
    ("orchestrator", "load_image_passes", "parse", _parsed_file),
    ("orchestrator", "apply_thresholds", "threshold", None),
    ("simulator", "apply_thresholds", "threshold", None),
    ("orchestrator", "save_image_passes", "save", _saved_file),
    ("orchestrator", "load_ground_truth", "gt_load", None),
    ("orchestrator", "group_passes", "grouping", _grouped),
    ("certainty", "group_passes", "grouping", _grouped),
    ("orchestrator", "image_certainty", "certainty", _scored),
    ("sampling", "sample_min_certainty", "sampling", None),
    ("sampling", "sample_random", "sampling", None),
    ("orchestrator", "consolidate", "consolidate", None),
    ("orchestrator", "f1_image", "f1", None),
    ("orchestrator", "coco_map", "map", _mapped),
    ("orchestrator", "ttest_two_sided", "ttest", None),
    ("orchestrator", "simulate_passes", "simulate", None),
    ("orchestrator", "train_update", "train", None),
    ("cli", "generate_world", "setup.generate_world", None),
    ("cli", "save_world", "setup.save_world", None),
    ("cli", "init_run", "setup.init_run", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, iteration]
        self.iteration = 0
        self.counts: Counter = Counter()
        self.files: dict[str, list[str]] = defaultdict(list)
        self.absent: list[str] = []
        self.pool_ids: frozenset = frozenset()  # grouping calls on these ids count as pool calls
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a span per call, then calling ``count`` on its result."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.iteration]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                try:
                    count(self, args, kwargs, result)
                except Exception:  # a changed signature must not stop the measured run
                    self.counts["trace.counter_errors"] += 1
            return result

        return traced

    def _wrap_iteration(self, fn):
        traced = self.wrap("iteration", fn)

        @functools.wraps(fn)
        def iteration(*args, **kwargs):
            try:
                return traced(*args, **kwargs)
            finally:
                self.iteration += 1  # spans after the last iteration belong to the final evaluation

        return iteration

    def adapter(self, inner):
        return _TracedAdapter(self, inner)

    def install(self) -> None:
        for module_name, attr, name, count in TARGETS:
            try:
                module = importlib.import_module(f"boxal.{module_name}")
            except ModuleNotFoundError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapped = self._wrap_iteration(fn) if name == "iteration" else self.wrap(name, fn, count)
            setattr(module, attr, wrapped)
            self._patches.append((module, attr, fn))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def totals(self, first: int = 0, stop: int | None = None) -> defaultdict:
        """Span name -> [calls, inclusive seconds, self seconds], over spans[first:stop]."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _, _), child in zip(self.spans[first:stop], covered[first:stop]):
            total = out[name]
            total[0] += 1
            total[1] += end - start
            total[2] += end - start - child
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, iteration in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent,
                          "iteration": iteration}
                fh.write(json.dumps(record) + "\n")


class _TracedAdapter:
    """Delegates to an adapter, recording each ``fulfill_*`` call as an ``adapter`` span."""

    def __init__(self, tracer: Tracer, inner):
        self._tracer = tracer
        self._inner = inner

    def __getattr__(self, name):
        value = getattr(self._inner, name)
        if name.startswith("fulfill_"):
            return self._tracer.wrap("adapter", value)
        return value


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer, loop_span: int, passes_n: int, images: int, pool_images: int) -> dict:
    """Per-layer figures of a traced loop, as {name: [value, unit]}.

    Spans before index ``loop_span`` belong to the set-ups. ``images`` counts
    the images of every detection request, ``pool_images`` those that came
    from the pool.
    """
    t = tracer.totals(loop_span)
    setup = tracer.totals(0, loop_span)
    c = tracer.counts

    def self_s(*names):
        return sum(t[n][2] for n in names)

    def per_call(name):
        return _rate(setup[name][1], setup[name][0])

    parse_bytes = sum(Path(p).stat().st_size for p in tracer.files["parse"])
    parse_dets = sum(Path(p).read_bytes().count(b'"bbox"') for p in tracer.files["parse"])
    return {
        "simulator.self_s": [self_s("simulate", "train"), "s"],
        "simulator.calls": [t["simulate"][0], "count"],
        "simulator.image_passes_per_s": [_rate(t["simulate"][0] * passes_n, self_s("simulate")), "1/s"],
        "data_io.parse_s": [self_s("parse"), "s"],
        "data_io.parse_dets_per_s": [_rate(parse_dets, self_s("parse")), "1/s"],
        "data_io.parse_bytes": [parse_bytes, "B"],
        "data_io.threshold_s": [self_s("threshold"), "s"],
        "data_io.threshold_calls_per_image": [_rate(t["threshold"][0], images), "calls/image"],
        "data_io.save_s": [self_s("save"), "s"],
        "data_io.save_bytes": [sum(Path(p).stat().st_size for p in tracer.files["save"]), "B"],
        "data_io.gt_load_s": [self_s("gt_load"), "s"],
        "data_io.gt_loads": [t["gt_load"][0], "count"],
        "grouping.self_s": [self_s("grouping"), "s"],
        "grouping.calls": [t["grouping"][0], "count"],
        "grouping.calls_per_image": [_rate(c["grouping.pool_calls"], pool_images), "calls/image"],
        "grouping.sets": [c["grouping.sets"], "count"],
        "certainty.self_s": [self_s("certainty"), "s"],
        "certainty.images": [t["certainty"][0], "count"],
        "certainty.sets_per_s": [_rate(c["certainty.sets"], self_s("certainty")), "1/s"],
        "sampling.self_s": [self_s("sampling"), "s"],
        "evaluation.consolidate_s": [self_s("consolidate"), "s"],
        "evaluation.f1_s": [self_s("f1"), "s"],
        "evaluation.map_s": [self_s("map"), "s"],
        "evaluation.map_dets": [c["evaluation.map_dets"], "count"],
        "evaluation.ttest_s": [self_s("ttest"), "s"],
        "orchestrator.adapter_s": [t["adapter"][1], "s"],
        "orchestrator.self_s": [self_s("loop", "iteration"), "s"],
        "adapter.self_s": [self_s("adapter"), "s"],
        "setup.generate_world_s": [per_call("setup.generate_world"), "s"],
        "setup.save_world_s": [per_call("setup.save_world"), "s"],
        "setup.init_run_s": [per_call("setup.init_run"), "s"],
        "trace.loop_s": [t["loop"][1], "s"],
        "trace.absent_targets": [len(tracer.absent), "count"],
        "trace.counter_errors": [c["trace.counter_errors"], "count"],
    }
