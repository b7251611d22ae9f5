"""Spans around calls into earlypd's public functions, recorded from outside.

Nothing under src/earlypd knows about tracing. While a Tracer is installed it
replaces every reference to a probed function that an earlypd module holds,
as a module attribute or as a value in a module-level dict (the pipeline's
scorer and loader tables), with a wrapper that records a span. Uninstalling
puts the originals back.

A probe whose function no longer exists is reported as missing and its
metrics read 0; it never fails the workload, so a refactor that renames a
function changes the per-layer numbers, not the end-to-end ones.
"""

from __future__ import annotations

import functools
import sys
import time
from pathlib import Path

# (module, function) pairs, span name "module.function". The pipeline's thin
# orchestration functions are probed so that its own time can be separated
# from the layers below it.
PROBES = (
    ("cli", "main"),
    ("pipeline", "run_and_write"),
    ("pipeline", "run_experiment"),
    ("pipeline", "write_artifacts"),
    ("pipeline", "acquire_dataset"),
    ("pipeline", "prepare_splits"),
    ("pipeline", "train_models"),
    ("pipeline", "evaluate_models"),
    ("pipeline", "score_batch"),
    ("pipeline", "load_model_file"),
    ("synth", "generate"),
    ("data", "ingest_csv"),
    ("data", "export_csv"),
    ("preprocess", "normalize_fit_transform"),
    ("preprocess", "normalize_apply"),
    ("preprocess", "stratified_split"),
    ("preprocess", "discretize_fit"),
    ("preprocess", "save_sidecar"),
    ("preprocess", "load_sidecar"),
    ("mlp", "mlp_train"),
    ("mlp", "mlp_score_batch"),
    ("mlp", "load_model"),
    ("mlp", "save_model"),
    ("bayesnet", "bn_train"),
    ("bayesnet", "bn_score_batch"),
    ("bayesnet", "load_model"),
    ("bayesnet", "save_model"),
    ("forest", "forest_train"),
    ("forest", "forest_score_batch"),
    ("forest", "load_model"),
    ("forest", "save_model"),
    ("boostlr", "adaboost_train"),
    ("boostlr", "boosted_score_batch"),
    ("boostlr", "load_model"),
    ("boostlr", "save_model"),
    ("metrics", "evaluate_scores"),
    ("metrics", "render_report_csv"),
    ("metrics", "render_report_text"),
    ("metrics", "roc_csv"),
    ("metrics", "roc_svg"),
)

ROOT_SPAN = "cli.main"

# Per-layer time metrics: summed inclusive time of the listed spans.
TIME_METRICS = {
    "mlp.train_s": ("mlp.mlp_train",),
    "mlp.score_s": ("mlp.mlp_score_batch",),
    "mlp.load_s": ("mlp.load_model",),
    "mlp.save_s": ("mlp.save_model",),
    "bayesnet.train_s": ("bayesnet.bn_train",),
    "bayesnet.score_s": ("bayesnet.bn_score_batch",),
    "bayesnet.load_s": ("bayesnet.load_model",),
    "bayesnet.save_s": ("bayesnet.save_model",),
    "forest.train_s": ("forest.forest_train",),
    "forest.score_s": ("forest.forest_score_batch",),
    "forest.load_s": ("forest.load_model",),
    "forest.save_s": ("forest.save_model",),
    "boostlr.train_s": ("boostlr.adaboost_train",),
    "boostlr.score_s": ("boostlr.boosted_score_batch",),
    "boostlr.load_s": ("boostlr.load_model",),
    "boostlr.save_s": ("boostlr.save_model",),
    "synth.generate_s": ("synth.generate",),
    "data.ingest_s": ("data.ingest_csv",),
    "data.export_s": ("data.export_csv",),
    "preprocess.split_s": ("preprocess.stratified_split",),
    "pipeline.write_s": ("pipeline.write_artifacts",),
    "metrics.evaluate_s": ("metrics.evaluate_scores",),
    "metrics.render_s": ("metrics.render_report_csv", "metrics.render_report_text",
                         "metrics.roc_csv", "metrics.roc_svg"),
}


def _train_rows(args, kwargs):
    train = args[0] if args else kwargs["train"]
    return len(train)


# Counts read from what a probed call returned (and, for the MLP, the number
# of training rows it was given). Each adds to one or more named counters.
def _count_mlp(args, kwargs, model):
    return {"mlp.steps": len(model.epoch_mse) * _train_rows(args, kwargs)}


def _count_forest(args, kwargs, model):
    return {"forest.nodes": sum(len(tree.feature) for tree in model.trees)}


def _count_bayesnet(args, kwargs, model):
    return {"bayesnet.edges": sum(len(p) for p in model.net.parents)}


def _count_boostlr(args, kwargs, model):
    # objective_path holds the start point plus one entry per accepted step
    return {"boostlr.rounds": len(model.rounds),
            "boostlr.newton_steps": sum(len(r.model.objective_path) - 1
                                        for r in model.rounds)}


def _count_ingest(args, kwargs, result):
    ds = result[0] if isinstance(result, tuple) else result
    return {"data.ingest_rows": len(ds)}


def _count_written(args, kwargs, paths):
    return {"pipeline.artifact_bytes": sum(Path(p).stat().st_size for p in paths)}


COUNTERS = {
    "mlp.mlp_train": _count_mlp,
    "forest.forest_train": _count_forest,
    "bayesnet.bn_train": _count_bayesnet,
    "boostlr.adaboost_train": _count_boostlr,
    "data.ingest_csv": _count_ingest,
    "pipeline.write_artifacts": _count_written,
}

COUNT_METRICS = ("mlp.steps", "forest.nodes", "bayesnet.edges", "boostlr.rounds",
                 "boostlr.newton_steps", "data.ingest_rows", "pipeline.artifact_bytes")

# (metric, time metric, count metric): microseconds of layer time per unit of work
RATE_METRICS = (("mlp.step_us", "mlp.train_s", "mlp.steps"),
                ("forest.node_us", "forest.train_s", "forest.nodes"))

OTHER_METRICS = ("pipeline.self_s", "cli.self_s", "trace.wall_s",
                 "trace.coverage", "trace.overhead_s")

LAYER_METRICS = (tuple(TIME_METRICS) + COUNT_METRICS
                 + tuple(m for m, _, _ in RATE_METRICS) + OTHER_METRICS)


def layer_unit(metric: str) -> str:
    if metric in COUNT_METRICS:
        return "bytes" if metric.endswith("_bytes") else "count"
    if metric.endswith("_us"):
        return "us"
    return "ratio" if metric == "trace.coverage" else "s"


class Tracer:
    """Records spans [name, parent index, start, end] and counts in memory."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.missing = []  # probes whose function is gone
        self.counter_errors = []  # counters that could not read their result
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            index = len(self.spans)
            span = [name, self._stack[-1] if self._stack else None, 0.0, 0.0]
            self.spans.append(span)
            self._stack.append(index)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                try:
                    for key, value in counter(args, kwargs, result).items():
                        self.counts[key] = self.counts.get(key, 0) + value
                except (AttributeError, TypeError, KeyError, IndexError, OSError) as err:
                    self.counter_errors.append(f"{name}: {type(err).__name__}: {err}")
            return result

        return probe

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "earlypd" or key.startswith("earlypd."))]
        self.missing = []
        for module_name, attr in PROBES:
            owner = sys.modules.get(f"earlypd.{module_name}")
            original = getattr(owner, attr, None)
            if not callable(original):
                self.missing.append(f"{module_name}.{attr}")
                continue
            probe = self._wrap(f"{module_name}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, probe)
                        self._undo.append((setattr, module, key, original))
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                value[dkey] = probe
                                self._undo.append((dict.__setitem__, value, dkey, original))

    def uninstall(self) -> None:
        for restore, target, key, original in reversed(self._undo):
            restore(target, key, original)
        self._undo = []

    def take(self):
        """(spans, counts) recorded since the last take; resets both."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], {}
        return spans, counts


def layer_metrics(spans, counts, wall_s: float, scale: float) -> dict:
    """Per-layer metrics of one traced iteration whose timed calls took wall_s;
    times are multiplied by scale (wall to reference seconds)."""
    duration = [end - start for _name, _parent, start, end in spans]
    child_time = [0.0] * len(spans)
    for (_name, parent, _start, _end), d in zip(spans, duration):
        if parent is not None:
            child_time[parent] += d
    out = {}
    for metric, names in TIME_METRICS.items():
        out[metric] = sum((d for (name, *_), d in zip(spans, duration) if name in names), 0.0)
    for metric in COUNT_METRICS:
        out[metric] = counts.get(metric, 0)
    for metric, time_metric, count_metric in RATE_METRICS:
        work = out[count_metric]
        out[metric] = out[time_metric] / work * 1e6 if work else 0.0
    out["pipeline.self_s"] = sum((d - c for (name, *_), d, c
                                  in zip(spans, duration, child_time)
                                  if name.startswith("pipeline.")), 0.0)
    roots = [i for i, (name, parent, *_) in enumerate(spans)
             if parent is None and name == ROOT_SPAN]
    in_root = sum(duration[i] for i in roots)
    out["cli.self_s"] = in_root - sum(child_time[i] for i in roots)
    out["trace.wall_s"] = wall_s
    # Share of the time in cli.main that is inside a layer span: the outermost
    # span below cli.main that is not pipeline orchestration. Time the CLI or
    # the pipeline spends outside every layer is not covered.
    covered = 0.0
    for (name, parent, *_), d in zip(spans, duration):
        while parent is not None and spans[parent][0].startswith("pipeline."):
            parent = spans[parent][1]
        if (parent is not None and parent in roots
                and not name.startswith("pipeline.") and name != ROOT_SPAN):
            covered += d
    out["trace.coverage"] = covered / in_root if in_root > 0 else 0.0
    return {name: value * scale if layer_unit(name) in ("s", "us") else value
            for name, value in out.items()}
