"""Outside-in tracing of protograph's public functions.

The tracer replaces a function by a timing wrapper at the module where its
caller looks the name up. Modules import by name (``from .data import
sample_episode``), so wrapping ``data.sample_episode`` alone would miss the
calls made through ``evaluation.sample_episode`` and ``trainer.sample_episode``;
each call site is patched on its own and all of them report under one span
name. Nothing under ``src/`` is changed, and :meth:`Tracer.uninstall` puts
every original back.

Spans are kept in memory as ``(id, name, start, end, parent, run)`` tuples
and written out as JSON lines at the end. A span's self time is its duration
minus the durations of its direct children; the program is single-threaded,
so the children of one span never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# (owner, attribute, span name). The owner is the module (or class) that the
# caller resolves the name through, which is not always where it is defined.
SPAN_SITES = (
    # set-up, called by the benchmark itself as the CLI does
    ("protograph.data", "load_dataset", "data.load_dataset"),
    ("protograph.graph", "load_embeddings", "graph.load_embeddings"),
    ("protograph.graph", "load_graph", "graph.load_graph"),
    ("protograph.graph:RelationGraph", "propagated", "graph.propagated"),
    ("protograph.trainer", "read_checkpoint", "trainer.read_checkpoint"),
    # entry points of the timed phase, called by the benchmark itself
    ("protograph.trainer", "train", "trainer.train"),
    ("protograph.evaluation", "evaluate_fewshot", "evaluation.evaluate_fewshot"),
    ("protograph.evaluation", "evaluate_zeroshot", "evaluation.evaluate_zeroshot"),
    ("protograph.evaluation", "emit_report", "evaluation.emit_report"),
    # calls inside the program, patched at the calling module
    ("protograph.evaluation", "sample_episode", "data.sample_episode"),
    ("protograph.trainer", "sample_episode", "data.sample_episode"),
    ("protograph.evaluation", "summary_rows", "prior.summary_rows"),
    ("protograph.trainer", "summary_rows", "prior.summary_rows"),
    ("protograph.evaluation", "posterior_predict", "sampler.posterior_predict"),
    ("protograph.trainer", "posterior_predict", "sampler.posterior_predict"),
    ("protograph.evaluation", "encode_batch", "likelihood.encode_batch"),
    ("protograph.sampler", "encode_batch", "likelihood.encode_batch"),
    ("protograph.trainer", "encode_batch", "likelihood.encode_batch"),
    ("protograph.evaluation", "class_log_probs", "likelihood.class_log_probs"),
    ("protograph.likelihood", "pairwise_logits", "likelihood.pairwise_logits"),
    ("protograph.sampler", "pairwise_logits", "likelihood.pairwise_logits"),
    ("protograph.trainer", "pairwise_logits", "likelihood.pairwise_logits"),
    ("protograph.sampler", "support_statistics", "sampler.support_statistics"),
    ("protograph.sampler", "init_prototypes", "sampler.init_prototypes"),
    ("protograph.trainer", "init_prototypes", "sampler.init_prototypes"),
    ("protograph.sampler", "sgld_chain", "sampler.sgld_chain"),
    ("protograph.trainer", "sgld_chain", "sampler.sgld_chain"),
    ("protograph.sampler", "predict_queries", "sampler.predict_queries"),
    ("protograph.sampler", "softmax_with_temperature", "numerics.softmax_with_temperature"),
    ("protograph.trainer", "softmax_with_temperature", "numerics.softmax_with_temperature"),
    ("protograph.likelihood", "log_softmax_with_temperature",
     "numerics.log_softmax_with_temperature"),
    ("protograph.sampler", "standard_normal_sample", "numerics.standard_normal_sample"),
    ("protograph.trainer", "episode_objective_and_grads",
     "trainer.episode_objective_and_grads"),
    ("protograph.trainer", "write_checkpoint", "trainer.write_checkpoint"),
)

# Counted but not timed, so their time stays in the caller's self time:
# one generator() call is one Philox construction inside the noise draw.
COUNT_SITES = (
    ("protograph.numerics:RngStream", "generator", "numerics.generator"),
    ("protograph.graph", "normalized_adjacency", "graph.normalized_adjacency"),
)


# raw spans kept for the JSON lines file; totals cover every span
KEEP_SPANS = 100_000


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class Tracer:
    """Records spans and call counts while installed; inert otherwise.

    Calls, self time and (for the names in ``keep_durations``) durations are
    summed per ``(phase, name)`` as spans end. The first ``KEEP_SPANS``
    spans, counted in start order so that every kept span's parent is kept
    too, are also kept raw for the JSON lines file.
    """

    def __init__(self, keep_durations=()) -> None:
        self.phase = "setup"
        self.run = "setup"
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.durations: dict[tuple[str, str], list[float]] = defaultdict(list)
        self.spans: list[tuple] = []
        self.started = 0
        self._keep_durations = frozenset(keep_durations)
        self._stack: list[list] = []  # [span id, time spent in children]
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in SPAN_SITES:
            self._patch(owner, attr, self._span_wrapper(name))
        for owner, attr, name in COUNT_SITES:
            self._patch(owner, attr, self._count_wrapper(name))

    def uninstall(self) -> None:
        while self._originals:
            obj, attr, original = self._originals.pop()
            setattr(obj, attr, original)

    def _patch(self, owner: str, attr: str, make_wrapper) -> None:
        obj = _resolve(owner)
        original = vars(obj)[attr]
        setattr(obj, attr, functools.wraps(original)(make_wrapper(original)))
        self._originals.append((obj, attr, original))

    def _span_wrapper(self, name: str):
        stack, clock = self._stack, time.perf_counter
        keep_duration = name in self._keep_durations

        def make(fn):
            def wrapper(*args, **kwargs):
                sid = self.started
                self.started += 1
                parent = stack[-1][0] if stack else -1
                frame = [sid, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    duration = end - start
                    if stack:
                        stack[-1][1] += duration
                    key = (self.phase, name)
                    self.calls[key] += 1
                    self.self_s[key] += duration - frame[1]
                    if keep_duration:
                        self.durations[key].append(duration)
                    if sid < KEEP_SPANS:
                        self.spans.append((sid, name, start, end, parent, self.run))

            return wrapper

        return make

    def _count_wrapper(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                self.calls[(self.phase, name)] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for sid, name, start, end, parent, run in sorted(self.spans):
                out.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "run": run,
                }) + "\n")
            out.write(json.dumps({
                "spans_started": self.started,
                "spans_written": len(self.spans),
                "calls": [
                    {"phase": phase, "name": name, "calls": n}
                    for (phase, name), n in sorted(self.calls.items())
                ],
            }) + "\n")
