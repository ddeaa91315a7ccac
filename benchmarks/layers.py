"""Per-layer metrics and the span-coverage report of a traced run.

Metric names are ``<module>.<function>.<kind>``:

* ``calls``: calls per timed episode (``graph.normalized_adjacency.calls``:
  per set-up, since the graph caches its propagation);
* ``self_ms``: milliseconds of self time per timed episode, children excluded;
* ``ms``: median milliseconds of one call (set-up functions: one per set-up);
* ``bytes``: bytes of the file read or written by one call.
"""

from __future__ import annotations

import statistics

CALLS, SELF_MS, MS = "calls/episode", "ms/episode", "ms"

PER_LAYER = (
    ("numerics.standard_normal_sample.calls", CALLS),
    ("numerics.standard_normal_sample.self_ms", SELF_MS),
    ("numerics.generator.calls", CALLS),
    ("numerics.softmax_with_temperature.calls", CALLS),
    ("numerics.softmax_with_temperature.self_ms", SELF_MS),
    ("numerics.log_softmax_with_temperature.calls", CALLS),
    ("numerics.log_softmax_with_temperature.self_ms", SELF_MS),
    ("data.sample_episode.calls", CALLS),
    ("data.sample_episode.self_ms", SELF_MS),
    ("data.load_dataset.ms", MS),
    ("data.load_dataset.bytes", "bytes"),
    ("graph.load_embeddings.ms", MS),
    ("graph.load_graph.ms", MS),
    ("graph.propagated.ms", MS),
    ("graph.normalized_adjacency.calls", "calls/set-up"),
    ("prior.summary_rows.calls", CALLS),
    ("prior.summary_rows.self_ms", SELF_MS),
    ("likelihood.encode_batch.calls", CALLS),
    ("likelihood.encode_batch.self_ms", SELF_MS),
    ("likelihood.pairwise_logits.calls", CALLS),
    ("likelihood.pairwise_logits.self_ms", SELF_MS),
    ("likelihood.class_log_probs.calls", CALLS),
    ("likelihood.class_log_probs.self_ms", SELF_MS),
    ("sampler.support_statistics.self_ms", SELF_MS),
    ("sampler.init_prototypes.self_ms", SELF_MS),
    ("sampler.sgld_chain.calls", CALLS),
    ("sampler.sgld_chain.self_ms", SELF_MS),
    ("sampler.predict_queries.self_ms", SELF_MS),
    ("sampler.posterior_predict.self_ms", SELF_MS),
    ("trainer.episode_objective_and_grads.calls", CALLS),
    ("trainer.episode_objective_and_grads.self_ms", SELF_MS),
    ("trainer.train.self_ms", SELF_MS),
    ("trainer.write_checkpoint.calls", CALLS),
    ("trainer.write_checkpoint.ms", MS),
    ("trainer.write_checkpoint.bytes", "bytes"),
    ("trainer.read_checkpoint.ms", MS),
    ("evaluation.evaluate_fewshot.self_ms", SELF_MS),
    ("evaluation.evaluate_zeroshot.self_ms", SELF_MS),
    ("evaluation.emit_report.ms", MS),
    # untraced over traced episodes/s
    ("trace.overhead_ratio", "ratio"),
    # timed phase minus the sum of all self times
    ("trace.unattributed_ms", SELF_MS),
)

SETUP_CALLS = ("data.load_dataset", "graph.load_embeddings", "graph.load_graph",
               "graph.propagated")

# spans whose single-call durations are kept for the ``ms`` metrics
DURATION_NAMES = tuple(name.rpartition(".")[0] for name, unit in PER_LAYER if unit == MS)


def metrics(tracer, spec, files, out, plain_times, traced_times, traced_wall) -> dict:
    """Per-layer metrics of a traced run.

    ``plain_times`` and ``traced_times`` are the CPU times of the untraced
    and traced units, ``traced_wall`` the wall time of all traced units;
    spans are timed on the wall clock.
    """
    episodes = len(traced_times) * spec.unit_episodes
    values = {}
    for name, _ in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = tracer.calls[("timed", layer)] / episodes
        elif kind == "self_ms":
            values[name] = 1000.0 * tracer.self_s[("timed", layer)] / episodes
        elif kind == "ms":
            durations = tracer.durations[("setup", layer)] or tracer.durations[("timed", layer)]
            values[name] = 1000.0 * statistics.median(durations) if durations else 0.0
    adjacency = "graph.normalized_adjacency"
    values[adjacency + ".calls"] = (
        tracer.calls[("setup", adjacency)] + tracer.calls[("timed", adjacency)]
    ) / spec.setup_reps
    values["data.load_dataset.bytes"] = float(
        files["instances"].stat().st_size + files["registry"].stat().st_size)
    values["trainer.write_checkpoint.bytes"] = float(
        (out / "model.ckpt").stat().st_size if spec.kind == "train" else 0)
    values["trace.overhead_ratio"] = (
        statistics.median(traced_times) / statistics.median(plain_times))
    timed_self = sum(v for (phase, _), v in tracer.self_s.items() if phase == "timed")
    values["trace.unattributed_ms"] = 1000.0 * (traced_wall - timed_self) / episodes
    units = dict(PER_LAYER)
    return {name: {"value": values[name], "unit": units[name]} for name, _ in PER_LAYER}


def coverage(tracer, spec, traced_units: int) -> list[str]:
    """Layers the workload's shape says must do work but whose counts disagree.

    An empty list means every expected call was seen at its expected rate.
    """
    episodes = traced_units * spec.unit_episodes
    lines = []
    for name, want in sorted(spec.expected_calls().items()):
        got = tracer.calls[("timed", name)] / episodes
        if got == 0:
            lines.append(f"{name} recorded zero calls, expected {want:g} per episode")
        elif abs(got - want) > 1e-9 * max(1.0, want):
            lines.append(f"{name} recorded {got:g} calls per episode, expected {want:g}")
    setup = SETUP_CALLS + (("trainer.read_checkpoint",) if spec.kind != "train" else ())
    got = {name: tracer.calls[("setup", name)] / spec.setup_reps for name in setup}
    adjacency = "graph.normalized_adjacency"  # cache misses, in either phase
    got[adjacency] = (
        tracer.calls[("setup", adjacency)] + tracer.calls[("timed", adjacency)]
    ) / spec.setup_reps
    for name, calls in got.items():
        if calls != 1:
            lines.append(f"{name} recorded {calls:g} calls per set-up, expected 1")
    return lines
