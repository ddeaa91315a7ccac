"""Dataset ingestion, synthetic task generation, and episodic sampling."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .numerics import RngStream, StreamChoices

SPLITS = ("train", "val", "test")


@dataclass
class Dataset:
    """Labeled instances grouped by relation, with a per-relation split.

    Relation ids index the relation-embedding matrix and graph nodes directly,
    so they must be the contiguous range 0..R-1. The rows of all relations
    are kept in one contiguous (n, d) float array, ``rows``, in relation-id
    order: relation r owns ``rows[offsets[r]:offsets[r + 1]]``, and
    ``instances[r]`` is a view of them.
    """

    names: dict[int, str]
    splits: dict[int, str]
    instances: dict[int, np.ndarray]  # relation id -> (n_i, d) feature rows
    d: int
    rows: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        ids = sorted(self.names)
        if ids != list(range(len(ids))):
            raise ValueError("relation ids must be contiguous from 0")
        for rid in ids:
            if rid not in self.splits or self.splits[rid] not in SPLITS:
                raise ValueError(f"relation {rid} has no valid split assignment")
            rows = self.instances.get(rid)
            if rows is None or len(rows) == 0:
                raise ValueError(f"relation {rid} has no instances")
            if rows.ndim != 2 or rows.shape[1] != self.d:
                raise ValueError(
                    f"relation {rid} features have shape {rows.shape}, expected (*, {self.d})"
                )
        parts = [self.instances[rid] for rid in ids]
        self.rows = np.concatenate([np.empty((0, self.d))] + parts, dtype=float)
        self.offsets = np.cumsum([0] + [len(rows) for rows in parts])
        self.instances = {
            rid: self.rows[self.offsets[rid] : self.offsets[rid + 1]] for rid in ids
        }

    @property
    def num_relations(self) -> int:
        return len(self.names)

    def relations_in_split(self, split: str, need: int = 0) -> list[int]:
        """Relation ids of ``split``, ascending; raises if there are fewer than ``need``."""
        if split not in SPLITS:
            raise ValueError(f"unknown split {split!r}")
        ids = sorted(r for r, s in self.splits.items() if s == split)
        if len(ids) < need:
            raise ValueError(f"split {split!r} has {len(ids)} relations, need {need}")
        return ids

    def check_instances(self, relation_ids, need: int) -> None:
        """Raise if one of the relations has fewer than ``need`` instances."""
        for rid in relation_ids:
            if len(self.instances[rid]) < need:
                raise ValueError(
                    f"relation {rid} has {len(self.instances[rid])} instances, need {need}"
                )

    def check_split(self, split: str, n_way: int, k_shot: int, q_per: int) -> None:
        """Raise unless every episode of this shape can be drawn from ``split``."""
        check_episode_shape(n_way, k_shot, q_per)
        self.check_instances(self.relations_in_split(split, need=n_way), k_shot + q_per)


@dataclass
class Episode:
    """One N-way K-shot task sampled from a dataset split, or E such tasks.

    Labels are indices into ``targets`` (positions 0..N-1), not raw relation
    ids; ``targets[label]`` recovers the relation id. A batch of E episodes
    stacks every field on a leading E axis, with targets an (E, N) array.
    """

    targets: list[int] | np.ndarray
    support_x: np.ndarray  # (N*K, d), class-major order
    support_y: np.ndarray  # (N*K,) target indices
    query_x: np.ndarray  # (N*Q_per, d)
    query_y: np.ndarray  # (N*Q_per,)


def check_episode_shape(n_way: int, k_shot: int, q_per: int) -> None:
    """Reject an episode shape with no class, a negative support size or no query."""
    if n_way < 1 or k_shot < 0 or q_per < 1:
        raise ValueError("need n_way >= 1, k_shot >= 0, q_per >= 1")


def sample_episode(
    dataset: Dataset, split: str, n_way: int, k_shot: int, q_per: int,
    rng: RngStream,
) -> Episode:
    """Sample N target relations, then disjoint support and query sets.

    Targets are drawn uniformly without replacement from the split; within
    each target, K + Q_per distinct instances are drawn, the first K forming
    the support set. k_shot may be 0 (zero-shot episodes carry only queries).

    ``rng`` is one stream, or a batch stream of E ids (see
    :meth:`RngStream.child`) for a batch of E episodes, each exactly the
    episode its stream gives alone: what ``gen.choice`` draws from the
    stream's generator, the targets, then each target's instances. A
    :class:`StreamChoices` runs those calls on the streams' raw Philox
    words, the E target draws in one array pass and the E * N instance
    draws in a second, and redraws the rare stream it cannot mirror with
    ``gen.choice``. The batch's rows come from ``dataset.rows`` in one
    gather.
    """
    check_episode_shape(n_way, k_shot, q_per)
    batched = isinstance(rng.stream_id, np.ndarray)
    episodes = np.size(rng.stream_id)
    rel_ids = np.asarray(dataset.relations_in_split(split, need=n_way))
    counts = np.diff(dataset.offsets)
    need = k_shot + q_per
    draws = StreamChoices(rng, [n_way] + [need] * n_way)
    targets = rel_ids[draws.choice(np.full((episodes, 1), len(rel_ids)), n_way)[:, 0]]
    # the first short relation in episode order, as drawing one episode at a time finds it
    dataset.check_instances(targets[counts[targets] < need].tolist(), need)
    picked = draws.choice(counts[targets], need)

    # row numbers in dataset.rows, support rows of the batch first, then query rows
    picked += dataset.offsets[targets][..., None]
    order = np.concatenate([picked[..., :k_shot].ravel(), picked[..., k_shot:].ravel()])
    rows = dataset.rows[order]
    lead = (episodes,) if batched else ()
    split_at = episodes * n_way * k_shot
    support_y = np.repeat(np.arange(n_way), k_shot)
    query_y = np.repeat(np.arange(n_way), q_per)
    return Episode(
        targets=targets if batched else targets[0].tolist(),
        support_x=rows[:split_at].reshape(lead + (n_way * k_shot, dataset.d)),
        support_y=np.tile(support_y, lead + (1,)),
        query_x=rows[split_at:].reshape(lead + (n_way * q_per, dataset.d)),
        query_y=np.tile(query_y, lead + (1,)),
    )


def generate_synthetic(
    num_relations: int,
    d: int,
    cluster_scale: float,
    noise_scale: float,
    instances_per_relation: int,
    rng: RngStream,
    *,
    embed_noise: float = 0.01,
    split_counts: tuple[int, int, int] | None = None,
) -> tuple[Dataset, np.ndarray]:
    """Gaussian-cluster dataset plus relation embeddings tied to the clusters.

    Each relation r gets a latent center c_r ~ N(0, cluster_scale^2 I);
    instances are c_r plus N(0, noise_scale^2 I) noise. The returned relation
    embedding for r is c_r plus an N(0, embed_noise^2 I) perturbation, so a
    k-NN graph over the embeddings mirrors the class geometry (embed_noise=0
    makes embeddings exactly equal to the centers). split_counts assigns the
    first block of relation ids to train, then val, then test.
    """
    if num_relations < 2 or d < 2:
        raise ValueError("need num_relations >= 2 and d >= 2")
    if cluster_scale <= 0 or noise_scale < 0 or embed_noise < 0:
        raise ValueError("cluster_scale must be positive, noise scales non-negative")
    if instances_per_relation < 1:
        raise ValueError("need instances_per_relation >= 1")
    if split_counts is None:
        q = max(1, num_relations // 4)
        split_counts = (num_relations - 2 * q, q, q)
    if len(split_counts) != len(SPLITS):
        raise ValueError(f"split_counts {split_counts} must give {len(SPLITS)} counts")
    if sum(split_counts) != num_relations or min(split_counts) < 0:
        raise ValueError(f"split_counts {split_counts} must sum to {num_relations}")

    gen = rng.generator()
    centers = cluster_scale * gen.standard_normal((num_relations, d))
    instances = {
        r: centers[r] + noise_scale * gen.standard_normal((instances_per_relation, d))
        for r in range(num_relations)
    }
    embeddings = centers + embed_noise * gen.standard_normal((num_relations, d))

    names = {r: f"relation_{r}" for r in range(num_relations)}
    splits = {}
    bounds = np.cumsum(split_counts)
    for r in range(num_relations):
        splits[r] = SPLITS[int(np.searchsorted(bounds, r, side="right"))]
    return Dataset(names=names, splits=splits, instances=instances, d=d), embeddings


def load_dataset(instances_path, registry_path) -> Dataset:
    """Read the tab-separated instance and registry files into a Dataset."""
    names: dict[int, str] = {}
    splits: dict[int, str] = {}
    for lineno, line in read_lines(registry_path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"{registry_path}:{lineno}: expected id, name, split")
        (rid,) = parse_ints(parts[:1], registry_path, lineno)
        if rid in names:
            raise ValueError(f"{registry_path}:{lineno}: duplicate relation id {rid}")
        if parts[2] not in SPLITS:
            raise ValueError(f"{registry_path}:{lineno}: unknown split {parts[2]!r}")
        names[rid] = parts[1]
        splits[rid] = parts[2]
    if not names:
        raise ValueError(f"{registry_path}: empty registry")

    linenos, ids, values = read_rows(instances_path, "instance", "feature")
    for lineno, rid in zip(linenos, ids):
        if rid not in names:
            raise ValueError(f"{instances_path}:{lineno}: unknown relation id {rid}")
    # one stable sort groups the rows by relation, each relation's in file order
    order = np.argsort(ids, kind="stable")
    ids, values = np.asarray(ids)[order], values[order]
    keys = np.array(list(names))
    bounds = zip(np.searchsorted(ids, keys).tolist(), np.searchsorted(ids, keys, "right").tolist())
    instances = {rid: values[lo:hi] for rid, (lo, hi) in zip(names, bounds)}
    return Dataset(names=names, splits=splits, instances=instances, d=values.shape[1])


def save_dataset(dataset: Dataset, instances_path, registry_path) -> None:
    """Write a Dataset in the load_dataset file formats (round-trip exact)."""
    reg_lines = [
        f"{rid}\t{dataset.names[rid]}\t{dataset.splits[rid]}"
        for rid in sorted(dataset.names)
    ]
    Path(registry_path).write_text("\n".join(reg_lines) + "\n", encoding="utf-8")
    write_rows(
        instances_path,
        ((rid, row) for rid in sorted(dataset.names) for row in dataset.instances[rid]),
    )


def read_lines(path) -> Iterator[tuple[int, str]]:
    """(line number, text) of every non-blank line of a UTF-8 text file."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:  # + "x": a line break just before the byte counts
        lineno = len((exc.object[: exc.start].decode("utf-8") + "x").splitlines())
        raise ValueError(f"{path}:{lineno}: not UTF-8 text") from None
    return ((n, line) for n, line in enumerate(lines, start=1) if line.strip())


def parse_ints(fields, path, lineno: int) -> list[int]:
    """The fields as integers; a bad field raises ``path:lineno: ...``."""
    try:
        return [int(f) for f in fields]
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None


def read_rows(path, row: str, value: str) -> tuple[list[int], list[int], np.ndarray]:
    """Line numbers, ids and (n, d) values of an "id<TAB>v_1<TAB>...<TAB>v_d" file.

    The one reader of the instance and embedding files. It checks the format
    (every number, one dimension d >= 1, finite values) and reports the first
    failure as ``path:line: ...``; the callers check the ids. ``row`` and
    ``value`` name a line and one of its values in the messages.
    """
    numbered = list(read_lines(path))
    if not numbered:
        raise ValueError(f"{path}: no {row}s")
    values = None
    ids = []
    for i, (lineno, line) in enumerate(numbered):
        fields = line.split("\t")
        try:
            ids.append(int(fields[0]))
            vec = [float(v) for v in fields[1:]]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if values is None:
            if not vec:
                raise ValueError(f"{path}:{lineno}: {row} has no values")
            values = np.empty((len(numbered), len(vec)))
        elif len(vec) != values.shape[1]:
            raise ValueError(f"{path}:{lineno}: dimension {len(vec)} != {values.shape[1]}")
        values[i] = vec
    linenos = [lineno for lineno, _ in numbered]
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        raise ValueError(f"{path}:{linenos[int(np.argmax(bad))]}: non-finite {value}")
    return linenos, ids, values


def write_rows(path, rows) -> None:
    """Write (id, values) pairs as "id<TAB>v_1<TAB>...<TAB>v_d" lines; the
    values' decimal reprs read back exactly."""
    lines = [f"{rid}\t" + "\t".join(map(repr, np.asarray(vec, dtype=float).tolist()))
             for rid, vec in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
