"""Dataset ingestion, synthetic task generation, and episodic sampling."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .numerics import RngStream

SPLITS = ("train", "val", "test")


@dataclass
class Dataset:
    """Labeled instances grouped by relation, with a per-relation split.

    Relation ids index the relation-embedding matrix and graph nodes directly,
    so they must be the contiguous range 0..R-1.
    """

    names: dict[int, str]
    splits: dict[int, str]
    instances: dict[int, np.ndarray]  # relation id -> (n_i, d) feature rows
    d: int

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

    @property
    def num_relations(self) -> int:
        return len(self.names)

    def relations_in_split(self, split: str) -> list[int]:
        if split not in SPLITS:
            raise ValueError(f"unknown split {split!r}")
        return sorted(r for r, s in self.splits.items() if s == split)


@dataclass
class Episode:
    """One N-way K-shot task sampled from a dataset split.

    Labels are indices into ``targets`` (positions 0..N-1), not raw relation
    ids; ``targets[label]`` recovers the relation id. The *_keys lists carry
    (relation_id, row_index) identities so disjointness is checkable.
    """

    targets: list[int]
    support_x: np.ndarray  # (N*K, d), class-major order
    support_y: np.ndarray  # (N*K,) target indices
    query_x: np.ndarray  # (N*Q_per, d)
    query_y: np.ndarray  # (N*Q_per,)
    support_keys: list[tuple[int, int]] = field(default_factory=list)
    query_keys: list[tuple[int, int]] = field(default_factory=list)

    @property
    def n_way(self) -> int:
        return len(self.targets)


def sample_episode(
    dataset: Dataset, split: str, n_way: int, k_shot: int, q_per: int, rng: RngStream
) -> Episode:
    """Sample N target relations, then disjoint support and query sets.

    Targets are drawn uniformly without replacement from the split; within
    each target, K + Q_per distinct instances are drawn, the first K forming
    the support set. k_shot may be 0 (zero-shot episodes carry only queries).
    """
    if n_way < 1 or k_shot < 0 or q_per < 1:
        raise ValueError("need n_way >= 1, k_shot >= 0, q_per >= 1")
    rel_ids = dataset.relations_in_split(split)
    if len(rel_ids) < n_way:
        raise ValueError(
            f"split {split!r} has {len(rel_ids)} relations, need {n_way}"
        )
    gen = rng.generator()
    targets = [int(r) for r in gen.choice(np.asarray(rel_ids), size=n_way, replace=False)]

    sup_x, sup_y, qry_x, qry_y = [], [], [], []
    sup_keys, qry_keys = [], []
    for label, rid in enumerate(targets):
        rows = dataset.instances[rid]
        need = k_shot + q_per
        if len(rows) < need:
            raise ValueError(
                f"relation {rid} has {len(rows)} instances, need {need}"
            )
        picked = gen.choice(len(rows), size=need, replace=False)
        for j in picked[:k_shot]:
            sup_x.append(rows[j])
            sup_y.append(label)
            sup_keys.append((rid, int(j)))
        for j in picked[k_shot:]:
            qry_x.append(rows[j])
            qry_y.append(label)
            qry_keys.append((rid, int(j)))

    d = dataset.d
    return Episode(
        targets=targets,
        support_x=np.asarray(sup_x, dtype=float).reshape(len(sup_x), d),
        support_y=np.asarray(sup_y, dtype=int),
        query_x=np.asarray(qry_x, dtype=float).reshape(len(qry_x), d),
        query_y=np.asarray(qry_y, dtype=int),
        support_keys=sup_keys,
        query_keys=qry_keys,
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
        if parts[2] not in SPLITS:
            raise ValueError(f"{registry_path}:{lineno}: unknown split {parts[2]!r}")
        names[rid] = parts[1]
        splits[rid] = parts[2]
    if not names:
        raise ValueError(f"{registry_path}: empty registry")

    rows: dict[int, list[np.ndarray]] = {rid: [] for rid in names}
    d = None
    for lineno, line in read_lines(instances_path):
        rid, vec = parse_row(line, instances_path, lineno)
        if rid not in names:
            raise ValueError(f"{instances_path}:{lineno}: unknown relation id {rid}")
        if d is None:
            d = len(vec)
            if d == 0:
                raise ValueError(f"{instances_path}:{lineno}: instance has no features")
        elif len(vec) != d:
            raise ValueError(
                f"{instances_path}:{lineno}: dimension {len(vec)} != {d}"
            )
        rows[rid].append(vec)
    if d is None:
        raise ValueError(f"{instances_path}: no instances")

    instances = {}
    for rid in names:
        if not rows[rid]:
            raise ValueError(f"relation {rid} has no instances")
        instances[rid] = np.vstack(rows[rid])
    if not all(np.isfinite(x).all() for x in instances.values()):
        lineno = first_nonfinite_line(instances_path)
        raise ValueError(f"{instances_path}:{lineno}: non-finite feature")
    return Dataset(names=names, splits=splits, instances=instances, d=int(d))


def save_dataset(dataset: Dataset, instances_path, registry_path) -> None:
    """Write a Dataset in the load_dataset file formats (round-trip exact)."""
    reg_lines = [
        f"{rid}\t{dataset.names[rid]}\t{dataset.splits[rid]}"
        for rid in sorted(dataset.names)
    ]
    inst_lines = []
    for rid in sorted(dataset.names):
        for row in dataset.instances[rid]:
            inst_lines.append(f"{rid}\t" + "\t".join(repr(float(v)) for v in row))
    Path(registry_path).write_text("\n".join(reg_lines) + "\n", encoding="utf-8")
    Path(instances_path).write_text("\n".join(inst_lines) + "\n", encoding="utf-8")


def read_lines(path) -> Iterator[tuple[int, str]]:
    """(line number, text) of every non-blank line of a UTF-8 text file."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return ((n, line) for n, line in enumerate(lines, start=1) if line.strip())


def parse_ints(fields, path, lineno: int) -> list[int]:
    """The fields as integers; a bad field raises ``path:lineno: ...``."""
    try:
        return [int(f) for f in fields]
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None


def parse_row(line: str, path, lineno: int) -> tuple[int, np.ndarray]:
    """The id and the values of an "id<TAB>v_1<TAB>...<TAB>v_d" line."""
    parts = line.split("\t")
    try:
        return int(parts[0]), np.array([float(v) for v in parts[1:]], dtype=float)
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None


def first_nonfinite_line(path) -> int | None:
    """Number of the first "id<TAB>values..." line whose values hold a nan or inf.

    Loaders check whole arrays and call this only to locate a failure.
    """
    for lineno, line in read_lines(path):
        if not np.isfinite(parse_row(line, path, lineno)[1]).all():
            return lineno
    return None
