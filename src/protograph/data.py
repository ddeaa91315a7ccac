"""Dataset ingestion, synthetic task generation, episodic sampling, and the
streamed line reader and writer of the program's text files."""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .numerics import RngStream, StreamChoices

SPLITS = ("train", "val", "test")

# Files are read in blocks of whole lines of about this many bytes, and written
# through a buffer of this size, so a load holds its result and one block of
# text, never the whole file or a list of its lines. The write buffer is
# allocated whole: 1 MiB would cost all of it even for a file of a few lines.
BLOCK_BYTES = 2**16


@dataclass
class Dataset:
    """Labeled instances grouped by relation, with a per-relation split.

    Relation ids index the relation-embedding matrix and graph nodes directly,
    so they must be the contiguous range 0..R-1. The rows of all relations
    are one contiguous (n, d) float array, ``rows``, in relation-id order:
    relation r owns ``rows[offsets[r]:offsets[r + 1]]``.
    """

    names: dict[int, str]
    splits: dict[int, str]
    rows: np.ndarray = field(repr=False)  # (n, d) feature rows, grouped by relation
    offsets: np.ndarray = field(repr=False)  # (R + 1,) where each relation's rows start, then n

    def __post_init__(self) -> None:
        ids = sorted(self.names)
        if ids != list(range(len(ids))):
            raise ValueError("relation ids must be contiguous from 0")
        counts = np.diff(self.offsets)
        for rid in ids:
            if rid not in self.splits or self.splits[rid] not in SPLITS:
                raise ValueError(f"relation {rid} has no valid split assignment")
            if counts[rid] == 0:
                raise ValueError(f"relation {rid} has no instances")

    @property
    def d(self) -> int:
        return self.rows.shape[1]

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
        counts = np.diff(self.offsets)
        for rid in relation_ids:
            if counts[rid] < need:
                raise ValueError(f"relation {rid} has {counts[rid]} instances, need {need}")

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


def check_episode_shape(n_way: int, k_shot: int, q_per: int, support: bool = False,
                        episodes: int = 1) -> None:
    """Reject a run of no episodes, then an episode shape with no class, a
    negative support size or no query, and with ``support`` (a chain needs
    one) an empty support set, as ``<name> must be >= <least>, got <value>``,
    the first such field named."""
    least = {"episodes": 1, "n_way": 1, "k_shot": int(support), "q_per": 1}
    for (name, low), value in zip(least.items(), (episodes, n_way, k_shot, q_per)):
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")


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
    noise = gen.standard_normal((num_relations, instances_per_relation, d))
    rows = (centers[:, None] + noise_scale * noise).reshape(-1, d)
    embeddings = centers + embed_noise * gen.standard_normal((num_relations, d))

    names = {r: f"relation_{r}" for r in range(num_relations)}
    splits = {}
    bounds = np.cumsum(split_counts)
    for r in range(num_relations):
        splits[r] = SPLITS[int(np.searchsorted(bounds, r, side="right"))]
    offsets = instances_per_relation * np.arange(num_relations + 1)
    return Dataset(names=names, splits=splits, rows=rows, offsets=offsets), embeddings


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
    ids = np.asarray(ids)
    if (ids[1:] < ids[:-1]).any():
        # one stable sort groups the rows by relation, each relation's in file order
        order = np.argsort(ids, kind="stable")
        ids, values = ids[order], values[order]
    offsets = np.searchsorted(ids, np.arange(len(names) + 1))
    try:
        return Dataset(names=names, splits=splits, rows=values, offsets=offsets)
    except ValueError as exc:
        raise ValueError(f"{registry_path}: {exc}") from None


def save_dataset(dataset: Dataset, instances_path, registry_path) -> None:
    """Write a Dataset in the load_dataset file formats (round-trip exact)."""
    write_lines(registry_path, (f"{rid}\t{dataset.names[rid]}\t{dataset.splits[rid]}"
                                for rid in sorted(dataset.names)))
    counts = np.diff(dataset.offsets)
    write_rows(instances_path, zip(np.repeat(np.arange(len(counts)), counts).tolist(), dataset.rows))


def read_lines(path) -> Iterator[tuple[int, str]]:
    """(line number, text) of every non-blank line of a UTF-8 text file.

    The file is opened at the call, so a missing file fails there, and read
    a block of whole lines of about BLOCK_BYTES bytes at a time: a block ends
    at a line feed, which ends a line for ``splitlines()`` too and is no byte
    of another UTF-8 character, so the lines and numbers are those of
    ``splitlines()`` on the whole text, but a reader holds one block, never
    the whole file (a file with no line feed is one block). A byte that is
    not UTF-8 fails as ``path:line: not UTF-8 text`` once the lines before
    its line have been given out, so a caller meets a file's faults in line
    order.
    """
    return _numbered_lines(open(Path(path), "rb"), path)


def _numbered_lines(file, path) -> Iterator[tuple[int, str]]:
    lineno = 0
    with file:
        while block := b"".join(file.readlines(BLOCK_BYTES)):
            try:
                text, bad = block.decode("utf-8"), False
            except UnicodeDecodeError as exc:  # "x" stands for the bad byte's line
                text, bad = exc.object[: exc.start].decode("utf-8") + "x", True
            lines = text.splitlines()
            for lineno, line in enumerate(lines[:-1] if bad else lines, lineno + 1):
                if line.strip():
                    yield lineno, line
            if bad:
                raise ValueError(f"{path}:{lineno + 1}: not UTF-8 text")


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
    ``value`` name a line and one of its values in the messages. The values
    grow in one flat buffer as the lines stream in, so a read holds the
    matrix and one block of text.
    """
    linenos, ids, flat, d = [], [], array("d"), 0
    for lineno, line in read_lines(path):
        fields = line.split("\t")
        try:
            ids.append(int(fields[0]))
            vec = [float(v) for v in fields[1:]]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if not linenos:
            if not vec:
                raise ValueError(f"{path}:{lineno}: {row} has no values")
            d = len(vec)
        elif len(vec) != d:
            raise ValueError(f"{path}:{lineno}: dimension {len(vec)} != {d}")
        linenos.append(lineno)
        flat.fromlist(vec)
    if not linenos:
        raise ValueError(f"{path}: no {row}s")
    values = np.frombuffer(flat, dtype=float).reshape(-1, d)
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        raise ValueError(f"{path}:{linenos[int(np.argmax(bad))]}: non-finite {value}")
    return linenos, ids, values


def write_rows(path, rows) -> None:
    """Write (id, values) pairs as "id<TAB>v_1<TAB>...<TAB>v_d" lines; the
    values' decimal reprs read back exactly."""
    write_lines(path, (f"{rid}\t" + "\t".join(map(repr, np.asarray(vec, dtype=float).tolist()))
                       for rid, vec in rows))


def write_lines(path, lines: Iterable[str]) -> None:
    """Write the lines as UTF-8 text, each ended by a line feed (a lone line
    feed if there is none), through a buffer of BLOCK_BYTES bytes, so a
    writer holds one block, never the whole file."""
    with open(Path(path), "wb", buffering=BLOCK_BYTES) as out:
        for line in lines:
            out.write(f"{line}\n".encode("utf-8"))
        if not out.tell():
            out.write(b"\n")
