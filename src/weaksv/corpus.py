"""Weakly-labeled corpus data model, on-disk manifest, validation and splits.

A corpus is a set of recordings, each carrying a single recording-level
target speaker and a partition of its segments into diarized clusters.
Per-segment oracle speaker identities are retained alongside for
evaluation only; training code never consults them.

Segments live in one table (`Segments`), indexed by segment id 0..n-1:
an (n, feat_dim) float64 matrix of pooled frame means, an (n+1,)
row-bounds array and an (n,) oracle array. Segment i is rows
bounds[i]:bounds[i+1] of the frame matrix in corpus.feat, bounds[0] is 0
and bounds[n] the row count. The frames themselves are never held in
memory: they are pooled a block at a time as they are rendered (synth)
or read (load_manifest), and every stage reads only the means.

On-disk layout (one directory):
  corpus.idx   40-byte header + int64 little-endian cluster table, oracle
               labels and frame counts (see save_manifest)
  corpus.feat  16-byte header + float32 little-endian frame matrix
  oracle.tsv   segment_id <tab> oracle_label (evaluation sidecar)
  trials.tsv   enroll_id <tab> test_id <tab> {0,1}
"""

from __future__ import annotations

import struct
from itertools import chain
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import CorruptArtifact, InsufficientSegments
from .fileio import atomic_write
from .rng import Rng

# Oracle label sentinels. Known speakers are dense ids 0..n_speakers-1;
# UNKNOWN marks speech of anyone outside that set, NOISE non-speech.
UNKNOWN = -1
NOISE = -2

FEAT_MAGIC = b"WMLF"
FEAT_VERSION = 1
IDX_MAGIC = b"WIDX"
IDX_VERSION = 1
IDX_HEADER = struct.Struct("<4sI4Q")  # corpus.idx: magic, version, counts R, C, M, S

IDX_NAME = "corpus.idx"
FEAT_NAME = "corpus.feat"
ORACLE_NAME = "oracle.tsv"
TRIALS_NAME = "trials.tsv"


@dataclass(eq=False)
class Segments:
    """The segment table: segment i has frame mean means[i], oracle label oracle[i] and, in
    corpus.feat, frame rows bounds[i]:bounds[i+1]."""

    means: np.ndarray  # (n, feat_dim) float64, read-only
    bounds: np.ndarray  # (n + 1,) int64, bounds[0] == 0, bounds[n] == total_frames
    oracle: np.ndarray  # (n,) int64

    def __len__(self) -> int:
        return self.oracle.shape[0]


@dataclass
class Recording:
    recording_id: int
    target: int
    clusters: list[list[int]]
    heldout: bool = False

    def segment_ids(self) -> list[int]:
        return [sid for cluster in self.clusters for sid in cluster]


@dataclass(frozen=True, eq=False)
class ClusterTable:
    """Every recording's clusters as flat arrays, in corpus.recordings order.

    Recording r owns the next n_clusters[r] clusters, and cluster c the
    next sizes[c] entries of members.
    """

    ids: np.ndarray  # per recording: id, target, held-out flag, cluster count
    targets: np.ndarray
    heldout: np.ndarray
    n_clusters: np.ndarray
    sizes: np.ndarray  # per cluster: member count
    members: np.ndarray  # segment ids, cluster by cluster

    def __post_init__(self):
        for array in vars(self).values():
            array.flags.writeable = False

    def owners(self) -> np.ndarray:
        """Each member's recording, as its row in this table."""
        return np.repeat(np.repeat(np.arange(self.ids.size), self.n_clusters), self.sizes)

    def recordings(self) -> list[Recording]:
        """The table as Recording objects; each cluster is a list sliced from members."""
        members = self.members.tolist()
        ends = np.cumsum(self.sizes).tolist()
        clusters = [members[a:b] for a, b in zip([0, *ends], ends)]
        cuts = np.cumsum(self.n_clusters).tolist()
        return [Recording(rid, target, clusters[a:b], held) for rid, target, held, a, b in zip(
            self.ids.tolist(), self.targets.tolist(), self.heldout.tolist(), [0, *cuts], cuts)]


class Corpus:
    """n_speakers, the recordings and the segment table.

    A corpus is not edited after construction (diarization and splitting
    build a new one). The package makes every corpus from a cluster table
    (from_table), and slices Recording lists from it only when they are
    asked for; a corpus made from Recording lists builds its table on
    first use and keeps it.
    """

    def __init__(self, n_speakers: int, recordings: list[Recording] | None, segments: Segments):
        self.n_speakers = n_speakers
        self.segments = segments
        self._recordings = recordings
        self._clusters: ClusterTable | None = None

    @classmethod
    def from_table(cls, n_speakers: int, table: ClusterTable, segments: Segments) -> Corpus:
        corpus = cls(n_speakers, None, segments)
        corpus._clusters = table
        return corpus

    @property
    def recordings(self) -> list[Recording]:
        if self._recordings is None:
            self._recordings = self._clusters.recordings()
        return self._recordings

    @property
    def feat_dim(self) -> int:
        return self.segments.means.shape[1]

    def recording(self, recording_id: int) -> Recording:
        return self.recordings[int(np.flatnonzero(self.cluster_table().ids == recording_id)[0])]

    def mean_frames(self) -> np.ndarray:
        """Per-segment frame means as a float64 matrix; row i is segment i.

        The segment table's means, pooled when the frames were rendered or
        read: every call returns the same read-only matrix.
        """
        return self.segments.means

    def cluster_table(self) -> ClusterTable:
        """The clusters as one read-only ClusterTable, built on first use and kept (or given to from_table).

        Raises OverflowError for an id, target or member past int64.
        """
        if self._clusters is None:
            rows = np.array([(r.recording_id, r.target, r.heldout, len(r.clusters)) for r in self.recordings],
                            dtype=np.int64).reshape(-1, 4)
            clusters = [cluster for r in self.recordings for cluster in r.clusters]
            sizes = np.array([len(cluster) for cluster in clusters], dtype=np.int64)
            members = np.fromiter(chain.from_iterable(clusters), np.int64, int(sizes.sum()))
            self._clusters = ClusterTable(rows[:, 0], rows[:, 1], rows[:, 2] == 1, rows[:, 3], sizes, members)
        return self._clusters


# Segments pooled per block a load reads: bounds the block's float32 buffer and its float64 copy.
POOL_BLOCK = 256


def pool_frames(frames: np.ndarray, lengths: np.ndarray, out: np.ndarray) -> None:
    """Write to out the frame means of consecutive segments: segment i is the next lengths[i] rows of frames.

    reduceat adds each segment's rows in frame order and the division is
    by its frame count, the same arithmetic as
    frames.astype(float64).mean(0) per segment, so the means are bitwise
    equal to it. A segment without frames gets a mean of 0 (validate_corpus
    reports it).
    """
    full = lengths > 0
    out[~full] = 0.0
    starts = np.cumsum(lengths) - lengths
    out[full] = np.add.reduceat(frames.astype(np.float64), starts[full], axis=0) / lengths[full, None]


@dataclass(frozen=True)
class Trial:
    enroll_id: int
    test_id: int
    is_target: bool


@dataclass
class ValidationIssue:
    kind: str
    message: str


def validate_corpus(corpus: Corpus) -> list[ValidationIssue]:
    """Every broken structural invariant, kind by kind; an empty list means all hold.

    The contract behind the weak label: segments have frames, all finite;
    recording ids are distinct (each keys its recording's random streams);
    every recording has clusters, none empty, that hold each segment at
    most once and some speech of the recording's target; the targets are
    exactly the speaker ids 0..n_speakers-1. The cluster checks run on the
    corpus's cluster_table(), in less than half the time of a loop over them.
    """
    segments, n_speakers = corpus.segments, corpus.n_speakers
    issues = [("EmptySegment", f"segment {sid} has no frames")
              for sid in np.flatnonzero(np.diff(segments.bounds) < 1).tolist()]
    # a float64 sum of finite float32 frames cannot overflow, so a mean is finite exactly when its frames are
    issues += [("NonFiniteFeatures", f"segment {sid} contains NaN or inf")
               for sid in np.flatnonzero(~np.isfinite(segments.means).all(axis=1)).tolist()]

    table = corpus.cluster_table()
    ids, targets, n_clusters, sizes, members = (
        table.ids.tolist(), table.targets, table.n_clusters, table.sizes, table.members)
    cluster_owner = np.repeat(np.arange(len(ids)), n_clusters)
    owner = np.repeat(cluster_owner, sizes)  # member -> recording
    first_cluster = np.cumsum(n_clusters) - n_clusters

    repeated, counts = np.unique(table.ids, return_counts=True)
    issues += [("DuplicateRecording", f"recording id {rid} is used by {count} recordings")
               for rid, count in zip(repeated[counts > 1].tolist(), counts[counts > 1].tolist())]
    known = (targets >= 0) & (targets < n_speakers)
    issues += [("BadTarget", f"recording {ids[i]} target {targets[i]} outside 0..{n_speakers - 1}")
               for i in np.flatnonzero(~known).tolist()]
    issues += [("EmptyRecording", f"recording {ids[i]} has no clusters")
               for i in np.flatnonzero(n_clusters == 0).tolist()]
    issues += [("EmptyCluster", f"recording {ids[i]} cluster {k - first_cluster[i]} is empty")
               for k, i in zip(np.flatnonzero(sizes == 0).tolist(), cluster_owner[sizes == 0].tolist())]
    present = (members >= 0) & (members < len(segments))
    issues += [("MissingSegment", f"recording {ids[owner[j]]} references missing segment {members[j]}")
               for j in np.flatnonzero(~present).tolist()]
    issues += [("DuplicateSegment", f"segment {sid} appears in more than one cluster")
               for sid in np.flatnonzero(np.bincount(members[present], minlength=len(segments)) > 1).tolist()]
    speaks = present.copy()
    speaks[present] = segments.oracle[members[present]] == targets[owner[present]]
    issues += [("MissingTargetSpeech", f"recording {ids[i]} has no segment of its target {targets[i]}")
               for i in np.flatnonzero(np.bincount(owner[speaks], minlength=len(ids)) == 0).tolist()]
    targeted = set(targets[known].tolist())
    if len(targeted) < n_speakers:  # one issue: a loaded n_speakers is the largest target read plus one
        first = next(spk for spk in range(n_speakers) if spk not in targeted)
        issues.append(("UntargetedSpeaker", f"{n_speakers - len(targeted)} speaker(s), the first {first}, "
                                            "are the target of no recording"))
    return [ValidationIssue(kind, message) for kind, message in issues]


def assign_heldout_split(corpus: Corpus, heldout_fraction: float, seed: int) -> Corpus:
    """Mark a per-speaker fraction of recordings as held out for trials.

    Deterministic given the seed; at least one recording per speaker is
    held out when the fraction is positive, and at least one stays in
    training. The corpus returned shares the cluster table's arrays but
    the new held-out flags.
    """
    table = corpus.cluster_table()
    heldout = np.zeros(table.ids.size, dtype=bool)
    by_speaker = np.lexsort((table.ids, table.targets))  # each speaker's recordings by id
    for recs in np.split(by_speaker, np.flatnonzero(np.diff(table.targets[by_speaker])) + 1):
        if heldout_fraction <= 0 or len(recs) < 2:
            continue
        k = min(max(1, round(heldout_fraction * len(recs))), len(recs) - 1)
        order = list(range(len(recs)))
        Rng.from_seed(seed, "heldout", int(table.targets[recs[0]])).shuffle(order)
        heldout[recs[order[:k]]] = True
    return Corpus.from_table(corpus.n_speakers, replace(table, heldout=heldout), corpus.segments)


def split_trials(corpus: Corpus, n_target: int, n_nontarget: int, seed: int) -> list[Trial]:
    """Build verification trials from held-out recordings.

    Enroll and test sides always come from different recordings, and only
    segments whose oracle label is a known speaker are used. Raises
    InsufficientSegments when the requested counts cannot be met.
    """
    rng = Rng.from_seed(seed, "trials")
    # speaker -> recording -> held-out segments with that oracle label, in cluster-table order
    table, oracle = corpus.cluster_table(), corpus.segments.oracle
    owner = table.owners()
    held = np.flatnonzero(table.heldout[owner])
    held = held[oracle[table.members[held]] >= 0]
    pools: dict[int, dict[int, list[int]]] = {}
    sids = table.members[held]
    for sid, spk, rid in zip(sids.tolist(), oracle[sids].tolist(), table.ids[owner[held]].tolist()):
        pools.setdefault(spk, {}).setdefault(rid, []).append(sid)

    target_ready = sorted(s for s, recs in pools.items() if len(recs) >= 2)
    speakers = sorted(pools)
    if n_target > 0 and not target_ready:
        raise InsufficientSegments("no speaker has held-out segments in two recordings")
    if n_nontarget > 0 and len(speakers) < 2:
        raise InsufficientSegments("non-target trials need held-out segments from two speakers")

    def draw(spk: int, exclude_rec: int | None = None) -> tuple[int, int]:
        recs = [rid for rid in sorted(pools[spk]) if rid != exclude_rec]
        rid = rng.choice(recs)
        return rid, rng.choice(pools[spk][rid])

    trials: list[Trial] = []
    seen: set[tuple[int, int]] = set()
    attempts = 0
    limit = 200 * (n_target + n_nontarget) + 1000
    while len(trials) < n_target:
        if attempts > limit:
            raise InsufficientSegments("cannot realize the requested target-trial count")
        attempts += 1
        spk = rng.choice(target_ready)
        rid_a, enroll = draw(spk)
        _, test = draw(spk, exclude_rec=rid_a)
        key = (min(enroll, test), max(enroll, test))
        if key in seen:
            continue
        seen.add(key)
        trials.append(Trial(enroll, test, True))
    n_made = 0
    while n_made < n_nontarget:
        if attempts > limit:
            raise InsufficientSegments("cannot realize the requested non-target-trial count")
        attempts += 1
        spk_a = rng.choice(speakers)
        spk_b = rng.choice(speakers)
        if spk_a == spk_b:
            continue
        rid_a, enroll = draw(spk_a)
        rid_b, test = draw(spk_b)
        if rid_a == rid_b:
            continue
        key = (min(enroll, test), max(enroll, test))
        if key in seen:
            continue
        seen.add(key)
        trials.append(Trial(enroll, test, False))
        n_made += 1
    return trials


# ---------------------------------------------------------------------------
# Manifest I/O
# ---------------------------------------------------------------------------


def save_manifest(corpus: Corpus, directory: str | Path) -> None:
    """Write corpus.idx from the cluster table and the segment table, in one atomic write.

    The file is IDX_HEADER (40 bytes: magic WIDX, u32 version 1, then the
    u64 counts R recordings, C clusters, M members and S segments) and
    little-endian int64 arrays back to back, in table order: ids[R],
    targets[R], heldout[R] (0 or 1), n_clusters[R], sizes[C], members[M],
    oracle[S], n_frames[S].

    corpus.feat is written only as the frames are rendered (see
    synth.generate_corpus): its features are float32 little-endian,
    row-major, in segment-id order, after the 16-byte feat_header.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    table, segments = corpus.cluster_table(), corpus.segments
    arrays = (table.ids, table.targets, table.heldout, table.n_clusters, table.sizes, table.members,
              segments.oracle, np.diff(segments.bounds))
    header = IDX_HEADER.pack(IDX_MAGIC, IDX_VERSION, len(table.ids), len(table.sizes), len(table.members),
                             len(segments))
    atomic_write(directory / IDX_NAME, [header, *(np.ascontiguousarray(a, dtype="<i8") for a in arrays)])


def feat_header(feat_dim: int) -> bytes:
    """corpus.feat's 16 header bytes: magic WMLF, version u32, feat_dim u32, reserved u32."""
    return FEAT_MAGIC + struct.pack("<III", FEAT_VERSION, feat_dim, 0)


def load_manifest(directory: str | Path) -> Corpus:
    """Read a corpus back from corpus.idx and corpus.feat.

    The checks run in this order, each raising CorruptArtifact:
    - the corpus.feat header: magic, version, a feat_dim of at least 1 and
      a body of whole rows (read from the header and the file size);
    - the corpus.idx header and arrays (see _read_index): magic, version,
      exact size, held-out flags, cluster counts and sizes, and frame
      counts that tile the frame matrix;
    - a body that reads in full;
    - the first issue validate_corpus finds in the corpus read.
    The body is read POOL_BLOCK whole segments at a time into one reused
    buffer, and each block is pooled into the segments' means (see
    pool_frames); no frame matrix is held. The corpus's cluster table is
    the index's arrays, and its Recording lists are sliced from that table.
    """
    directory = Path(directory)
    feat_path = directory / FEAT_NAME
    with feat_path.open("rb") as feat:
        head = feat.read(16)
        size = feat.seek(0, 2)
        if head[:4] != FEAT_MAGIC:
            raise CorruptArtifact(f"bad feature-file magic in {feat_path}")
        if len(head) < 16:
            raise CorruptArtifact(f"{feat_path} is shorter than its 16-byte header")
        version, feat_dim, _ = struct.unpack("<III", head[4:16])
        if version != FEAT_VERSION:
            raise CorruptArtifact(f"unsupported feature-file version {version} in {feat_path}")
        if feat_dim < 1 or (size - 16) % (4 * feat_dim):
            raise CorruptArtifact(f"{feat_path}: {size - 16} body bytes are not whole rows of {feat_dim} float32")
        n_rows = (size - 16) // (4 * feat_dim)

        table, oracle, n_frames = _read_index(directory / IDX_NAME, n_rows)
        n = len(oracle)
        bounds = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(n_frames, out=bounds[1:])

        feat.seek(16)
        means = np.empty((n, feat_dim))
        starts = bounds[:-1:POOL_BLOCK].tolist() + [n_rows]  # each block's first row, then the end
        buffer = np.empty(max(np.diff(starts), default=0) * feat_dim, dtype="<f4")
        for a, row_a, row_b in zip(range(0, n, POOL_BLOCK), starts, starts[1:]):
            block = buffer[:(row_b - row_a) * feat_dim]
            if feat.readinto(block) != block.nbytes:
                raise CorruptArtifact(f"{feat_path} ended before its {n_rows} rows were read")
            pool_frames(block.reshape(-1, feat_dim), n_frames[a:a + POOL_BLOCK], means[a:a + POOL_BLOCK])
    means.flags.writeable = False

    n_speakers = int(table.targets.max(initial=-1)) + 1
    corpus = Corpus.from_table(n_speakers, table, Segments(means, bounds, oracle))
    issues = validate_corpus(corpus)
    if issues:
        raise CorruptArtifact(f"{directory}: {issues[0].kind}: {issues[0].message}")
    return corpus


def _read_index(idx_path: Path, n_rows: int) -> tuple[ClusterTable, np.ndarray, np.ndarray]:
    """corpus.idx as a ClusterTable, the oracle labels and the frame counts of segments over n_rows rows.

    Raises CorruptArtifact for a bad magic or version, a size other than
    the counts give, a held-out flag other than 0 or 1, cluster counts or
    sizes outside 0..C or 0..M or not adding up to C or M, and frame
    counts outside 0..n_rows or not adding up to n_rows (each range comes
    first, so no sum can wrap). The int64 arrays are read-only views of
    the file's bytes.
    """
    data = idx_path.read_bytes()
    if data[:4] != IDX_MAGIC:
        raise CorruptArtifact(f"bad index magic in {idx_path}")
    if len(data) < IDX_HEADER.size:
        raise CorruptArtifact(f"{idx_path} is shorter than its {IDX_HEADER.size}-byte header")
    _, version, r, c, m, s = IDX_HEADER.unpack_from(data)
    if version != IDX_VERSION:
        raise CorruptArtifact(f"unsupported index version {version} in {idx_path}")
    lengths = [r, r, r, r, c, m, s, s]
    size = IDX_HEADER.size + 8 * sum(lengths)
    if len(data) != size:
        raise CorruptArtifact(f"{idx_path} holds {len(data)} bytes, not the {size} its counts R {r}, C {c}, "
                              f"M {m}, S {s} give")
    body = np.frombuffer(data, dtype="<i8", offset=IDX_HEADER.size)
    ids, targets, heldout, n_clusters, sizes, members, oracle, n_frames = np.split(body, np.cumsum(lengths[:-1]))
    stray = (heldout != 0) & (heldout != 1)
    if stray.any():
        raise CorruptArtifact(f"recording {ids[stray][0]} of {idx_path} has a held-out flag other than 0 or 1")
    for name, values, total in (("cluster counts", n_clusters, c), ("cluster sizes", sizes, m),
                                ("frame counts", n_frames, n_rows)):
        if ((values < 0) | (values > total)).any() or values.sum() != total:
            raise CorruptArtifact(f"the {name} of {idx_path} do not each lie in 0..{total} and add up to {total}")
    return ClusterTable(ids, targets, heldout == 1, n_clusters, sizes, members), oracle, n_frames


def save_oracle(corpus: Corpus, directory: str | Path) -> None:
    directory = Path(directory)
    lines = [f"{sid}\t{oracle}" for sid, oracle in enumerate(corpus.segments.oracle.tolist())]
    atomic_write(directory / ORACLE_NAME, "\n".join(lines) + "\n")


def save_trials(trials: list[Trial], path: str | Path) -> None:
    lines = [f"{t.enroll_id}\t{t.test_id}\t{1 if t.is_target else 0}" for t in trials]
    atomic_write(path, "\n".join(lines) + "\n")


def load_trials(path: str | Path, n_segments: int) -> list[Trial]:
    """Read trials.tsv; CorruptArtifact for a line that is not two segment ids in
    0..n_segments-1 and a 0/1 label (an id indexes rows: a negative one would read another's)."""
    trials = []
    for lineno, line in enumerate(Path(path).read_text("utf-8", errors="replace").splitlines(), 1):
        if not line.strip():
            continue
        try:
            enroll, test, label = line.split("\t")
            trial = Trial(int(enroll), int(test), {"0": False, "1": True}[label])
        except (ValueError, KeyError):
            trial = None
        if trial is None or not (0 <= trial.enroll_id < n_segments and 0 <= trial.test_id < n_segments):
            raise CorruptArtifact(f"{path} line {lineno} is not <enroll id> <test id> <0|1> "
                                  f"with ids in 0..{n_segments - 1}")
        trials.append(trial)
    return trials
