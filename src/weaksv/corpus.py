"""Weakly-labeled corpus data model, on-disk manifest, validation and splits.

A corpus is a set of recordings, each carrying a single recording-level
target speaker and a partition of its segments into diarized clusters.
Per-segment oracle speaker identities are retained alongside for
evaluation only; training code never consults them.

Segments live in one table (`Segments`), indexed by segment id 0..n-1:
a float32 (total_frames, feat_dim) frame matrix, an (n+1,) row-bounds
array and an (n,) oracle array. The segments tile the matrix in id
order: segment i is rows bounds[i]:bounds[i+1], bounds[0] is 0 and
bounds[n] the row count, exactly as corpus.feat stores them. So an id
is also a row of any per-segment array, such as the pooled means.

On-disk layout (one directory):
  corpus.idx   line-oriented text: R/C/S records (see save_manifest)
  corpus.feat  16-byte header + float32 little-endian frame matrix
  oracle.tsv   segment_id <tab> oracle_label (evaluation sidecar)
  trials.tsv   enroll_id <tab> test_id <tab> {0,1}
"""

from __future__ import annotations

import struct
from collections.abc import Iterable
from itertools import chain
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import CorruptArtifact, EmptyInput, InsufficientSegments
from .fileio import atomic_write
from .rng import Rng

# Oracle label sentinels. Known speakers are dense ids 0..n_speakers-1;
# UNKNOWN marks speech of anyone outside that set, NOISE non-speech.
UNKNOWN = -1
NOISE = -2

FEAT_MAGIC = b"WMLF"
FEAT_VERSION = 1

IDX_NAME = "corpus.idx"
FEAT_NAME = "corpus.feat"
ORACLE_NAME = "oracle.tsv"
TRIALS_NAME = "trials.tsv"


@dataclass(eq=False)
class Segments:
    """The segment table: segment i is frames[bounds[i]:bounds[i+1]], oracle label oracle[i]."""

    frames: np.ndarray  # (total_frames, feat_dim) float32
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


@dataclass
class Corpus:
    n_speakers: int
    recordings: list[Recording]
    segments: Segments
    # Built on first use: a corpus is not edited after construction
    # (diarization and splitting build a new one).
    _pooled: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _clusters: ClusterTable | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def feat_dim(self) -> int:
        return self.segments.frames.shape[1]

    def train_recordings(self) -> list[Recording]:
        return [r for r in self.recordings if not r.heldout]

    def heldout_recordings(self) -> list[Recording]:
        return [r for r in self.recordings if r.heldout]

    def recording(self, recording_id: int) -> Recording:
        return self.recordings[int(np.flatnonzero(self.cluster_table().ids == recording_id)[0])]

    def mean_frames(self) -> np.ndarray:
        """Per-segment frame means as a float64 matrix; row i is segment i.

        Features are fixed for the lifetime of a corpus, so pooled means
        are computed once and reused by training and scoring. Every call
        returns the same read-only matrix. Raises EmptyInput for a
        segment without frames.
        """
        if self._pooled is None:
            self._pooled = _pool_means(self.segments)
        return self._pooled

    def cluster_table(self) -> ClusterTable:
        """The clusters as one ClusterTable, built on first use like mean_frames.

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


def require_in_range(values: Iterable[int], limit: int, what: str, source: str) -> None:
    """Raise CorruptArtifact unless every value lies in 0..limit-1.

    Segment ids and labels read from a file index array rows (segments,
    prototypes), so they are checked before use: a negative one would
    silently select another row.
    """
    bad = next((v for v in values if not 0 <= v < limit), None)
    if bad is not None:
        raise CorruptArtifact(f"{source}: {what} {bad} outside 0..{limit - 1}")


# Segments pooled per reduceat call: bounds the float64 copy of their frames.
POOL_BLOCK = 256


def _pool_means(segments: Segments) -> np.ndarray:
    """Frame means in segment-id order, one reduceat per block of segments.

    reduceat adds a block's rows in frame order and the division is by the
    frame count, the same arithmetic as features.astype(float64).mean(0),
    so the means are bitwise equal to it.
    """
    bounds = segments.bounds
    lengths = np.diff(bounds)
    if lengths.size and lengths.min() < 1:
        raise EmptyInput(f"segment {int(np.argmin(lengths))} has no frames")
    mat = np.empty((len(segments), segments.frames.shape[1]), dtype=np.float64)
    for a in range(0, len(segments), POOL_BLOCK):
        b = min(a + POOL_BLOCK, len(segments))
        out = mat[a:b]
        block = segments.frames[bounds[a]:bounds[b]].astype(np.float64)
        np.add.reduceat(block, bounds[a:b] - bounds[a], axis=0, out=out)
        out /= lengths[a:b, None]
    mat.flags.writeable = False
    return mat


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
    every recording has clusters, none empty, that hold each segment at
    most once and some speech of the recording's target; the targets are
    exactly the speaker ids 0..n_speakers-1. The cluster checks run on the
    corpus's cluster_table(), in less than half the time of a loop over them.
    """
    segments, n_speakers = corpus.segments, corpus.n_speakers
    issues = [("EmptySegment", f"segment {sid} has no frames")
              for sid in np.flatnonzero(np.diff(segments.bounds) < 1).tolist()]
    issues += [("NonFiniteFeatures", f"segment {sid} contains NaN or inf") for sid in _non_finite_segments(segments)]

    table = corpus.cluster_table()
    ids, targets, n_clusters, sizes, members = (
        table.ids.tolist(), table.targets, table.n_clusters, table.sizes, table.members)
    cluster_owner = np.repeat(np.arange(len(ids)), n_clusters)
    owner = np.repeat(cluster_owner, sizes)  # member -> recording
    first_cluster = np.cumsum(n_clusters) - n_clusters

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


def _non_finite_segments(segments: Segments) -> list[int]:
    """Ids of segments holding a NaN or inf, ascending; the row-wise search runs only if one exists."""
    if np.isfinite(segments.frames).all():  # about a third of the cost of the search
        return []
    bad_rows = np.flatnonzero(~np.isfinite(segments.frames).all(axis=1))
    return np.unique(np.searchsorted(segments.bounds, bad_rows, side="right") - 1).tolist()


def assign_heldout_split(corpus: Corpus, heldout_fraction: float, seed: int) -> Corpus:
    """Mark a per-speaker fraction of recordings as held out for trials.

    Deterministic given the seed; at least one recording per speaker is
    held out when the fraction is positive, and at least one stays in
    training.
    """
    by_speaker: dict[int, list[Recording]] = {}
    for rec in corpus.recordings:
        by_speaker.setdefault(rec.target, []).append(rec)
    heldout_ids: set[int] = set()
    for spk in sorted(by_speaker):
        recs = sorted(by_speaker[spk], key=lambda r: r.recording_id)
        if heldout_fraction <= 0 or len(recs) < 2:
            continue
        k = max(1, round(heldout_fraction * len(recs)))
        k = min(k, len(recs) - 1)
        order = list(range(len(recs)))
        Rng.from_seed(seed, "heldout", spk).shuffle(order)
        heldout_ids.update(recs[i].recording_id for i in order[:k])
    recordings = [replace(rec, heldout=rec.recording_id in heldout_ids) for rec in corpus.recordings]
    return Corpus(corpus.n_speakers, recordings, corpus.segments)


def split_trials(corpus: Corpus, n_target: int, n_nontarget: int, seed: int) -> list[Trial]:
    """Build verification trials from held-out recordings.

    Enroll and test sides always come from different recordings, and only
    segments whose oracle label is a known speaker are used. Raises
    InsufficientSegments when the requested counts cannot be met.
    """
    rng = Rng.from_seed(seed, "trials")
    # speaker -> recording -> held-out segments with that oracle label
    pools: dict[int, dict[int, list[int]]] = {}
    oracle = corpus.segments.oracle.tolist()
    for rec in corpus.heldout_recordings():
        for sid in rec.segment_ids():
            spk = oracle[sid]
            if spk >= 0:
                pools.setdefault(spk, {}).setdefault(rec.recording_id, []).append(sid)

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
    """Write corpus.idx and corpus.feat.

    corpus.idx carries one record per line:
      R <recording_id> <target> <n_clusters> <train|heldout>
      C <cluster_id> <segment_id> ...
      S <segment_id> <oracle> <n_frames> <offset>
    where <offset> is the starting frame row inside corpus.feat. Features
    are stored float32 little-endian, row-major, in segment-id order,
    after a 16-byte header (magic WMLF, version u32, feat_dim u32,
    reserved u32).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines: list[str] = []
    for rec in sorted(corpus.recordings, key=lambda r: r.recording_id):
        split = "heldout" if rec.heldout else "train"
        lines.append(f"R {rec.recording_id} {rec.target} {len(rec.clusters)} {split}")
        for cid, cluster in enumerate(rec.clusters):
            lines.append("C " + str(cid) + " " + " ".join(str(s) for s in cluster))
    segments = corpus.segments
    starts, ends = segments.bounds[:-1].tolist(), segments.bounds[1:].tolist()
    lines += [f"S {sid} {oracle} {end - start} {start}"
              for sid, (oracle, start, end) in enumerate(zip(segments.oracle.tolist(), starts, ends))]

    atomic_write(directory / IDX_NAME, "\n".join(lines) + "\n")
    header = FEAT_MAGIC + struct.pack("<III", FEAT_VERSION, corpus.feat_dim, 0)
    atomic_write(directory / FEAT_NAME, [header, np.ascontiguousarray(segments.frames, dtype="<f4")])


def load_manifest(directory: str | Path) -> Corpus:
    """Read a corpus back; exact inverse of save_manifest.

    The frame matrix is a read-only view of the file's bytes. Raises
    CorruptArtifact for a damaged header, a body that is not whole rows,
    a malformed index line, a recording's C ids other than 0, 1, ... in
    order, S ids other than 0..n-1 in order, or segments that do not tile
    the frame matrix in id order; then for the first issue validate_corpus
    finds in the corpus read.
    """
    directory = Path(directory)
    feat_path, idx_path = directory / FEAT_NAME, directory / IDX_NAME
    raw = feat_path.read_bytes()
    if raw[:4] != FEAT_MAGIC:
        raise CorruptArtifact(f"bad feature-file magic in {feat_path}")
    if len(raw) < 16:
        raise CorruptArtifact(f"{feat_path} is shorter than its 16-byte header")
    version, feat_dim, _ = struct.unpack("<III", raw[4:16])
    if version != FEAT_VERSION:
        raise CorruptArtifact(f"unsupported feature-file version {version} in {feat_path}")
    if feat_dim < 1 or (len(raw) - 16) % (4 * feat_dim):
        raise CorruptArtifact(
            f"{feat_path}: {len(raw) - 16} body bytes are not whole rows of {feat_dim} float32")
    frames = np.frombuffer(raw, dtype="<f4", offset=16).reshape(-1, feat_dim)

    recordings: list[Recording] = []
    seg_meta: list[tuple[int, int, int, int]] = []
    current: Recording | None = None
    next_cid = 0  # the C id the current recording's next C line must carry
    for lineno, line in enumerate(idx_path.read_text("utf-8", errors="replace").splitlines(), 1):
        parts = line.split()
        if not parts:
            continue
        kind, n_fields = parts[0], len(parts)
        try:
            if kind == "S" and n_fields == 5:
                seg_meta.append((int(parts[1]), int(parts[2]), int(parts[3]), int(parts[4])))
            elif kind == "C" and n_fields >= 2 and current is not None:
                cid = int(parts[1])
                if not 0 <= cid < len(current.clusters):
                    raise CorruptArtifact(
                        f"cluster {cid} outside the declared count in {idx_path} line {lineno}")
                if cid != next_cid:  # ids run 0..k-1 once each: a repeat would drop members
                    raise CorruptArtifact(f"cluster {cid} out of order ({next_cid} due) in {idx_path} line {lineno}")
                current.clusters[cid] = [int(s) for s in parts[2:]]
                next_cid += 1
            elif kind == "R" and n_fields == 5 and parts[4] in ("train", "heldout"):
                current = Recording(int(parts[1]), int(parts[2]), [], parts[4] == "heldout")
                current.clusters = [[] for _ in range(int(parts[3]))]
                recordings.append(current)
                next_cid = 0
            else:
                raise CorruptArtifact(f"{_index_line_problem(parts, current)} in {idx_path} line {lineno}")
        except ValueError:
            raise CorruptArtifact(f"non-integer field in {idx_path} line {lineno}") from None

    try:
        meta = np.array(seg_meta, dtype=np.int64).reshape(-1, 4)
    except OverflowError:
        raise CorruptArtifact(f"index field out of range in {idx_path}") from None
    n = meta.shape[0]
    misplaced = meta[:, 0] != np.arange(n)
    if misplaced.any():
        i = int(np.argmax(misplaced))
        raise CorruptArtifact(f"S record {i} of {idx_path} has id {seg_meta[i][0]}, not {i}")
    # Segment i must cover rows bounds[i]:bounds[i+1] of the frame matrix.
    n_rows = frames.shape[0]
    n_frames, offsets = meta[:, 2], meta[:, 3]
    bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.clip(n_frames, 0, n_rows), out=bounds[1:])  # clipped: the sum cannot overflow
    bad = (n_frames < 0) | (n_frames > n_rows) | (offsets != bounds[:-1])
    if bad.any():
        sid, _, count, offset = seg_meta[int(np.argmax(bad))]
        raise CorruptArtifact(f"segment {sid} ({count} frames at row {offset}) does not tile "
                              f"the {n_rows} rows of {feat_path} in id order")
    if bounds[-1] != n_rows:
        raise CorruptArtifact(
            f"the segments of {idx_path} cover {bounds[-1]} of the {n_rows} rows of {feat_path}")

    n_speakers = max((r.target for r in recordings), default=-1) + 1
    corpus = Corpus(n_speakers, recordings, Segments(frames, bounds, meta[:, 1].copy()))
    try:
        issues = validate_corpus(corpus)
    except OverflowError:  # a target or cluster member past int64
        raise CorruptArtifact(f"index field out of range in {idx_path}") from None
    if issues:
        raise CorruptArtifact(f"{directory}: {issues[0].kind}: {issues[0].message}")
    return corpus


def _index_line_problem(parts: list[str], current: Recording | None) -> str:
    """Why load_manifest rejected an index line."""
    if parts[0] not in ("R", "C", "S"):
        return f"unknown record type {parts[0]!r}"
    if parts[0] == "C" and current is None:
        return "C line before any R line"
    if parts[0] == "R" and len(parts) == 5:
        return f"unknown split {parts[4]!r}"
    return "wrong field count"


def save_oracle(corpus: Corpus, directory: str | Path) -> None:
    directory = Path(directory)
    lines = [f"{sid}\t{oracle}" for sid, oracle in enumerate(corpus.segments.oracle.tolist())]
    atomic_write(directory / ORACLE_NAME, "\n".join(lines) + "\n")


def save_trials(trials: list[Trial], path: str | Path) -> None:
    lines = [f"{t.enroll_id}\t{t.test_id}\t{1 if t.is_target else 0}" for t in trials]
    atomic_write(path, "\n".join(lines) + "\n")


def load_trials(path: str | Path) -> list[Trial]:
    """Read trials.tsv; CorruptArtifact for a line that is not two integers and a 0/1 label."""
    trials = []
    for lineno, line in enumerate(Path(path).read_text("utf-8", errors="replace").splitlines(), 1):
        if not line.strip():
            continue
        try:
            enroll, test, label = line.split("\t")
            trials.append(Trial(int(enroll), int(test), {"0": False, "1": True}[label]))
        except (ValueError, KeyError):
            raise CorruptArtifact(f"{path} line {lineno} is not <enroll id> <test id> <0|1>") from None
    return trials
