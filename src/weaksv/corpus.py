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
  corpus.idx   line-oriented text: R/C/S records (see save_manifest)
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
    build a new one), so its cluster table is built on first use and kept.
    A corpus made from a cluster table (from_table, as load_manifest does)
    slices its Recording lists from that table on first use instead.
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

    def train_recordings(self) -> list[Recording]:
        return [r for r in self.recordings if not r.heldout]

    def heldout_recordings(self) -> list[Recording]:
        return [r for r in self.recordings if r.heldout]

    def recording(self, recording_id: int) -> Recording:
        return self.recordings[int(np.flatnonzero(self.cluster_table().ids == recording_id)[0])]

    def mean_frames(self) -> np.ndarray:
        """Per-segment frame means as a float64 matrix; row i is segment i.

        The segment table's means, pooled when the frames were rendered or
        read: every call returns the same read-only matrix.
        """
        return self.segments.means

    def cluster_table(self) -> ClusterTable:
        """The clusters as one ClusterTable, built on first use and kept (or given to from_table).

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
    """Write corpus.idx, one record per line:
      R <recording_id> <target> <n_clusters> <train|heldout>
      C <cluster_id> <segment_id> ...
    each recording (in id order) followed by its clusters, then
      S <segment_id> <oracle> <n_frames> <offset>
    for every segment in id order, where <offset> is its first frame row
    inside corpus.feat. Fields are separated by one space. The lines are
    written as they are made, so no copy of the whole text is held.

    corpus.feat is written only as the frames are rendered (see
    synth.generate_corpus): its features are float32 little-endian,
    row-major, in segment-id order, after the 16-byte feat_header.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    atomic_write(directory / IDX_NAME, (line.encode() for line in _index_lines(corpus)))


def _index_lines(corpus: Corpus):
    for rec in sorted(corpus.recordings, key=lambda r: r.recording_id):
        yield f"R {rec.recording_id} {rec.target} {len(rec.clusters)} {'heldout' if rec.heldout else 'train'}\n"
        for cid, cluster in enumerate(rec.clusters):
            yield f"C {cid} {' '.join(map(str, cluster))}\n"
    segments = corpus.segments
    starts, ends = segments.bounds[:-1].tolist(), segments.bounds[1:].tolist()
    for sid, (oracle, start, end) in enumerate(zip(segments.oracle.tolist(), starts, ends)):
        yield f"S {sid} {oracle} {end - start} {start}\n"


def feat_header(feat_dim: int) -> bytes:
    """corpus.feat's 16 header bytes: magic WMLF, version u32, feat_dim u32, reserved u32."""
    return FEAT_MAGIC + struct.pack("<III", FEAT_VERSION, feat_dim, 0)


def load_manifest(directory: str | Path) -> Corpus:
    """Read a corpus back from corpus.idx and corpus.feat.

    The checks run in this order, each raising CorruptArtifact:
    - the corpus.feat header: magic, version, a feat_dim of at least 1 and
      a body of whole rows (read from the header and the file size);
    - every corpus.idx line, in one array pass over the file (see
      _parse_index), naming the first bad line;
    - the tiling: S ids 0..n-1 in order, and segments that cover the
      frame matrix in id order;
    - a body that reads in full;
    - the first issue validate_corpus finds in the corpus read.
    The index is parsed before the feature body is read, so the parse's
    scratch arrays are freed before the frames arrive. The body is then
    read POOL_BLOCK whole segments at a time into one reused buffer, and
    each block is pooled into the segments' means (see pool_frames); no
    frame matrix is held. The corpus's cluster table is the one the parse
    built, and its Recording lists are sliced from that table.
    """
    directory = Path(directory)
    feat_path, idx_path = directory / FEAT_NAME, directory / IDX_NAME
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

        table, meta = _parse_index(idx_path.read_bytes(), idx_path)
        n = meta.shape[0]
        misplaced = meta[:, 0] != np.arange(n)
        if misplaced.any():
            i = int(np.argmax(misplaced))
            raise CorruptArtifact(f"S record {i} of {idx_path} has id {meta[i, 0]}, not {i}")
        # Segment i must cover rows bounds[i]:bounds[i+1] of the frame matrix.
        n_frames, offsets = meta[:, 2], meta[:, 3]
        bounds = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.clip(n_frames, 0, n_rows), out=bounds[1:])  # clipped: the sum cannot overflow
        bad = (n_frames < 0) | (n_frames > n_rows) | (offsets != bounds[:-1])
        if bad.any():
            sid, _, count, offset = meta[int(np.argmax(bad))].tolist()
            raise CorruptArtifact(f"segment {sid} ({count} frames at row {offset}) does not tile "
                                  f"the {n_rows} rows of {feat_path} in id order")
        if bounds[-1] != n_rows:
            raise CorruptArtifact(
                f"the segments of {idx_path} cover {bounds[-1]} of the {n_rows} rows of {feat_path}")

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
    corpus = Corpus.from_table(n_speakers, table, Segments(means, bounds, meta[:, 1].copy()))
    issues = validate_corpus(corpus)
    if issues:
        raise CorruptArtifact(f"{directory}: {issues[0].kind}: {issues[0].message}")
    return corpus


# Field bytes of corpus.idx: a field is a run of bytes other than space,
# tab and newline; a record is the fields of one newline-ended line.
_SPACE, _TAB, _NEWLINE, _MINUS, _ZERO = 32, 9, 10, 45, 48
_SPLITS = (b"train", b"heldout")
# Integer fields of at most this many digits are read by the array pass;
# longer ones, which may not fit in int64, one at a time by int().
_ARRAY_DIGITS = 18

# Why a record was rejected, in the order a record's checks run; 0 is a good record.
(_OK, _UNKNOWN_TYPE, _C_FIRST, _FIELD_COUNT, _SPLIT, _NON_INTEGER, _CLUSTER_OUTSIDE,
 _CLUSTER_ORDER, _RANGE) = range(9)
_PROBLEMS = ("", "unknown record type {type!r}", "C line before any R line", "wrong field count",
             "unknown split {split!r}", "non-integer field", "cluster {cid} outside the declared count",
             "cluster {cid} out of order ({due} due)", "index field out of range")


def _parse_index(data: bytes, idx_path: Path) -> tuple[ClusterTable, np.ndarray]:
    """corpus.idx as a ClusterTable and an (n_S, 4) int64 array of the S fields, in file order.

    Works in array passes over the bytes, with per-byte scratch only in
    bool and uint8: fields are the runs between spaces, tabs and
    newlines, a record is the fields of one line, and a line without
    fields is skipped. Every record is checked at once, and the first
    bad one in the file raises CorruptArtifact with its line number: an
    unknown record type; a C record before any R record; a field count
    other than 5 (R, S) or under 2 (C); an R split other than train or
    heldout; a field that is not -?[0-9]+; a C id outside its R record's
    declared count, or other than the next of 0, 1, ...; a field outside
    int64. A C record's owner is the last R record before it; S records
    may stand anywhere. A declared cluster count below zero reads as
    zero, and clusters declared past a recording's C records are empty
    (validate_corpus rejects them).
    """
    text = np.frombuffer(data, dtype=np.uint8)
    gap = (text == _SPACE) | (text == _TAB) | (text == _NEWLINE)
    edges = np.ones(text.size + 2, dtype=bool)  # gaps, with one before and one after the text
    edges[1:-1] = gap
    starts = np.flatnonzero(edges[:-2] & ~gap)  # a field starts after a gap and ends at one
    ends = np.flatnonzero(~gap & edges[2:]) + 1
    length = np.subtract(ends, starts, dtype=np.int32)
    del edges
    n = starts.size
    # A record starts at the first field after a newline (or the file's start); after blank
    # lines several newlines point at one field, and the last of them gives its line.
    after = np.concatenate([[0], np.searchsorted(starts, np.flatnonzero(text == _NEWLINE))])
    last = np.flatnonzero(np.diff(after, append=n + 1))
    last = last[after[last] < n]
    first, lineno = after[last], last + 1
    n_fields = np.diff(first, append=n)
    del after, last

    # an integer field's only non-digit byte is a leading minus, and digits follow it
    digit = text - np.uint8(_ZERO)  # a digit's value; any other byte reads above 9
    stray = (digit > 9) & ~gap
    minus = text[starts] == _MINUS
    stray[starts[minus]] = False
    stray[starts[first]] = False  # the record types, checked on their own: saves most of the search
    integer = length > minus
    integer[np.searchsorted(starts, np.flatnonzero(stray), side="right") - 1] = False
    del gap, stray
    values, wide = _integer_values(data, digit, ends, length - minus, minus, integer)
    del digit

    def field(k: int) -> np.ndarray:  # each record's field k, clipped to the last field
        return np.minimum(first + k, n - 1)

    kind = np.where(length[first] == 1, text[starts[first]], 0)
    is_r, is_c, is_s = kind == ord("R"), kind == ord("C"), kind == ord("S")
    owner = np.cumsum(is_r) - 1  # ordinal of the last R record at or before each record
    r, c = np.flatnonzero(is_r), np.flatnonzero(is_c)
    split = np.zeros(first.size, dtype=np.int8)  # R records: 1 train, 2 heldout, 0 neither
    split[r] = _split_words(text, starts[field(4)[r]], length[field(4)[r]])
    declared = np.maximum(values[field(3)[r]], 0)

    # a C id must be inside its owner's declared count and next after the owner's C records before it
    cid, has_owner = values[field(1)], owner >= 0
    limit = np.zeros(first.size, dtype=np.int64)
    limit[has_owner] = declared[owner[has_owner]]
    rank = np.arange(c.size)
    due = np.zeros(first.size, dtype=np.int64)
    due[c] = rank - np.maximum.accumulate(np.where(np.diff(owner[c], prepend=-2) != 0, rank, 0))

    # every field after the type must be an integer, but for R's split
    not_integer = ~integer
    not_integer[first] = False
    not_integer[field(4)[r]] &= n_fields[r] != 5
    problem = np.select([
        ~(is_r | is_c | is_s),
        is_c & ~has_owner,
        (is_c & (n_fields < 2)) | ((is_r | is_s) & (n_fields != 5)),
        is_r & (split == 0),
        is_c & not_integer[field(1)],
        is_c & wide[field(1)],
        is_c & ((cid < 0) | (cid >= limit)),
        is_c & (cid != due),
        _flagged_records(not_integer, first),
        _flagged_records(wide, first),
    ], [_UNKNOWN_TYPE, _C_FIRST, _FIELD_COUNT, _SPLIT, _NON_INTEGER, _RANGE, _CLUSTER_OUTSIDE,
        _CLUSTER_ORDER, _NON_INTEGER, _RANGE], _OK)
    if problem.any():
        rec = int(np.argmax(problem != _OK))

        def word(k: int) -> str:
            i = min(first[rec] + k, n - 1)
            return data[starts[i]:ends[i]].decode("utf-8", errors="replace")

        why = _PROBLEMS[problem[rec]].format(type=word(0), split=word(4), cid=cid[rec], due=due[rec])
        raise CorruptArtifact(f"{why} in {idx_path} line {lineno[rec]}")

    # a recording's clusters past its C records are empty, and one empty cluster stands for them all
    n_clusters = np.minimum(declared, np.bincount(owner[c], minlength=r.size) + 1)
    sizes = np.zeros(int(n_clusters.sum()), dtype=np.int64)
    sizes[(np.cumsum(n_clusters) - n_clusters)[owner[c]] + cid[c]] = n_fields[c] - 2
    in_c = np.zeros(n + 1, dtype=np.int8)  # +1 at a C record's first member, -1 past its last
    in_c[first[c] + 2] += 1
    in_c[first[c] + n_fields[c]] -= 1  # apart: a memberless record's two marks fall on one field
    members = values[np.cumsum(in_c[:-1], dtype=np.int8) > 0]
    table = ClusterTable(values[first[r] + 1], values[first[r] + 2], split[r] == 2, n_clusters, sizes, members)
    s = np.flatnonzero(is_s)
    return table, values[first[s, None] + np.arange(1, 5)]


def _flagged_records(flags: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Per record: whether any of its fields is flagged (record i's fields start at first[i])."""
    out = np.zeros(first.size, dtype=bool)
    out[np.searchsorted(first, np.flatnonzero(flags), side="right") - 1] = True
    return out


def _integer_values(data: bytes, digit: np.ndarray, ends: np.ndarray, width: np.ndarray, minus: np.ndarray,
                    integer: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The int64 value of each integer field, and whether it lies outside int64.

    A field's digits are data[ends - width:ends], after a minus where
    minus is set; the values of fields not flagged integer are left
    unspecified. digit holds each byte's digit value. Up to _ARRAY_DIGITS
    digits are read a right-aligned digit column at a time over all
    fields, in int32 while no value can pass it; longer fields by int().
    """
    columns = min(int(width.max(where=integer, initial=0)), _ARRAY_DIGITS)
    values = np.zeros(ends.size, dtype=np.int32 if columns <= 9 else np.int64)
    at = np.empty_like(ends)
    for k in range(columns, 0, -1):  # the digit k places from the end
        np.subtract(ends, k, out=at)
        values *= 10
        values += digit.take(at, mode="clip") * (width >= k)
    del at
    values = values.astype(np.int64)
    np.negative(values, out=values, where=minus)
    wide = np.zeros(ends.size, dtype=bool)
    for i in np.flatnonzero(integer & (width > _ARRAY_DIGITS)).tolist():
        value = int(data[ends[i] - width[i]:ends[i]]) * (-1 if minus[i] else 1)
        if -2**63 <= value < 2**63:
            values[i] = value
        else:
            wide[i] = True
    return values, wide


def _split_words(text: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per field text[starts:starts + lengths]: 1 if it reads train, 2 if heldout, else 0."""
    out = np.zeros(starts.size, dtype=np.int8)
    for code, word in enumerate(_SPLITS, 1):
        letters = np.frombuffer(word, dtype=np.uint8)
        at = np.minimum(starts[:, None] + np.arange(letters.size), max(text.size - 1, 0))
        out[(lengths == letters.size) & (text[at] == letters).all(axis=1)] = code
    return out


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
