"""Weakly-labeled corpus data model, on-disk manifest, validation and splits.

A corpus is a set of recordings, each carrying a single recording-level
target speaker and a partition of its segments into diarized clusters.
Per-segment oracle speaker identities are retained alongside for
evaluation only; training code never consults them.

On-disk layout (one directory):
  corpus.idx   line-oriented text: R/C/S records (see save_manifest)
  corpus.feat  16-byte header + float32 little-endian frame matrices
  oracle.tsv   segment_id <tab> oracle_label (evaluation sidecar)
  trials.tsv   enroll_id <tab> test_id <tab> {0,1}
"""

from __future__ import annotations

import struct
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import MappingProxyType

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
class Segment:
    segment_id: int
    recording_id: int
    cluster_id: int
    features: np.ndarray  # (n_frames, feat_dim) float32
    oracle_speaker: int

    @property
    def n_frames(self) -> int:
        return self.features.shape[0]


@dataclass
class Recording:
    recording_id: int
    target: int
    clusters: list[list[int]]
    heldout: bool = False

    def segment_ids(self) -> list[int]:
        return [sid for cluster in self.clusters for sid in cluster]


@dataclass
class Corpus:
    n_speakers: int
    recordings: list[Recording]
    segments: dict[int, Segment]
    unknown_pool_present: bool = False
    # Built on first use: a corpus is not edited after construction
    # (diarization and splitting build a new one).
    _recording_index: dict[int, Recording] | None = field(
        default=None, init=False, repr=False, compare=False)
    _pooled: tuple[np.ndarray, Mapping[int, int]] | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def feat_dim(self) -> int:
        first = next(iter(self.segments.values()))
        return first.features.shape[1]

    def train_recordings(self) -> list[Recording]:
        return [r for r in self.recordings if not r.heldout]

    def heldout_recordings(self) -> list[Recording]:
        return [r for r in self.recordings if r.heldout]

    def recording(self, recording_id: int) -> Recording:
        if self._recording_index is None:
            self._recording_index = {r.recording_id: r for r in self.recordings}
        return self._recording_index[recording_id]

    def mean_frames(self) -> tuple[np.ndarray, Mapping[int, int]]:
        """Per-segment frame means as a float64 matrix plus id -> row map.

        Features are fixed for the lifetime of a corpus, so pooled means
        are computed once and reused by training and scoring. Every call
        returns the same read-only matrix and map; rows follow ascending
        segment id. Raises EmptyInput for a segment without frames.
        """
        if self._pooled is None:
            self._pooled = _pool_means(self.segments, self.feat_dim)
        return self._pooled


# Segments pooled per reduceat call: bounds the float64 copy of their frames.
POOL_BLOCK = 256


def _pool_means(segments: dict[int, Segment], feat_dim: int) -> tuple[np.ndarray, Mapping[int, int]]:
    """Frame means in ascending segment-id order, one reduceat per block.

    reduceat adds a block's rows in frame order and the division is by the
    frame count, the same arithmetic as features.astype(float64).mean(0),
    so the means are bitwise equal to it.
    """
    ids = sorted(segments)
    mat = np.empty((len(ids), feat_dim), dtype=np.float64)
    for start in range(0, len(ids), POOL_BLOCK):
        block = [segments[sid].features for sid in ids[start:start + POOL_BLOCK]]
        lengths = np.array([f.shape[0] for f in block])
        if lengths.min() < 1:
            raise EmptyInput(f"segment {ids[start + int(np.argmin(lengths))]} has no frames")
        starts = np.cumsum(lengths) - lengths
        out = mat[start:start + len(block)]
        np.add.reduceat(np.concatenate(block, dtype=np.float64), starts, axis=0, out=out)
        out /= lengths[:, None]
    mat.flags.writeable = False
    return mat, MappingProxyType({sid: row for row, sid in enumerate(ids)})


@dataclass(frozen=True)
class Trial:
    enroll_id: int
    test_id: int
    is_target: bool


@dataclass
class ValidationIssue:
    kind: str
    message: str


@dataclass
class ValidationReport:
    issues: list[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, kind: str, message: str) -> None:
        self.issues.append(ValidationIssue(kind, message))


def validate_corpus(corpus: Corpus) -> ValidationReport:
    """Check every structural invariant; an empty report means all hold."""
    report = ValidationReport()
    feat_dim = None
    for sid, seg in corpus.segments.items():
        if seg.segment_id != sid:
            report.add("InconsistentStore", f"store key {sid} holds segment {seg.segment_id}")
        if seg.n_frames < 1:
            report.add("EmptySegment", f"segment {sid} has no frames")
        if feat_dim is None:
            feat_dim = seg.features.shape[1]
        elif seg.features.shape[1] != feat_dim:
            report.add("FeatDimMismatch", f"segment {sid} has dim {seg.features.shape[1]} != {feat_dim}")
    for sid in _non_finite_segments(corpus.segments):
        report.add("NonFiniteFeatures", f"segment {sid} contains NaN or inf")

    targeted: set[int] = set()
    seen_segments: set[int] = set()
    for rec in corpus.recordings:
        if not (0 <= rec.target < corpus.n_speakers):
            report.add("BadTarget", f"recording {rec.recording_id} target {rec.target} outside 0..{corpus.n_speakers - 1}")
        else:
            targeted.add(rec.target)
        if not rec.clusters:
            report.add("EmptyRecording", f"recording {rec.recording_id} has no clusters")
        has_target_speech = False
        for cid, cluster in enumerate(rec.clusters):
            if not cluster:
                report.add("EmptyCluster", f"recording {rec.recording_id} cluster {cid} is empty")
            for sid in cluster:
                seg = corpus.segments.get(sid)
                if seg is None:
                    report.add("UnresolvedReference", f"recording {rec.recording_id} references missing segment {sid}")
                    continue
                if sid in seen_segments:
                    report.add("DuplicateSegment", f"segment {sid} appears in more than one cluster")
                seen_segments.add(sid)
                if seg.oracle_speaker == rec.target:
                    has_target_speech = True
        if not has_target_speech:
            report.add("MissingTargetSpeech", f"recording {rec.recording_id} has no segment of its target {rec.target}")

    for spk in range(corpus.n_speakers):
        if spk not in targeted:
            report.add("UntargetedSpeaker", f"speaker {spk} is the target of no recording")
    return report


def _non_finite_segments(segments: dict[int, Segment]) -> list[int]:
    """Ids of segments holding a NaN or inf, in store order.

    Segments whose features are views of one frame matrix (a generated
    corpus) share a single check of that matrix; segments are looked at
    one by one only inside a matrix that fails it.
    """
    stores: dict[int, tuple[np.ndarray, list[int]]] = {}
    for sid, seg in segments.items():
        base = seg.features.base
        same = isinstance(base, np.ndarray) and base.dtype == seg.features.dtype
        store = base if same else seg.features
        stores.setdefault(id(store), (store, []))[1].append(sid)
    bad = {sid for store, sids in stores.values() if not np.isfinite(store).all()
           for sid in sids if not np.isfinite(segments[sid].features).all()}
    return [sid for sid in segments if sid in bad]


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
    return Corpus(corpus.n_speakers, recordings, corpus.segments, corpus.unknown_pool_present)


def split_trials(corpus: Corpus, n_target: int, n_nontarget: int, seed: int) -> list[Trial]:
    """Build verification trials from held-out recordings.

    Enroll and test sides always come from different recordings, and only
    segments whose oracle label is a known speaker are used. Raises
    InsufficientSegments when the requested counts cannot be met.
    """
    rng = Rng.from_seed(seed, "trials")
    # speaker -> recording -> held-out segments with that oracle label
    pools: dict[int, dict[int, list[int]]] = {}
    for rec in corpus.heldout_recordings():
        for sid in rec.segment_ids():
            spk = corpus.segments[sid].oracle_speaker
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

    parts = [FEAT_MAGIC + struct.pack("<III", FEAT_VERSION, corpus.feat_dim, 0)]
    offset = 0
    for sid in sorted(corpus.segments):
        seg = corpus.segments[sid]
        lines.append(f"S {sid} {seg.oracle_speaker} {seg.n_frames} {offset}")
        parts.append(np.ascontiguousarray(seg.features, dtype="<f4"))
        offset += seg.n_frames

    atomic_write(directory / IDX_NAME, "\n".join(lines) + "\n")
    # the frame arrays go to the file as they are: no joined copy of the frame bytes
    atomic_write(directory / FEAT_NAME, parts)


def load_manifest(directory: str | Path) -> Corpus:
    """Read a corpus back; exact inverse of save_manifest.

    Segments not referenced by any cluster (e.g. noise dropped by a
    diarization rewrite) come back with recording_id = cluster_id = -1.
    Raises CorruptArtifact for a damaged header, a body that is not whole
    rows, a NaN or inf feature, a malformed index line, or a segment
    without frames or reaching past the frame matrix.
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
    flat = np.frombuffer(raw, dtype="<f4", offset=16).reshape(-1, feat_dim)
    if not np.isfinite(flat).all():
        row = int(np.argmin(np.isfinite(flat).all(axis=1)))
        raise CorruptArtifact(f"{feat_path}: frame row {row} holds NaN or inf")

    recordings: list[Recording] = []
    seg_meta: list[tuple[int, int, int, int]] = []
    current: Recording | None = None
    for lineno, line in enumerate(idx_path.read_text("utf-8").splitlines(), 1):
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
                current.clusters[cid] = [int(s) for s in parts[2:]]
            elif kind == "R" and n_fields == 5 and parts[4] in ("train", "heldout"):
                current = Recording(int(parts[1]), int(parts[2]), [], parts[4] == "heldout")
                current.clusters = [[] for _ in range(int(parts[3]))]
                recordings.append(current)
            else:
                raise CorruptArtifact(f"{_index_line_problem(parts, current)} in {idx_path} line {lineno}")
        except ValueError:
            raise CorruptArtifact(f"non-integer field in {idx_path} line {lineno}") from None

    # Every segment must cover at least one frame inside the frame matrix.
    try:
        meta = np.array(seg_meta, dtype=np.int64).reshape(-1, 4)
    except OverflowError:
        raise CorruptArtifact(f"S record field out of range in {idx_path}") from None
    n_rows = flat.shape[0]
    n_frames, offsets = meta[:, 2], meta[:, 3]
    bad = (n_frames < 1) | (n_frames > n_rows) | (offsets < 0) | (offsets > n_rows - n_frames)
    if bad.any():
        sid, _, n, offset = seg_meta[int(np.argmax(bad))]
        raise CorruptArtifact(
            f"segment {sid} ({n} frames at row {offset}) does not fit the {n_rows} rows of {feat_path}")

    membership: dict[int, tuple[int, int]] = {}
    for rec in recordings:
        for cid, cluster in enumerate(rec.clusters):
            for sid in cluster:
                membership[sid] = (rec.recording_id, cid)

    segments: dict[int, Segment] = {}
    for sid, oracle, n_frames, offset in seg_meta:
        rec_id, cid = membership.get(sid, (-1, -1))
        feats = np.array(flat[offset:offset + n_frames], dtype=np.float32)
        segments[sid] = Segment(sid, rec_id, cid, feats, oracle)

    n_speakers = max((r.target for r in recordings), default=-1) + 1
    unknown_present = any(s.oracle_speaker == UNKNOWN for s in segments.values())
    return Corpus(n_speakers, recordings, segments, unknown_present)


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
    lines = [f"{sid}\t{corpus.segments[sid].oracle_speaker}" for sid in sorted(corpus.segments)]
    atomic_write(directory / ORACLE_NAME, "\n".join(lines) + "\n")


def save_trials(trials: list[Trial], path: str | Path) -> None:
    lines = [f"{t.enroll_id}\t{t.test_id}\t{1 if t.is_target else 0}" for t in trials]
    atomic_write(path, "\n".join(lines) + "\n")


def load_trials(path: str | Path) -> list[Trial]:
    trials = []
    for line in Path(path).read_text("utf-8").splitlines():
        if not line.strip():
            continue
        e, t, lab = line.split("\t")
        trials.append(Trial(int(e), int(t), lab == "1"))
    return trials
