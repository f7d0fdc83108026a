"""Weakly-labeled corpus data model, on-disk manifest, validation and splits.

A corpus is a set of recordings, each carrying a single recording-level
target speaker and a partition of its segments into diarized clusters.
Per-segment oracle speaker identities are retained alongside for
evaluation only; training code never consults them.

Segments live in one table (`Segments`), indexed by segment id 0..n-1:
an (n, feat_dim) float64 matrix of pooled frame means, an (n,) frame
count array and an (n,) oracle array; segment i's frames are the next
n_frames[i] rows of corpus.feat. The frames themselves are never held in
memory: gen pools them a block at a time as they are rendered, and every
stage reads only the means, which corpus.idx stores.

Verification trials are one (n, 3) int64 array of (enroll_id, test_id,
is_target) rows, is_target 0 or 1: split_trials draws it, trials.tsv
stores it row for row, and scoring reads it.

On-disk layout (one directory):
  corpus.idx   48-byte header + little-endian int64 cluster table, oracle
               labels and frame counts, then the float64 means (see
               save_manifest); a load reads this file alone
  corpus.feat  16-byte header + float32 little-endian frame matrix: gen's
               output, which no later stage reads
  oracle.tsv   segment_id <tab> oracle_label (evaluation sidecar)
  trials.tsv   enroll_id <tab> test_id <tab> 0|1, one line per trial row
"""

from __future__ import annotations

import struct
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
IDX_VERSION = 2
IDX_HEADER = struct.Struct("<4sI5Q")  # corpus.idx: magic, version, counts R, C, M, S, feature dimension D

IDX_NAME = "corpus.idx"
FEAT_NAME = "corpus.feat"
ORACLE_NAME = "oracle.tsv"
TRIALS_NAME = "trials.tsv"


@dataclass(eq=False)
class Segments:
    """The segment table: segment i has frame mean means[i], n_frames[i] frames and oracle label oracle[i]."""

    means: np.ndarray  # (n, feat_dim) float64, read-only
    n_frames: np.ndarray  # (n,) int64
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


@dataclass(frozen=True, eq=False)
class Corpus:
    """n_speakers, the cluster table and the segment table.

    A corpus is not edited after construction (diarization and splitting
    build a new one); its Recording lists are sliced from the table.
    """

    n_speakers: int
    table: ClusterTable
    segments: Segments

    @property
    def recordings(self) -> list[Recording]:
        return self.table.recordings()

    @property
    def feat_dim(self) -> int:
        return self.segments.means.shape[1]

    def recording(self, recording_id: int) -> Recording:
        return self.recordings[int(np.flatnonzero(self.table.ids == recording_id)[0])]

    def mean_frames(self) -> np.ndarray:
        """Per-segment frame means as a float64 matrix; row i is segment i.

        The segment table's means, pooled when the frames were rendered:
        every call returns the same read-only matrix.
        """
        return self.segments.means


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


@dataclass
class ValidationIssue:
    kind: str
    message: str


def validate_corpus(corpus: Corpus) -> list[ValidationIssue]:
    """Every broken structural invariant, kind by kind; an empty list means all hold.

    The contract behind the weak label: segments have frames, all finite,
    and an oracle label that is NOISE, UNKNOWN or a speaker id; recording
    ids are distinct (each keys its recording's random streams); every
    recording has clusters, none empty, that hold each segment at most
    once and some speech of the recording's target; the targets are
    exactly the speaker ids 0..n_speakers-1. The cluster checks run on the
    corpus's cluster table, in less than half the time of a loop over them.
    """
    segments, n_speakers = corpus.segments, corpus.n_speakers
    issues = [("EmptySegment", f"segment {sid} has no frames")
              for sid in np.flatnonzero(segments.n_frames < 1).tolist()]
    # a float64 sum of finite float32 frames cannot overflow, so gen's mean is finite exactly when its frames are
    issues += [("NonFiniteFeatures", f"segment {sid} contains NaN or inf")
               for sid in np.flatnonzero(~np.isfinite(segments.means).all(axis=1)).tolist()]
    issues += [("BadOracle", f"segment {sid} oracle label {segments.oracle[sid]} outside {NOISE}..{n_speakers - 1}")
               for sid in np.flatnonzero((segments.oracle < NOISE) | (segments.oracle >= n_speakers)).tolist()]

    table = corpus.table
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
    table = corpus.table
    heldout = np.zeros(table.ids.size, dtype=bool)
    by_speaker = np.lexsort((table.ids, table.targets))  # each speaker's recordings by id
    for recs in np.split(by_speaker, np.flatnonzero(np.diff(table.targets[by_speaker])) + 1):
        if heldout_fraction <= 0 or len(recs) < 2:
            continue
        k = min(max(1, round(heldout_fraction * len(recs))), len(recs) - 1)
        order = list(range(len(recs)))
        Rng.from_seed(seed, "heldout", int(table.targets[recs[0]])).shuffle(order)
        heldout[recs[order[:k]]] = True
    return Corpus(corpus.n_speakers, replace(table, heldout=heldout), corpus.segments)


def split_trials(corpus: Corpus, n_target: int, n_nontarget: int, seed: int) -> np.ndarray:
    """Build verification trials from held-out recordings: an (n, 3) int64 array of
    (enroll_id, test_id, is_target) rows, the n_target target trials first.

    Enroll and test sides always come from different recordings, and only
    segments whose oracle label is a known speaker are used. Raises
    InsufficientSegments when the requested counts cannot be met.
    """
    rng = Rng.from_seed(seed, "trials")
    # speaker -> recording -> held-out segments with that oracle label, in cluster-table order
    table, oracle = corpus.table, corpus.segments.oracle
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

    trials: list[tuple[int, int, int]] = []
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
        trials.append((enroll, test, 1))
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
        trials.append((enroll, test, 0))
        n_made += 1
    return np.array(trials, dtype=np.int64).reshape(-1, 3)


# ---------------------------------------------------------------------------
# Manifest I/O
# ---------------------------------------------------------------------------


def save_manifest(corpus: Corpus, directory: str | Path) -> None:
    """Write corpus.idx from the cluster table and the segment table, in one atomic write.

    The file is IDX_HEADER (48 bytes: magic WIDX, u32 version 2, then the
    u64 counts R recordings, C clusters, M members, S segments and the
    feature dimension D), then little-endian int64 arrays back to back, in
    table order: ids[R], targets[R], heldout[R] (0 or 1), n_clusters[R],
    sizes[C], members[M], oracle[S], n_frames[S]; then means[S·D] as
    little-endian float64, row by row. Its size is 48 + 8·(4R + C + M + 2S + S·D).

    corpus.feat is written only as the frames are rendered (see
    synth.generate_corpus): its features are float32 little-endian,
    row-major, in segment-id order, after the 16-byte feat_header.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    table, segments = corpus.table, corpus.segments
    arrays = (table.ids, table.targets, table.heldout, table.n_clusters, table.sizes, table.members,
              segments.oracle, segments.n_frames)
    header = IDX_HEADER.pack(IDX_MAGIC, IDX_VERSION, len(table.ids), len(table.sizes), len(table.members),
                             len(segments), corpus.feat_dim)
    atomic_write(directory / IDX_NAME, [header, *(np.ascontiguousarray(a, dtype="<i8") for a in arrays),
                                        np.ascontiguousarray(segments.means, dtype="<f8")])


def feat_header(feat_dim: int) -> bytes:
    """corpus.feat's 16 header bytes: magic WMLF, version u32, feat_dim u32, reserved u32."""
    return FEAT_MAGIC + struct.pack("<III", FEAT_VERSION, feat_dim, 0)


def load_manifest(directory: str | Path) -> Corpus:
    """Read a corpus back from corpus.idx alone; corpus.feat is not opened.

    The index's format is checked first (see _read_index), then the first
    issue validate_corpus finds in the corpus read raises CorruptArtifact.
    The corpus's tables are read-only views of the file's bytes.
    """
    directory = Path(directory)
    table, segments = _read_index(directory / IDX_NAME)
    corpus = Corpus(int(table.targets.max(initial=-1)) + 1, table, segments)
    issues = validate_corpus(corpus)
    if issues:
        raise CorruptArtifact(f"{directory}: {issues[0].kind}: {issues[0].message}")
    return corpus


def _read_index(idx_path: Path) -> tuple[ClusterTable, Segments]:
    """corpus.idx as its cluster table and segment table, read-only views of the file's bytes.

    Raises CorruptArtifact for a bad magic or version, a size other than
    the counts give, a feature dimension of 0, a held-out flag other than
    0 or 1, cluster counts or sizes outside 0..C or 0..M or not adding up
    to C or M (each range comes first, so no sum can wrap), and frame
    counts that are negative or so large that their sum could wrap.
    """
    data = idx_path.read_bytes()
    if data[:4] != IDX_MAGIC:
        raise CorruptArtifact(f"bad index magic in {idx_path}")
    if len(data) < IDX_HEADER.size:
        raise CorruptArtifact(f"{idx_path} is shorter than its {IDX_HEADER.size}-byte header")
    _, version, r, c, m, s, d = IDX_HEADER.unpack_from(data)
    if version != IDX_VERSION:
        raise CorruptArtifact(f"unsupported index version {version} in {idx_path}")
    lengths = [r, r, r, r, c, m, s, s]
    size = IDX_HEADER.size + 8 * (sum(lengths) + s * d)
    if len(data) != size:
        raise CorruptArtifact(f"{idx_path} holds {len(data)} bytes, not the {size} its counts R {r}, C {c}, "
                              f"M {m}, S {s}, D {d} give")
    if d < 1:
        raise CorruptArtifact(f"{idx_path} gives a feature dimension of 0")
    body = np.frombuffer(data, dtype="<i8", offset=IDX_HEADER.size, count=sum(lengths))
    ids, targets, heldout, n_clusters, sizes, members, oracle, n_frames = np.split(body, np.cumsum(lengths[:-1]))
    means = np.frombuffer(data, dtype="<f8", offset=IDX_HEADER.size + body.nbytes).reshape(s, d)
    stray = (heldout != 0) & (heldout != 1)
    if stray.any():
        raise CorruptArtifact(f"recording {ids[stray][0]} of {idx_path} has a held-out flag other than 0 or 1")
    for name, values, total in (("cluster counts", n_clusters, c), ("cluster sizes", sizes, m)):
        if ((values < 0) | (values > total)).any() or values.sum() != total:
            raise CorruptArtifact(f"the {name} of {idx_path} do not each lie in 0..{total} and add up to {total}")
    limit = (2**63 - 1) // max(s, 1)  # S counts of at most this add up without wrapping int64
    if ((n_frames < 0) | (n_frames > limit)).any():
        raise CorruptArtifact(f"the frame counts of {idx_path} do not each lie in 0..{limit}")
    return ClusterTable(ids, targets, heldout == 1, n_clusters, sizes, members), Segments(means, n_frames, oracle)


def save_oracle(corpus: Corpus, directory: str | Path) -> None:
    directory = Path(directory)
    lines = [f"{sid}\t{oracle}" for sid, oracle in enumerate(corpus.segments.oracle.tolist())]
    atomic_write(directory / ORACLE_NAME, "\n".join(lines) + "\n")


def save_trials(trials: np.ndarray, path: str | Path) -> None:
    """Write trials.tsv: one `enroll_id <tab> test_id <tab> 0|1` line per row of the (n, 3) trial array."""
    lines = [f"{enroll}\t{test}\t{label}" for enroll, test, label in trials.tolist()]
    atomic_write(path, "\n".join(lines) + "\n")


def load_trials(path: str | Path, oracle: np.ndarray) -> np.ndarray:
    """Read trials.tsv as an (n, 3) int64 array of (enroll_id, test_id, is_target) rows.

    oracle is the corpus's per-segment oracle labels. Blank lines are
    skipped. CorruptArtifact for any other line that is not two segment
    ids in 0..len(oracle)-1 and the label text 0 or 1, tab separated (an
    id indexes rows: a negative one would read another's), and for a row
    that split_trials could not have drawn: one with a segment of no known
    speaker, or flagged as a target trial other than exactly when its two
    segments' speakers match.
    """
    n_segments = len(oracle)
    rows = []
    for lineno, line in enumerate(Path(path).read_text("utf-8", errors="replace").splitlines(), 1):
        if not line.strip():
            continue
        try:
            enroll, test, label = line.split("\t")
            row = (int(enroll), int(test), {"0": 0, "1": 1}[label])
        except (ValueError, KeyError):
            row = None
        if row is None or not (0 <= row[0] < n_segments and 0 <= row[1] < n_segments):
            raise CorruptArtifact(f"{path} line {lineno} is not <enroll id> <test id> <0|1> "
                                  f"with ids in 0..{n_segments - 1}")
        rows.append(row)
    trials = np.array(rows, dtype=np.int64).reshape(-1, 3)
    enroll, test = oracle[trials[:, 0]], oracle[trials[:, 1]]
    bad = np.flatnonzero((enroll < 0) | (test < 0) | ((enroll == test) != (trials[:, 2] == 1)))
    if bad.size:
        a, b, flag = trials[bad[0]].tolist()
        raise CorruptArtifact(f"{path} holds the trial {a} {b} {flag} of oracle speakers {oracle[a]} and {oracle[b]}: "
                              f"a trial pairs known speakers' segments and is a target trial exactly when they match")
    return trials
