"""Run configuration: a flat, diff-friendly text format with a schema.

Format: INI-like sections of `key = value` lines, `#` comments. Every
key is schema-checked (unknown sections or keys are rejected) and typed:
int, float, bool (true/false), str, range (`lo..hi`, inclusive), or
schedule (`start->end`, or a single number for a constant).

The same schema renders schema.txt, the authoritative key reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .diarize import DiarConfig, PRESETS
from .embedder import EmbedderConfig
from .errors import ConfigError
from .losses import LossConfig, Schedule
from .synth import SynthConfig
from .trainer import StageConfig


@dataclass(frozen=True)
class Key:
    kind: str  # int | float | bool | str | range | schedule
    default: object
    help: str


SCHEMA: dict[str, dict[str, Key]] = {
    "": {
        "seed": Key("int", 1234, "global seed; every stage derives its own stream from it"),
        "out": Key("str", "runs/default", "run directory for all artifacts"),
    },
    "synth": {
        "n_speakers": Key("int", 40, "known speakers (targets)"),
        "latent_dim": Key("int", 8, "dimension of the hidden speaker latents"),
        "feat_dim": Key("int", 20, "feature dimension after the frozen tanh lift"),
        "recordings_per_speaker": Key("int", 8, "recordings in which each speaker is the target"),
        "segments_per_recording": Key("range", (6, 10), "total segments per recording"),
        "frames_per_segment": Key("range", (10, 30), "frames per segment"),
        "distractors_per_recording": Key("range", (0, 2), "non-target speakers per recording"),
        "noise_segment_prob": Key("float", 0.1, "probability a segment is pure noise"),
        "within_speaker_noise": Key("float", 0.3, "per-frame latent noise stddev"),
        "unknown_speaker_count": Key("int", 10, "extra speakers outside the known set"),
        "target_weight": Key("float", 0.5, "probability a speech segment voices the target when distractors exist"),
    },
    "trials": {
        "heldout_fraction": Key("float", 0.2, "per-speaker fraction of recordings held out for trials"),
        "n_target": Key("int", 250, "same-speaker trials"),
        "n_nontarget": Key("int", 250, "different-speaker trials"),
    },
    "diar": {
        "preset": Key("str", "baseline", "baseline | pyannote-like | custom"),
        "purity": Key("float", 0.85, "cluster purity (custom preset)"),
        "split_factor": Key("float", 2.0, "expected clusters per present speaker (custom preset)"),
        "max_clusters": Key("int", 0, "cluster cap per recording, 0 = unlimited (custom preset)"),
        "drop_noise": Key("bool", False, "remove pure-noise segments from clusters (custom preset)"),
    },
    "model": {
        "hidden_dim": Key("int", 64, "hidden layer width"),
        "emb_dim": Key("int", 32, "embedding dimension"),
    },
    "stage1": {
        "aggregation": Key("str", "max", "max | lse"),
        "margin": Key("schedule", Schedule.fixed(0.0), "additive angular margin, per-epoch linear schedule"),
        "tau": Key("schedule", Schedule(0.5, 0.1), "LSE temperature, per-epoch linear schedule"),
        "scale": Key("float", 30.0, "cosine logit scale"),
        "epochs": Key("int", 30, "training epochs"),
        "batch_size": Key("int", 64, "target segments per mini-batch (+-10%)"),
        "lr_max": Key("float", 0.05, "peak learning rate"),
        "lr_final": Key("float", 1e-4, "learning rate at the last step"),
        "warmup_frac": Key("float", 0.05, "fraction of steps spent in linear warm-up"),
        "momentum": Key("float", 0.9, "SGD momentum"),
    },
    "stage2": {
        "margin": Key("schedule", Schedule(0.1, 0.3), "additive angular margin schedule"),
        "scale": Key("float", 30.0, "cosine logit scale"),
        "epochs": Key("int", 20, "training epochs"),
        "batch_size": Key("int", 64, "segments per mini-batch"),
        "lr_max": Key("float", 0.05, "peak learning rate"),
        "lr_final": Key("float", 1e-4, "learning rate at the last step"),
        "warmup_frac": Key("float", 0.05, "fraction of steps spent in linear warm-up"),
        "momentum": Key("float", 0.9, "SGD momentum"),
        "unknown_start_epoch": Key("int", -1, "epoch at which the extra unknown class activates; -1 = off"),
        "unknown_mix_fraction": Key("float", 0.1, "fraction of each batch drawn from the unknown pool"),
    },
    "select": {
        "top_k": Key("int", 10, "discard candidates whose target ranks inside the top k predictions"),
        "fraction": Key("float", 0.05, "fraction of surviving candidates kept, by descending logit LSE"),
    },
    "eval": {
        "p_target": Key("float", 0.05, "target-trial prior for minDCF"),
        "c_miss": Key("float", 1.0, "miss cost"),
        "c_fa": Key("float", 1.0, "false-acceptance cost"),
    },
}


def _parse_value(kind: str, raw: str, where: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw.lower() in ("true", "false"):
                return raw.lower() == "true"
            raise ValueError("expected true or false")
        if kind == "str":
            return raw
        if kind == "range":
            lo, hi = raw.split("..")
            return (int(lo), int(hi))
        if kind == "schedule":
            if "->" in raw:
                a, b = raw.split("->")
                return Schedule(float(a), float(b))
            return Schedule.fixed(float(raw))
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {kind}: {exc}") from exc
    raise ConfigError(f"{where}: unknown kind {kind}")


def _format_value(kind: str, value) -> str:
    if kind == "range":
        return f"{value[0]}..{value[1]}"
    if kind == "schedule":
        if value.start == value.end:
            return f"{value.start:g}"
        return f"{value.start:g}->{value.end:g}"
    if kind == "bool":
        return "true" if value else "false"
    if kind == "float":
        return f"{value:g}"
    return str(value)


def parse_config_text(text: str) -> dict[str, dict[str, object]]:
    """Raw text -> {section: {key: typed value}} with defaults filled in."""
    values = {sec: {k: key.default for k, key in keys.items()} for sec, keys in SCHEMA.items()}
    explicit: dict[str, set[str]] = {sec: set() for sec in SCHEMA}
    section = ""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in SCHEMA[section]:
            where = f"[{section}]" if section else "top level"
            raise ConfigError(f"line {lineno}: unknown key {key!r} in {where}")
        values[section][key] = _parse_value(SCHEMA[section][key].kind, raw, f"line {lineno}")
        explicit[section].add(key)
    values["_explicit"] = explicit  # type: ignore[assignment]
    return values


@dataclass
class RunConfig:
    seed: int
    out: Path
    synth: SynthConfig
    heldout_fraction: float
    n_target_trials: int
    n_nontarget_trials: int
    diar_preset: str
    diar: DiarConfig
    model_hidden: int
    model_emb: int
    stage1: StageConfig
    stage2: StageConfig
    select_top_k: int
    select_fraction: float
    eval_p_target: float
    eval_c_miss: float
    eval_c_fa: float

    def embedder_config(self) -> EmbedderConfig:
        return EmbedderConfig(self.synth.feat_dim, self.model_hidden, self.model_emb)


def build_run_config(values: dict[str, dict[str, object]]) -> RunConfig:
    v = values
    explicit = v.get("_explicit", {})
    synth = SynthConfig(
        n_speakers=v["synth"]["n_speakers"],
        latent_dim=v["synth"]["latent_dim"],
        feat_dim=v["synth"]["feat_dim"],
        recordings_per_speaker=v["synth"]["recordings_per_speaker"],
        segments_per_recording=v["synth"]["segments_per_recording"],
        frames_per_segment=v["synth"]["frames_per_segment"],
        distractors_per_recording=v["synth"]["distractors_per_recording"],
        noise_segment_prob=v["synth"]["noise_segment_prob"],
        within_speaker_noise=v["synth"]["within_speaker_noise"],
        unknown_speaker_count=v["synth"]["unknown_speaker_count"],
        target_weight=v["synth"]["target_weight"],
        seed=v[""]["seed"],
    )
    preset = v["diar"]["preset"]
    if preset == "custom":
        diar = DiarConfig(
            purity=v["diar"]["purity"], split_factor=v["diar"]["split_factor"],
            max_clusters=v["diar"]["max_clusters"], drop_noise=v["diar"]["drop_noise"])
    elif preset in PRESETS:
        diar = PRESETS[preset]
        # explicit keys override the preset
        overrides = {k: v["diar"][k] for k in ("purity", "split_factor", "max_clusters", "drop_noise")
                     if k in explicit.get("diar", set())}
        if overrides:
            from dataclasses import replace
            diar = replace(diar, **overrides)
    else:
        raise ConfigError(f"unknown diar preset {preset!r}")

    def stage(section: str, aggregation: str | None) -> StageConfig:
        s = v[section]
        loss = LossConfig(
            scale=s["scale"], margin=s["margin"],
            tau=s.get("tau", Schedule(0.5, 0.1)),
            aggregation=aggregation if aggregation is not None else "max")
        loss.validate()
        extra = {}
        if section == "stage2":
            extra = dict(unknown_start_epoch=s["unknown_start_epoch"],
                         unknown_mix_fraction=s["unknown_mix_fraction"])
            if not (0.0 <= extra["unknown_mix_fraction"] < 1.0):
                raise ConfigError("stage2.unknown_mix_fraction must lie in [0, 1)")
        return StageConfig(
            loss=loss, epochs=s["epochs"], batch_size=s["batch_size"],
            lr_max=s["lr_max"], lr_final=s["lr_final"],
            warmup_frac=s["warmup_frac"], momentum=s["momentum"], **extra)

    if v["stage1"]["aggregation"] not in ("max", "lse"):
        raise ConfigError("stage1.aggregation must be max or lse")
    return RunConfig(
        seed=v[""]["seed"],
        out=Path(v[""]["out"]),
        synth=synth,
        heldout_fraction=v["trials"]["heldout_fraction"],
        n_target_trials=v["trials"]["n_target"],
        n_nontarget_trials=v["trials"]["n_nontarget"],
        diar_preset=preset,
        diar=diar,
        model_hidden=v["model"]["hidden_dim"],
        model_emb=v["model"]["emb_dim"],
        stage1=stage("stage1", v["stage1"]["aggregation"]),
        stage2=stage("stage2", None),
        select_top_k=v["select"]["top_k"],
        select_fraction=v["select"]["fraction"],
        eval_p_target=v["eval"]["p_target"],
        eval_c_miss=v["eval"]["c_miss"],
        eval_c_fa=v["eval"]["c_fa"],
    )


def load_run_config(path: str | Path | None, seed: int | None = None, out: str | None = None) -> RunConfig:
    text = Path(path).read_text("utf-8") if path else ""
    values = parse_config_text(text)
    if seed is not None:
        values[""]["seed"] = seed
    if out is not None:
        values[""]["out"] = out
    cfg = build_run_config(values)
    return cfg


def render_config(values: dict[str, dict[str, object]] | None = None) -> str:
    """Config text with every key spelled out (defaults if none given)."""
    lines: list[str] = []
    for section, keys in SCHEMA.items():
        if section:
            lines.append(f"[{section}]")
        for name, key in keys.items():
            value = values[section][name] if values else key.default
            lines.append(f"{name} = {_format_value(key.kind, value)}")
        lines.append("")
    return "\n".join(lines)


def render_schema() -> str:
    """schema.txt body: every key with type, default and description."""
    width = max(len(f"{sec}.{name}" if sec else name)
                for sec, keys in SCHEMA.items() for name in keys)
    lines = [
        "weaksv configuration schema",
        "",
        "Format: INI-style sections, 'key = value' lines, '#' comments.",
        "Types: int, float, bool (true/false), str, range (lo..hi),",
        "schedule (start->end, or one number for a constant).",
        "Unknown sections or keys are rejected.",
        "",
    ]
    for section, keys in SCHEMA.items():
        for name, key in keys.items():
            full = f"{section}.{name}" if section else name
            default = _format_value(key.kind, key.default)
            lines.append(f"{full:<{width}}  {key.kind:<8}  default {default:<10}  {key.help}")
        lines.append("")
    return "\n".join(lines)
