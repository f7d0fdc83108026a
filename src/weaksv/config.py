"""Run configuration: a flat, diff-friendly text format with a schema.

Format: INI-like sections of `key = value` lines, `#` comments. Every
key is schema-checked (unknown sections or keys are rejected) and typed:
int, float, bool (true/false), str, range (`lo..hi`, inclusive), or
schedule (`start->end`, or a single number for a constant).

A parse holds only the keys the text sets; build_run_config applies the
defaults, once, and hands each section on as one record of its keys.

The schema alone decides which runs are valid: each value must lie in
its key's allowed set and the values must satisfy CROSS_RULES. The
modules that consume a config trust it and check nothing again.

The same schema renders schema.txt, the authoritative key reference.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path

from .diarize import DiarConfig, PRESETS
from .embedder import EmbedderConfig
from .errors import ConfigError
from .losses import Schedule
from .synth import SynthConfig
from .trainer import StageConfig


@dataclass(frozen=True)
class Key:
    kind: str  # int | float | bool | str | range | schedule
    default: object
    # Valid values: an interval such as "[0, 1)" or "(0, inf)" for numbers,
    # holding for both ends of a range or schedule; choices such as
    # "max | lse" for str; "" when every value of the kind is valid.
    allowed: str
    help: str


SCHEMA: dict[str, dict[str, Key]] = {
    "": {
        "seed": Key("int", 1234, "", "global seed; every stage derives its own stream from it"),
        "out": Key("str", "runs/default", "", "run directory for all artifacts"),
    },
    "synth": {
        "n_speakers": Key("int", 40, "[2, inf)", "known speakers (targets)"),
        "latent_dim": Key("int", 8, "[2, inf)", "dimension of the hidden speaker latents"),
        "feat_dim": Key("int", 20, "[2, inf)", "feature dimension after the frozen tanh lift"),
        "recordings_per_speaker": Key("int", 8, "[1, inf)",
                                      "recordings in which each speaker is the target"),
        "segments_per_recording": Key("range", (6, 10), "[1, inf)", "total segments per recording"),
        "frames_per_segment": Key("range", (10, 30), "[1, inf)", "frames per segment"),
        "distractors_per_recording": Key("range", (0, 2), "[0, inf)",
                                         "non-target speakers per recording"),
        "noise_segment_prob": Key("float", 0.1, "[0, 1]", "probability a segment is pure noise"),
        "within_speaker_noise": Key("float", 0.3, "(0, inf)", "per-frame latent noise stddev"),
        "unknown_speaker_count": Key("int", 10, "[0, inf)", "extra speakers outside the known set"),
        "target_weight": Key("float", 0.5, "(0, 1]",
                             "probability a speech segment voices the target when distractors exist"),
    },
    "trials": {
        "heldout_fraction": Key("float", 0.2, "[0, 1)",
                                "per-speaker fraction of recordings held out for trials"),
        "n_target": Key("int", 250, "[1, inf)", "same-speaker trials"),
        "n_nontarget": Key("int", 250, "[1, inf)", "different-speaker trials"),
    },
    "diar": {
        "preset": Key("str", "baseline", " | ".join(PRESETS),
                      "simulated diarizer; keys set below override a preset"),
        "purity": Key("float", 0.85, "(0, 1]", "cluster purity"),
        "split_factor": Key("float", 2.0, "[1, inf)", "expected clusters per present speaker"),
        "max_clusters": Key("int", 0, "[0, inf)", "cluster cap per recording, 0 = unlimited"),
        "drop_noise": Key("bool", False, "", "remove pure-noise segments from clusters"),
    },
    "model": {
        "hidden_dim": Key("int", 64, "[1, inf)", "hidden layer width"),
        "emb_dim": Key("int", 32, "[1, inf)", "embedding dimension"),
    },
    "stage1": {
        "aggregation": Key("str", "max", "max | lse", "recording-level pooling of segment cosines"),
        "margin": Key("schedule", Schedule.fixed(0.0), "[0, 0.5]",
                      "additive angular margin, per-epoch linear schedule"),
        "tau": Key("schedule", Schedule(0.5, 0.1), "(0, inf)", "LSE temperature, per-epoch linear schedule"),
        "scale": Key("float", 30.0, "(0, inf)", "cosine logit scale"),
        "epochs": Key("int", 30, "[1, inf)", "training epochs"),
        "batch_size": Key("int", 64, "[1, inf)", "target segments per mini-batch (+-10%)"),
        "lr_max": Key("float", 0.05, "(0, inf)", "peak learning rate"),
        "lr_final": Key("float", 1e-4, "(0, inf)", "learning rate at the last step"),
        "warmup_frac": Key("float", 0.05, "[0, 1]", "fraction of steps spent in linear warm-up"),
        "momentum": Key("float", 0.9, "[0, 1)", "SGD momentum"),
    },
    "stage2": {
        "margin": Key("schedule", Schedule(0.1, 0.3), "[0, 0.5]", "additive angular margin schedule"),
        "scale": Key("float", 30.0, "(0, inf)", "cosine logit scale"),
        "epochs": Key("int", 20, "[1, inf)", "training epochs"),
        "batch_size": Key("int", 64, "[1, inf)", "segments per mini-batch"),
        "lr_max": Key("float", 0.05, "(0, inf)", "peak learning rate"),
        "lr_final": Key("float", 1e-4, "(0, inf)", "learning rate at the last step"),
        "warmup_frac": Key("float", 0.05, "[0, 1]", "fraction of steps spent in linear warm-up"),
        "momentum": Key("float", 0.9, "[0, 1)", "SGD momentum"),
        "unknown_start_epoch": Key("int", -1, "[-1, inf)",
                                   "epoch at which the extra unknown class activates; -1 = off"),
        "unknown_mix_fraction": Key("float", 0.1, "[0, 1)",
                                    "fraction of each batch drawn from the unknown pool"),
    },
    "select": {
        "top_k": Key("int", 10, "[1, inf)",
                     "discard candidates whose target ranks inside the top k predictions"),
        "fraction": Key("float", 0.05, "(0, 1]",
                        "fraction of surviving candidates kept, by descending logit LSE"),
    },
    "eval": {
        "p_target": Key("float", 0.05, "(0, 1)", "target-trial prior for minDCF"),
        "c_miss": Key("float", 1.0, "(0, inf)", "miss cost"),
        "c_fa": Key("float", 1.0, "(0, inf)", "false-acceptance cost"),
    },
}

# Rules between keys, checked once every key is in its allowed set. The
# last holds even with the unknown class off: `ablate` turns it on anyway.
CROSS_RULES = (
    ("synth.feat_dim >= synth.latent_dim", lambda v: v["synth"]["feat_dim"] >= v["synth"]["latent_dim"]),
    ("stage1.lr_final <= stage1.lr_max", lambda v: v["stage1"]["lr_final"] <= v["stage1"]["lr_max"]),
    ("stage2.lr_final <= stage2.lr_max", lambda v: v["stage2"]["lr_final"] <= v["stage2"]["lr_max"]),
    ("select.top_k < synth.n_speakers", lambda v: v["select"]["top_k"] < v["synth"]["n_speakers"]),
    ("round(stage2.unknown_mix_fraction * stage2.batch_size) < stage2.batch_size",
     lambda v: round(v["stage2"]["unknown_mix_fraction"] * v["stage2"]["batch_size"])
     < v["stage2"]["batch_size"]),
)


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
    except Exception as exc:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {kind}: {exc}") from exc
    raise ConfigError(f"{where}: unknown kind {kind}")


def _format_value(kind: str, value) -> str:
    """The text _parse_value reads back as value (floats as repr, which round-trips)."""
    if kind == "range":
        return f"{value[0]}..{value[1]}"
    if kind == "schedule":
        if value.start == value.end:
            return repr(value.start)
        return f"{value.start!r}->{value.end!r}"
    if kind == "bool":
        return "true" if value else "false"
    if kind == "float":
        return repr(value)
    return str(value)


def parse_config_text(text: str) -> dict[str, dict[str, object]]:
    """Raw text -> {section: {key: typed value}}, holding only the keys the text sets."""
    values: dict[str, dict[str, object]] = {}
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
        values.setdefault(section, {})[key] = _parse_value(SCHEMA[section][key].kind, raw, f"line {lineno}")
    return values


@dataclass
class RunConfig:
    seed: int
    out: Path
    synth: SynthConfig
    heldout_fraction: float
    n_target_trials: int
    n_nontarget_trials: int
    diar: DiarConfig
    model: EmbedderConfig
    stage1: StageConfig
    stage2: StageConfig
    select_top_k: int
    select_fraction: float
    eval_p_target: float
    eval_c_miss: float
    eval_c_fa: float
    text: str  # the configuration text config.snapshot records (see load_run_config)


def _allows(allowed: str, value) -> bool:
    """Whether value lies in an interval such as "[0, 1)", or is one of "a | b"."""
    if allowed[0] not in "[(":
        return value in allowed.split(" | ")
    lo, hi = (float(end) for end in allowed[1:-1].split(","))
    return ((lo <= value if allowed[0] == "[" else lo < value)
            and (value <= hi if allowed[-1] == "]" else value < hi))


def _ends(kind: str, value) -> tuple:
    """The values an allowed set must hold: both ends of a range or schedule, else the value."""
    if kind == "schedule":
        return (value.start, value.end)
    return value if kind == "range" else (value,)


def _check(values: dict[str, dict[str, object]]) -> None:
    """Raise ConfigError for the first value outside its key's allowed set, or the first broken rule."""
    for section, keys in SCHEMA.items():
        for name, key in keys.items():
            value = values[section][name]
            if key.allowed and not all(_allows(key.allowed, end) for end in _ends(key.kind, value)):
                problem = f"is outside the allowed {key.allowed}"
            elif key.kind == "range" and value[0] > value[1]:
                problem = "has its low end above its high end"
            else:
                continue
            raise ConfigError(f"{section}.{name} = {_format_value(key.kind, value)} {problem}")
    for rule, holds in CROSS_RULES:
        if not holds(values):
            named = dict.fromkeys(re.findall(r"(\w+)\.(\w+)", rule))
            raise ConfigError(", ".join(f"{sec}.{k} = {values[sec][k]:g}" for sec, k in named)
                              + f": need {rule}")


def build_run_config(values: dict[str, dict[str, object]], text: str) -> RunConfig:
    """The checked RunConfig of the keys a text sets, each other key at its default; text is that text."""
    v = {sec: {name: key.default for name, key in keys.items()} | values.get(sec, {})
         for sec, keys in SCHEMA.items()}
    _check(v)
    # a preset fixes each diarizer key the config does not set itself
    diar = replace(PRESETS[v["diar"]["preset"]], **{k: x for k, x in values.get("diar", {}).items() if k != "preset"})
    return RunConfig(
        seed=v[""]["seed"],
        out=Path(v[""]["out"]),
        synth=SynthConfig(**v["synth"], seed=v[""]["seed"]),
        heldout_fraction=v["trials"]["heldout_fraction"],
        n_target_trials=v["trials"]["n_target"],
        n_nontarget_trials=v["trials"]["n_nontarget"],
        diar=diar,
        model=EmbedderConfig(v["synth"]["feat_dim"], **v["model"]),
        stage1=StageConfig(**v["stage1"]),
        stage2=StageConfig(**v["stage2"]),
        select_top_k=v["select"]["top_k"],
        select_fraction=v["select"]["fraction"],
        eval_p_target=v["eval"]["p_target"],
        eval_c_miss=v["eval"]["c_miss"],
        eval_c_fa=v["eval"]["c_fa"],
        text=text,
    )


def load_run_config(path: str | Path | None, seed: int | None = None, out: str | None = None,
                    preset: str | None = None) -> RunConfig:
    """The checked config of a file, or of the defaults; seed, out and preset override it, a
    preset as if the config named it (so [diar] keys the config sets still win). Its text,
    the file's keys plus the seed and preset overrides, reloads to it; an out override is left
    out, so runs of one config in different directories snapshot the same bytes."""
    try:
        text = Path(path).read_text("utf-8") if path else ""
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    values = parse_config_text(text)
    for section, key, value in (("", "seed", seed), ("diar", "preset", preset)):
        if value is not None:
            values.setdefault(section, {})[key] = value
    if out is not None:
        values.get("", {}).pop("out", None)
    cfg = build_run_config(values, render_config(values))
    return cfg if out is None else replace(cfg, out=Path(out))


def render_config(values: dict[str, dict[str, object]] | None = None) -> str:
    """Config text of the keys values holds, in schema order (every key at its default if None)."""
    if values is None:
        values = {sec: {name: key.default for name, key in keys.items()} for sec, keys in SCHEMA.items()}
    lines: list[str] = []
    for section, keys in SCHEMA.items():
        names = [name for name in keys if name in values.get(section, {})]
        if not names:
            continue
        if section:
            lines.append(f"[{section}]")
        lines += [f"{name} = {_format_value(keys[name].kind, values[section][name])}" for name in names]
        lines.append("")
    return "\n".join(lines)


def render_schema() -> str:
    """schema.txt body: every key with type, default, allowed set and description; then CROSS_RULES."""
    width = max(len(f"{sec}.{name}" if sec else name)
                for sec, keys in SCHEMA.items() for name in keys)
    lines = [
        "weaksv configuration schema",
        "",
        "Format: INI-style sections, 'key = value' lines, '#' comments.",
        "Types: int, float, bool (true/false), str, range (lo..hi),",
        "schedule (start->end, or one number for a constant).",
        "Allowed: an interval for numbers, holding for both ends of a range",
        "or schedule; the choices for str; '-' for any value of the type.",
        "Unknown sections or keys, and values outside the allowed set or the",
        "rules at the end, are rejected before any file is written.",
        "",
    ]
    for section, keys in SCHEMA.items():
        for name, key in keys.items():
            full = f"{section}.{name}" if section else name
            default = _format_value(key.kind, key.default)
            lines.append(f"{full:<{width}}  {key.kind:<8}  default {default:<10}  "
                         f"{key.allowed or '-':<10}  {key.help}")
        lines.append("")
    lines.append("Rules between keys (a range also needs lo <= hi):")
    lines += [f"  {rule}" for rule, _ in CROSS_RULES]
    lines.append("")
    return "\n".join(lines)
