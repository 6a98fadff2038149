"""Experiment configuration: one JSON file describes one full run.

Every seed, count, and hyperparameter that affects an emitted number lives
here, so the canonical content hash plus the run seed pin the experiment
completely.  Loading is strict: unknown keys are rejected rather than
silently dropped, and a load-save round trip is byte-identical.
"""

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

from .checkpoint import atomic_open
from .errors import FormatError
from .prompts import INIT_STRATEGIES, VARIANTS
from .styles import StyleJitter


@dataclass(frozen=True)
class DataConfig:
    size: int = 64
    base_train: int = 128
    base_val: int = 16
    styled_train: int = 64
    styled_val: int = 16
    target_val: int = 16
    # scene streams: styled twins reuse the base streams so only the style
    # differs; targets get fresh scenes on top of held-out styles
    scene_train_seed: int = 100
    scene_val_seed: int = 101
    scene_target_seed: int = 150
    style_train_seed: int = 11
    style_val_seed: int = 12
    style_target_seed: int = 21
    # the wide lighting-ramp jitter is the one axis that varies spatially
    # within a style, so it is what per-image prompt adaptation can track
    jitter: StyleJitter = StyleJitter(
        hue_shift=10.0, brightness=0.04, contrast=0.10,
        gamma=0.10, noise_sigma=0.005, haze=0.08, v_ramp=0.25,
    )


@dataclass(frozen=True)
class OracleConfig:
    iters: int = 1500
    batch: int = 8
    lr: float = 5e-3
    widths: tuple = (16, 32, 64)
    kernel: int = 5
    seed: int = 5


@dataclass(frozen=True)
class SpgConfig:
    variant: str = "a_border"
    init: str = "zero"
    pad: int = 6
    depth: int = 8
    iters: int = 400
    batch: int = 8
    # kept low on purpose: large steps inflate template amplitude, and the
    # per-channel normalization in the fusion path throws amplitude away
    lr: float = 0.003
    momentum: float = 0.9
    meta_iters: int = 200


@dataclass(frozen=True)
class ApfConfig:
    iters: int = 500
    batch: int = 8
    lr: float = 1e-3
    betas: tuple = (0.5, 0.999)
    min_lr: float = 1e-5
    restart_frac: float = 1 / 8
    t_mult: int = 2
    embed_dim: int = 32
    per_channel: bool = True
    use_softmax: bool = True
    use_tanh: bool = True
    # the published recipe trains fusion on plain source images; mixing the
    # stylized twins back in gives the heads something to route on
    mix_styled: bool = True


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataConfig = DataConfig()
    oracle: OracleConfig = OracleConfig()
    spg: SpgConfig = SpgConfig()
    apf: ApfConfig = ApfConfig()
    seeds: tuple = (0, 1, 2)
    out_dir: str = "runs"

    def validate(self):
        """Reject a config that cannot run, before any stage spends compute."""
        for key, value in _leaves(self):
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
        if self.data.size < 16 or self.data.size % 8:  # a scene's sign disc needs 16 px
            raise ValueError(f"data.size must be a multiple of 8, at least 16, got {self.data.size}")
        for field in ("base_train", "base_val", "styled_train", "styled_val",
                      "target_val"):
            if getattr(self.data, field) < 1:
                raise ValueError(f"data.{field} must be >= 1")
        if self.spg.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.spg.variant!r}")
        if self.spg.init not in INIT_STRATEGIES:
            raise ValueError(f"unknown init strategy {self.spg.init!r}")
        for name in ("oracle", "spg", "apf"):
            section = getattr(self, name)
            if section.iters < 0 or section.batch < 1 or section.lr <= 0:
                raise ValueError(f"{name} needs iters >= 0, batch >= 1 and lr > 0")
        o = self.oracle
        if o.kernel < 1 or not o.widths or min(o.widths) < 1:
            raise ValueError("oracle needs kernel >= 1 and widths all >= 1")
        if self.spg.meta_iters < 0 or self.spg.depth < 1:
            raise ValueError("spg needs meta_iters >= 0 and depth >= 1")
        if self.apf.embed_dim < 1 or self.apf.t_mult < 1:
            raise ValueError("apf needs embed_dim >= 1 and t_mult >= 1")
        b = self.apf.betas
        if len(b) != 2 or not all(0 <= x < 1 for x in b):
            raise ValueError(f"apf.betas must be two values in [0, 1), got {b}")
        pad, border = self.spg.pad, self.spg.variant in ("border", "a_border")
        if border and (pad < 1 or 2 * pad >= self.data.size):
            raise ValueError(f"spg.pad {pad} does not fit a {self.data.size}px border")
        if not self.seeds:
            raise ValueError("seeds list is empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        return self


def _leaves(obj, key=""):
    """(dotted key, value) for every scalar of a config, tuple entries as ``key[i]``."""
    if dataclasses.is_dataclass(obj):
        return [leaf for f in dataclasses.fields(obj) for leaf in
                _leaves(getattr(obj, f.name), f"{key}.{f.name}".lstrip("."))]
    if isinstance(obj, tuple):
        return [leaf for i, v in enumerate(obj) for leaf in _leaves(v, f"{key}[{i}]")]
    return [(key, obj)]


def default_config() -> ExperimentConfig:
    """The desk-scale reference recipe."""
    return ExperimentConfig()


def to_json(cfg: ExperimentConfig) -> str:
    """Canonical byte form: sorted keys, fixed two-space indent."""
    return json.dumps(dataclasses.asdict(cfg), sort_keys=True, indent=2)


def _build(cls, payload, path, where="config"):
    """``cls`` from parsed JSON: a section whose default is a dataclass recurses,
    a tuple default a list of ints (of numbers if it holds a float), a scalar
    its default's type (or int for float); anything else raises FormatError."""
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: {where} must be an object")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = set(payload) - set(defaults)
    if unknown:
        raise FormatError(f"{path}: unknown config keys {sorted(unknown)}")
    values = {}
    for name, value in payload.items():
        default, key = defaults[name], f"{where}.{name}"
        if dataclasses.is_dataclass(default):
            value = _build(type(default), value, path, key)
        elif isinstance(default, tuple):
            kinds = (int, float) if float in map(type, default) else (int,)
            if not isinstance(value, list) or any(type(v) not in kinds for v in value):
                kind = "numbers" if float in kinds else "integers"
                raise FormatError(f"{path}: {key} must be a list of {kind}")
            value = tuple(value)
        elif type(value) is not type(default) and (type(default), type(value)) != (float, int):
            raise FormatError(f"{path}: {key} must be {type(default).__name__}")
        values[name] = value
    return cls(**values)


def from_dict(payload: dict, path="<config>") -> ExperimentConfig:
    return _build(ExperimentConfig, payload, path).validate()


def save_config(path, cfg: ExperimentConfig) -> None:
    with atomic_open(path) as f:
        f.write(to_json(cfg))
        f.write("\n")


def load_config(path) -> ExperimentConfig:
    with open(path) as f:
        try:
            payload = json.load(f)
        except json.JSONDecodeError as e:
            raise FormatError(f"{path}: not valid JSON ({e})") from None
    return from_dict(payload, path=str(path))


def config_hash(cfg: ExperimentConfig) -> str:
    """Short content id over the canonical byte form (16 hex chars).

    The output directory is storage location and the seed list picks which
    runs of the experiment to do (each seed keeps its own artifacts): neither
    is experiment identity, so both are left out.
    """
    payload = dataclasses.asdict(cfg)
    payload.pop("out_dir")
    payload.pop("seeds")
    canonical = json.dumps(payload, sort_keys=True, indent=2)
    return hashlib.blake2b(canonical.encode(), digest_size=8).hexdigest()
