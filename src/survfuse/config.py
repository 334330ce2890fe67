"""Run configuration: INI files with flag overrides (flags win).

The file is plain configparser INI. Recognized sections: [run],
[modulation], [smoothing], [paths], [cohort], [cells]. Every key has a
default, so an empty or missing file is a valid configuration. Unknown
keys are rejected — silent typos poison reproducibility.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass, field

from .cohort import CohortSpec
from .errors import ConfigError
from .fusion import FUSION_MODES
from .modulation import ModulationConfig
from .smoothing import CellCorpusSpec


@dataclass
class SmoothingConfig:
    enabled: bool = True
    stage1_epochs: int = 8
    steps_per_epoch: int = 60
    batch_pairs: int = 32
    stage1_eta: float = 0.5  # mse gradients are tiny; stage 2's eta is far too small here
    weight_decay: float = 0.003
    feature_dim: int = 32
    embed_dim: int = 32
    encoder_seed: int = 0   # the frozen encoder is one fixed artifact; run
    encoder_scale: float = 2.0  # seeds vary training, not the encoder


@dataclass
class PathsConfig:
    cohort: str = "cohort.csv"
    cells: str = "cells.csv"
    stage1: str = "stage1.ckpt"
    out_dir: str = "runs"


@dataclass
class RunConfig:
    seed: int = 0
    eta: float = 0.01
    epochs: int = 12
    batch_size: int = 32
    hidden_dim: int = 128
    num_cell_types: int = 17
    k_folds: int = 15
    fusion_mode: str = "concat"
    snn_dim: int = 32
    gen_dim: int = 32
    img_dim: int = 32
    track_rho: bool = False
    image_probe: bool = False
    modulation: ModulationConfig = field(
        default_factory=lambda: ModulationConfig(enabled=False))
    smoothing: SmoothingConfig = field(default_factory=SmoothingConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)

    def __post_init__(self):
        if self.eta <= 0:
            raise ConfigError(f"eta must be positive, got {self.eta}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.k_folds < 2:
            raise ConfigError("k_folds must be >= 2")
        if self.fusion_mode not in FUSION_MODES:
            raise ConfigError(f"fusion_mode must be one of {FUSION_MODES}")
        if self.modulation.enabled and self.fusion_mode != "concat":
            raise ConfigError("gradient modulation requires fusion_mode = concat")


_BOOL_TRUE = ("1", "true", "yes", "on")
_BOOL_FALSE = ("0", "false", "no", "off")


def _coerce(raw: str, like, key: str):
    if isinstance(like, bool):
        low = raw.strip().lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ConfigError(f"{key}: expected a boolean, got '{raw}'")
    try:
        if isinstance(like, int):
            return int(raw)
        if isinstance(like, float):
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    return raw


def _fill_section(parser: configparser.ConfigParser, section: str, obj,
                  renames: dict[str, str] | None = None):
    """Overwrite obj's fields from one INI section, type-led by the defaults."""
    if not parser.has_section(section):
        return obj
    renames = renames or {}
    valid = {f.name for f in dataclasses.fields(obj)}
    updates = {}
    for key, raw in parser.items(section):
        name = renames.get(key, key)
        if name not in valid:
            raise ConfigError(f"[{section}] unknown key '{key}'")
        updates[name] = _coerce(raw, getattr(obj, name), f"[{section}] {key}")
    return dataclasses.replace(obj, **updates)


def _modulation_from(parser: configparser.ConfigParser) -> ModulationConfig:
    cfg = ModulationConfig(enabled=False)
    if not parser.has_section("modulation"):
        return cfg
    lo, hi = cfg.ratio_clamp
    fields = {"enabled": cfg.enabled, "epsilon": cfg.epsilon,
              "aggregate": cfg.aggregate, "exp_numerator": cfg.exp_numerator,
              "warmup_steps": cfg.warmup_steps, "rho_min": lo, "rho_max": hi}
    for key, raw in parser.items("modulation"):
        if key not in fields:
            raise ConfigError(f"[modulation] unknown key '{key}'")
        fields[key] = _coerce(raw, fields[key], f"[modulation] {key}")
    return ModulationConfig(
        enabled=fields["enabled"],
        ratio_clamp=(fields["rho_min"], fields["rho_max"]),
        epsilon=fields["epsilon"], aggregate=fields["aggregate"],
        exp_numerator=fields["exp_numerator"], warmup_steps=fields["warmup_steps"])


_KNOWN_SECTIONS = ("run", "modulation", "smoothing", "paths", "cohort", "cells")


def _read_ini(path: str | None) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
        for section in parser.sections():
            if section not in _KNOWN_SECTIONS:
                raise ConfigError(f"unknown config section [{section}]")
    return parser


def load_run_config(path: str | None = None, **overrides) -> RunConfig:
    """Build the effective RunConfig: defaults <- file <- keyword overrides.

    Override keys: any [run] field, plus 'modulation_enabled',
    'smoothing_enabled', and path fields 'cohort'/'cells'/'stage1'/'out_dir'.
    A None override means "not given".
    """
    parser = _read_ini(path)
    base = RunConfig()
    run_fields = {f.name for f in dataclasses.fields(RunConfig)
                  if f.name not in ("modulation", "smoothing", "paths")}
    run_updates = {}
    if parser.has_section("run"):
        for key, raw in parser.items("run"):
            if key not in run_fields:
                raise ConfigError(f"[run] unknown key '{key}'")
            run_updates[key] = _coerce(raw, getattr(base, key), f"[run] {key}")
    modulation = _modulation_from(parser)
    smoothing = _fill_section(parser, "smoothing", SmoothingConfig())
    paths = _fill_section(parser, "paths", PathsConfig())

    for key, value in overrides.items():
        if value is None:
            continue
        if key == "modulation_enabled":
            modulation = dataclasses.replace(modulation, enabled=bool(value))
        elif key == "smoothing_enabled":
            smoothing = dataclasses.replace(smoothing, enabled=bool(value))
        elif key in ("cohort", "cells", "stage1", "out_dir"):
            paths = dataclasses.replace(paths, **{key: value})
        elif key in run_fields:
            run_updates[key] = value
        else:
            raise ConfigError(f"unknown override '{key}'")
    return RunConfig(modulation=modulation, smoothing=smoothing, paths=paths,
                     **run_updates)


def load_cohort_spec(path: str | None = None, **overrides) -> CohortSpec:
    # built from a raw field dict (not dataclasses.replace) so that an
    # unspecified hazard_coef re-derives its default from the final latent_dim
    parser = _read_ini(path)
    defaults = CohortSpec()
    names = {f.name for f in dataclasses.fields(CohortSpec)}
    updates: dict = {}
    if parser.has_section("cohort"):
        for key, raw in parser.items("cohort"):
            name = "censor_fraction_target" if key == "censor_fraction" else key
            if name not in names:
                raise ConfigError(f"[cohort] unknown key '{key}'")
            if name == "hazard_coef":
                updates[name] = [float(tok) for tok in raw.replace(",", " ").split()]
            else:
                updates[name] = _coerce(raw, getattr(defaults, name), f"[cohort] {key}")
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in names:
            raise ConfigError(f"unknown cohort override '{key}'")
        updates[key] = value
    return CohortSpec(**updates)


def load_cells_spec(path: str | None = None, **overrides) -> CellCorpusSpec:
    parser = _read_ini(path)
    spec = _fill_section(parser, "cells", CellCorpusSpec())
    clean = {k: v for k, v in overrides.items() if v is not None}
    return dataclasses.replace(spec, **clean) if clean else spec


def config_echo(cfg: RunConfig) -> dict:
    """The full effective configuration as plain JSON-ready data."""
    out = dataclasses.asdict(cfg)
    out["modulation"]["ratio_clamp"] = list(out["modulation"]["ratio_clamp"])
    return out
