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
from .errors import ConfigError, ValidationError, open_text
from .fusion import FUSION_MODES
from .modulation import ModulationConfig
from .smoothing import CellCorpusSpec, FrozenEncoder, Stage1Config, default_encoder


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

    def __post_init__(self):
        if self.embed_dim < 1:
            raise ConfigError(f"[smoothing] embed_dim: embed_dim must be positive, "
                              f"got {self.embed_dim}")
        if not 0.0 <= self.encoder_scale < float("inf"):
            raise ConfigError(f"[smoothing] encoder_scale: encoder_scale must be finite "
                              f"and non-negative, got {self.encoder_scale}")

    def frozen_encoder(self, gene_dim: int) -> FrozenEncoder:
        """The fixed encoder these settings describe, for gene_dim genes."""
        return default_encoder(gene_dim, self.embed_dim, seed=self.encoder_seed,
                               scale=self.encoder_scale)


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
        if min(self.seed, self.smoothing.encoder_seed) < 0:
            raise ConfigError(f"seeds must be non-negative, got seed = {self.seed}, "
                              f"encoder_seed = {self.smoothing.encoder_seed}")
        if not 0.0 < self.eta < float("inf"):
            raise ConfigError(f"eta must be positive and finite, got {self.eta}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.k_folds < 2:
            raise ConfigError("k_folds must be >= 2")
        for key in ("snn_dim", "gen_dim", "img_dim"):
            if getattr(self, key) < 1:
                raise ConfigError(f"[run] {key}: {key} must be positive, "
                                  f"got {getattr(self, key)}")
        if self.fusion_mode not in FUSION_MODES:
            raise ConfigError(f"fusion_mode must be one of {FUSION_MODES}")
        if self.fusion_mode != "concat":
            if self.modulation.enabled:
                raise ConfigError("gradient modulation requires fusion_mode = concat")
            if self.track_rho:
                raise ConfigError("track_rho requires fusion_mode = concat "
                                  "(contribution ratios split the concat head)")
        try:
            self.stage1_config()
        except ValidationError as exc:
            section, key = _STAGE1_KEYS[str(exc).split(" ", 1)[0]]
            raise ConfigError(f"[{section}] {key}: {exc}") from exc

    def stage1_config(self) -> Stage1Config:
        """The stage-1 training settings of this run."""
        sections = {"run": self, "smoothing": self.smoothing}
        return Stage1Config(**{name: getattr(sections[section], key)
                               for name, (section, key) in _STAGE1_KEYS.items()})


# Stage1Config field -> the INI section and key that set it; each of
# Stage1Config's messages leads with the one field it refuses
_STAGE1_KEYS = {"epochs": ("smoothing", "stage1_epochs"), "eta": ("smoothing", "stage1_eta"),
                "hidden_dim": ("run", "hidden_dim"), "seed": ("run", "seed"),
                **{name: ("smoothing", name) for name in
                   ("steps_per_epoch", "batch_pairs", "weight_decay", "feature_dim")}}


def _coerce(raw: str, like, key: str):
    if isinstance(like, bool):
        try:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
        except KeyError:
            raise ConfigError(f"{key}: expected a boolean, got '{raw}'") from None
    try:
        if isinstance(like, int):
            return int(raw)
        if isinstance(like, float):
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    return raw


def _defaults(obj, drop=()) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
            if f.name not in drop}


def _section(parser: configparser.ConfigParser, section: str, defaults: dict) -> dict:
    """Field updates from one INI section, typed like the defaults."""
    updates = {}
    if parser.has_section(section):
        for key, raw in parser.items(section):
            if key not in defaults:
                raise ConfigError(f"[{section}] unknown key '{key}'")
            updates[key] = _coerce(raw, defaults[key], f"[{section}] {key}")
    return updates


def _updated(parser: configparser.ConfigParser, section: str, base):
    """base with the values one INI section sets."""
    return dataclasses.replace(base, **_section(parser, section, _defaults(base)))


_KNOWN_SECTIONS = ("run", "modulation", "smoothing", "paths", "cohort", "cells")


def _read_ini(path: str | None) -> configparser.ConfigParser:
    # values are taken literally: no %-interpolation
    parser = configparser.ConfigParser(interpolation=None)
    if path is not None:
        with open_text(path, ConfigError) as fh:
            try:
                parser.read_file(fh)
            except configparser.Error as exc:
                raise ConfigError(f"{path}: {exc}") from exc
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
    run_defaults = _defaults(RunConfig(), drop=("modulation", "smoothing", "paths"))
    run_updates = _section(parser, "run", run_defaults)
    modulation = _updated(parser, "modulation", ModulationConfig(enabled=False))
    smoothing = _updated(parser, "smoothing", SmoothingConfig())
    paths = _updated(parser, "paths", PathsConfig())

    for key, value in overrides.items():
        if value is None:
            continue
        if key == "modulation_enabled":
            modulation = dataclasses.replace(modulation, enabled=bool(value))
        elif key == "smoothing_enabled":
            smoothing = dataclasses.replace(smoothing, enabled=bool(value))
        elif key in ("cohort", "cells", "stage1", "out_dir"):
            paths = dataclasses.replace(paths, **{key: value})
        elif key in run_defaults:
            run_updates[key] = value
        else:
            raise ConfigError(f"unknown override '{key}'")
    return RunConfig(modulation=modulation, smoothing=smoothing, paths=paths,
                     **run_updates)


def load_cohort_spec(path: str | None = None, **overrides) -> CohortSpec:
    # built from a raw field dict (not dataclasses.replace) so that an
    # unspecified hazard_coef re-derives its default from the final latent_dim
    defaults = _defaults(CohortSpec())
    updates = _section(_read_ini(path), "cohort", defaults)
    if "hazard_coef" in updates:   # floats, comma or space separated
        try:
            updates["hazard_coef"] = [
                float(tok) for tok in updates["hazard_coef"].replace(",", " ").split()]
        except ValueError as exc:
            raise ConfigError(f"[cohort] hazard_coef: {exc}") from exc
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in defaults:
            raise ConfigError(f"unknown cohort override '{key}'")
        updates[key] = value
    return CohortSpec(**updates)


def load_cells_spec(path: str | None = None, **overrides) -> CellCorpusSpec:
    defaults = _defaults(CellCorpusSpec())
    updates = _section(_read_ini(path), "cells", defaults)
    updates.update((k, v) for k, v in overrides.items() if v is not None)
    return CellCorpusSpec(**updates)


def config_echo(cfg: RunConfig) -> dict:
    """The full effective configuration as plain JSON-ready data, keyed like
    the INI file."""
    return dataclasses.asdict(cfg)
