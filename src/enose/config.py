"""Pipeline configuration: INI-style file with CLI flag overrides."""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace

from .errors import BadSizes, ConfigError
from .evaluate import check_curve_sizes
from .models import CLASSICAL_FAMILIES
from .neural import VARIANT_NAMES
from .preprocess import VERSIONS

FORMATS = ("json", "csv", "svg")


@dataclass(frozen=True)
class PipelineConfig:
    # data source (exactly one of synth/manifest/glob)
    source: str = "synth"
    manifest: str | None = None
    glob: str | None = None
    samples: int = 1000
    drift: bool = True
    # pipeline
    version: str = "V2"
    test_fraction: float = 0.2
    seed: int = 0
    folds: int = 5
    # models
    families: tuple[str, ...] = ("dt", "rf")
    grid: str = "small"          # default | small | none
    ann_variants: tuple[str, ...] = ("baseline",)
    ann_epochs: int = 30
    ensemble: bool = True
    learning_curves: bool = False
    learning_curve_sizes: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)
    # output
    out_dir: str = "out"
    formats: tuple[str, ...] = ("json", "csv")

    def validate(self) -> "PipelineConfig":
        if self.samples < 1:
            raise ConfigError(f"samples must be >= 1, got {self.samples}")
        if self.source not in ("synth", "manifest", "glob"):
            raise ConfigError(f"data source must be synth|manifest|glob, got {self.source!r}")
        if self.source == "manifest" and not self.manifest:
            raise ConfigError("source=manifest requires the 'manifest' key")
        if self.source == "glob" and not self.glob:
            raise ConfigError("source=glob requires the 'glob' key")
        if self.version not in VERSIONS:
            raise ConfigError(f"version must be one of {VERSIONS}, got {self.version!r}")
        if self.folds < 2:
            raise ConfigError(f"folds must be >= 2, got {self.folds}")
        if not (0.0 < self.test_fraction < 1.0):
            raise ConfigError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        unknown = [f for f in self.families if f not in CLASSICAL_FAMILIES]
        if unknown:
            raise ConfigError(f"unknown model families {unknown}; expected a subset of "
                              f"{CLASSICAL_FAMILIES}")
        unknown = [v for v in self.ann_variants if v not in VARIANT_NAMES]
        if unknown:
            raise ConfigError(f"unknown ann_variants {unknown}; expected a subset of "
                              f"{VARIANT_NAMES}")
        for key in ("families", "ann_variants"):
            entries = getattr(self, key)
            repeated = sorted({e for e in entries if entries.count(e) > 1})
            if repeated:
                raise ConfigError(f"{key} lists {repeated} more than once")
        if self.grid not in ("default", "small", "none"):
            raise ConfigError(f"grid must be default|small|none, got {self.grid!r}")
        if self.learning_curves and self.grid == "none":
            raise ConfigError("learning_curves = yes needs a grid: learning curves use the "
                              "tuned parameters, and grid = none tunes nothing")
        try:
            check_curve_sizes(self.learning_curve_sizes)
        except BadSizes as exc:
            raise ConfigError(f"learning_curve_sizes: {exc}") from exc
        if self.ann_epochs < 1:
            raise ConfigError(f"ann_epochs must be >= 1, got {self.ann_epochs}")
        bad = [f for f in self.formats if f not in FORMATS]
        if bad:
            raise ConfigError(f"unknown report formats {bad}; expected subset of {FORMATS}")
        return self


def _split_list(raw: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in raw.split(",") if x.strip())


def load_config(path: str | None) -> PipelineConfig:
    cfg = PipelineConfig()
    if path is None:
        return cfg
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    def get(section, key, conv, default):
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                return conv(raw)
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {raw!r} ({exc})") from exc
        return default

    as_bool = lambda s: s.strip().lower() in ("1", "true", "yes", "on")
    cfg = PipelineConfig(
        source=get("data", "source", str.strip, cfg.source),
        manifest=get("data", "manifest", str.strip, cfg.manifest),
        glob=get("data", "glob", str.strip, cfg.glob),
        samples=get("data", "samples", int, cfg.samples),
        drift=get("data", "drift", as_bool, cfg.drift),
        version=get("pipeline", "version", str.strip, cfg.version),
        test_fraction=get("pipeline", "test_fraction", float, cfg.test_fraction),
        seed=get("pipeline", "seed", int, cfg.seed),
        folds=get("pipeline", "folds", int, cfg.folds),
        families=get("models", "families", _split_list, cfg.families),
        grid=get("models", "grid", str.strip, cfg.grid),
        ann_variants=get("models", "ann_variants", _split_list, cfg.ann_variants),
        ann_epochs=get("models", "ann_epochs", int, cfg.ann_epochs),
        ensemble=get("models", "ensemble", as_bool, cfg.ensemble),
        learning_curves=get("models", "learning_curves", as_bool, cfg.learning_curves),
        learning_curve_sizes=get(
            "models", "learning_curve_sizes",
            lambda s: tuple(float(x) for x in _split_list(s)), cfg.learning_curve_sizes),
        out_dir=get("output", "dir", str.strip, cfg.out_dir),
        formats=get("output", "formats", _split_list, cfg.formats),
    )
    return cfg


def apply_overrides(cfg: PipelineConfig, args) -> PipelineConfig:
    """CLI flags beat config-file keys."""
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "version", None) is not None:
        updates["version"] = args.version
    if getattr(args, "samples", None) is not None:
        updates["samples"] = args.samples
    if getattr(args, "out", None) is not None:
        updates["out_dir"] = args.out
    if getattr(args, "format", None):
        updates["formats"] = tuple(args.format)
    return replace(cfg, **updates) if updates else cfg
