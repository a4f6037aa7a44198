"""Pipeline configuration: INI-style file with CLI flag overrides."""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, fields, replace

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
        for key in ("manifest", "glob"):
            if getattr(self, key) is not None and self.source != key:
                raise ConfigError(f"the '{key}' key is read only with source={key}, "
                                  f"got source={self.source}")
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


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(x) for x in _split_list(raw))


BOOLEANS = configparser.ConfigParser.BOOLEAN_STATES  # 1/yes/true/on and 0/no/false/off


def _bool(raw: str) -> bool:
    if raw.lower() not in BOOLEANS:
        raise ValueError(f"expected one of {', '.join(BOOLEANS)}")
    return BOOLEANS[raw.lower()]


# the schema: KEYS[section][key] = (PipelineConfig field, converter of the raw value);
# [output] workers is a stale key that old configs still carry, accepted and ignored
KEYS = {
    "data": {"source": ("source", str), "manifest": ("manifest", str), "glob": ("glob", str),
             "samples": ("samples", int), "drift": ("drift", _bool)},
    "pipeline": {"version": ("version", str), "test_fraction": ("test_fraction", float),
                 "seed": ("seed", int), "folds": ("folds", int)},
    "models": {"families": ("families", _split_list), "grid": ("grid", str),
               "ann_variants": ("ann_variants", _split_list), "ann_epochs": ("ann_epochs", int),
               "ensemble": ("ensemble", _bool), "learning_curves": ("learning_curves", _bool),
               "learning_curve_sizes": ("learning_curve_sizes", _floats)},
    "output": {"dir": ("out_dir", str), "formats": ("formats", _split_list),
               "workers": (None, str)},
}


# whitespace then ";" or "#" inside a value: configparser would keep the comment as part
# of the value, and in a path key nothing else would notice
INLINE_COMMENT = re.compile(r"\s[;#]")


def load_config(path: str | None) -> PipelineConfig:
    """The config file's keys over the defaults; an unknown section or key is an error."""
    if path is None:
        return PipelineConfig()
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    # values are literal (a "%" is no interpolation), and [DEFAULT] is a section like any
    # other, so it is rejected as unknown; no header can name the section ""
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    values = {}
    for section in parser.sections():
        if section not in KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]; expected "
                              f"{', '.join(f'[{s}]' for s in KEYS)}")
        for key, raw in parser.items(section):
            if key not in KEYS[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]; expected "
                                  f"one of {', '.join(KEYS[section])}")
            field, conv = KEYS[section][key]
            if INLINE_COMMENT.search(raw):
                raise ConfigError(f"{path}: bad value for [{section}] {key}: {raw!r} (an "
                                  f"inline comment; comments go on their own lines)")
            try:
                value = conv(raw)
            except ValueError as exc:
                raise ConfigError(f"{path}: bad value for [{section}] {key}: {raw!r} "
                                  f"({exc})") from exc
            if field is not None:
                values[field] = value
    return PipelineConfig(**values)


def apply_overrides(cfg: PipelineConfig, args) -> PipelineConfig:
    """CLI flags beat config-file keys; each flag's ``dest`` is the field it sets."""
    updates = {f.name: getattr(args, f.name) for f in fields(cfg)
               if getattr(args, f.name, None) is not None}
    if "formats" in updates:  # --format is repeatable: argparse gives a list
        updates["formats"] = tuple(updates["formats"])
    return replace(cfg, **updates)
