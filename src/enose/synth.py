"""Calibrated synthetic gas-sensor dataset generator.

Gas channels are class-conditional Gaussians with separability margins large
enough for desk-scale accuracy targets.  Temperature and pressure follow a
session-wide ramp over the block-ordered recording session, so with drift
enabled they correlate with the encoded label even though they carry no
substance information — the ambient-drift pathology the diagnostics must
surface.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .dataset import CANONICAL_CHANNELS, Dataset
from .errors import BadSpec
from .rng import derive_rng

GAS_CHANNELS = ("co", "no2", "voc", "ethanol", "co2", "tvoc")

DEFAULT_CLASSES = (
    "apple_juice",
    "cardamom",
    "cinnamon",
    "expired_apple_juice",
    "expired_garlic",
    "expired_ginger",
    "expired_onion",
    "garlic",
    "ginger",
    "onion",
)


# session ramps of the ambient channels, (start, end); without drift they stay at the start
TEMPERATURE_RAMP = (27.0, 21.0)
PRESSURE_RAMP = (1008.0, 1019.0)
AMBIENT_JITTER = 0.25  # std of the temperature and pressure noise
HUMIDITY_BASE = 45.0
GAS_STD = 1.0  # every gas channel's std, the unit of the class means


@dataclass(frozen=True)
class SynthSpec:
    classes: tuple[str, ...]
    gas_means: np.ndarray   # C x n_gas
    samples_per_class: int
    drift: bool
    seed: int


def _default_gas_means() -> np.ndarray:
    """Class-conditional means in sigma units.

    Each substance activates two gas channels at amplitude 10 (>= 5 sigma
    apart between distinct substances on at least two channels); expired
    variants add 4 sigma on ethanol and tvoc (>= 3 sigma on two channels
    between any fresh/expired pair).
    """
    substances = {"apple_juice": 0, "cardamom": 1, "cinnamon": 2, "garlic": 3, "ginger": 4, "onion": 5}
    n_gas = len(GAS_CHANNELS)
    ethanol = GAS_CHANNELS.index("ethanol")
    tvoc = GAS_CHANNELS.index("tvoc")
    means = np.zeros((len(DEFAULT_CLASSES), n_gas))
    for i, name in enumerate(DEFAULT_CLASSES):
        base = name.removeprefix("expired_")
        s = substances[base]
        means[i, s] += 10.0
        means[i, (s + 1) % n_gas] += 10.0
        if name.startswith("expired_"):
            means[i, ethanol] += 4.0
            means[i, tvoc] += 4.0
    return means


def default_spec(samples_per_class: int = 10_000, seed: int = 0,
                 drift_enabled: bool = True) -> SynthSpec:
    return SynthSpec(DEFAULT_CLASSES, _default_gas_means(), samples_per_class, drift_enabled,
                     seed)


def generate(spec: SynthSpec) -> Dataset:
    """Deterministically draw a blocked-session dataset from the spec."""
    if spec.samples_per_class < 1:
        raise BadSpec("samples_per_class must be >= 1")

    C = len(spec.classes)
    m = spec.samples_per_class
    n = C * m
    col = {name: j for j, name in enumerate(CANONICAL_CHANNELS)}
    X = np.zeros((n, len(CANONICAL_CHANNELS)))

    session = np.linspace(0.0, 1.0, n)
    t0, t1 = TEMPERATURE_RAMP
    p0, p1 = PRESSURE_RAMP
    if spec.drift:
        temperature = t0 + (t1 - t0) * session
        pressure = p0 + (p1 - p0) * session
    else:
        temperature = np.full(n, t0)
        pressure = np.full(n, p0)

    sorted_classes = tuple(sorted(set(spec.classes)))
    labels = np.zeros(n, dtype=np.int64)
    for block, name in enumerate(spec.classes):
        rows = slice(block * m, (block + 1) * m)
        labels[rows] = sorted_classes.index(name)
        rng = derive_rng(spec.seed, "gas", block)
        gas = spec.gas_means[block] + GAS_STD * rng.standard_normal((m, len(GAS_CHANNELS)))
        for j, ch in enumerate(GAS_CHANNELS):
            X[rows, col[ch]] = gas[:, j]

    ambient_rng = derive_rng(spec.seed, "ambient")
    X[:, col["temperature"]] = temperature + AMBIENT_JITTER * ambient_rng.standard_normal(n)
    X[:, col["pressure"]] = pressure + AMBIENT_JITTER * ambient_rng.standard_normal(n)
    X[:, col["humidity"]] = HUMIDITY_BASE + 2.0 * ambient_rng.standard_normal(n)

    return Dataset(CANONICAL_CHANNELS, X, labels, sorted_classes)


RUN_ID = "run0"  # the run part of each written file name, <class>__run0.csv
WRITE_CHUNK_ROWS = 512  # rows whose Python floats exist at once while writing a run file


def write_run_files(ds: Dataset, out_dir: str) -> str:
    """Emit per-class CSV run files plus a manifest; returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    header = ",".join(ds.feature_names)
    manifest_rows = []
    for c, name in enumerate(ds.classes):
        rows = ds.features[ds.labels == c]
        fname = f"{name}__{RUN_ID}.csv"
        path = os.path.join(out_dir, fname)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            for start in range(0, len(rows), WRITE_CHUNK_ROWS):  # Python floats, each as its repr
                fh.writelines(",".join(map(repr, row)) + "\n"
                              for row in rows[start:start + WRITE_CHUNK_ROWS].tolist())
        manifest_rows.append((fname, name))
    manifest_path = os.path.join(out_dir, "manifest.csv")
    with open(manifest_path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(manifest_rows)
    return manifest_path
