import numpy as np
import pytest

from enose.dataset import load_manifest
from enose.errors import BadSpec
from enose.preprocess import feature_target_correlation
from enose.synth import (
    DEFAULT_CLASSES,
    GAS_CHANNELS,
    GAS_STD,
    default_spec,
    generate,
    write_run_files,
)


def test_shape_and_label_contract(tiny_drifted):
    ds = tiny_drifted
    assert ds.n == 100 * len(DEFAULT_CLASSES)
    assert ds.classes == tuple(sorted(DEFAULT_CLASSES))
    assert np.array_equal(np.bincount(ds.labels), np.full(len(DEFAULT_CLASSES), 100))
    assert ds.feature_names == (
        "co", "no2", "voc", "ethanol", "co2", "tvoc",
        "temperature", "humidity", "pressure",
    )
    assert np.isfinite(ds.features).all()


def test_generate_deterministic():
    a = generate(default_spec(50, 3))
    b = generate(default_spec(50, 3))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    c = generate(default_spec(50, 4))
    assert not np.array_equal(a.features, c.features)


def test_drift_correlation_ranking(tiny_drifted):
    rows = feature_target_correlation(tiny_drifted)
    assert rows[0][0] == "pressure"
    assert rows[-1][0] == "temperature"
    assert rows[0][1] > 0.9
    assert rows[-1][1] < -0.9


def test_no_drift_ambient_uncorrelated():
    ds = generate(default_spec(100, 0, drift_enabled=False))
    by_name = dict(feature_target_correlation(ds))
    assert abs(by_name["temperature"]) < 0.05
    assert abs(by_name["pressure"]) < 0.05


def test_class_conditional_means_converge():
    spec = default_spec(2000, 5)
    ds = generate(spec)
    col = {name: j for j, name in enumerate(ds.feature_names)}
    # sampled block order follows spec.classes; labels use the sorted table
    for block, name in enumerate(spec.classes):
        c = ds.classes.index(name)
        rows = ds.features[ds.labels == c]
        for j, ch in enumerate(GAS_CHANNELS):
            sample_mean = rows[:, col[ch]].mean()
            # 4 sigma / sqrt(n) tolerance on the Gaussian mean estimate
            tol = 4.0 * GAS_STD / np.sqrt(rows.shape[0])
            assert abs(sample_mean - spec.gas_means[block, j]) < tol


def test_expired_offset_on_marker_channels():
    spec = default_spec(1, 0)
    means = spec.gas_means
    classes = list(spec.classes)
    eth = GAS_CHANNELS.index("ethanol")
    tvoc = GAS_CHANNELS.index("tvoc")
    for fresh in ("garlic", "ginger", "onion"):
        f = means[classes.index(fresh)]
        e = means[classes.index(f"expired_{fresh}")]
        assert e[eth] - f[eth] == pytest.approx(4.0)
        assert e[tvoc] - f[tvoc] == pytest.approx(4.0)


def test_bad_specs():
    with pytest.raises(BadSpec):
        generate(default_spec(0, 0))


def test_write_run_files_round_trip(tmp_path):
    ds = generate(default_spec(8, 2))
    manifest = write_run_files(ds, str(tmp_path))
    back = load_manifest(manifest)
    assert back.classes == ds.classes
    assert back.feature_names == ds.feature_names
    # manifest ingest merges class-by-class; compare per-class row sets
    for c in range(ds.n_classes):
        a = ds.features[ds.labels == c]
        b = back.features[back.labels == c]
        assert a.shape == b.shape
        assert np.array_equal(np.sort(a, axis=0), np.sort(b, axis=0))


def test_write_run_files_byte_identical(tmp_path):
    ds = generate(default_spec(5, 7))
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_run_files(ds, str(d1))
    write_run_files(ds, str(d2))
    for p1 in sorted(d1.iterdir()):
        assert p1.read_bytes() == (d2 / p1.name).read_bytes()


def test_scales_to_full_corpus_size():
    ds = generate(default_spec(10_000, 0))
    assert ds.n == 100_000
    assert np.isfinite(ds.features).all()
