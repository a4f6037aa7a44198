import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enose.dataset import encode_class_names
from enose.errors import EmptyMatrix, MissingColumn
from enose.evaluate import FeaturePipeline
from enose.preprocess import DROPPED_AMBIENT, feature_target_correlation, fit_scaler, pearson_r
from tests.conftest import make_dataset

PANTRY_CLASSES = [
    "onion", "garlic", "ginger", "apple_juice", "cinnamon", "cardamom",
    "expired_apple_juice", "expired_onion", "expired_garlic", "expired_ginger",
]


def test_encode_pantry_classes_alphabetical():
    classes = encode_class_names(PANTRY_CLASSES)
    assert classes.index("apple_juice") == 0
    assert classes.index("cardamom") == 1
    assert classes.index("cinnamon") == 2
    assert classes.index("expired_apple_juice") == 3
    assert classes.index("onion") == 9
    assert classes[classes.index("ginger")] == "ginger"


def test_encode_lexicographic():
    assert encode_class_names(["onion", "garlic"]) == ("garlic", "onion")


def test_encode_dedup():
    assert encode_class_names(["a", "a", "b"]) == ("a", "b")


def test_scaler_column_values():
    sc = fit_scaler(np.array([[1.0], [2.0], [3.0]]))
    assert sc.means[0] == pytest.approx(2.0)
    assert sc.stds[0] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)
    z = sc.transform(np.array([[1.0], [2.0], [3.0]]))
    assert z[:, 0] == pytest.approx([-1.2247448713915890, 0.0, 1.2247448713915890], abs=1e-12)


def test_scaler_constant_column():
    sc = fit_scaler(np.array([[5.0], [5.0], [5.0]]))
    assert sc.stds[0] == 1.0
    assert sc.degenerate[0]
    assert (sc.transform(np.array([[5.0], [5.0]])) == 0.0).all()


def test_scaler_centers_fitting_matrix():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 5)) * 3 + 1
    sc = fit_scaler(X)
    Z = sc.transform(X)
    assert np.abs(Z.mean(axis=0)).max() < 1e-12


def test_scaler_idempotent_on_standardized():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(100, 4)) * 5 - 2
    Z = fit_scaler(X).transform(X)
    sc2 = fit_scaler(Z)
    assert np.abs(sc2.means).max() < 1e-9
    assert np.abs(sc2.stds - 1.0).max() < 1e-9


def test_scaler_transform_holds_only_its_output():
    X = np.random.default_rng(2).normal(size=(50_000, 7)) * 4 + 3
    sc = fit_scaler(X)
    tracemalloc.start()
    try:
        Z = sc.transform(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * Z.nbytes  # X - means and the quotient at once would be 2x
    assert Z.tobytes() == ((X - sc.means) / sc.stds).tobytes()


def test_scaler_transform_in_place_writes_its_input():
    X = np.random.default_rng(3).normal(size=(40, 5)) * 2 - 1
    sc = fit_scaler(X)
    expected = ((X - sc.means) / sc.stds).tobytes()
    assert sc.transform(X, copy=False) is X and X.tobytes() == expected


def test_scaler_empty():
    with pytest.raises(EmptyMatrix):
        fit_scaler(np.empty((0, 3)))


def test_correlation_self_and_anti():
    y = np.array([0, 1, 2, 0, 1, 2, 1, 0])
    X = np.column_stack([y.astype(float), -y.astype(float)])
    ds = make_dataset(X, y, names=("same", "neg"))
    ranking = dict(feature_target_correlation(ds))
    assert ranking["same"] == pytest.approx(1.0)
    assert ranking["neg"] == pytest.approx(-1.0)


def test_correlation_zero_variance_feature():
    y = np.array([0, 1, 0, 1])
    ds = make_dataset(np.full((4, 1), 3.0), y)
    assert feature_target_correlation(ds)[0][1] == 0.0


def test_correlation_tie_break_by_name():
    y = np.array([0, 1, 0, 1])
    X = np.column_stack([np.full(4, 1.0), np.full(4, 2.0)])
    ds = make_dataset(X, y, names=("zeta", "alpha"))
    assert [n for n, _ in feature_target_correlation(ds)] == ["alpha", "zeta"]


@given(st.floats(-10, 10).filter(lambda a: abs(a) > 1e-3), st.floats(-5, 5))
@settings(max_examples=50, deadline=None)
def test_correlation_scale_invariance(a, b):
    rng = np.random.default_rng(3)
    x = rng.normal(size=50)
    y = rng.integers(0, 4, size=50).astype(float)
    r = pearson_r(x, y)
    r_scaled = pearson_r(a * x + b, y)
    assert r_scaled == pytest.approx(math.copysign(1.0, a) * r, abs=1e-9)


def _nine_col_ds(n=30, seed=0):
    rng = np.random.default_rng(seed)
    names = ("co", "no2", "voc", "ethanol", "co2", "tvoc", "temperature", "humidity", "pressure")
    X = rng.normal(size=(n, 9))
    y = rng.integers(0, 3, size=n)
    return make_dataset(X, y, n_classes=3, names=names)


# feature versions V1-V4, applied by FeaturePipeline (fit and transform on one set)


def _apply_version(version, ds):
    return FeaturePipeline(version).fit(ds).transform(ds)


def test_apply_version_v1_identity():
    ds = _nine_col_ds()
    out = _apply_version("V1", ds)
    assert out.feature_names == ds.feature_names
    assert np.array_equal(out.features, fit_scaler(ds.features).transform(ds.features))


def test_apply_version_v2_drops_ambient():
    ds = _nine_col_ds()
    out = _apply_version("V2", ds)
    assert out.d == 7
    assert "temperature" not in out.feature_names
    assert "pressure" not in out.feature_names
    assert out.n == ds.n
    assert np.array_equal(out.labels, ds.labels)


def test_apply_version_v3_pca_scores():
    out = _apply_version("V3", _nine_col_ds(60))
    assert out.d == 7
    assert out.feature_names == tuple(f"pc{i}" for i in range(1, 8))


def test_apply_version_v4_rank_bound():
    ds = _nine_col_ds(90, seed=5)
    out = _apply_version("V4", ds)
    assert 1 <= out.d <= ds.n_classes - 1


def test_apply_version_missing_column():
    ds = make_dataset(np.zeros((4, 2)), [0, 0, 1, 1], names=("a", "b"))
    with pytest.raises(MissingColumn):
        _apply_version("V2", ds)


@pytest.mark.parametrize("version", ["V1", "V2", "V3", "V4"])
def test_pipeline_transform_is_bitwise_the_two_step_oracle(version):
    # the projection, then X - means and /= stds as two steps, then the reducer;
    # the caller's rows are read-only, so a write into them raises
    ds = _nine_col_ds(90, seed=5)
    before = ds.features.tobytes()
    ds.features.flags.writeable = False
    pipe = FeaturePipeline(version).fit(ds)
    out = pipe.transform(ds)
    keep = [j for j, name in enumerate(ds.feature_names)
            if version == "V1" or name not in DROPPED_AMBIENT]
    Z = ds.features[:, keep] - pipe.scaler.means
    Z /= pipe.scaler.stds
    if pipe.reducer is not None:
        Z = pipe.reducer.transform(Z)
    assert out.features.tobytes() == Z.tobytes()
    assert ds.features.tobytes() == before


def test_pipeline_transform_holds_only_its_output():
    ds = _nine_col_ds(50_000, seed=6)
    pipe = FeaturePipeline("V2").fit(ds)
    tracemalloc.start()
    try:
        out = pipe.transform(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * out.features.nbytes  # the projected copy and X - means would be 2x
