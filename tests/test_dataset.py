import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enose import dataset
from enose.dataset import (
    FoldPlan,
    RunTable,
    distinct,
    load_glob,
    load_manifest,
    load_run_file,
    merge_runs,
    parse_run_csv,
    stratified_kfold,
    stratified_split,
)
from enose.errors import (
    BadK,
    ClassTooSmall,
    EmptyInput,
    EmptyRun,
    ENoseError,
    InvalidFraction,
    MalformedCell,
    RaggedRow,
    SchemaMismatch,
    TooFewPerClass,
)

def row_loop_parse(text, label=None):
    """The original cell-by-cell parser: the oracle for ``parse_run_csv``."""
    lines = [ln for ln in text.replace("\r\n", "\n").split("\n") if ln.strip() != ""]
    if not lines:
        raise EmptyRun("no header line")
    header = [h.strip() for h in lines[0].split(",")]
    if len(lines) == 1:
        raise EmptyRun("header only, no data rows")

    label_col = header.index("target") if "target" in header else None
    feature_cols = [i for i in range(len(header)) if i != label_col]

    n = len(lines) - 1
    rows = np.empty((n, len(feature_cols)), dtype=np.float64)
    file_label = None
    for r, line in enumerate(lines[1:], start=1):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(header):
            raise RaggedRow(row=r, expected=len(header), got=len(cells))
        if label_col is not None:
            cell = cells[label_col]
            if file_label is None:
                file_label = cell
            elif cell != file_label:
                raise SchemaMismatch(f"target column is not constant: {file_label!r} vs {cell!r} at row {r}")
        for j, ci in enumerate(feature_cols):
            token = cells[ci]
            try:
                value = float(token)
            except ValueError:
                raise MalformedCell(row=r, col=ci + 1, token=token) from None
            if not math.isfinite(value):
                raise MalformedCell(row=r, col=ci + 1, token=token)
            rows[r - 1, j] = value

    if file_label is not None and label is not None and file_label != label:
        raise SchemaMismatch(f"in-file target {file_label!r} disagrees with supplied label {label!r}")
    final_label = label if label is not None else file_label
    if final_label is None:
        raise EmptyInput("no label supplied and no target column present")
    return RunTable(tuple(header[i] for i in feature_cols), rows, final_label)


def _outcome(parse, text, label):
    try:
        rt = parse(text, label)
    except ENoseError as exc:
        return type(exc), str(exc)
    return rt.rows.shape, rt.rows.tobytes(), rt.feature_names, rt.label


_PADS = ["", " ", "\t", "\x0b", "\x1c", "\u00a0", "\u2003"]
# cells that ``float`` reads after ``str.strip``: numpy's C reader refuses the
# underscore and the Arabic-Indic digits, which the parser then reads token by token
_CELLS = ["1", "-2.5", "0", "-0", "3e2", "1.", ".5", "1_0", "\u0661\u0662", "\xa01", " 1.5",
          "\x1c1", "+1", "1e-400"]
_BAD_CELLS = ["nan", "inf", "-inf", "1e999", "", "x", "onion", "1 2", "\r", "-nan", "1e400",
              "infinity"]


def _rare(strategy, one_in: int):
    """``strategy`` drawn about once in ``one_in`` draws, None otherwise."""
    return st.integers(0, one_in - 1).flatmap(lambda i: strategy if i == 0 else st.none())


@st.composite
def headers(draw):
    """1 to 4 feature names, and a ``target`` column in half the headers."""
    names = [f"c{i}" for i in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        names.insert(draw(st.integers(0, len(names))), "target")
    return names


@st.composite
def run_texts(draw, names=None):
    """Run-CSV text with padding, CRLF and blank lines (before the header too), and
    now and then a ragged row, a bad token or another target, so that about half
    the texts parse.

    ``names`` is the header (a ``target`` entry is the label column); drawn if None.
    """
    names = draw(headers()) if names is None else names
    width = len(names)
    valid = st.one_of(st.sampled_from(_CELLS),
                      st.floats(allow_nan=False, allow_infinity=False).map(repr))
    pad = st.sampled_from(_PADS)
    lines = [",".join(draw(pad) + name + draw(pad) for name in names)]
    for _ in range(draw(st.integers(0, 6))):
        n_cells = width + (draw(_rare(st.sampled_from([-1, 1]), 30)) or 0)
        cells = [draw(_rare(st.sampled_from(_BAD_CELLS), 60)) or draw(valid)
                 for _ in range(max(n_cells, 0))]
        if "target" in names and len(cells) == width:
            cells[names.index("target")] = draw(_rare(st.just("garlic"), 20)) or "onion"
        lines.append(",".join(draw(pad) + c + draw(pad) for c in cells))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t \t"])))
    return (draw(st.sampled_from(["", "", "\n", " \r\n\t\n"]))
            + draw(st.sampled_from(["\n", "\r\n"])).join(lines)
            + draw(st.sampled_from(["", "\n", "\r\n"])))


@given(run_texts(), st.sampled_from([None, None, "onion", "garlic"]), st.sampled_from([2, 3]))
@settings(max_examples=400, deadline=None)
def test_parse_matches_the_row_loop_oracle(text, label, chunk):
    # chunks of 2 or 3 rows, so most texts cross a chunk boundary
    with mock.patch.object(dataset, "PARSE_CHUNK_ROWS", chunk):
        assert _outcome(parse_run_csv, text, label) == _outcome(row_loop_parse, text, label)


def test_a_cell_only_float_reads_is_read_as_float_reads_it():
    # one "1_5" among 1,200 rows: numpy's reader refuses its chunk, which float reads
    rows = [[f"{r}.25", f"-{r}e-2", f"{r % 7}"] for r in range(1, 1201)]
    rows[700][1] = "1_5"
    text = "a,b,c\n" + "".join(",".join(row) + "\n" for row in rows)
    got = parse_run_csv(text, "onion").rows
    assert got.tobytes() == row_loop_parse(text, "onion").rows.tobytes()
    assert got[700, 1] == 15.0 and got[699, 1] == -7.0


def test_parse_in_chunks_keeps_every_row_in_place():
    text = "a,target,b\n" + "".join(f"{r}.5, onion ,-{r}e-3\n" for r in range(1, 12))
    whole = _outcome(parse_run_csv, text, None)
    with mock.patch.object(dataset, "PARSE_CHUNK_ROWS", 3):
        assert _outcome(parse_run_csv, text, None) == whole == _outcome(row_loop_parse, text, None)


@pytest.mark.parametrize("row", [3, 4, 6, 7])  # the last and first rows of 3-row chunks
@pytest.mark.parametrize("fault, kind", [
    (lambda cells: cells.__setitem__(2, "x"), MalformedCell),
    (lambda cells: cells.__setitem__(2, "inf"), MalformedCell),
    (lambda cells: cells.append("1"), RaggedRow),
    (lambda cells: cells.__setitem__(1, "garlic"), SchemaMismatch),
], ids=["bad-cell", "non-finite", "ragged", "target"])
def test_parse_fault_at_a_chunk_boundary(row, fault, kind):
    lines = ["a,target,b"]
    for r in range(1, 9):
        cells = [f"{r}.5", "onion", f"-{r}"]
        if r == row:
            fault(cells)
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    with mock.patch.object(dataset, "PARSE_CHUNK_ROWS", 3):
        with pytest.raises(kind) as exc:
            parse_run_csv(text)
        assert f"at row {row}" in str(exc.value) or getattr(exc.value, "row", None) == row
        assert _outcome(parse_run_csv, text, "onion") == _outcome(row_loop_parse, text, "onion")


def test_parse_error_order_within_and_across_rows():
    # ragged beats target beats cell within a row; the earliest row wins
    cases = [
        ("target,a\nonion,x\ngarlic,1,2\n", MalformedCell),
        ("target,a\nonion,1\ngarlic,x,2\n", RaggedRow),
        ("target,a\nonion,1\ngarlic,x\n", SchemaMismatch),
        ("a,b\n1,inf\nx,1\n", MalformedCell),
        ("a,b\n1,1_0\n1,x,3\n", RaggedRow),
    ]
    for text, kind in cases:
        with pytest.raises(kind):
            parse_run_csv(text)
        assert _outcome(parse_run_csv, text, "onion") == _outcome(row_loop_parse, text, "onion")
    with pytest.raises(MalformedCell) as exc:
        parse_run_csv("a,b,c\n1,x,inf\n", "onion")
    assert (exc.value.row, exc.value.col, exc.value.token) == (1, 2, "x")
    with pytest.raises(MalformedCell) as exc:
        parse_run_csv("a,b,c\n1,1e999,x\n", "onion")
    assert (exc.value.row, exc.value.col, exc.value.token) == (1, 2, "1e999")


HEADER = "co,no2,voc,ethanol,co2,tvoc,temperature,humidity,pressure"


def test_parse_basic():
    text = HEADER + "\n" + ",".join("1" for _ in range(9)) + "\n" + ",".join("2" for _ in range(9))
    rt = parse_run_csv(text, "onion")
    assert rt.rows.shape == (2, 9)
    assert rt.label == "onion"
    assert rt.feature_names == tuple(HEADER.split(","))


def test_parse_crlf_and_blank_lines():
    text = "a,b\r\n1,2\r\n\r\n3,4\r\n"
    rt = parse_run_csv(text, "x")
    assert rt.rows.shape == (2, 2)


def test_parse_header_only():
    with pytest.raises(EmptyRun):
        parse_run_csv(HEADER, "garlic")


def test_parse_malformed_cell():
    text = "a,b,c\n1,2,abc\n"
    with pytest.raises(MalformedCell) as exc:
        parse_run_csv(text, "x")
    assert exc.value.row == 1
    assert exc.value.col == 3


def test_parse_nonfinite_rejected():
    with pytest.raises(MalformedCell):
        parse_run_csv("a,b\n1,inf\n", "x")


def test_parse_ragged_row():
    with pytest.raises(RaggedRow):
        parse_run_csv("a,b\n1,2,3\n", "x")


def test_parse_target_column():
    rt = parse_run_csv("a,target,b\n1,onion,2\n3,onion,4\n")
    assert rt.label == "onion"
    assert rt.feature_names == ("a", "b")
    assert rt.rows.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_parse_target_column_disagreement():
    with pytest.raises(SchemaMismatch):
        parse_run_csv("a,target\n1,onion\n", "garlic")


def _run(n, label, d=3, start=0.0):
    return RunTable(tuple(f"f{i}" for i in range(d)),
                    np.arange(start, start + n * d).reshape(n, d).astype(float), label)


def test_merge_concatenation():
    ds = merge_runs([_run(2, "onion"), _run(3, "garlic")])
    assert ds.n == 5
    assert ds.n_classes == 2
    assert ds.classes == ("garlic", "onion")
    assert ds.labels.tolist() == [1, 1, 0, 0, 0]


def test_merge_full_corpus_scale():
    runs = [_run(10_000, f"class_{i}") for i in range(10)]
    ds = merge_runs(runs)
    assert ds.n == 100_000
    assert ds.n_classes == 10


def test_merge_schema_mismatch():
    a = _run(2, "x")
    b = RunTable(("f0", "f1", "zz"), np.zeros((2, 3)), "y")
    with pytest.raises(SchemaMismatch):
        merge_runs([a, b])


def test_merge_empty():
    with pytest.raises(EmptyInput):
        merge_runs([])


def test_merge_row_count_additivity():
    runs = [_run(i + 1, f"c{i}") for i in range(4)]
    assert merge_runs(runs).n == sum(r.rows.shape[0] for r in runs)


def test_split_balanced_counts(tiny_drifted):
    train, test = stratified_split(tiny_drifted, 0.2, 3)
    for c in range(10):
        assert (test.labels == c).sum() == 20
        assert (train.labels == c).sum() == 80


def test_split_rounding():
    from tests.conftest import make_dataset
    ds = make_dataset(np.arange(10)[:, None].astype(float), [0] * 5 + [1] * 5)
    train, test = stratified_split(ds, 0.2, 0)
    assert (test.labels == 0).sum() == 1
    assert (test.labels == 1).sum() == 1


def test_split_invalid_fraction(tiny_drifted):
    with pytest.raises(InvalidFraction):
        stratified_split(tiny_drifted, 1.0, 0)
    with pytest.raises(InvalidFraction):
        stratified_split(tiny_drifted, 0.0, 0)


def test_split_class_too_small():
    from tests.conftest import make_dataset
    ds = make_dataset([[1.0], [2.0]], [0, 1])
    with pytest.raises(ClassTooSmall):
        stratified_split(ds, 0.5, 0)


def test_split_determinism(tiny_drifted):
    a = stratified_split(tiny_drifted, 0.25, 42)
    b = stratified_split(tiny_drifted, 0.25, 42)
    assert np.array_equal(a[0].features, b[0].features)
    assert np.array_equal(a[1].labels, b[1].labels)
    c = stratified_split(tiny_drifted, 0.25, 43)
    assert not np.array_equal(a[1].features, c[1].features)


def test_split_partitions(tiny_drifted):
    train, test = stratified_split(tiny_drifted, 0.3, 5)
    assert train.n + test.n == tiny_drifted.n


def test_kfold_exact_divisibility():
    labels = np.repeat(np.arange(10), 10)
    plan = stratified_kfold(labels, 5, 0)
    for _, val in plan.folds:
        counts = np.bincount(labels[val], minlength=10)
        assert (counts == 2).all()


@given(st.lists(st.integers(0, 3), min_size=20, max_size=60), st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None)
def test_kfold_partition_property(raw_labels, seed):
    labels = np.asarray(raw_labels, dtype=np.int64)
    k = 2
    counts = np.bincount(labels)
    if (counts[counts > 0] < k).any():
        return
    plan = stratified_kfold(labels, k, seed)
    vals = np.concatenate([v for _, v in plan.folds])
    assert np.array_equal(np.sort(vals), np.arange(labels.shape[0]))
    for train, val in plan.folds:
        assert np.intersect1d(train, val).size == 0
        for c in np.unique(labels):
            n_c = (labels == c).sum()
            got = (labels[val] == c).sum()
            assert abs(got - n_c / k) <= 1


def test_kfold_balance_within_one():
    labels = np.repeat(np.arange(3), [7, 11, 5])
    plan = stratified_kfold(labels, 4, 9)
    for _, val in plan.folds:
        for c, n_c in enumerate([7, 11, 5]):
            assert abs((labels[val] == c).sum() - n_c / 4) <= 1


def test_kfold_errors():
    with pytest.raises(BadK):
        stratified_kfold(np.array([0, 0, 1, 1]), 1, 0)
    with pytest.raises(TooFewPerClass):
        stratified_kfold(np.array([0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3]), 5, 0)


def test_manifest_and_glob_roundtrip(tmp_path, tiny_drifted):
    from enose.synth import write_run_files
    manifest = write_run_files(tiny_drifted, str(tmp_path))
    via_manifest = load_manifest(manifest)
    via_glob = load_glob(str(tmp_path / "*__run0.csv"))
    assert via_manifest.n == tiny_drifted.n
    assert via_glob.classes == tiny_drifted.classes
    # per-class blocks survive the round trip
    assert np.allclose(np.sort(via_manifest.features[:, 0]), np.sort(tiny_drifted.features[:, 0]))


def _load_outcome(load, arg):
    try:
        ds = load(arg)
    except ENoseError as exc:
        return type(exc), str(exc)
    return (ds.features.shape, ds.features.tobytes(), ds.labels.tobytes(), ds.classes,
            ds.feature_names)


def load_oracle(runs, manifest=None):
    """Each ``(path, label)`` run read and parsed by the row-loop oracle in turn,
    then concatenated: the outcome ``load_manifest`` (errors of the merge named by
    ``manifest``) or ``load_glob`` (``manifest`` None) must give.  A header unlike
    the first file's is named by its file and the first."""
    tables = []
    for path, label in runs:
        try:
            text = dataset._read_text(path)
        except ENoseError as exc:
            return type(exc), str(exc)
        try:
            tables.append(row_loop_parse(text, label or dataset.label_from_filename(path)))
        except ENoseError as exc:
            return type(exc), f"{path}: {exc}"
    prefix = "" if manifest is None else f"{manifest}: "
    if not tables:
        return EmptyInput, prefix + "no run tables to merge"
    names = tables[0].feature_names
    for (path, _), t in zip(runs, tables):
        if t.feature_names != names:
            return SchemaMismatch, (f"{path}: header {t.feature_names} differs from "
                                    f"{runs[0][0]}'s {names}")
    classes = tuple(sorted({t.label for t in tables}))
    labels = np.concatenate([np.full(t.rows.shape[0], classes.index(t.label), dtype=np.int64)
                             for t in tables])
    features = np.concatenate([t.rows for t in tables])
    return features.shape, features.tobytes(), labels.tobytes(), classes, names


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_loads_match_parsing_each_file_then_concatenating(tmp_path_factory, data):
    # files of one header, and now and then one of another header, one that is
    # missing or one that is not UTF-8, so errors come from every file position
    folder = tmp_path_factory.mktemp("runs")
    names = data.draw(headers())
    runs = []
    for i in range(data.draw(st.integers(0, 4))):
        cls = data.draw(st.sampled_from(["onion", "garlic"]))
        path = folder / f"{cls}__run{i}.csv"
        kind = data.draw(_rare(st.sampled_from(["missing", "other header", "not UTF-8"]), 8))
        if kind == "not UTF-8":
            path.write_bytes(b"a,b\n1,\xff\n")
        elif kind != "missing":
            text = data.draw(run_texts(None if kind else names))
            path.write_text(text, encoding="utf-8")
        runs.append((str(path), data.draw(st.sampled_from([None, None, "onion", "garlic"]))))
    manifest = folder / "manifest.csv"
    manifest.write_text("".join(f"{path},{label or ''}\n" for path, label in runs))
    with mock.patch.object(dataset, "PARSE_CHUNK_ROWS", data.draw(st.sampled_from([2, 3]))):
        assert _load_outcome(load_manifest, str(manifest)) == load_oracle(runs, str(manifest))
        found = sorted(str(p) for p in folder.glob("*__run*.csv"))
        if found:
            assert (_load_outcome(load_glob, str(folder / "*__run*.csv"))
                    == load_oracle([(p, None) for p in found]))


def test_manifest_cells_may_be_quoted(tmp_path, tiny_drifted):
    from enose.synth import write_run_files
    manifest = write_run_files(tiny_drifted, str(tmp_path / "runs"))
    (tmp_path / "a,b").mkdir()
    first, second, *_ = sorted((tmp_path / "runs").glob("*__run0.csv"))
    first.rename(tmp_path / "a,b" / first.name)
    text = (f'"{tmp_path / "a,b" / first.name}",apple\n'
            f'{second.name}, "juice, fresh"\n')
    path = tmp_path / "runs" / "quoted.csv"
    path.write_text(text)
    ds = load_manifest(str(path))
    assert ds.classes == ("apple", "juice, fresh")
    assert ds.n == 2 * 100


def test_synth_manifest_quotes_only_awkward_class_names(tmp_path, tiny_drifted):
    from enose.synth import write_run_files
    manifest = write_run_files(tiny_drifted, str(tmp_path))
    with open(manifest, encoding="utf-8") as fh:
        text = fh.read()
    assert text == "".join(f"{c}__run0.csv,{c}\n" for c in tiny_drifted.classes)
    awkward = dataset.Dataset(tiny_drifted.feature_names, tiny_drifted.features,
                              tiny_drifted.labels, ("juice, fresh",) + tiny_drifted.classes[1:])
    manifest = write_run_files(awkward, str(tmp_path / "awkward"))
    assert load_manifest(manifest).classes == tuple(sorted(awkward.classes))


@pytest.mark.parametrize("line, message", [
    ("a__run0.csv,apple,extra", "line 3 has 3 cells, expected a run path and a class name"),
    ('"a__run0.csv,apple', "line 3 is not a CSV row (unexpected end of data)"),
])
def test_a_manifest_row_that_is_not_two_cells_names_the_line(tmp_path, line, message):
    path = tmp_path / "manifest.csv"
    path.write_text(f"# runs\n\n{line}\n")
    with pytest.raises(SchemaMismatch) as caught:
        load_manifest(str(path))
    assert str(caught.value) == f"{path}: {message}"


def test_manifest_rows_are_parsed_into_one_array(tmp_path):
    # 20 files of 2,000 rows: per-file arrays and their concatenated copy would
    # hold every row twice (2.2x the rows at the peak), more than the one file
    # being parsed adds
    from enose.synth import default_spec, generate, write_run_files
    manifest = write_run_files(generate(default_spec(2000, 4)), str(tmp_path))
    files = sorted(tmp_path.glob("*__run0.csv"))
    for i, path in enumerate(files):
        (tmp_path / f"copy{i}__run0.csv").write_text(path.read_text())
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.writelines(f"copy{i}__run0.csv,\n" for i in range(len(files)))
    tracemalloc.start()
    try:
        ds = load_manifest(manifest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.n == 40_000 and ds.n_classes == 20
    assert peak < 2 * ds.features.nbytes


def test_glob_no_match(tmp_path):
    with pytest.raises(EmptyInput):
        load_glob(str(tmp_path / "nothing*.csv"))


# arbitrary bytes, and byte strings built from the tokens a run file or manifest holds
_TOKENS = [b"a", b"b", b"target", b"onion", b"1", b"-2.5", b"1e308", b"nan", b",", b"\n", b"\r\n",
           b"#", b" ", b"\xff", b"\x00", b"\xc3", b"/", b"ok__run0.csv", b"bad__run0.csv"]
_BYTES = st.one_of(st.binary(max_size=200),
                   st.lists(st.sampled_from(_TOKENS), max_size=40).map(b"".join))


@given(_BYTES)
@settings(max_examples=150, deadline=None)
def test_arbitrary_run_file_and_manifest_raise_only_toolkit_errors(tmp_path_factory, raw):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "ok__run0.csv").write_text("a,b\n1,2\n3,4\n")
    bad = d / "bad__run0.csv"
    bad.write_bytes(raw)
    try:
        load_run_file(str(bad))
    except ENoseError as exc:
        assert str(bad) in str(exc)
    manifest = d / "manifest.csv"
    manifest.write_bytes(raw)
    try:
        load_manifest(str(manifest))
    except ENoseError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.lists(st.integers(-2**63, 2**63 - 1)).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.integers(-3, 3)).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.floats(width=64)).map(lambda v: np.array(v, dtype=np.float64)),
    st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, np.nan, np.inf])).map(
        lambda v: np.array(v, dtype=np.float64)),
))
def test_distinct_is_np_unique(values):
    got, want = distinct(values), np.unique(values)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
