import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentstitch import data, linalg, mapfit, metrics
from latentstitch.errors import DataError


def small_latents(model_id="toy"):
    rng = np.random.default_rng(0)
    return data.LatentDataset(
        model_id=model_id,
        ids=[f"s{i}" for i in range(3)],
        X=rng.standard_normal((3, 4)).astype(np.float32),
    )


# --- LSF round trips ---------------------------------------------------------


def test_lsf_round_trip(tmp_path):
    ds = small_latents()
    path = tmp_path / "toy.lsf"
    data.write_latents(ds, path)
    back = data.read_latents(path)
    assert back.model_id == ds.model_id
    assert back.ids == ds.ids
    np.testing.assert_array_equal(back.X, ds.X)


def test_lsf_round_trip_at_scale(tmp_path):
    rng = np.random.default_rng(1)
    ds = data.LatentDataset(
        model_id="big",
        ids=[f"{i:06d}.jpg" for i in range(9000)],
        X=rng.standard_normal((9000, 512)).astype(np.float32),
    )
    first = tmp_path / "a.lsf"
    second = tmp_path / "b.lsf"
    data.write_latents(ds, first)
    data.write_latents(data.read_latents(first), second)
    checksum = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()
    assert checksum(first) == checksum(second)


def test_lsf_bad_magic(tmp_path):
    path = tmp_path / "toy.lsf"
    data.write_latents(small_latents(), path)
    raw = bytearray(path.read_bytes())
    raw[0] = ord(b"X")
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="bad magic b'XSF1'"):
        data.read_latents(path)


def test_lsf_unsupported_version(tmp_path):
    path = tmp_path / "toy.lsf"
    data.write_latents(small_latents(), path)
    raw = bytearray(path.read_bytes())
    raw[4] = 9  # little-endian u32 version field
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="LSF1 version 9 not supported"):
        data.read_latents(path)


def test_lsf_truncated(tmp_path):
    path = tmp_path / "toy.lsf"
    data.write_latents(small_latents(), path)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(DataError, match="expected 48 bytes, 43 left"):
        data.read_latents(path)


def test_lsf_non_finite(tmp_path):
    path = tmp_path / "toy.lsf"
    data.write_latents(small_latents(), path)
    raw = bytearray(path.read_bytes())
    nan = np.array([np.nan], dtype="<f4").tobytes()
    raw[-4:] = nan
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="latents for 'toy' contain NaN or Inf"):
        data.read_latents(path)


def pixel_rows(values):
    ids = [f"s{i}" for i in range(len(values))]
    return data.LatentDataset(model_id=data.PIXEL_MODEL_ID, ids=ids, X=values)


def test_image_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    img = pixel_rows(rng.random((2, 12), dtype=np.float32))
    path = tmp_path / "pix.lsf"
    data.write_images(img, path, (2, 2, 3))
    back = data.read_images(path)
    assert back.model_id == data.PIXEL_MODEL_ID
    assert back.ids == img.ids
    np.testing.assert_array_equal(back.X, img.X)
    # the (H, W, C) triple sits after the model id, then the ids follow
    raw = path.read_bytes()
    assert raw[24:30] == np.array([2, 2, 3], dtype="<u2").tobytes()
    # pixel files read back as flattened latents too
    flat = data.read_latents(path)
    assert flat.model_id == data.PIXEL_MODEL_ID
    assert flat.d == 12


@pytest.mark.parametrize("d, shape, value, match", [
    (12, (2, 2, 2), 0.5, "12 pixels per row do not flatten"),
    (12, (-1, -1, 12), 0.5, "does not fit u16"),
    (70001, (70001, 1, 1), 0.5, "does not fit u16"),
    (3, (3, 1, 1), 1.5, r"pixels must lie in \[0, 1\]"),
    (3, (3, 1, 1), -0.5, r"pixels must lie in \[0, 1\]"),
], ids=["product", "negative-side", "u16-overflow", "above-one", "below-zero"])
def test_write_images_refuses_a_file_read_images_would(tmp_path, d, shape, value, match):
    # checked before the file is opened, so nothing is left behind
    path = tmp_path / "pix.lsf"
    with pytest.raises(DataError, match=match):
        data.write_images(pixel_rows(np.full((2, d), value)), path, shape)
    assert not path.exists()


def test_write_latents_rejects_reserved_model_id(tmp_path):
    ds = small_latents(model_id=data.PIXEL_MODEL_ID)
    with pytest.raises(ValueError):
        data.write_latents(ds, tmp_path / "x.lsf")


def test_dataset_validation(tmp_path):
    with pytest.raises(DataError, match="sample ids must be unique"):
        data.LatentDataset(model_id="m", ids=["a", "a"], X=np.zeros((2, 2)))
    with pytest.raises(DataError, match="latents for 'm' contain NaN or Inf"):
        data.LatentDataset(model_id="m", ids=["a"], X=np.array([[np.inf, 0.0]]))
    with pytest.raises(DataError, match="1 ids but 2 latent rows"):
        data.LatentDataset(model_id="m", ids=["a"], X=np.zeros((2, 2)))
    with pytest.raises(DataError, match="attribute values must be exactly -1 or \\+1"):
        data.AttributeTable(names=["x"], ids=["a"], values=np.array([[0]]))
    # a pixel file is checked on read: its range, its triple, and that it is one
    cases = [
        ("pixels", np.full((1, 3), 1.5), (3, 1, 1), r"pixels must lie in \[0, 1\]"),
        ("pixels", np.full((1, 3), 0.5), (2, 2, 1), r"3 pixels per row do not flatten \(2, 2, 1\)"),
        ("m", np.full((1, 3), 0.5), None, r"not a pixel dataset \(model_id='m'\)"),
    ]
    for k, (model_id, values, shape, match) in enumerate(cases):
        path = tmp_path / f"case{k}.lsf"
        data._write_lsf(path, model_id, ["a"], values, image_shape=shape)
        with pytest.raises(DataError, match=match):
            data.read_images(path)


@pytest.mark.parametrize("reader", [data.read_latents, data.read_images])
@pytest.mark.parametrize("ids, value, message", [
    (["a", "a"], 0.5, "sample ids must be unique"),
    (["a", "b"], np.nan, "latents for 'pixels' contain NaN or Inf"),
], ids=["repeated-id", "nan"])
def test_lsf_read_error_starts_with_the_path(tmp_path, reader, ids, value, message):
    path = tmp_path / "bad.lsf"
    values = np.full((2, 3), 0.5)
    values[1, 2] = value
    data._write_lsf(path, data.PIXEL_MODEL_ID, ids, values, image_shape=(3, 1, 1))
    with pytest.raises(DataError) as raised:
        reader(path)
    assert str(raised.value) == f"{path}: {message}"


# --- a set read from disk: its rows read by index ---------------------------------


def _on_disk(tmp_path, X, model_id="m", name="set.lsf"):
    """Write X (float32) with 5-byte ids; return the set read back."""
    ids = [f"{i:05d}" for i in range(len(X))]
    data.write_latents(data.LatentDataset(model_id=model_id, ids=ids, X=X), tmp_path / name)
    return data.read_latents(tmp_path / name)


@pytest.mark.parametrize("n, d, model_id", [(1, 5, "m"), (7, 1, "odd"), (300, 9, "m"),
                                            (2100, 1024, "odd")],
                         ids=["n=1", "d=1", "small", "three-chunks-odd-offset"])
def test_file_rows_gathers_equal_the_array(tmp_path, n, d, model_id):
    rng = np.random.default_rng(n + d)
    X = rng.standard_normal((n, d), dtype=np.float32)
    rows = _on_disk(tmp_path, X, model_id).X
    assert rows.shape == X.shape and rows.dtype == X.dtype and len(rows) == n
    if model_id == "odd":
        assert rows.offset % 4  # the payload starts off a 4-byte boundary
    keys = [slice(None), slice(1, None, 2), slice(n // 3, n // 2), slice(None, None, -1),
            0, -1, np.arange(n), rng.permutation(n), rng.integers(0, n, 2 * n),
            np.array([n - 1, 0, n - 1]), np.array([], dtype=np.intp), [0]]
    for key in keys:
        got, want = rows[key], X[key]
        assert got.shape == want.shape and got.dtype == want.dtype, key
        assert got.tobytes() == want.tobytes(), key
        assert got.flags.c_contiguous and got.flags.aligned, key
    assert np.asarray(rows).tobytes() == X.tobytes()
    assert np.asarray(rows, dtype=np.float64).tobytes() == X.astype(np.float64).tobytes()


def test_file_rows_reads_one_run_per_consecutive_span(tmp_path, monkeypatch):
    X = np.arange(60, dtype=np.float32).reshape(20, 3)
    rows = _on_disk(tmp_path, X).X
    calls = []
    read_run = rows._read_run
    monkeypatch.setattr(rows, "_read_run", lambda buf, pos: calls.append(pos) or read_run(buf, pos))
    got = rows[[3, 4, 5, 9, 10, 2, 2, 0]]
    assert got.tobytes() == X[[3, 4, 5, 9, 10, 2, 2, 0]].tobytes()
    row_bytes = 3 * 4
    assert calls == [rows.offset + r * row_bytes for r in (3, 9, 2, 2, 0)]


def test_file_rows_truncated_after_reading_raises(tmp_path):
    X = np.random.default_rng(3).standard_normal((50, 8), dtype=np.float32)
    ds = _on_disk(tmp_path, X)
    os.truncate(tmp_path / "set.lsf", ds.X.offset + 30 * 8 * 4 + 5)
    assert ds.X[:30].tobytes() == X[:30].tobytes()  # rows still in the file
    for key in (slice(None), [29, 30], 49, slice(40, 45)):
        with pytest.raises(DataError, match=f"^{tmp_path / 'set.lsf'}: .* truncated"):
            ds.X[key]
    # the file as it now stands is refused on open
    with pytest.raises(DataError, match="expected 1600 bytes, 965 left"):
        data.read_latents(tmp_path / "set.lsf")


@pytest.mark.parametrize("damage, message", [
    ("nan-last-row", "latents for 'm' contain NaN or Inf"),
    ("inf-first-row", "latents for 'm' contain NaN or Inf"),
    ("truncated", r"expected \d+ bytes, \d+ left"),
    ("trailing", "3 bytes after the end of the record"),
])
def test_read_latents_checks_the_whole_payload(tmp_path, damage, message):
    # 1,100 x 1,024: the finiteness check reads the payload in two chunks
    X = np.random.default_rng(4).standard_normal((1100, 1024), dtype=np.float32)
    path = tmp_path / "set.lsf"
    offset = _on_disk(tmp_path, X).X.offset
    raw = bytearray(path.read_bytes())
    if damage == "nan-last-row":
        raw[-8:-4] = np.array([np.nan], dtype="<f4").tobytes()
    elif damage == "inf-first-row":
        raw[offset + 4:offset + 8] = np.array([-np.inf], dtype="<f4").tobytes()
    elif damage == "truncated":
        del raw[-4096:]
    else:
        raw += b"abc"
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match=f"^{path}: {message}"):
        data.read_latents(path)


@pytest.mark.parametrize("bad_row", [None, 0, -1], ids=["in-range", "first-block", "last-block"])
def test_write_images_round_trips_a_file_backed_set(tmp_path, bad_row):
    # 3,000 x 400 pixels: the range check reads them in two row blocks
    img = np.random.default_rng(5).random((3000, 400), dtype=np.float32)
    if bad_row is not None:
        img[bad_row, 7] = 1.25
    path = tmp_path / "pix.lsf"
    data._write_lsf(path, data.PIXEL_MODEL_ID, [f"{i:05d}" for i in range(3000)], img,
                    image_shape=(20, 20, 1))
    if bad_row is not None:
        with pytest.raises(DataError, match=rf"^{path}: pixels must lie in \[0, 1\]"):
            data.read_images(path)
        return
    back = data.read_images(path)
    assert isinstance(back.X, data.FileRows)
    data.write_images(back, tmp_path / "copy.lsf", (20, 20, 1))
    assert (tmp_path / "copy.lsf").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("damage", [None, "above-one", "nan"])
def test_read_images_reads_the_payload_once(tmp_path, monkeypatch, damage):
    # 3,000 x 400 pixels in six row blocks of linalg.BLOCK_ROWS: the
    # finiteness and range checks share one pass over them, so each row is
    # read once
    img = np.random.default_rng(7).random((3000, 400), dtype=np.float32)
    if damage is not None:
        img[-1, 3] = 1.5 if damage == "above-one" else np.nan
    path = tmp_path / "pix.lsf"
    data._write_lsf(path, data.PIXEL_MODEL_ID, [f"{i:05d}" for i in range(3000)], img,
                    image_shape=(20, 20, 1))
    rows_read = []
    read = data.FileRows._read
    monkeypatch.setattr(data.FileRows, "_read",
                        lambda self, idx: rows_read.append(len(idx)) or read(self, idx))
    if damage is not None:
        message = "pixels must lie in \\[0, 1\\]" if damage == "above-one" else "latents for"
        with pytest.raises(DataError, match=f"^{path}: {message}"):
            data.read_images(path)
        assert sum(rows_read) == 3000 and len(rows_read) == 6
        return
    back = data.read_images(path)
    assert sum(rows_read) == 3000 and len(rows_read) == 6
    assert back.value_range == (float(img.min()), float(img.max()))
    assert back.X[:].tobytes() == img.tobytes()


def test_read_images_reports_a_non_finite_value_before_its_shape_or_range(tmp_path):
    values = np.full((2, 3), 1.5)
    values[0, 0] = np.inf
    for k, shape in enumerate([(3, 1, 1), (2, 2, 1)]):  # range, then shape and range
        path = tmp_path / f"case{k}.lsf"
        data._write_lsf(path, data.PIXEL_MODEL_ID, ["a", "b"], values, image_shape=shape)
        with pytest.raises(DataError) as raised:
            data.read_images(path)
        assert str(raised.value) == f"{path}: latents for 'pixels' contain NaN or Inf"


def test_dual_fit_reads_a_file_once_per_pass(tmp_path, monkeypatch):
    # n = 70 <= d = 600 over three 256-column blocks: X's train rows are
    # gathered once for the dual Gram and once for P, Y's once, and never
    # once per block
    monkeypatch.setattr(linalg, "Y_BLOCK_BYTES", 1)
    rng = np.random.default_rng(6)
    X = rng.standard_normal((90, 600), dtype=np.float32)
    Y = rng.standard_normal((90, 530), dtype=np.float32)
    xs, ys = _on_disk(tmp_path, X, name="x.lsf").X, _on_disk(tmp_path, Y, name="y.lsf").X
    reads = []
    for name, rows in (("X", xs), ("Y", ys)):
        monkeypatch.setattr(rows, "_read", lambda idx, name=name, read=rows._read:
                            reads.append(name) or read(idx))
    ix, iy = rng.permutation(90)[:70], rng.permutation(90)[:70]
    got = mapfit.fit_ridge(xs, ys, 0.5, rows=(ix, iy))
    want = mapfit.fit_ridge(X, Y, 0.5, rows=(ix, iy))
    assert got.solver == want.solver == "eigh"
    assert got.W.tobytes() == want.W.tobytes() and got.b.tobytes() == want.b.tobytes()
    assert reads == ["X", "X", "Y"]


def test_cholesky_fit_reads_a_file_once_per_block_per_pass(tmp_path, monkeypatch):
    # n = 500 > d = 400 in four blocks of 128 rows, and Y's 300 columns are
    # wider than a 256-column panel: each block of X and of Y is read once on
    # each of the two passes, and never once per panel
    monkeypatch.setattr(linalg, "PANEL", 256)
    monkeypatch.setattr(linalg, "BLOCK_ROWS", 128)
    rng = np.random.default_rng(7)
    X = rng.standard_normal((540, 400), dtype=np.float32)
    Y = X[:, :300] + rng.standard_normal((540, 300), dtype=np.float32)
    xs, ys = _on_disk(tmp_path, X, name="x.lsf").X, _on_disk(tmp_path, Y, name="y.lsf").X
    reads = []
    for name, rows in (("X", xs), ("Y", ys)):
        monkeypatch.setattr(rows, "_read", lambda idx, name=name, read=rows._read:
                            reads.append(name) or read(idx))
    ix, iy = rng.permutation(540)[:500], rng.permutation(540)[:500]
    got = mapfit.fit_ridge(xs, ys, 0.5, rows=(ix, iy))
    want = mapfit.fit_ridge(X, Y, 0.5, rows=(ix, iy))
    assert got.solver == want.solver == "cholesky" and want.train_mse is not None
    assert got.W.tobytes() == want.W.tobytes() and got.b.tobytes() == want.b.tobytes()
    assert got.train_mse == want.train_mse
    assert reads == ["X"] * 4 + ["Y"] * 4 + ["X", "Y"] * 4


@pytest.mark.parametrize("n, d, alpha, solver", [
    (400, 30, 0.0, "cholesky"), (400, 30, 2.5, "cholesky"),
    (400, 30, 0.0, "lstsq"), (60, 300, 0.0, "eigh"), (60, 300, 4.0, "eigh"),
])
def test_fits_and_scores_read_from_disk_equal_those_in_memory(tmp_path, n, d, alpha, solver):
    rng = np.random.default_rng(n + d + int(alpha))
    X = rng.standard_normal((n + 40, d), dtype=np.float32)
    if solver == "lstsq":
        X[:, 1] = 0.0  # a constant column: the centered Gram is singular
    Y = (X[:, :20] @ rng.standard_normal((20, 24), dtype=np.float32)
         + 0.1 * rng.standard_normal((n + 40, 24), dtype=np.float32))
    xs, ys = _on_disk(tmp_path, X, name="x.lsf").X, _on_disk(tmp_path, Y, name="y.lsf").X
    ix, iy = rng.permutation(n + 40)[:n], rng.permutation(n + 40)[:n]
    want = mapfit.fit_ridge(X, Y, alpha, rows=(ix, iy))
    got = mapfit.fit_ridge(xs, ys, alpha, rows=(ix, iy))
    assert want.solver == got.solver == solver
    assert got.W.tobytes() == want.W.tobytes() and got.b.tobytes() == want.b.tobytes()
    hold = rng.permutation(n + 40)[:30], rng.permutation(n + 40)[:30]
    assert mapfit.mapped_mse(got, xs, ys, hold) == mapfit.mapped_mse(want, X, Y, hold)


@pytest.mark.parametrize("n, d", [(500, 40), (30, 50)], ids=["n>=d", "n<d"])
def test_summary_read_from_disk_equals_the_one_in_memory(tmp_path, n, d):
    X = np.random.default_rng(n).standard_normal((n, d), dtype=np.float32)
    got, want = metrics.summarize(_on_disk(tmp_path, X).X), metrics.summarize(X)
    assert got.mu.tobytes() == want.mu.tobytes()
    cov = "factor" if n < d else "sigma"
    assert getattr(got, cov).tobytes() == getattr(want, cov).tobytes()


def test_pixel_rmse_read_from_disk_equals_the_one_in_memory(tmp_path):
    # a reordered 95% export spanning three blocks, scored through align's rows
    rng = np.random.default_rng(9)
    a = rng.random((2200, 1024), dtype=np.float32)
    keep = rng.permutation(2200)[:2090]
    a_disk = _on_disk(tmp_path, a, name="a.lsf")
    b_mem = data.LatentDataset(model_id="b", ids=[a_disk.ids[i] for i in keep],
                               X=rng.random((2090, 1024), dtype=np.float32))
    data.write_latents(b_mem, tmp_path / "b.lsf")
    b_disk = data.read_latents(tmp_path / "b.lsf")
    a_mem = data.LatentDataset(model_id="m", ids=a_disk.ids, X=a_disk.X[:])
    want = metrics.pixel_rmse(b_mem, a_mem, rows=data.align(b_mem, a_mem))
    assert metrics.pixel_rmse(b_disk, a_disk, rows=data.align(b_disk, a_disk)) == want
    assert isinstance(a_mem.X, np.ndarray) and a_mem.X.tobytes() == a.tobytes()


# --- attribute table ----------------------------------------------------------


WELL_FORMED = """2
Smiling Male
000001.jpg -1 1
000002.jpg 1 1
"""


def test_parse_attribute_table():
    table = data.parse_attribute_table(WELL_FORMED)
    assert table.names == ["Smiling", "Male"]
    assert table.ids == ["000001.jpg", "000002.jpg"]
    np.testing.assert_array_equal(table.values, [[-1, 1], [1, 1]])


def test_parse_attribute_table_count_mismatch():
    bad = "3\nSmiling Male\n000001.jpg -1 1\n000002.jpg 1 1\n"
    with pytest.raises(DataError, match="declared 3 samples but found 2 rows"):
        data.parse_attribute_table(bad)


def test_parse_attribute_table_unknown_value():
    bad = "1\nSmiling Male\n000001.jpg 0 1\n"
    with pytest.raises(DataError, match="row 0: value '0' is not -1 or 1"):
        data.parse_attribute_table(bad)


def test_parse_attribute_table_ragged_row():
    bad = "1\nSmiling Male\n000001.jpg -1\n"
    with pytest.raises(DataError, match="row 0: expected id \\+ 2 values, got 2 fields"):
        data.parse_attribute_table(bad)


def test_attribute_table_text_round_trip():
    table = data.parse_attribute_table(WELL_FORMED)
    again = data.parse_attribute_table(data.format_attribute_table(table))
    assert again.names == table.names
    assert again.ids == table.ids
    np.testing.assert_array_equal(again.values, table.values)


# --- alignment / splits ---------------------------------------------------------


def test_align_identity():
    ds = small_latents()
    ia, ib = data.align(ds, ds)
    assert ia.dtype == ib.dtype == np.intp
    assert ia.tolist() == ib.tolist() == [0, 1, 2]


def test_align_permutation():
    ds = small_latents()
    perm = data.take(ds, [2, 0, 1])
    ia, ib = data.align(ds, perm)
    assert [perm.ids[i] for i in ib] == ds.ids
    np.testing.assert_array_equal(perm.X[ib], ds.X[ia])


def test_align_disjoint():
    ds = small_latents()
    other = data.LatentDataset(model_id="o", ids=["x", "y"], X=np.zeros((2, 4)))
    with pytest.raises(DataError, match="datasets share no sample ids"):
        data.align(ds, other)


@given(st.permutations(list(range(6))), st.integers(min_value=1, max_value=6))
@settings(max_examples=30, deadline=None)
def test_align_idempotent(perm, keep):
    rng = np.random.default_rng(0)
    a = data.LatentDataset(
        model_id="a", ids=[f"i{j}" for j in range(6)], X=rng.standard_normal((6, 2))
    )
    b = data.take(
        data.LatentDataset(model_id="b", ids=[f"i{j}" for j in perm], X=rng.standard_normal((6, 3))),
        list(range(keep)),
    )
    ia, ib = data.align(a, b)
    assert [a.ids[i] for i in ia] == [b.ids[i] for i in ib]
    # the aligned rows, taken as datasets, align to themselves row for row
    ja, jb = data.align(data.take(a, ia), data.take(b, ib))
    assert ja.tolist() == jb.tolist() == list(range(len(ia)))


def test_split_basic():
    ds = data.LatentDataset(model_id="m", ids=[f"i{j}" for j in range(10)], X=np.arange(20.0).reshape(10, 2))
    train, hold = data.split_ids(ds, data.SplitSpec(n_train=8, n_holdout=2))
    assert train == ds.ids[:8]
    assert hold == ds.ids[8:]


def test_split_default_sizes():
    ds = data.LatentDataset(
        model_id="m", ids=[f"i{j}" for j in range(9100)], X=np.zeros((9100, 1))
    )
    train, hold = data.split_ids(ds, data.SplitSpec())
    assert len(train) == 9000 and len(hold) == 100


def test_split_insufficient_rows():
    ds = small_latents()
    with pytest.raises(DataError, match=r"need 9000\+100 rows, dataset has 3"):
        data.split_ids(ds, data.SplitSpec(n_train=9000, n_holdout=100))


# --- random encoder ---------------------------------------------------------------


def test_random_encoder_deterministic_per_id():
    a = data.random_encoder(["x", "y"], d=8, seed=3)
    b = data.random_encoder(["y"], d=8, seed=3)
    np.testing.assert_array_equal(a.X[1], b.X[0])


def test_random_encoder_default_dimension():
    ds = data.random_encoder(["only"], seed=0)
    assert ds.d == 512


@given(st.permutations(["a", "b", "c", "d"]))
@settings(max_examples=10, deadline=None)
def test_random_encoder_permutation_invariant(perm):
    base = data.random_encoder(["a", "b", "c", "d"], d=4, seed=9)
    shuffled = data.random_encoder(perm, d=4, seed=9)
    lookup = dict(zip(shuffled.ids, shuffled.X))
    for sid, row in zip(base.ids, base.X):
        np.testing.assert_array_equal(lookup[sid], row)


def test_random_encoder_law_of_large_numbers():
    ds = data.random_encoder([f"i{j}" for j in range(10000)], d=16, seed=5)
    x = ds.X.astype(np.float64)
    assert np.abs(x.mean(axis=0)).max() <= 0.05
    assert np.abs(x.var(axis=0) - 1.0).max() <= 0.1


def test_rows_of_follows_the_given_ids_and_counts_missing():
    ds = small_latents()
    assert data.rows_of(ds, ["s2", "s0"]).tolist() == [2, 0]
    with pytest.raises(DataError, match="'toy' lacks 2 of 3 split ids"):
        data.rows_of(ds, ["s1", "x", "y"])


def test_split_ids_is_the_head_split_in_stored_order():
    ds = data.take(small_latents(), [2, 0, 1])
    assert data.split_ids(ds, data.SplitSpec(n_train=2, n_holdout=1)) == (["s2", "s0"], ["s1"])
    with pytest.raises(DataError, match=r"need 3\+1 rows, dataset has 3"):
        data.split_ids(ds, data.SplitSpec(n_train=3, n_holdout=1))
