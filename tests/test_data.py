import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentstitch import data
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
