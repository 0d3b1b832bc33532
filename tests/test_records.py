"""The shared binary-record reader: header sizes checked against the file
before any allocation, empty arrays rejected, long strings refused, invalid
UTF-8 a data error; and the exit-code contract of commands reading LSF files."""

import dataclasses
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentstitch import cli, data, mapfit, probes
from latentstitch.errors import DataError

U32_MAX = 0xFFFFFFFF


def _str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def lsf_bytes(n: int, d: int, tail: bytes = b"") -> bytes:
    ids = b"".join(_str(f"s{i}") for i in range(min(n, 4)))
    return data.LSF_MAGIC + struct.pack("<III", 1, n, d) + _str("m") + ids + tail


def lmap_bytes(d_in: int, d_out: int, tail: bytes = b"") -> bytes:
    return (mapfit.LMAP_MAGIC + struct.pack("<I", 1) + _str("a") + _str("b")
            + struct.pack("<dII", 0.0, d_in, d_out) + tail)


def lprb_bytes(d: int, tail: bytes = b"") -> bytes:
    return (probes.LPRB_MAGIC + struct.pack("<I", 1) + _str("attr") + _str("m")
            + struct.pack("<ddI", 0.1, 0.5, d) + struct.pack("<d", 0.0) + tail)


# --- writers -----------------------------------------------------------------------


def test_writers_emit_the_documented_layout(tmp_path):
    rng = np.random.default_rng(30)
    ids = [f"s{i}" for i in range(5)]
    id_bytes = b"".join(_str(sid) for sid in ids)
    x = rng.standard_normal((5, 3))  # float64 in memory, float32 on disk
    data.write_latents(data.LatentDataset(model_id="m", ids=ids, X=x), tmp_path / "m.lsf")
    assert (tmp_path / "m.lsf").read_bytes() == (
        data.LSF_MAGIC + struct.pack("<III", 1, 5, 3) + _str("m") + id_bytes
        + x.astype("<f4").tobytes())
    pixels = rng.uniform(size=(5, 12)).astype(np.float32)
    data.write_images(data.LatentDataset(model_id="pixels", ids=ids, X=pixels),
                      tmp_path / "p.lsf", (2, 2, 3))
    assert (tmp_path / "p.lsf").read_bytes() == (
        data.LSF_MAGIC + struct.pack("<III", 1, 5, 12) + _str("pixels")
        + struct.pack("<HHH", 2, 2, 3) + id_bytes + pixels.astype("<f4").tobytes())
    w, b = rng.standard_normal((4, 3)), rng.standard_normal(4)
    mapfit.save_map(mapfit.LinearMap("a", "b", W=w, b=b, alpha=2.5), tmp_path / "a.lmap")
    assert (tmp_path / "a.lmap").read_bytes() == (
        mapfit.LMAP_MAGIC + struct.pack("<I", 1) + _str("a") + _str("b")
        + struct.pack("<dII", 2.5, 3, 4) + b.astype("<f8").tobytes() + w.astype("<f8").tobytes())
    pw = rng.standard_normal(6)
    probes.save_probe(probes.Probe("attr", "m", w=pw, b=0.25, alpha=0.1, threshold=0.4),
                      tmp_path / "p.lprb")
    assert (tmp_path / "p.lprb").read_bytes() == (
        probes.LPRB_MAGIC + struct.pack("<I", 1) + _str("attr") + _str("m")
        + struct.pack("<ddI", 0.1, 0.4, 6) + struct.pack("<d", 0.25) + pw.astype("<f8").tobytes())


def test_save_map_writes_w_without_a_copy(tmp_path):
    d = 1024
    rng = np.random.default_rng(31)
    m = mapfit.LinearMap("a", "b", W=rng.standard_normal((d, d)), b=rng.standard_normal(d))
    tracemalloc.start()
    try:
        mapfit.save_map(m, tmp_path / "a.lmap")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # W is 8 MB
    loaded = mapfit.load_map(tmp_path / "a.lmap")
    assert loaded.W.tobytes() == m.W.tobytes() and loaded.b.tobytes() == m.b.tobytes()


# --- header sizes larger than the file ------------------------------------------


def test_lmap_huge_header_is_truncated_not_memory_error(tmp_path):
    path = tmp_path / "huge.lmap"
    path.write_bytes(lmap_bytes(U32_MAX, U32_MAX, b"\0" * 64))
    with pytest.raises(DataError, match=r"expected \d+ bytes, \d+ left"):
        mapfit.load_map(path)


def test_lprb_huge_header_is_truncated_not_memory_error(tmp_path):
    path = tmp_path / "huge.lprb"
    path.write_bytes(lprb_bytes(U32_MAX, b"\0" * 64))
    with pytest.raises(DataError, match=r"expected \d+ bytes, \d+ left"):
        probes.load_probe(path)


def test_lsf_huge_header_is_truncated_not_memory_error(tmp_path):
    path = tmp_path / "huge.lsf"
    path.write_bytes(lsf_bytes(1, U32_MAX, b"\0" * 64))
    with pytest.raises(DataError, match=r"expected \d+ bytes, \d+ left"):
        data.read_latents(path)


def test_cli_fid_on_huge_lsf_exits_data_error(tmp_path, capsys):
    path = tmp_path / "huge.lsf"
    path.write_bytes(lsf_bytes(1, U32_MAX, b"\0" * 64))
    assert cli.main(["fid", str(path), str(path)]) == 2
    assert "data error" in capsys.readouterr().err


# --- zero sizes ---------------------------------------------------------------------


def test_lsf_with_no_rows_is_rejected(tmp_path):
    path = tmp_path / "empty.lsf"
    path.write_bytes(lsf_bytes(0, U32_MAX))
    with pytest.raises(DataError):
        data.read_latents(path)


def test_lmap_with_zero_input_dim_is_rejected(tmp_path):
    path = tmp_path / "zero.lmap"
    path.write_bytes(lmap_bytes(0, 2, np.zeros(2, dtype="<f8").tobytes()))
    with pytest.raises(DataError):
        mapfit.load_map(path)


def test_lprb_with_zero_dim_is_rejected(tmp_path):
    path = tmp_path / "zero.lprb"
    path.write_bytes(lprb_bytes(0))
    with pytest.raises(DataError):
        probes.load_probe(path)


# --- writers ------------------------------------------------------------------------


def test_lmap_and_lprb_writers_refuse_overlong_strings(tmp_path):
    name = "x" * 0x10000
    m = mapfit.LinearMap(source_model=name, target_model="b", W=np.eye(2), b=np.zeros(2))
    with pytest.raises(ValueError):
        mapfit.save_map(m, tmp_path / "long.lmap")
    probe = probes.Probe(attribute=name, model_id="m", w=np.ones(2), b=0.0, alpha=0.1)
    with pytest.raises(ValueError):
        probes.save_probe(probe, tmp_path / "long.lprb")


def test_loaded_arrays_are_aligned(tmp_path):
    # an odd-length model id puts the payload at an odd file offset
    ds = data.LatentDataset(model_id="odd", ids=["a", "bb", "ccc"],
                            X=np.arange(12.0).reshape(3, 4))
    data.write_latents(ds, tmp_path / "odd.lsf")
    rows = data.read_latents(tmp_path / "odd.lsf").X
    assert all(a.flags.aligned for a in (rows[:], rows[[2, 0]], rows[1:], rows[1]))
    m = mapfit.LinearMap(source_model="odd", target_model="b", W=np.eye(2), b=np.zeros(2))
    mapfit.save_map(m, tmp_path / "odd.lmap")
    back = mapfit.load_map(tmp_path / "odd.lmap")
    assert back.W.flags.aligned and back.b.flags.aligned


# --- bytes after the last field ---------------------------------------------------

IMAGES = data.LatentDataset(model_id=data.PIXEL_MODEL_ID, ids=["a", "b"], X=np.full((2, 12), 0.5))
#: record -> (writer, loader, value)
WHOLE_RECORDS = {
    "lsf": (data.write_latents, data.read_latents, data.LatentDataset(
        model_id="m", ids=["a", "b"], X=np.ones((2, 3)))),
    "pixel-lsf": (lambda ds, path: data.write_images(ds, path, (2, 2, 3)), data.read_images,
                  IMAGES),
    "lmap": (mapfit.save_map, mapfit.load_map, mapfit.LinearMap(
        source_model="a", target_model="b", W=np.eye(2), b=np.zeros(2))),
    "lprb": (probes.save_probe, probes.load_probe, probes.Probe(
        attribute="attr", model_id="m", w=np.ones(3), b=0.5, alpha=0.1)),
}


@pytest.mark.parametrize("record", sorted(WHOLE_RECORDS))
@pytest.mark.parametrize("tail", [b"\0", b"garbage", b"\0" * 8])
def test_bytes_after_the_record_are_a_data_error(tmp_path, record, tail):
    save, load, value = WHOLE_RECORDS[record]
    path = tmp_path / f"one.{record}"
    save(value, path)
    load(path)
    path.write_bytes(path.read_bytes() + tail)
    with pytest.raises(DataError, match=f"{len(tail)} bytes after the end of the record"):
        load(path)


def test_concatenated_lmap_files_are_a_data_error(tmp_path):
    save, load, value = WHOLE_RECORDS["lmap"]
    save(value, tmp_path / "a.lmap")
    save(dataclasses.replace(value, source_model="c", W=2 * np.eye(2)), tmp_path / "b.lmap")
    path = tmp_path / "both.lmap"
    path.write_bytes((tmp_path / "a.lmap").read_bytes() + (tmp_path / "b.lmap").read_bytes())
    with pytest.raises(DataError):
        load(path)


def test_cli_on_lsf_with_bytes_appended_exits_data_error(tmp_path, capsys):
    path = tmp_path / "tail.lsf"
    data.write_latents(TINY, path)
    assert cli.main(["fid", str(path), str(path)]) == 0
    path.write_bytes(path.read_bytes() + b"garbage")
    assert cli.main(["fid", str(path), str(path)]) == 2
    assert "bytes after the end of the record" in capsys.readouterr().err


# --- invalid UTF-8 ------------------------------------------------------------------

BAD_UTF8 = struct.pack("<H", 2) + b"\xc3\x28"


@pytest.mark.parametrize("load, head", [
    (data.read_latents, data.LSF_MAGIC + struct.pack("<III", 1, 1, 1)),
    (mapfit.load_map, mapfit.LMAP_MAGIC + struct.pack("<I", 1)),
    (probes.load_probe, probes.LPRB_MAGIC + struct.pack("<I", 1)),
], ids=["lsf", "lmap", "lprb"])
def test_invalid_utf8_string_is_a_data_error(tmp_path, load, head):
    path = tmp_path / "bad.bin"
    path.write_bytes(head + BAD_UTF8 + b"\0" * 64)
    with pytest.raises(DataError, match="UTF-8"):
        load(path)


# --- the exit-code contract under mutated LSF bytes ---------------------------------

TINY = data.LatentDataset(model_id="m", ids=[f"s{i}" for i in range(6)],
                          X=np.arange(24, dtype=np.float32).reshape(6, 4) / 24)
MUTATION = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 16), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 16)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=16)),
    st.tuples(st.just("nan"), st.integers(0, TINY.X.size - 1)),
)


def _mutate(raw: bytes, mutations) -> bytes:
    out = bytearray(raw)
    payload = len(raw) - TINY.X.nbytes
    for kind, *arg in mutations:
        if kind == "flip" and out:
            out[arg[0] % len(out)] ^= arg[1]
        elif kind == "truncate":
            del out[arg[0] % (len(out) + 1):]
        elif kind == "extend":
            out += arg[0]
        elif kind == "nan" and payload + 4 * arg[0] + 4 <= len(out):
            out[payload + 4 * arg[0]:payload + 4 * arg[0] + 4] = struct.pack("<f", np.nan)
    return bytes(out)


@pytest.fixture(scope="module")
def tiny_lsf(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "tiny.lsf"
    data.write_latents(TINY, path)
    return path


@given(st.lists(MUTATION, min_size=1, max_size=3))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_mutated_lsf_ends_in_a_documented_exit_code(tiny_lsf, mutations):
    mutated = tiny_lsf.with_name("mutated.lsf")
    mutated.write_bytes(_mutate(tiny_lsf.read_bytes(), mutations))
    for command in ("fid", "rmse"):
        assert cli.main([command, str(mutated), str(tiny_lsf)]) in (0, 1, 2, 3)


# --- LMAP and LPRB headers, and the loaders under mutated bytes ---------------------

MAP = mapfit.LinearMap(source_model="a", target_model="b", W=np.arange(6.0).reshape(2, 3),
                       b=np.ones(2), alpha=2.5)
PROBE = probes.Probe(attribute="attr", model_id="m", w=np.arange(3.0), b=0.5, alpha=0.1)
#: record -> (writer, loader, value, byte offsets of its float64 header fields:
#: the LMAP alpha; the LPRB alpha and threshold)
RECORDS = {
    "lmap": (mapfit.save_map, mapfit.load_map, MAP, (4 + 4 + 3 + 3,)),
    "lprb": (probes.save_probe, probes.load_probe, PROBE, (4 + 4 + 6 + 3, 4 + 4 + 6 + 3 + 8)),
}


def _with_field(raw: bytes, at: int, value: float) -> bytes:
    return raw[:at] + struct.pack("<d", value) + raw[at + 8:]


@pytest.mark.parametrize("record, field, value", [
    ("lmap", 0, -1.0), ("lmap", 0, math.nan), ("lmap", 0, math.inf),
    ("lprb", 0, -1e-300), ("lprb", 0, math.nan), ("lprb", 0, math.inf),
    ("lprb", 1, math.nan), ("lprb", 1, -math.inf),
])
def test_bad_header_alpha_or_threshold_is_a_data_error(tmp_path, record, field, value):
    save, load, value_ok, fields = RECORDS[record]
    path = tmp_path / f"good.{record}"
    save(value_ok, path)
    assert load(path).alpha == value_ok.alpha
    path.write_bytes(_with_field(path.read_bytes(), fields[field], value))
    with pytest.raises(DataError):
        load(path)


HEADER_MUTATION = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 16), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 16)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=16)),
    st.tuples(st.just("field"), st.integers(0, 1),
              st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0, 3.0])),
)


@pytest.fixture(scope="module")
def record_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("records")


@pytest.mark.parametrize("record", ["lmap", "lprb"])
@given(st.lists(HEADER_MUTATION, min_size=1, max_size=3))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_mutated_lmap_and_lprb_raise_only_data_errors(record_dir, record, mutations):
    save, load, value, fields = RECORDS[record]
    path = record_dir / f"mutated.{record}"
    save(value, path)
    raw = path.read_bytes()
    for kind, *arg in mutations:
        if kind != "field":
            raw = _mutate(raw, [(kind, *arg)])
        elif fields[arg[0] % len(fields)] + 8 <= len(raw):
            raw = _with_field(raw, fields[arg[0] % len(fields)], arg[1])
    path.write_bytes(raw)
    try:
        loaded = load(path)
    except DataError:
        return
    assert math.isfinite(loaded.alpha) and loaded.alpha >= 0
