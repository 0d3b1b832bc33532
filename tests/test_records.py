"""The shared binary-record reader: header sizes checked against the file
before any allocation, empty arrays rejected, long strings refused."""

import struct

import numpy as np
import pytest

from latentstitch import cli, data, mapfit, probes
from latentstitch.errors import DataError, TruncatedFile

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


# --- header sizes larger than the file ------------------------------------------


def test_lmap_huge_header_is_truncated_not_memory_error(tmp_path):
    path = tmp_path / "huge.lmap"
    path.write_bytes(lmap_bytes(U32_MAX, U32_MAX, b"\0" * 64))
    with pytest.raises(TruncatedFile):
        mapfit.load_map(path)


def test_lprb_huge_header_is_truncated_not_memory_error(tmp_path):
    path = tmp_path / "huge.lprb"
    path.write_bytes(lprb_bytes(U32_MAX, b"\0" * 64))
    with pytest.raises(TruncatedFile):
        probes.load_probe(path)


def test_lsf_huge_header_is_truncated_not_memory_error(tmp_path):
    path = tmp_path / "huge.lsf"
    path.write_bytes(lsf_bytes(1, U32_MAX, b"\0" * 64))
    with pytest.raises(TruncatedFile):
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


def test_split_returns_views():
    ds = data.LatentDataset(model_id="m", ids=[f"i{j}" for j in range(10)],
                            X=np.arange(20.0).reshape(10, 2))
    train, hold = data.split(ds, data.SplitSpec(n_train=6, n_holdout=3))
    assert np.shares_memory(train.X, ds.X) and np.shares_memory(hold.X, ds.X)
    np.testing.assert_array_equal(hold.X, ds.X[6:9])


def test_loaded_arrays_are_aligned(tmp_path):
    # an odd-length model id puts the payload at an odd file offset
    ds = data.LatentDataset(model_id="odd", ids=["a", "bb", "ccc"],
                            X=np.arange(12.0).reshape(3, 4))
    data.write_latents(ds, tmp_path / "odd.lsf")
    assert data.read_latents(tmp_path / "odd.lsf").X.flags.aligned
    m = mapfit.LinearMap(source_model="odd", target_model="b", W=np.eye(2), b=np.zeros(2))
    mapfit.save_map(m, tmp_path / "odd.lmap")
    back = mapfit.load_map(tmp_path / "odd.lmap")
    assert back.W.flags.aligned and back.b.flags.aligned
