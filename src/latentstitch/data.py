"""Dataset containers and ingestion.

Covers the record reader shared by the LSF, LMAP and LPRB binary formats,
the LSF format, CelebA-style attribute tables, alignment by row index, the
head split, and the id-seeded random-encoder baseline. A pixel file is an
LSF file of flattened images: it reads as a LatentDataset with model_id
'pixels' once its (H, W, C) triple and [0, 1] range are checked.

Every set read from disk stays on disk. `read_latents` checks an LSF file's
header, ids, payload size and finiteness in row chunks, and its dataset's X
is a FileRows: each gather (``X[rows]``, ``X[a:b]``) reads just those whole
rows from the file into a fresh array. The block kernels
(linalg.centered_products, the map fit and its scores, metrics.summarize,
and the block scores through `take`) read a set block by block, each block's
rows once per pass. Only probe-suite and dynamics, whose probes revisit
scattered rows, `take` a set's split rows into memory: one set at a time,
while its own probes train. probe-suite then keeps just its holdout rows,
and its stitched fits read the train rows from the files.

Datasets are immutable, and rows are selected by index arrays: `align(a, b)`
gives the rows (ia, ib) of the ids both share, `rows_of` the rows of given
ids. The only positional operation is the head split: a run takes it once,
as ids (`split_ids`). `take` copies chosen rows where a dataset is needed.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import BinaryIO, Sequence, Union

import numpy as np

from .errors import DataError
from .linalg import row_blocks

LSF_MAGIC = b"LSF1"
LSF_VERSION = 1

#: model_id reserved for flattened pixel tensors inside LSF files.
PIXEL_MODEL_ID = "pixels"

def _check_ids(ids: Sequence[str]) -> list[str]:
    out = [str(i) for i in ids]
    if len(set(out)) != len(out):
        raise DataError("sample ids must be unique")
    return out


def _value_range(X) -> tuple[float, float] | None:
    """(min, max) of X's values, an array's or a FileRows', read once in
    linalg.row_blocks, or None for no rows. A NaN anywhere makes both NaN,
    and an infinity is the min or max, so the range is finite exactly when
    every value is."""
    ranges = [(block.min(), block.max()) for block in (X[blk] for blk in row_blocks(len(X)))]
    if not ranges:
        return None
    lows, highs = zip(*ranges)
    return float(np.min(lows)), float(np.max(highs))


class _RowIndexed:
    @cached_property
    def row_index(self) -> dict[str, int]:
        """Row position of every sample id, built on first use."""
        return {sid: i for i, sid in enumerate(self.ids)}


class FileRows:
    """The n x d float32 rows of an LSF payload, read from the file by index.

    ``X[rows]`` and ``X[a:b]`` take any NumPy row index (an index array in
    any order and with repeats, a slice or an int) and read just those whole
    rows into a fresh, aligned float32 array equal to the array's own
    gather, one seek and read per run of consecutive rows. There are no
    column keys: a kernel that wants some columns reads whole rows once and
    slices them. ``X[:]`` is the whole array, as is np.asarray(X).

    The rows keep the file open, on a descriptor of their own closed with the
    object, so a file renamed over or removed after the check is still the
    one read. A read that comes up short, as on a file truncated since it was
    checked, raises DataError; bytes rewritten in place are read as they now
    are, unchecked.
    """

    ndim = 2
    dtype = np.dtype("<f4")

    def __init__(self, f: BinaryIO, path, offset: int, n: int, d: int) -> None:
        self.path, self.offset, self.shape = path, offset, (n, d)
        self._file = open(os.dup(f.fileno()), "rb", buffering=0)
        weakref.finalize(self, self._file.close)

    def __len__(self) -> int:
        return self.shape[0]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self[:] if dtype is None else self[:].astype(dtype, copy=False)

    def __getitem__(self, rows) -> np.ndarray:
        idx = np.arange(self.shape[0])[rows]
        return self._read(idx.reshape(1))[0] if idx.ndim == 0 else self._read(idx)

    def _read(self, idx: np.ndarray) -> np.ndarray:
        """Rows idx (in range) of the payload: one seek and read per run of
        consecutive rows, the runs found by NumPy."""
        row_bytes = self.shape[1] * 4
        out = np.empty((len(idx), self.shape[1]), dtype=self.dtype)
        if not len(idx):
            return out
        bounds = [0, *(np.flatnonzero(np.diff(idx) != 1) + 1).tolist(), len(idx)]
        view = memoryview(out).cast("B")
        for s, e in zip(bounds[:-1], bounds[1:]):
            self._read_run(view[s * row_bytes:e * row_bytes],
                           self.offset + int(idx[s]) * row_bytes)
        return out

    def _read_run(self, buf: memoryview, pos: int) -> None:
        """Fill buf from the file's bytes at pos on."""
        self._file.seek(pos)
        while buf:
            got = self._file.readinto(buf)
            if not got:
                raise DataError(f"{self.path}: {len(buf)} bytes of rows missing; the file "
                                f"was truncated after it was read")
            buf = buf[got:]


@dataclass
class LatentDataset(_RowIndexed):
    """Per-sample latent vectors for one model.

    Values are stored as float32 (source-model native precision), in memory
    or, for a set read from an LSF file, as its FileRows; solvers upcast to
    float64 internally. Either way every value is checked finite, in one
    pass over linalg.row_blocks, which also keeps the values' (min, max) as
    ``value_range`` (None for no rows).
    """

    model_id: str
    ids: list[str]
    X: np.ndarray | FileRows
    value_range: tuple[float, float] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.ids = _check_ids(self.ids)
        if not isinstance(self.X, FileRows):
            self.X = np.ascontiguousarray(self.X, dtype=np.float32)
        if self.X.ndim != 2 or self.X.shape[1] < 1:
            raise DataError(f"latents must be a non-degenerate 2-D array, got {self.X.shape}")
        if self.X.shape[0] != len(self.ids):
            raise DataError(f"{len(self.ids)} ids but {self.X.shape[0]} latent rows")
        self.value_range = _value_range(self.X)
        if self.value_range is not None and not all(map(math.isfinite, self.value_range)):
            raise DataError(f"latents for {self.model_id!r} contain NaN or Inf")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass
class AttributeTable(_RowIndexed):
    """Per-sample binary attribute annotations, values in {-1, +1}."""

    names: list[str]
    ids: list[str]
    values: np.ndarray

    def __post_init__(self) -> None:
        self.names = [str(n) for n in self.names]
        if len(set(self.names)) != len(self.names):
            raise DataError("attribute names must be unique")
        self.ids = _check_ids(self.ids)
        self.values = np.ascontiguousarray(self.values, dtype=np.int8)
        if self.values.shape != (len(self.ids), len(self.names)):
            raise DataError(
                f"values shape {self.values.shape} does not match "
                f"{len(self.ids)} ids x {len(self.names)} attributes"
            )
        if not np.all(np.abs(self.values) == 1):
            raise DataError("attribute values must be exactly -1 or +1")

    @property
    def n(self) -> int:
        return len(self.ids)

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.names.index(name)
        except ValueError:
            raise DataError(f"no attribute named {name!r}") from None
        return self.values[:, j]


@dataclass
class SplitSpec:
    """Head split: first n_train rows for fitting, next n_holdout for eval."""

    n_train: int = 9000
    n_holdout: int = 100

    def __post_init__(self) -> None:
        if self.n_train < 1 or self.n_holdout < 1:
            raise DataError("split sizes must be >= 1")


Dataset = Union[LatentDataset, AttributeTable]


# --- binary records (LSF, LMAP, LPRB) ---------------------------------------


def write_str(f: BinaryIO, s: str) -> None:
    """Write a u16-length-prefixed UTF-8 string."""
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ValueError(f"string too long for u16 length prefix: {len(raw)} bytes")
    f.write(struct.pack("<H", len(raw)))
    f.write(raw)


class RecordReader:
    """Sequential reader of one little-endian binary record file.

    Construction checks the magic and the u32 version that follow it. Every
    read is checked against the bytes left in the file before anything is
    allocated, so a header that declares more payload than the file holds
    raises DataError rather than attempting the allocation. No format
    stores an empty array, so a zero size in a header is rejected too, and
    `end` rejects bytes after the last field.
    """

    def __init__(self, f: BinaryIO, path, magic: bytes, version: int) -> None:
        self.f = f
        self.path = path
        self.left = os.fstat(f.fileno()).st_size - f.tell()
        found = self.read(len(magic))
        if found != magic:
            raise DataError(f"{path}: bad magic {found!r}")
        (found,) = self.unpack("<I")
        if found != version:
            raise DataError(f"{path}: {magic.decode()} version {found} not supported")

    def _claim(self, size: int) -> int:
        if size > self.left:
            raise DataError(f"{self.path}: expected {size} bytes, {self.left} left")
        self.left -= size
        return size

    def read(self, size: int) -> bytes:
        return self.f.read(self._claim(size))

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.read(struct.calcsize(fmt)))

    def string(self) -> str:
        (length,) = struct.unpack("<H", self.read(2))
        try:
            return self.read(length).decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{self.path}: string is not valid UTF-8") from None

    def end(self) -> None:
        """Raise DataError unless the record ended at the end of the file."""
        if self.left:
            raise DataError(f"{self.path}: {self.left} bytes after the end of the record")

    def _size(self, dtype: str, shape: tuple[int, ...]) -> int:
        if 0 in shape:
            raise DataError(f"{self.path}: header declares an empty {shape} array")
        return math.prod(shape) * np.dtype(dtype).itemsize

    def array(self, dtype: str, *shape: int) -> np.ndarray:
        """A fresh buffer per array keeps the values aligned for BLAS."""
        raw = self.read(self._size(dtype, shape))
        return np.frombuffer(raw, dtype=dtype).reshape(shape)

    def skip(self, dtype: str, *shape: int) -> int:
        """Step past an array without reading it, with array's checks; its
        file offset."""
        start = self.f.tell()
        self.f.seek(self._claim(self._size(dtype, shape)), os.SEEK_CUR)
        return start


def _write_lsf(
    path,
    model_id: str,
    ids: Sequence[str],
    values: np.ndarray,
    image_shape: tuple[int, int, int] | None = None,
) -> None:
    values = np.ascontiguousarray(values, dtype="<f4")
    n, d = values.shape
    with open(path, "wb") as f:
        f.write(LSF_MAGIC)
        f.write(struct.pack("<III", LSF_VERSION, n, d))
        write_str(f, model_id)
        if image_shape is not None:  # only pixel files carry the triple
            f.write(struct.pack("<HHH", *image_shape))
        for sid in ids:
            write_str(f, sid)
        values.tofile(f)


def _read_lsf(path):
    """The dataset an LSF file holds, its X the payload's FileRows, and its
    (H, W, C) triple, None unless it is a pixel file. The header, ids, exact
    payload size and finiteness of every value are checked here, so a bad
    file fails before any command writes; every data error names the file."""
    with open(path, "rb") as f:
        r = RecordReader(f, path, LSF_MAGIC, LSF_VERSION)
        n, d = r.unpack("<II")
        model_id = r.string()
        image_shape = r.unpack("<HHH") if model_id == PIXEL_MODEL_ID else None
        ids = [r.string() for _ in range(n)]
        values = FileRows(f, path, r.skip("<f4", n, d), n, d)
        r.end()
    try:
        ds = LatentDataset(model_id=model_id, ids=ids, X=values)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    return ds, image_shape


def write_latents(ds: LatentDataset, path) -> None:
    if ds.model_id == PIXEL_MODEL_ID:
        raise ValueError("model_id 'pixels' is reserved for image files; use write_images")
    _write_lsf(path, ds.model_id, ds.ids, ds.X)


def read_latents(path) -> LatentDataset:
    """Read any LSF file as a latent dataset (pixel files come back
    flattened), checked whole. Its X is the file's FileRows, read by rows;
    a caller that revisits scattered rows gathers them once with `take`."""
    return _read_lsf(path)[0]


def check_pixels(values, shape: tuple[int, int, int], path,
                 value_range: tuple[float, float] | None = None) -> None:
    """Raise a DataError unless values (n x d, an array or a FileRows) are
    [0, 1] pixel rows flattening H x W x C images with u16 sides. Their
    (min, max) is ``value_range`` when given (a LatentDataset's), else it is
    read in row blocks. Pixel LSF files pass this on read and on write."""
    if math.prod(shape) != values.shape[1]:
        raise DataError(f"{path}: {values.shape[1]} pixels per row do not flatten {shape}")
    if not all(0 < side <= 0xFFFF for side in shape):
        raise DataError(f"{path}: image shape {shape} does not fit u16 (H, W, C) fields")
    value_range = value_range or _value_range(values)
    if value_range is not None and (value_range[0] < 0.0 or value_range[1] > 1.0):
        raise DataError(f"{path}: pixels must lie in [0, 1]")


def write_images(ds: LatentDataset, path, shape: tuple[int, int, int]) -> None:
    """Write pixel rows as a pixel LSF file with the given (H, W, C) triple;
    the rows are checked before the file is opened."""
    check_pixels(ds.X, shape, path, ds.value_range)
    _write_lsf(path, PIXEL_MODEL_ID, ds.ids, ds.X, image_shape=shape)


def read_images(path) -> LatentDataset:
    """Read a pixel LSF file as `read_latents` does, model_id 'pixels'; its
    (H, W, C) triple is checked against the rows, then dropped. The payload
    is read once: the range check takes the (min, max) that the dataset's
    finiteness pass kept, so a non-finite value is reported first."""
    ds, image_shape = _read_lsf(path)
    if image_shape is None:
        raise DataError(f"{path}: not a pixel dataset (model_id={ds.model_id!r})")
    check_pixels(ds.X, image_shape, path, ds.value_range)
    return ds


# --- CelebA-style attribute text ------------------------------------------


def parse_attribute_table(text: str) -> AttributeTable:
    """Parse the CelebA list-attr layout.

    Line 1 is the sample count, line 2 the attribute names, then one row per
    sample: id followed by one -1/1 value per attribute.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DataError("empty attribute text")
    try:
        declared = int(lines[0].strip())
    except ValueError:
        raise DataError(f"first line must be the sample count, got {lines[0]!r}") from None
    if len(lines) < 2:
        raise DataError("missing attribute-name line")
    names = lines[1].split()
    rows = lines[2:]
    if len(rows) != declared:
        raise DataError(f"declared {declared} samples but found {len(rows)} rows")
    k = len(names)
    ids: list[str] = []
    values = np.empty((declared, k), dtype=np.int8)
    for r, line in enumerate(rows):
        parts = line.split()
        if len(parts) != k + 1:
            raise DataError(f"row {r}: expected id + {k} values, got {len(parts)} fields")
        ids.append(parts[0])
        for c, tok in enumerate(parts[1:]):
            if tok == "1":
                values[r, c] = 1
            elif tok == "-1":
                values[r, c] = -1
            else:
                raise DataError(f"row {r}: value {tok!r} is not -1 or 1")
    return AttributeTable(names=names, ids=ids, values=values)


def format_attribute_table(table: AttributeTable) -> str:
    lines = [str(table.n), " ".join(table.names)]
    for sid, row in zip(table.ids, table.values):
        lines.append(sid + " " + " ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def read_attribute_table(path) -> AttributeTable:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise DataError(f"{path}: attribute table is not valid UTF-8") from None
    return parse_attribute_table(text)


def write_attribute_table(table: AttributeTable, path) -> None:
    Path(path).write_text(format_attribute_table(table), encoding="utf-8")


# --- alignment and splits --------------------------------------------------


def take(ds: LatentDataset, indices) -> LatentDataset:
    """The dataset over the given rows, copied in index order."""
    rows = np.asarray(indices, dtype=np.intp)
    return LatentDataset(model_id=ds.model_id, ids=[ds.ids[i] for i in rows], X=ds.X[rows])


def align(a: Dataset, b: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Row-align two datasets on their shared ids, ordered by a's id order:
    the row index arrays (ia, ib) such that a's row ia[k] and b's row ib[k]
    hold the same sample. No row is copied."""
    ia = [i for i, sid in enumerate(a.ids) if sid in b.row_index]
    if not ia:
        raise DataError("datasets share no sample ids")
    ib = [b.row_index[a.ids[i]] for i in ia]
    return np.asarray(ia, dtype=np.intp), np.asarray(ib, dtype=np.intp)


def rows_of(ds: LatentDataset, ids: Sequence[str]) -> np.ndarray:
    """Row positions of the given ids in ds, in the given order; raises
    DataError naming how many of them ds lacks."""
    rows = np.fromiter((ds.row_index.get(sid, -1) for sid in ids), dtype=np.intp, count=len(ids))
    if (rows < 0).any():
        raise DataError(f"{ds.model_id!r} lacks {np.sum(rows < 0)} of {len(ids)} split ids")
    return rows


def split_ids(ds: LatentDataset, spec: SplitSpec) -> tuple[list[str], list[str]]:
    """A run's (train ids, holdout ids): the head split of ds in stored order."""
    n_train, n_hold = spec.n_train, spec.n_holdout
    if n_train + n_hold > ds.n:
        raise DataError(f"need {n_train}+{n_hold} rows, dataset has {ds.n}")
    return ds.ids[:n_train], ds.ids[n_train:n_train + n_hold]


# --- random-encoder baseline ------------------------------------------------


def stable_id_hash(sample_id: str) -> int:
    """Process-independent 64-bit hash of a sample id."""
    digest = hashlib.blake2b(sample_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def per_id_rng(seed: int, sample_id: str) -> np.random.Generator:
    """Generator whose stream depends only on (seed, sample_id)."""
    return np.random.default_rng([seed, stable_id_hash(sample_id)])


def random_encoder(
    ids: Sequence[str], d: int = 512, seed: int = 0, model_id: str = "random"
) -> LatentDataset:
    """Map each id to a deterministic standard-Gaussian vector.

    The vector depends only on (id, seed), never on the position of the id
    in the list, so permuting or subsetting the ids cannot change any
    sample's encoding.
    """
    ids = _check_ids(ids)
    out = np.empty((len(ids), d), dtype=np.float32)
    for row, sid in enumerate(ids):
        out[row] = per_id_rng(seed, sid).standard_normal(d)
    return LatentDataset(model_id=model_id, ids=ids, X=out)
