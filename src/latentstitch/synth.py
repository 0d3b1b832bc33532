"""Synthetic generative-model harness over a known linear factor world.

A FactorWorld draws standard-Gaussian factors, derives binary attributes
from their signs (so the Bayes-optimal probe is linear), and mixes factors
into pixel vectors through an orthonormal map followed by an affine squash
into [0, 1]. Four encoder kinds cover the regimes of interest:

- orthogonal: an exact rotation of pixel space (losslessly stitchable)
- lossy:      a rank-r pixel projection (information provably destroyed)
- random:     id-seeded Gaussian vectors carrying no pixel information
- noising:    forward-diffusion corruption sqrt(ab_t) x + sqrt(1 - ab_t) eps,
              ab_t = alpha_bar(t) on the fixed NOISING_SCHEDULE table

Every encoder/decoder is a pure function of (spec, seed), so end-to-end
pipeline runs have known ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .data import (
    PIXEL_MODEL_ID,
    AttributeTable,
    LatentDataset,
    check_pixels,
    per_id_rng,
    random_encoder,
    write_attribute_table,
    write_images,
    write_latents,
)
from .errors import ConfigError, DataError

KINDS = ("orthogonal", "lossy", "random", "noising")

# Sub-stream tags so one world seed cannot collide across purposes.
_FACTOR_STREAM = 11
_MIXING_STREAM = 12
_ROTATION_STREAM = 13
_LOSSY_STREAM = 14


#: The linear-beta forward process every noising encoder and decoder uses:
#: total_steps betas from beta_start to beta_end, of which t in [0, steps_used]
#: noising steps stand for t * total_steps / steps_used.
NOISING_SCHEDULE = {"total_steps": 1000, "steps_used": 50, "beta_start": 1e-4, "beta_end": 0.02}


def alpha_bar(t: int) -> float:
    """The kept signal fraction after t of NOISING_SCHEDULE's steps_used
    noising steps, with alpha_bar(0) = 1; DataError for t outside
    [0, steps_used]."""
    steps, total = NOISING_SCHEDULE["steps_used"], NOISING_SCHEDULE["total_steps"]
    if not 0 <= t <= steps:
        raise DataError(f"t must be in [0, {steps}], got {t}")
    if t == 0:
        return 1.0
    tau = round(t * total / steps)
    betas = np.linspace(NOISING_SCHEDULE["beta_start"], NOISING_SCHEDULE["beta_end"], total)
    return float(np.cumprod(1.0 - betas)[tau - 1])


def check_model_id(model_id: str) -> str:
    """model_id, if it may name a model: ids appear in config keys, pair
    labels and file names."""
    if not model_id or any(ch in model_id for ch in ".,->/\\ \t"):
        raise ConfigError(
            f"model id {model_id!r} may not be empty or contain '.', ',', '-', '>', "
            "path separators or whitespace"
        )
    return model_id


@dataclass
class SynthModelSpec:
    """One synthetic model: an encoder kind plus the knobs it needs."""

    model_id: str
    kind: str
    d: int
    seed: int = 0
    rank: int | None = None     # lossy only
    t: int | None = None        # noising only
    d_pix: int | None = None    # needed to decode lossy latents

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise DataError(f"unknown model kind {self.kind!r}")
        # model ids become file names (<id>.lsf) and the "pixels" id is reserved
        if check_model_id(self.model_id) == "pixels":
            raise ConfigError("model id 'pixels' is reserved for the image file")
        if self.d < 1:
            raise DataError("latent dimension must be >= 1")
        if self.kind == "lossy" and (self.rank is None or self.rank < 1):
            raise DataError("lossy models need rank >= 1")
        if self.kind == "noising" and self.t is None:
            raise DataError("noising models need a timestep t")


@dataclass
class FactorWorld:
    """Ground-truth factors, attributes, pixels and the map between them."""

    seed: int
    factors: np.ndarray         # (n, k) standard Gaussian
    attribute_names: list[str]
    attributes: np.ndarray      # (n, k) int8, sign of factors
    mixing: np.ndarray          # (d_pix, k), orthonormal columns
    pixels: np.ndarray          # (n, d_pix) float32 in [0, 1], squashed factors @ mixing.T
    ids: list[str]
    height: int
    width: int
    channels: int
    squash: str = "affine"

    @property
    def n(self) -> int:
        return self.factors.shape[0]

    @property
    def k(self) -> int:
        return self.factors.shape[1]

    @property
    def d_pix(self) -> int:
        return self.pixels.shape[1]

    def attribute_table(self) -> AttributeTable:
        return AttributeTable(names=self.attribute_names, ids=list(self.ids), values=self.attributes)

    def image_dataset(self) -> LatentDataset:
        return LatentDataset(model_id=PIXEL_MODEL_ID, ids=list(self.ids), X=self.pixels)


def _orthonormal_columns(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q * np.sign(np.diag(r))  # sign fix makes QR deterministic


def gen_world(
    n: int,
    k: int,
    d_pix: int,
    seed: int,
    squash: str = "affine",
) -> FactorWorld:
    """Deterministic factor world; attributes are the factor signs, so base
    rates concentrate near 0.5. Images are square and grey where d_pix is a
    square, else one column of d_pix pixels."""
    if n < 1 or k < 1 or d_pix < k:
        raise DataError(f"need n >= 1, k >= 1, d_pix >= k; got n={n}, k={k}, d_pix={d_pix}")
    if squash not in ("affine", "sigmoid"):
        raise DataError(f"unknown squash {squash!r}")
    side = math.isqrt(d_pix)
    shape = (side, side, 1) if side * side == d_pix else (d_pix, 1, 1)
    factors = np.random.default_rng([_FACTOR_STREAM, seed]).standard_normal((n, k))
    mixing = _orthonormal_columns(np.random.default_rng([_MIXING_STREAM, seed]), d_pix, k)
    attributes = np.where(factors >= 0, 1, -1).astype(np.int8)
    mixed = factors @ mixing.T
    if squash == "affine":
        lo = float(mixed.min())
        hi = float(mixed.max())
        if hi > lo:
            scale = 1.0 / (hi - lo)
            offset = -lo * scale
        else:
            scale, offset = 1.0, 0.5 - lo
        pixels = scale * mixed + offset
    else:
        pixels = 1.0 / (1.0 + np.exp(-mixed))
    return FactorWorld(
        seed=seed,
        factors=factors,
        attribute_names=[f"factor_{j:02d}" for j in range(k)],
        attributes=attributes,
        mixing=mixing,
        pixels=pixels.astype(np.float32),
        ids=[f"{i:06d}" for i in range(n)],
        height=shape[0],
        width=shape[1],
        channels=shape[2],
        squash=squash,
    )


@lru_cache(maxsize=64)
def _rotation(seed: int, d: int) -> np.ndarray:
    """Seeded d x d rotation; treat the cached array as read-only."""
    rng = np.random.default_rng([_ROTATION_STREAM, seed])
    return _orthonormal_columns(rng, d, d)


@lru_cache(maxsize=64)
def _lossy_maps(seed: int, d_pix: int, rank: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(basis, embed): rank-r pixel basis and its orthonormal embedding into
    the latent space; treat the cached arrays as read-only."""
    rng = np.random.default_rng([_LOSSY_STREAM, seed])
    basis = _orthonormal_columns(rng, d_pix, rank)
    embed = _orthonormal_columns(rng, d, rank)
    return basis, embed


def check_encoder(spec: SynthModelSpec, d_pix: int) -> None:
    """Raise DataError unless spec can encode pixel rows of width d_pix."""
    if spec.d_pix is not None and spec.d_pix != d_pix:
        raise DataError(f"{spec.model_id}: spec expects d_pix={spec.d_pix}, images have {d_pix}")
    if spec.kind in ("orthogonal", "noising") and spec.d != d_pix:
        raise DataError(f"{spec.model_id}: {spec.kind} encoders need d == d_pix ({d_pix})")
    if spec.kind == "lossy" and spec.rank > min(spec.d, d_pix):
        raise DataError(f"{spec.model_id}: rank {spec.rank} exceeds min(d, d_pix)")
    if spec.kind == "noising":
        alpha_bar(spec.t)  # t within the schedule


def encode(spec: SynthModelSpec, images: LatentDataset) -> LatentDataset:
    """Encode pixel rows into the model's latent space."""
    x = np.asarray(images.X, dtype=np.float64)
    d_pix = x.shape[1]
    check_encoder(spec, d_pix)
    if spec.kind == "orthogonal":
        latents = x @ _rotation(spec.seed, d_pix).T
    elif spec.kind == "lossy":
        basis, embed = _lossy_maps(spec.seed, d_pix, spec.rank, spec.d)
        latents = x @ basis @ embed.T
    elif spec.kind == "random":
        return random_encoder(images.ids, d=spec.d, seed=spec.seed, model_id=spec.model_id)
    else:  # noising
        ab = alpha_bar(spec.t)
        noise = np.empty_like(x)
        for row, sid in enumerate(images.ids):
            noise[row] = per_id_rng(spec.seed, sid).standard_normal(d_pix)
        latents = math.sqrt(ab) * x + math.sqrt(1.0 - ab) * noise
    return LatentDataset(model_id=spec.model_id, ids=list(images.ids), X=latents.astype(np.float32))


def decode(spec: SynthModelSpec, latents: LatentDataset) -> LatentDataset:
    """Invert the encoder as far as the kind allows: pixel rows clamped into
    [0, 1], with model_id 'pixels'.

    orthogonal inverts exactly, lossy reconstructs through the pseudo-inverse
    (a rank-r projection of the original pixels), noising rescales by
    1/sqrt(alpha_bar); random raises DataError.
    """
    if spec.kind == "random":
        raise DataError(f"{spec.model_id}: the random encoder has no decoder")
    lat = np.asarray(latents.X, dtype=np.float64)
    if lat.shape[1] != spec.d:
        raise DataError(f"{spec.model_id}: latents have d={lat.shape[1]}, spec says {spec.d}")
    if spec.kind == "orthogonal":
        x = lat @ _rotation(spec.seed, spec.d)
    elif spec.kind == "lossy":
        if spec.d_pix is None:
            raise DataError(f"{spec.model_id}: lossy decode needs d_pix on the spec")
        basis, embed = _lossy_maps(spec.seed, spec.d_pix, spec.rank, spec.d)
        x = lat @ embed @ basis.T
    else:  # noising
        x = lat / math.sqrt(alpha_bar(spec.t))
    x = np.clip(x, 0.0, 1.0)
    return LatentDataset(model_id=PIXEL_MODEL_ID, ids=list(latents.ids), X=x.astype(np.float32))


def check_emit(world: FactorWorld, specs) -> None:
    """Raise a DataError unless emit_datasets can write the world's pixels and
    encode them with every spec: each spec passes check_encoder, a lossy
    rank stays below k, and the image shape fits a pixel file."""
    check_pixels(world.pixels, (world.height, world.width, world.channels), "pixels")
    for spec in specs:
        check_encoder(spec, world.d_pix)
        if spec.kind == "lossy" and spec.rank >= world.k:
            raise DataError(f"{spec.model_id}: lossy rank must be < k={world.k}")


def emit_datasets(world: FactorWorld, specs, out_dir) -> dict[str, Path]:
    """Write the world's pixels, attributes and one latent file per spec,
    plus a manifest; all byte-compatible with the data-module parsers.
    check_emit runs first, so a spec the world cannot serve writes nothing."""
    check_emit(world, specs)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        images = world.image_dataset()
        paths: dict[str, Path] = {
            "pixels": out / "pixels.lsf",
            "attributes": out / "attributes.txt",
        }
        write_images(images, paths["pixels"], (world.height, world.width, world.channels))
        write_attribute_table(world.attribute_table(), paths["attributes"])
        manifest = [
            f"world seed={world.seed} n={world.n} k={world.k} d_pix={world.d_pix} squash={world.squash}",
            f"pixels {paths['pixels'].name}",
            f"attributes {paths['attributes'].name}",
        ]
        for spec in specs:
            ds = encode(spec, images)
            path = out / f"{spec.model_id}.lsf"
            write_latents(ds, path)
            paths[spec.model_id] = path
            manifest.append(f"model {spec.model_id} {spec_to_string(spec)} path={path.name}")
        (out / "manifest.txt").write_text("\n".join(manifest) + "\n", encoding="utf-8")
        paths["manifest"] = out / "manifest.txt"
    except OSError as exc:
        raise DataError(str(exc)) from exc
    return paths


# --- config-string representation --------------------------------------------


def spec_to_string(spec: SynthModelSpec) -> str:
    parts = [f"seed={spec.seed}", f"d={spec.d}"]
    if spec.d_pix is not None:
        parts.append(f"dpix={spec.d_pix}")
    if spec.kind == "lossy":
        parts.append(f"r={spec.rank}")
    if spec.kind == "noising":
        parts.append(f"t={spec.t}")
    return spec.kind + ":" + ",".join(parts)


def spec_from_string(model_id: str, text: str) -> SynthModelSpec:
    """Parse 'kind:key=value,...' as written by spec_to_string."""
    kind, _, tail = text.strip().partition(":")
    if kind not in KINDS:
        raise ConfigError(f"unknown synth kind {kind!r} for model {model_id!r}")
    fields: dict[str, int] = {}
    if tail:
        for item in tail.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise ConfigError(f"bad synth field {item!r} for model {model_id!r}")
            try:
                fields[key.strip()] = int(value)
            except ValueError:
                raise ConfigError(f"synth field {item!r} must be an integer") from None
    known = {"seed", "d", "dpix", "r", "t"}
    unknown = set(fields) - known
    if unknown:
        raise ConfigError(f"unknown synth fields {sorted(unknown)} for model {model_id!r}")
    if "d" not in fields:
        raise ConfigError(f"synth spec for model {model_id!r} needs d=<latent dim>")
    try:
        return SynthModelSpec(
            model_id=model_id,
            kind=kind,
            d=fields["d"],
            seed=fields.get("seed", 0),
            rank=fields.get("r"),
            t=fields.get("t"),
            d_pix=fields.get("dpix"),
        )
    except DataError as exc:
        raise ConfigError(str(exc)) from exc
