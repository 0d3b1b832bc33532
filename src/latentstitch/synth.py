"""Synthetic generative-model harness over a known linear factor world.

A FactorWorld draws standard-Gaussian factors, derives binary attributes
from their signs (so the Bayes-optimal probe is linear), and mixes factors
into pixel vectors through an orthonormal map followed by an affine squash
into [0, 1]. Four encoder kinds cover the regimes of interest:

- orthogonal: an exact rotation of pixel space (losslessly stitchable)
- lossy:      a rank-r pixel projection (information provably destroyed)
- random:     id-seeded Gaussian vectors carrying no pixel information
- noising:    forward-diffusion corruption sqrt(ab_t) x + sqrt(1 - ab_t) eps

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
    AttributeTable,
    ImageDataset,
    LatentDataset,
    per_id_rng,
    random_encoder,
    write_attribute_table,
    write_images,
    write_latents,
)
from .errors import BadDims, ConfigError, IoError, Undecodable

KINDS = ("orthogonal", "lossy", "random", "noising")

# Sub-stream tags so one world seed cannot collide across purposes.
_FACTOR_STREAM = 11
_MIXING_STREAM = 12
_ROTATION_STREAM = 13
_LOSSY_STREAM = 14


@dataclass
class NoisingSchedule:
    """Linear-beta forward process; alpha_bar(t) is the kept signal fraction
    after t of steps_used noising steps, with alpha_bar(0) = 1."""

    total_steps: int = 1000
    steps_used: int = 50
    beta_start: float = 1e-4
    beta_end: float = 0.02

    def __post_init__(self) -> None:
        if self.total_steps < 1 or not 1 <= self.steps_used <= self.total_steps:
            raise BadDims("invalid schedule step counts")
        if not 0 < self.beta_start <= self.beta_end < 1:
            raise BadDims("betas must satisfy 0 < beta_start <= beta_end < 1")

    def alpha_bar(self, t: int) -> float:
        if not 0 <= t <= self.steps_used:
            raise BadDims(f"t must be in [0, {self.steps_used}], got {t}")
        if t == 0:
            return 1.0
        tau = round(t * self.total_steps / self.steps_used)
        betas = np.linspace(self.beta_start, self.beta_end, self.total_steps)
        return float(np.cumprod(1.0 - betas)[tau - 1])


#: The forward process every noising encoder and decoder uses.
NOISING_SCHEDULE = NoisingSchedule()


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
            raise BadDims(f"unknown model kind {self.kind!r}")
        # model ids become file names (<id>.lsf) and the "pixels" id is reserved
        if not self.model_id or self.model_id == "pixels" or any(
            ch in self.model_id for ch in "/\\ \t"
        ):
            raise BadDims(f"bad synth model id {self.model_id!r}")
        if self.d < 1:
            raise BadDims("latent dimension must be >= 1")
        if self.kind == "lossy" and (self.rank is None or self.rank < 1):
            raise BadDims("lossy models need rank >= 1")
        if self.kind == "noising" and self.t is None:
            raise BadDims("noising models need a timestep t")


@dataclass
class FactorWorld:
    """Ground-truth factors, attributes, pixels and the map between them."""

    seed: int
    factors: np.ndarray         # (n, k) standard Gaussian
    attribute_names: list[str]
    attributes: np.ndarray      # (n, k) int8, sign of factors
    mixing: np.ndarray          # (d_pix, k), orthonormal columns
    pixel_scale: float          # pixels = pixel_scale * (factors @ mixing.T) + pixel_offset
    pixel_offset: float
    pixels: np.ndarray          # (n, d_pix) float32 in [0, 1]
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

    def image_dataset(self) -> ImageDataset:
        return ImageDataset(
            ids=list(self.ids), pixels=self.pixels,
            height=self.height, width=self.width, channels=self.channels,
        )


def _orthonormal_columns(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q * np.sign(np.diag(r))  # sign fix makes QR deterministic


def default_image_shape(d_pix: int) -> tuple[int, int, int]:
    side = math.isqrt(d_pix)
    if side * side == d_pix:
        return (side, side, 1)
    return (d_pix, 1, 1)


def gen_world(
    n: int,
    k: int,
    d_pix: int,
    seed: int,
    squash: str = "affine",
    image_shape: tuple[int, int, int] | None = None,
) -> FactorWorld:
    """Deterministic factor world; attributes are the factor signs, so base
    rates concentrate near 0.5."""
    if n < 1 or k < 1 or d_pix < k:
        raise BadDims(f"need n >= 1, k >= 1, d_pix >= k; got n={n}, k={k}, d_pix={d_pix}")
    if squash not in ("affine", "sigmoid"):
        raise BadDims(f"unknown squash {squash!r}")
    shape = image_shape or default_image_shape(d_pix)
    if shape[0] * shape[1] * shape[2] != d_pix:
        raise BadDims(f"image shape {shape} does not flatten to {d_pix}")
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
        scale = offset = math.nan  # sigmoid squash is not linearly invertible
        pixels = 1.0 / (1.0 + np.exp(-mixed))
    return FactorWorld(
        seed=seed,
        factors=factors,
        attribute_names=[f"factor_{j:02d}" for j in range(k)],
        attributes=attributes,
        mixing=mixing,
        pixel_scale=scale,
        pixel_offset=offset,
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


def encode(spec: SynthModelSpec, images: ImageDataset) -> LatentDataset:
    """Encode pixel rows into the model's latent space."""
    x = images.pixels.astype(np.float64)
    d_pix = x.shape[1]
    if spec.d_pix is not None and spec.d_pix != d_pix:
        raise BadDims(f"{spec.model_id}: spec expects d_pix={spec.d_pix}, images have {d_pix}")
    if spec.kind == "orthogonal":
        if spec.d != d_pix:
            raise BadDims(f"{spec.model_id}: orthogonal encoders need d == d_pix ({d_pix})")
        latents = x @ _rotation(spec.seed, d_pix).T
    elif spec.kind == "lossy":
        if spec.rank > min(spec.d, d_pix):
            raise BadDims(f"{spec.model_id}: rank {spec.rank} exceeds min(d, d_pix)")
        basis, embed = _lossy_maps(spec.seed, d_pix, spec.rank, spec.d)
        latents = x @ basis @ embed.T
    elif spec.kind == "random":
        return random_encoder(images.ids, d=spec.d, seed=spec.seed, model_id=spec.model_id)
    else:  # noising
        if spec.d != d_pix:
            raise BadDims(f"{spec.model_id}: noising encoders need d == d_pix ({d_pix})")
        ab = NOISING_SCHEDULE.alpha_bar(spec.t)
        noise = np.empty_like(x)
        for row, sid in enumerate(images.ids):
            noise[row] = per_id_rng(spec.seed, sid).standard_normal(d_pix)
        latents = math.sqrt(ab) * x + math.sqrt(1.0 - ab) * noise
    return LatentDataset(model_id=spec.model_id, ids=list(images.ids), X=latents.astype(np.float32))


def decode(
    spec: SynthModelSpec,
    latents: LatentDataset,
    image_shape: tuple[int, int, int] | None = None,
) -> ImageDataset:
    """Invert the encoder as far as the kind allows, clamped into [0, 1].

    orthogonal inverts exactly, lossy reconstructs through the pseudo-inverse
    (a rank-r projection of the original pixels), noising rescales by
    1/sqrt(alpha_bar); random raises Undecodable.
    """
    if spec.kind == "random":
        raise Undecodable(f"{spec.model_id}: the random encoder has no decoder")
    lat = latents.X.astype(np.float64)
    if lat.shape[1] != spec.d:
        raise BadDims(f"{spec.model_id}: latents have d={lat.shape[1]}, spec says {spec.d}")
    if spec.kind == "orthogonal":
        x = lat @ _rotation(spec.seed, spec.d)
        d_pix = spec.d
    elif spec.kind == "lossy":
        if spec.d_pix is None:
            raise BadDims(f"{spec.model_id}: lossy decode needs d_pix on the spec")
        basis, embed = _lossy_maps(spec.seed, spec.d_pix, spec.rank, spec.d)
        x = lat @ embed @ basis.T
        d_pix = spec.d_pix
    else:  # noising
        x = lat / math.sqrt(NOISING_SCHEDULE.alpha_bar(spec.t))
        d_pix = spec.d
    x = np.clip(x, 0.0, 1.0)
    h, w, c = image_shape or default_image_shape(d_pix)
    return ImageDataset(ids=list(latents.ids), pixels=x.astype(np.float32), height=h, width=w, channels=c)


def emit_datasets(world: FactorWorld, specs, out_dir) -> dict[str, Path]:
    """Write the world's pixels, attributes and one latent file per spec,
    plus a manifest; all byte-compatible with the data-module parsers."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        images = world.image_dataset()
        paths: dict[str, Path] = {
            "pixels": out / "pixels.lsf",
            "attributes": out / "attributes.txt",
        }
        write_images(images, paths["pixels"])
        write_attribute_table(world.attribute_table(), paths["attributes"])
        manifest = [
            f"world seed={world.seed} n={world.n} k={world.k} d_pix={world.d_pix} squash={world.squash}",
            f"pixels {paths['pixels'].name}",
            f"attributes {paths['attributes'].name}",
        ]
        for spec in specs:
            if spec.kind == "lossy" and spec.rank >= world.k:
                raise BadDims(f"{spec.model_id}: lossy rank must be < k={world.k}")
            ds = encode(spec, images)
            path = out / f"{spec.model_id}.lsf"
            write_latents(ds, path)
            paths[spec.model_id] = path
            manifest.append(f"model {spec.model_id} {spec_to_string(spec)} path={path.name}")
        (out / "manifest.txt").write_text("\n".join(manifest) + "\n", encoding="utf-8")
        paths["manifest"] = out / "manifest.txt"
    except OSError as exc:
        raise IoError(str(exc)) from exc
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
    except BadDims as exc:
        raise ConfigError(str(exc)) from exc
