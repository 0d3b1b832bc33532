import numpy as np
import pytest

from latentstitch import data, mapfit, metrics, probes, synth
from latentstitch.errors import BadDims, Undecodable


def world_and_images(n=300, k=4, d_pix=64, seed=3, **kwargs):
    world = synth.gen_world(n, k, d_pix, seed=seed, **kwargs)
    return world, world.image_dataset()


def test_gen_world_deterministic():
    a = synth.gen_world(50, 3, 16, seed=9)
    b = synth.gen_world(50, 3, 16, seed=9)
    np.testing.assert_array_equal(a.factors, b.factors)
    np.testing.assert_array_equal(a.pixels, b.pixels)
    assert a.ids == b.ids


def test_gen_world_attribute_base_rate():
    world = synth.gen_world(10000, 1, 4, seed=1)
    rate = float(np.mean(world.attributes == 1))
    assert abs(rate - 0.5) <= 0.02


def test_gen_world_mixing_orthonormal():
    world = synth.gen_world(20, 5, 32, seed=2)
    gram = world.mixing.T @ world.mixing
    assert np.abs(gram - np.eye(5)).max() <= 1e-10


def test_gen_world_attributes_are_factor_signs():
    world = synth.gen_world(200, 3, 16, seed=4)
    np.testing.assert_array_equal(world.attributes, np.where(world.factors >= 0, 1, -1))


def test_gen_world_pixels_in_unit_interval():
    for squash in ("affine", "sigmoid"):
        world = synth.gen_world(100, 3, 16, seed=5, squash=squash)
        assert world.pixels.min() >= 0.0 and world.pixels.max() <= 1.0


def test_gen_world_bad_dims():
    with pytest.raises(BadDims):
        synth.gen_world(10, 5, 3, seed=0)  # d_pix < k


def test_schedule_alpha_bar():
    sched = synth.NoisingSchedule()
    assert sched.alpha_bar(0) == 1.0
    values = [sched.alpha_bar(t) for t in range(0, 51, 5)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-3  # near-total corruption at t = steps_used


def test_noising_t0_is_exact_identity():
    world, img = world_and_images()
    spec = synth.SynthModelSpec(model_id="n", kind="noising", d=64, seed=7, t=0)
    lat = synth.encode(spec, img)
    np.testing.assert_array_equal(lat.X, img.pixels)


def test_orthogonal_round_trip():
    world, img = world_and_images()
    spec = synth.SynthModelSpec(model_id="o", kind="orthogonal", d=64, seed=8)
    decoded = synth.decode(spec, synth.encode(spec, img))
    # float32 latent storage bounds the round trip near the f32 ulp; the
    # rotation itself is orthonormal to 1e-10
    rot = synth._rotation(8, 64)
    assert np.abs(rot @ rot.T - np.eye(64)).max() <= 1e-10
    assert np.abs(decoded.pixels.astype(np.float64) - img.pixels.astype(np.float64)).max() <= 1e-6


def test_orthogonal_needs_matching_dims():
    world, img = world_and_images()
    spec = synth.SynthModelSpec(model_id="o", kind="orthogonal", d=32, seed=8)
    with pytest.raises(BadDims):
        synth.encode(spec, img)


def test_random_kind_is_undecodable():
    world, img = world_and_images()
    spec = synth.SynthModelSpec(model_id="r", kind="random", d=32, seed=9)
    lat = synth.encode(spec, img)
    with pytest.raises(Undecodable):
        synth.decode(spec, lat)


def test_random_kind_delegates_to_random_encoder():
    world, img = world_and_images()
    spec = synth.SynthModelSpec(model_id="r", kind="random", d=16, seed=10)
    lat = synth.encode(spec, img)
    oracle = data.random_encoder(img.ids, d=16, seed=10, model_id="r")
    np.testing.assert_array_equal(lat.X, oracle.X)


def test_lossy_round_trip_is_rank_r_projection():
    world, img = world_and_images()
    spec = synth.SynthModelSpec(model_id="l", kind="lossy", d=16, seed=11, rank=2, d_pix=64)
    basis, embed = synth._lossy_maps(11, 64, 2, 16)
    x = img.pixels.astype(np.float64)
    # pseudo-inverse oracle at full precision: encode-then-decode algebra is
    # exactly the rank-r projection
    algebra = (x @ basis @ embed.T) @ embed @ basis.T
    projected = x @ basis @ basis.T
    assert np.abs(algebra - projected).max() <= 1e-8
    # end-to-end through the float32 latent container sits at the f32 floor
    decoded = synth.decode(spec, synth.encode(spec, img))
    clipped = np.clip(projected, 0.0, 1.0)
    assert np.abs(decoded.pixels.astype(np.float64) - clipped).max() <= 1e-6


def test_lossy_reconstruction_worse_than_orthogonal():
    world, img = world_and_images()
    orth = synth.SynthModelSpec(model_id="o", kind="orthogonal", d=64, seed=12)
    lossy = synth.SynthModelSpec(model_id="l", kind="lossy", d=16, seed=12, rank=2, d_pix=64)
    rmse_orth = metrics.pixel_rmse(synth.decode(orth, synth.encode(orth, img)).pixels, img.pixels)
    rmse_lossy = metrics.pixel_rmse(synth.decode(lossy, synth.encode(lossy, img)).pixels,
                                    img.pixels)
    assert rmse_lossy > rmse_orth


def test_emit_datasets_round_trip(tmp_path):
    world, img = world_and_images(n=40, k=3, d_pix=16)
    specs = [
        synth.SynthModelSpec(model_id="enc", kind="orthogonal", d=16, seed=13),
        synth.SynthModelSpec(model_id="rnd", kind="random", d=8, seed=14),
    ]
    paths = synth.emit_datasets(world, specs, tmp_path)
    table = data.read_attribute_table(paths["attributes"])
    assert table.names == world.attribute_names
    np.testing.assert_array_equal(table.values, world.attributes)
    back = data.read_latents(paths["enc"])
    np.testing.assert_array_equal(back.X, synth.encode(specs[0], img).X)
    pixels = data.read_images(paths["pixels"])
    np.testing.assert_array_equal(pixels.pixels, world.pixels)
    assert paths["manifest"].is_file()
    assert "model enc orthogonal:" in paths["manifest"].read_text()


def test_emit_datasets_rejects_rank_at_least_k(tmp_path):
    world, _ = world_and_images(n=20, k=3, d_pix=16)
    bad = synth.SynthModelSpec(model_id="l", kind="lossy", d=8, seed=1, rank=3, d_pix=16)
    with pytest.raises(BadDims):
        synth.emit_datasets(world, [bad], tmp_path)


def test_exact_linear_stitch_smoke():
    world, img = world_and_images(n=400, k=4, d_pix=64)
    s1 = synth.SynthModelSpec(model_id="m1", kind="orthogonal", d=64, seed=21)
    s2 = synth.SynthModelSpec(model_id="m2", kind="orthogonal", d=64, seed=22)
    l1 = synth.encode(s1, img)
    l2 = synth.encode(s2, img)
    m = mapfit.fit_ols(l1.X[:300], l2.X[:300])
    mse = mapfit.latent_mse(mapfit.apply_map(m, l1.X[300:]), l2.X[300:])
    assert mse <= 1e-8


def test_probe_accuracy_on_orthogonal_latents():
    # linearly separable by construction: sign(factor) attributes
    world = synth.gen_world(2200, 8, 256, seed=31)
    img = world.image_dataset()
    table = world.attribute_table()
    spec = synth.SynthModelSpec(model_id="o", kind="orthogonal", d=256, seed=32)
    lat = synth.encode(spec, img)
    rows = {sid: i for i, sid in enumerate(lat.ids)}
    train_ids, hold_ids = lat.ids[:2000], lat.ids[2000:]
    for attr in world.attribute_names:
        sub = probes.balanced_subset(table, attr, train_ids, seed=0)
        hold = probes.balanced_subset(table, attr, hold_ids, seed=0, per_class=100)
        probe = probes.fit_lasso(
            lat.X[[rows[s] for s in sub.ids]], sub.labels(), alpha=0.001,
            attribute=attr, model_id="o",
        )
        acc = probes.accuracy(probe, lat.X[[rows[s] for s in hold.ids]], hold.labels())
        assert acc >= 0.95, f"{attr}: accuracy {acc}"


def test_noising_probe_accuracy_degrades_single_seed():
    world, img = world_and_images(n=1200, k=4, d_pix=64, seed=41)
    table = world.attribute_table()
    train_ids, hold_ids = img.ids[:1000], img.ids[1000:]
    accs = {}
    for t in (0, 50):
        spec = synth.SynthModelSpec(model_id="n", kind="noising", d=64, seed=42, t=t)
        lat = synth.encode(spec, img)
        rows = {sid: i for i, sid in enumerate(lat.ids)}
        per_attr = []
        for attr in world.attribute_names:
            sub = probes.balanced_subset(table, attr, train_ids, seed=1)
            hold = probes.balanced_subset(table, attr, hold_ids, seed=1, per_class=100)
            probe = probes.fit_lasso(
                lat.X[[rows[s] for s in sub.ids]], sub.labels(), alpha=0.001
            )
            per_attr.append(
                probes.accuracy(probe, lat.X[[rows[s] for s in hold.ids]], hold.labels())
            )
        accs[t] = np.mean(per_attr)
    assert accs[0] > accs[50]


def test_spec_string_round_trip():
    spec = synth.SynthModelSpec(model_id="l", kind="lossy", d=16, seed=5, rank=3, d_pix=64)
    text = synth.spec_to_string(spec)
    back = synth.spec_from_string("l", text)
    assert back == spec
    noise = synth.spec_from_string("n", "noising:seed=2,d=64,t=10")
    assert noise.kind == "noising" and noise.t == 10
