"""Causal video autoencoder: causality, frame-count rules, shape errors and
the latent normalization round trip; the frame encoder's shape rules and unit
embeddings; both models' untrained no-graph outputs pinned by digest, and a
gradient reaching every trainable parameter of each; both pretraining entry
points at tiny size, and the VAE's latent-statistics pass in chunks of the
training batch."""

import functools
import hashlib
import tracemalloc

import numpy as np
import pytest

from gradcheck import dead_parameters
from univid import numerics as nx
from univid import perception as pc
from univid import synthdata as sd


@functools.cache
def vae() -> pc.CausalVideoVae:
    return pc.CausalVideoVae()


@functools.cache
def encoder() -> pc.FrameEncoder:
    return pc.FrameEncoder()


def video(frames: int, seed: int = 0) -> np.ndarray:
    return sd.render(sd.random_spec(np.random.default_rng(seed)), frames)


def encode(v: np.ndarray) -> np.ndarray:
    with nx.no_grad():
        return vae().encode(v).numpy()


def test_latent_k_sees_only_frames_2k_minus_2_to_2k_plus_1():
    v = np.random.default_rng(1).uniform(0.0, 1.0, (12, 3, 32, 32)).astype(np.float32)
    base = encode(v)
    for j in range(12):
        bumped = v.copy()
        bumped[j] = 1.0 - bumped[j]
        z = encode(bumped)
        for k in range(base.shape[0]):
            if 2 * k - 2 <= j <= 2 * k + 1:
                assert not np.array_equal(z[k], base[k]), (j, k)
            else:
                assert z[k].tobytes() == base[k].tobytes(), (j, k)


@pytest.mark.parametrize("frames", pc.VALID_FRAME_COUNTS)
def test_encode_decode_shapes(frames):
    t_lat = (frames + 1) // 2
    z = encode(video(frames))
    assert z.shape == (t_lat, pc.LATENT_CHANNELS, pc.LATENT_SIZE, pc.LATENT_SIZE)
    with nx.no_grad():
        assert vae().decode_batch(z[None], frames=frames)[0].shape == (frames, 3, pc.FRAME_SIZE, pc.FRAME_SIZE)
        assert vae().decode(z).shape == (2 * t_lat, 3, pc.FRAME_SIZE, pc.FRAME_SIZE)
        batch = np.stack([video(frames, 1), video(frames, 2)])
        assert vae().decode_batch(vae().encode_batch(batch), frames=frames).shape == batch.shape


def test_shape_errors():
    with pytest.raises(nx.ShapeError, match="vae_encode"):
        vae().encode(video(5))  # not a valid frame count
    with pytest.raises(nx.ShapeError, match="vae_encode"):
        vae().encode(np.zeros((8, 3, 16, 16), np.float32))
    latent = np.zeros((4, pc.LATENT_CHANNELS, pc.LATENT_SIZE, pc.LATENT_SIZE), np.float32)
    with pytest.raises(nx.ShapeError, match="vae_decode"):
        vae().decode_batch(latent[None], frames=3)  # 3 frames make 2 latent frames, not 4
    with pytest.raises(nx.ShapeError, match="vae_decode"):
        vae().decode(latent[:, :3])


def test_batch_entry_points_check_shapes():
    with pytest.raises(nx.ShapeError, match="vae_encode"):
        vae().encode_batch(np.zeros((2, 8, 3, 16, 16), np.float32))
    with pytest.raises(nx.ShapeError, match="vae_encode"):
        vae().encode_batch(np.stack([video(5), video(5, 1)]))  # the frame-count rule of `encode`
    with pytest.raises(nx.ShapeError, match="vae_decode"):
        vae().decode_batch(np.zeros((2, 4, 3, pc.LATENT_SIZE, pc.LATENT_SIZE), np.float32))
    with pytest.raises(nx.ShapeError, match="vae_decode"):
        vae().decode_batch(np.zeros((4, pc.LATENT_CHANNELS, pc.LATENT_SIZE, pc.LATENT_SIZE), np.float32))
    with pytest.raises(nx.ShapeError, match="embed_frames"):
        encoder().embed_frames(np.zeros((2, 3, 16, 16), np.float32))


def test_psnr_needs_equal_shapes():
    v = np.full((8, 3, pc.FRAME_SIZE, pc.FRAME_SIZE), 0.5, np.float32)
    assert pc.psnr(v, v) == float("inf")
    assert pc.psnr(v, v + 0.1) == pytest.approx(20.0)
    # one frame would broadcast over the video's time axis
    with pytest.raises(nx.ShapeError, match="psnr"):
        pc.psnr(v, v[0] + 0.1)
    # zero-size frames have no mean squared error
    with pytest.raises(nx.ShapeError, match="psnr"):
        pc.psnr(v[:0], v[:0])


# -- frame encoder -------------------------------------------------------------------


def test_encode_frames_rejects_invalid_frame_counts():
    with pytest.raises(nx.ShapeError, match="encode_frames"):
        encoder().encode_frames(video(5))
    with pytest.raises(nx.ShapeError, match="encode_frames"):
        encoder().encode_frames(video(8)[0])  # one frame without its time axis


@pytest.mark.parametrize("frames", pc.VALID_FRAME_COUNTS)
def test_encode_frames_gives_unit_rows_without_a_graph(frames):
    z = encoder().encode_frames(video(frames))
    assert z.shape == (frames, pc.EMBED_DIM) and not z.requires_grad
    assert np.allclose(np.linalg.norm(z.numpy(), axis=1), 1.0, atol=1e-5)


def test_embed_frames_takes_any_frame_count():
    with nx.no_grad():
        z = encoder().embed_frames(video(3))
    assert z.shape == (3, pc.EMBED_DIM)


def test_latent_normalize_round_trip():
    model = pc.CausalVideoVae()
    rng = np.random.default_rng(3)
    mean = rng.standard_normal(pc.LATENT_CHANNELS).astype(np.float32)
    std = rng.uniform(0.5, 2.0, pc.LATENT_CHANNELS).astype(np.float32)
    model.set_latent_stats(mean, std)
    z = rng.standard_normal((6, pc.LATENT_CHANNELS, 8, 8)).astype(np.float32)
    assert np.allclose(model.denormalize_latent(model.normalize_latent(z)), z, atol=1e-5)
    at_mean = np.broadcast_to(mean.reshape(1, -1, 1, 1), z.shape)
    assert np.allclose(model.normalize_latent(at_mean), 0.0)
    assert np.allclose(model.normalize_latent(at_mean + std.reshape(1, -1, 1, 1)), 1.0, atol=1e-6)
    v = video(8)
    with nx.no_grad():
        expected = model.normalize_latent(model.encode(v).numpy())
    assert np.array_equal(model.encode_normalized(v), expected)


@pytest.mark.parametrize("mean, std", [
    (np.zeros(3), np.ones(3)),  # one value short of LATENT_CHANNELS
    (0.0, 1.0),  # a scalar would broadcast over every channel
    (np.zeros(pc.LATENT_CHANNELS), np.array([1.0, 0.0, 1.0, 1.0])),  # normalize would divide by 0
    (np.array([0.0, np.nan, 0.0, 0.0]), np.ones(pc.LATENT_CHANNELS)),
])
def test_set_latent_stats_rejects_bad_stats(mean, std):
    model = pc.CausalVideoVae()
    with pytest.raises(nx.ShapeError, match="set_latent_stats"):
        model.set_latent_stats(mean, std)
    assert np.array_equal(model.latent_mean.data, np.zeros(pc.LATENT_CHANNELS))
    assert np.array_equal(model.latent_std.data, np.ones(pc.LATENT_CHANNELS))


# SHA-256 of the default-seed models' outputs under no_grad, the path that
# perception_infer requests take: the encoder's embeddings of four 8-frame
# renders, and the VAE's reconstruction of each of them.
UNTRAINED_FORWARD_DIGESTS = {
    "embed_frames": "ade3be7c8bb36a3e3c3f49dabc3bf699f6a0ede351b3bb121dfaa3e23528d0d2",
    "vae_round_trip": "ead2832b436b0d3c5dbd6362927bfdeb8614b98f26b4882628b95dd061f7dc70",
}


@pytest.mark.parametrize("name", UNTRAINED_FORWARD_DIGESTS)
def test_untrained_forward_is_pinned_by_digest(name):
    videos = [video(8, seed) for seed in range(4)]
    with nx.no_grad():
        if name == "embed_frames":
            out = pc.FrameEncoder().embed_frames(np.concatenate(videos)).numpy()
        else:
            model = pc.CausalVideoVae()
            out = np.stack([model.decode(model.encode(v)).numpy() for v in videos])
    assert hashlib.sha256(out.tobytes()).hexdigest() == UNTRAINED_FORWARD_DIGESTS[name]


def contrastive_loss_of(model: pc.FrameEncoder):
    frames = np.stack([video(8, seed)[0] for seed in range(4)])
    rng = np.random.default_rng(0)
    views = np.stack([pc.augment_frame(f, rng) for f in frames])
    return lambda: pc.contrastive_loss(model, frames, views)


def reconstruction_loss_of(model: pc.CausalVideoVae):
    videos = np.stack([video(8, 1), video(8, 2)])
    return lambda: nx.mse(model.decode_batch(model.encode_batch(videos)), videos)


@pytest.mark.parametrize("model, loss_of", [(pc.FrameEncoder, contrastive_loss_of),
                                            (pc.CausalVideoVae, reconstruction_loss_of)])
def test_every_trainable_parameter_gets_a_gradient(model, loss_of):
    # a parameter no output depends on, such as a key bias (softmax cancels
    # it), reads float32 noise, 2e-11 to 5e-11 of the largest gradient; the
    # least-reached live ones read 3.0e-4 (encoder) and 3.5e-3 (VAE)
    m = model()
    assert dead_parameters(m, loss_of(m), 1e-6) == {}


# -- pretraining entry points ------------------------------------------------------

PRETRAIN = {
    "vae": lambda: pc.pretrain_vae(steps=3, batch=2, stat_videos=2, seed=5),
    "encoder": lambda: pc.pretrain_frame_encoder(steps=3, batch=4, seed=5),
}


@functools.cache
def pretrained(name: str, run: int = 0):
    return PRETRAIN[name]()


@pytest.mark.parametrize("name", PRETRAIN)
def test_pretrain_returns_finite_losses_and_frozen_model(name):
    model, history = pretrained(name)
    assert len(history) == 3 and np.isfinite(history).all()
    assert not any(p.requires_grad for p in model.parameters())


@pytest.mark.parametrize("name", PRETRAIN)
def test_pretrain_repeats_bitwise(name):
    (a, ha), (b, hb) = pretrained(name), pretrained(name, run=1)
    assert ha == hb
    for pa, pb in zip(a.parameters(), b.parameters(), strict=True):
        assert pa.name == pb.name and pa.data.tobytes() == pb.data.tobytes()


# SHA-256 of each tiny run's loss history and every parameter (name, dtype,
# shape, bytes). An engine change that moves one bit of a forward or backward
# kernel, or the order in which gradients are summed, fails here.
PRETRAIN_DIGESTS = {
    "vae": "80a6010bd9f858f231926b68e8668c2685cb5b309f82d50832ac32759467d314",
    "encoder": "10de0d6fb8dc1fbc6659d260d8bbf5cc2165e0d201f624756662126dba5505c0",
}


def pretrain_digest(model, history) -> str:
    h = hashlib.sha256(np.asarray(history, dtype=np.float64).tobytes())
    for p in model.parameters():
        h.update(f"{p.name}{p.dtype}{p.shape}".encode())
        h.update(p.data.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", PRETRAIN)
def test_pretrain_is_pinned_by_digest(name):
    assert pretrain_digest(*pretrained(name)) == PRETRAIN_DIGESTS[name]


# The tiny VAE run as the im2col VAE computed it (each windowed layer built its
# window tensor and ran one gemm over it): loss history and each parameter's
# float64 L2 norm. The window-free layers sum the same products in another
# order, so float32 rounding moves; the digest above pins the bits of the
# window-free kernels, and this pins how far they may stray from the im2col ones.
IM2COL_VAE_HISTORY = [0.5699492692947388, 0.08543474972248077, 0.5108632445335388]
IM2COL_VAE_NORMS = {
    "latent_mean": 1.2838724232990517,
    "latent_std": 0.5913525598262821,
    "enc_embed.weight": 7.9730034761212005,
    "enc_embed.bias": 0.024508013795503412,
    "enc_spatial.weight": 8.015587265583317,
    "enc_spatial.bias": 0.025688396862497326,
    "enc_temporal.weight": 11.26709702482406,
    "enc_temporal.bias": 0.03451564471390995,
    "enc_out.weight": 1.959315939641286,
    "enc_out.bias": 0.006865358855935102,
    "dec_embed.weight": 8.101380681147074,
    "dec_embed.bias": 0.025579969096899833,
    "dec_spatial.weight": 8.054667013422268,
    "dec_spatial.bias": 0.02702680280026777,
    "dec_temporal.weight": 11.372565514457982,
    "dec_temporal.bias": 0.03788903456700221,
    "dec_out.weight": 9.857134535207244,
    "dec_out.bias": 0.0359998249203329,
}


def assert_within_1e_5(name: str, history: list[float], norms: dict[str, float]) -> None:
    """The tiny run `name` has `history` and each parameter's float64 L2 norm in `norms`, within 1e-5 relative."""
    model, got = pretrained(name)
    assert np.allclose(got, history, rtol=1e-5, atol=0.0)
    got_norms = {p.name: float(np.linalg.norm(p.data.astype(np.float64))) for p in model.parameters()}
    assert got_norms.keys() == norms.keys()
    for param, expected in norms.items():
        assert abs(got_norms[param] - expected) <= 1e-5 * expected, param


def test_pretrain_vae_stays_within_1e_5_of_the_im2col_vae():
    assert_within_1e_5("vae", IM2COL_VAE_HISTORY, IM2COL_VAE_NORMS)


# The tiny encoder run as it was when every key projection had a bias: that
# bias's true gradient is 0, but AdamW, which divides a gradient by its own
# RMS, walked it on float32 noise to |b| of 5.7e-5, so dropping it moves the
# other parameters' rounding. Norms under today's names (`attn.wk` was
# `attn.wk.weight`); the two biases are gone.
KEY_BIAS_ENCODER_HISTORY = [1.9410690069198608, 1.0066277980804443, 1.6999073028564453]
KEY_BIAS_ENCODER_NORMS = {
    "pos": 0.6544167778463555,
    "patch_embed.weight": 8.069549452171323,
    "patch_embed.bias": 0.02792586996862302,
    "blocks.0.ln1.gamma": 7.9941927238125485,
    "blocks.0.ln1.beta": 0.027039408182195655,
    "blocks.0.attn.wq.weight": 1.300963327457667,
    "blocks.0.attn.wq.bias": 0.027785793631288455,
    "blocks.0.attn.wk": 1.284325799832456,
    "blocks.0.attn.wv.weight": 1.2869714164468826,
    "blocks.0.attn.wv.bias": 0.02733184064129789,
    "blocks.0.attn.wo.weight": 1.2745598039149428,
    "blocks.0.attn.wo.bias": 0.02686073934908332,
    "blocks.0.ln2.gamma": 8.000097860189861,
    "blocks.0.ln2.beta": 0.02483415739311187,
    "blocks.0.mlp.fc1.weight": 2.594148848763731,
    "blocks.0.mlp.fc1.bias": 0.05178023681794943,
    "blocks.0.mlp.fc2.weight": 2.5709479307529404,
    "blocks.0.mlp.fc2.bias": 0.024906714802525414,
    "blocks.1.ln1.gamma": 8.00163382752028,
    "blocks.1.ln1.beta": 0.025977866064298083,
    "blocks.1.attn.wq.weight": 1.300380302835425,
    "blocks.1.attn.wq.bias": 0.02631710053126455,
    "blocks.1.attn.wk": 1.2985519674884651,
    "blocks.1.attn.wv.weight": 1.2913067880959161,
    "blocks.1.attn.wv.bias": 0.023834007733184094,
    "blocks.1.attn.wo.weight": 1.2929638673026795,
    "blocks.1.attn.wo.bias": 0.022948285598805466,
    "blocks.1.ln2.gamma": 7.99789037230087,
    "blocks.1.ln2.beta": 0.023315011782028317,
    "blocks.1.mlp.fc1.weight": 2.5957474107103446,
    "blocks.1.mlp.fc1.bias": 0.04224288358587432,
    "blocks.1.mlp.fc2.weight": 2.606239441963216,
    "blocks.1.mlp.fc2.bias": 0.0166494412945907,
    "out.weight": 8.036509821323714,
    "out.bias": 0.023607232248564647,
}


def test_pretrain_encoder_stays_within_1e_5_of_the_key_bias_encoder():
    assert_within_1e_5("encoder", KEY_BIAS_ENCODER_HISTORY, KEY_BIAS_ENCODER_NORMS)


def test_vae_builds_no_window_tensor(monkeypatch):
    # the windowed layers are window_linear nodes; a window or concat call
    # means a 9x-wide context buffer is back
    calls = []
    for owner, name in ((nx, "window"), (nx, "concat"), (nx.tensor, "window"), (nx.tensor, "concat")):
        def counted(*args, _name=name, _op=getattr(owner, name), **kwargs):
            calls.append(_name)
            return _op(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    model, _ = pc.pretrain_vae(steps=2, batch=2, stat_videos=2, seed=7)
    with nx.no_grad():
        model.decode(model.encode(video(8)))
    assert calls == []


@pytest.mark.parametrize("name, run", [
    ("pretrain_vae", lambda: pc.pretrain_vae(batch=0)),
    ("pretrain_vae", lambda: pc.pretrain_vae(steps=0, stat_videos=0)),
    ("pretrain_frame_encoder", lambda: pc.pretrain_frame_encoder(batch=0)),
])
def test_pretrain_rejects_empty_batches(name, run):
    with pytest.raises(nx.ShapeError, match=name):
        run()


def test_encode_batch_rows_do_not_depend_on_the_batch():
    # the latent-stat pass encodes in chunks of the training batch; at the
    # default batch of 8 its latents are those of one call over all videos
    rng = np.random.default_rng(4)
    videos = pc._vae_batch(rng, 16, 8)
    with nx.no_grad():
        whole = vae().encode_batch(videos).numpy()
        halves = np.concatenate([vae().encode_batch(half).numpy() for half in (videos[:8], videos[8:])])
    assert whole.tobytes() == halves.tobytes()


def encode_calls(monkeypatch, **kwargs):
    """`pretrain_vae(seed=5, **kwargs)`'s model, and each `encode_batch` call's latents and video count."""
    encode_batch, latents, sizes = pc.CausalVideoVae.encode_batch, [], []

    def recorded(self, videos):
        z = encode_batch(self, videos)
        latents.append(z.numpy().copy())
        sizes.append(len(videos))
        return z
    with monkeypatch.context() as m:
        m.setattr(pc.CausalVideoVae, "encode_batch", recorded)
        model, _ = pc.pretrain_vae(seed=5, **kwargs)
    return model, latents, sizes


@pytest.mark.parametrize("batch", [1, 2, 3])
def test_latent_stats_in_small_chunks_match_one_pass(monkeypatch, batch):
    model, z, sizes = encode_calls(monkeypatch, steps=0, batch=batch, stat_videos=8)
    one, z_one, _ = encode_calls(monkeypatch, steps=0, batch=8, stat_videos=8)
    assert sizes == [min(batch, 8 - i) for i in range(0, 8, batch)]
    assert np.abs(np.concatenate(z) - np.concatenate(z_one)).max() <= 1e-6
    for name in ("latent_mean", "latent_std"):
        got, want = getattr(model, name).data, getattr(one, name).data
        assert (np.abs(got - want) <= 1e-5 * np.abs(want)).all(), name


def test_pretrain_vae_encodes_at_most_a_batch_per_call(monkeypatch):
    _, _, sizes = encode_calls(monkeypatch, steps=2, batch=3, stat_videos=7)
    assert sizes == [3, 3, 3, 3, 1]  # two training steps, then the stat pass


def numpy_peak(monkeypatch, **kwargs) -> int:
    """tracemalloc's peak over `pretrain_vae(steps=0, ...)` from its training
    loop on, which with no steps frees no untouched block, so the peak is the
    latent-statistics pass's alone."""
    fit = nx.fit

    def fit_from_here(*args, **fit_kwargs):
        tracemalloc.reset_peak()
        return fit(*args, **fit_kwargs)
    monkeypatch.setattr(nx, "fit", fit_from_here)
    tracemalloc.start()
    try:
        pc.pretrain_vae(steps=0, seed=5, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_latent_stat_pass_memory_does_not_grow_with_stat_videos(monkeypatch):
    pc.pretrain_vae(steps=0, batch=2, stat_videos=2, seed=5)  # warm lazy caches
    small = numpy_peak(monkeypatch, batch=2, stat_videos=2)
    large = numpy_peak(monkeypatch, batch=2, stat_videos=16)
    assert large < 1.5 * small, (large, small)


def test_pretrain_vae_records_latent_stats():
    std = pretrained("vae")[0].latent_std.data
    assert (std > 0).all() and not np.array_equal(std, np.ones_like(std))
