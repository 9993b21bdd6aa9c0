"""Frozen perception stack: per-frame embedding encoder and causal video autoencoder.

The frame encoder supplies the alignment targets for the backbone's vision
head; the autoencoder supplies the low-level latent space the diffusion
decoder operates in and the source-video conditioning for edits. Both are
pretrained on the synthetic corpus and frozen afterwards.

Their sizes are the module constants below; only the seed of each model's
initialization is a constructor argument.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import numerics as nx
from . import sequence as sq
from . import synthdata as sd
from .numerics import Tensor

FRAME_SIZE = 32
EMBED_DIM = 64
VALID_FRAME_COUNTS = (sq.IMAGE_SPAN_TOKENS, *sq.VIDEO_FRAMES)

# frame encoder: 8x8-pixel patches through two 4-head transformer blocks
ENCODER_PATCH = 8
ENCODER_BLOCKS = 2
ENCODER_HEADS = 4

# video autoencoder: 4x4-pixel patches onto an 8x8 grid of 4-channel latents
SPATIAL_PATCH = 4
VAE_HIDDEN = 64
VAE_TEMPORAL_HIDDEN = 128
LATENT_CHANNELS = 4
LATENT_SIZE = FRAME_SIZE // SPATIAL_PATCH
# the VAE's 3x3 spatial context over [T, B, 8, 8, C]: axes, size, stride, padding
_CONTEXT_3X3 = ((2, 3), 3, 1, 1, 1)


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB of frames in [0, 1]; `a` and `b` must have one shape."""
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    if a.shape != b.shape:
        raise nx.ShapeError("psnr", f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise nx.ShapeError("psnr", f"zero-size frames {a.shape}")
    m = float(np.mean((a - b) ** 2))
    if m == 0:
        return float("inf")
    return 10.0 * np.log10(1.0 / m)


def _as_frames(x: np.ndarray, lead: tuple[str, ...], op: str) -> np.ndarray:
    """`x` as float32, checked to be [*lead, 3, FRAME_SIZE, FRAME_SIZE]."""
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != len(lead) + 3 or x.shape[-3:] != (3, FRAME_SIZE, FRAME_SIZE):
        raise nx.ShapeError(op, f"expected [{', '.join(lead)}, 3, {FRAME_SIZE}, {FRAME_SIZE}], got {x.shape}")
    return x


def _check_frame_count(frames: int, op: str) -> None:
    if frames not in VALID_FRAME_COUNTS:
        raise nx.ShapeError(op, f"frame count {frames} not in {VALID_FRAME_COUNTS}")


# -- frame encoder ------------------------------------------------------------


class FrameEncoder(nx.Module):
    """Patchify -> linear embed -> transformer blocks -> mean pool -> unit vector.

    `seed` fixes the initial weights."""

    def __init__(self, seed: int = 101):
        super().__init__()
        rng = np.random.default_rng(seed)
        p = ENCODER_PATCH
        self.patch_embed = nx.Linear(3 * p * p, EMBED_DIM, rng)
        self.pos = nx.Parameter(nx.normal_init(rng, ((FRAME_SIZE // p) ** 2, EMBED_DIM), 0.02))
        self.blocks = nx.ModuleList([nx.TransformerBlock(EMBED_DIM, ENCODER_HEADS, rng)
                                     for _ in range(ENCODER_BLOCKS)])
        self.out = nx.Linear(EMBED_DIM, EMBED_DIM, rng)

    def embed_frames(self, frames: np.ndarray) -> Tensor:
        """[N, 3, 32, 32] -> unit-norm [N, EMBED_DIM]; no frame-count restriction."""
        frames = _as_frames(frames, ("N",), "embed_frames")
        n, p, g = frames.shape[0], ENCODER_PATCH, FRAME_SIZE // ENCODER_PATCH
        x = frames.reshape(n, 3, g, p, g, p).transpose(0, 2, 4, 1, 3, 5)  # [N, g, g, 3, p, p]
        h = nx.add(self.patch_embed(Tensor(x.reshape(n, g * g, 3 * p * p))), self.pos)
        for blk in self.blocks:
            h = blk(h)
        pooled = nx.mean(h, axis=1)
        return nx.l2_normalize(self.out(pooled))

    def encode_frames(self, video: np.ndarray) -> Tensor:
        """[T, 3, 32, 32] with T in VALID_FRAME_COUNTS -> unit-norm [T, EMBED_DIM], no graph."""
        video = _as_frames(video, ("T",), "encode_frames")
        _check_frame_count(video.shape[0], "encode_frames")
        with nx.no_grad():
            return self.embed_frames(video)


def augment_frame(frame: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One-pixel shift + noise + brightness jitter + occasional box blur.

    The +-1 px shift keeps the embedding smooth under small displacements
    (motion is 1 px/frame), while different scenes are still pushed apart."""
    x = frame.copy()
    dx, dy = rng.integers(-1, 2, size=2)
    x = np.pad(x, ((0, 0), (1, 1), (1, 1)), mode="edge")[:, 1 + dy:1 + dy + FRAME_SIZE, 1 + dx:1 + dx + FRAME_SIZE]
    if rng.random() < 0.3:
        p = np.pad(x, ((0, 0), (1, 1), (1, 1)), mode="edge")
        x = sum(p[:, 1 + i:1 + i + FRAME_SIZE, 1 + j:1 + j + FRAME_SIZE]
                for i in (-1, 0, 1) for j in (-1, 0, 1)) / 9.0
    x = x * (1.0 + 0.1 * rng.standard_normal()) + 0.05 * rng.standard_normal()
    x = x + 0.03 * rng.standard_normal(x.shape)
    return np.clip(x, 0.0, 1.0).astype(np.float32)


def contrastive_loss(encoder: FrameEncoder, frames_a: np.ndarray, frames_b: np.ndarray) -> Tensor:
    """NT-Xent at temperature 0.15 over two views per scene."""
    b = frames_a.shape[0]
    z = encoder.embed_frames(np.concatenate([frames_a, frames_b], axis=0))
    sim = nx.mul(nx.matmul(z, nx.transpose(z, (1, 0))), 1.0 / 0.15)
    self_mask = np.full((2 * b, 2 * b), 0.0, dtype=np.float32)
    np.fill_diagonal(self_mask, -1e30)
    sim = nx.add(sim, Tensor(self_mask))
    targets = np.concatenate([np.arange(b) + b, np.arange(b)])
    return nx.cross_entropy(sim, targets)


def _contrastive_batch(rng: np.random.Generator, batch: int):
    """One frame from each of `batch` 8-frame scenes, in hard-negative groups:
    groups share color and background (and half of them everything except
    shape), so separating them requires shape and position features rather
    than the dominant color shortcut."""
    specs = []
    while len(specs) < batch:
        color = sd.COLOR_NAMES[rng.integers(len(sd.COLOR_NAMES))]
        background = sd.BACKGROUND_NAMES[rng.integers(len(sd.BACKGROUND_NAMES))]
        base = sd.random_spec(rng)
        shape_only = rng.random() < 0.5
        for _ in range(min(4, batch - len(specs))):
            s = sd.random_spec(rng)
            specs.append(replace(base if shape_only else s, shape=s.shape, color=color, background=background))
    frames_out = []
    for s in specs:
        t = int(rng.integers(0, 8))
        frames_out.append(sd.render_frame(s, t))
    return frames_out


def pretrain_frame_encoder(*, steps: int = 800, batch: int = 24,
                           seed: int = 11) -> tuple[FrameEncoder, list[float]]:
    """Contrastive pretraining on random scenes at lr 2e-3; returns the frozen encoder."""
    if batch < 1:
        raise nx.ShapeError("pretrain_frame_encoder", f"batch must be at least 1, got {batch}")
    encoder = FrameEncoder(seed)
    rng = np.random.default_rng(seed + 1)

    def loss_at(step: int) -> Tensor:
        base = _contrastive_batch(rng, batch)
        views_a = [augment_frame(f, rng) for f in base]
        views_b = [augment_frame(f, rng) for f in base]
        return contrastive_loss(encoder, np.stack(views_a), np.stack(views_b))

    history = nx.fit(encoder.parameters(), loss_at, steps=steps, lr=2e-3, weight_decay=1e-4)
    encoder.freeze()
    return encoder, history


# -- causal video autoencoder ----------------------------------------------------


class CausalVideoVae(nx.Module):
    """Spatial 4x downsample, temporal causal stride-2 compression.

    Encoder latent frame k sees input frames 2k-2 .. 2k+1 only (left-padded),
    so perturbing input frame j never changes latents with 2k+1 < j. All
    internal tensors are time-major [T, B, 8, 8, C] so whole batches run in
    one graph. The windowed layers (the 3x3 spatial contexts, the causal
    stride-2 temporal windows, the decoder's latent pairs) are each one
    `window_linear` node over their `Linear`'s weight and bias, so no window
    tensor is built in either direction. `seed` fixes the initial weights.
    """

    def __init__(self, seed: int = 202):
        super().__init__()
        rng = np.random.default_rng(seed)
        patch_dim = 3 * SPATIAL_PATCH * SPATIAL_PATCH
        hidden, ctx = VAE_HIDDEN, 9 * VAE_HIDDEN
        self.enc_embed = nx.Linear(patch_dim, hidden, rng)
        self.enc_spatial = nx.Linear(ctx, hidden, rng)
        self.enc_temporal = nx.Linear(4 * hidden, VAE_TEMPORAL_HIDDEN, rng)
        self.enc_out = nx.Linear(VAE_TEMPORAL_HIDDEN, LATENT_CHANNELS, rng)
        self.dec_embed = nx.Linear(LATENT_CHANNELS, hidden, rng)
        # decoder positions see their 3x3 context plus a global scene summary,
        # which carries flat colors without spending per-position capacity
        self.dec_spatial = nx.Linear(ctx + hidden, hidden, rng)
        self.dec_temporal = nx.Linear(2 * hidden, VAE_TEMPORAL_HIDDEN, rng)
        self.dec_out = nx.Linear(VAE_TEMPORAL_HIDDEN, 2 * patch_dim, rng)
        # per-channel latent statistics, measured after pretraining
        self.latent_mean = nx.Parameter(np.zeros(LATENT_CHANNELS, dtype=np.float32), trainable=False)
        self.latent_std = nx.Parameter(np.ones(LATENT_CHANNELS, dtype=np.float32), trainable=False)

    def encode_batch(self, videos: np.ndarray) -> Tensor:
        """[B, T, 3, 32, 32] with T in VALID_FRAME_COUNTS -> [B, T', 4, 8, 8], T' = (T + 1) // 2."""
        videos = _as_frames(videos, ("B", "T"), "vae_encode")
        b, t = videos.shape[:2]
        _check_frame_count(t, "vae_encode")
        p, g = SPATIAL_PATCH, LATENT_SIZE
        x = videos.reshape(b, t, 3, g, p, g, p).transpose(1, 0, 3, 5, 2, 4, 6)  # [T, B, g, g, 3, p, p]
        h = nx.gelu(self.enc_embed(Tensor(x.reshape(t, b, g, g, 3 * p * p))))
        h = nx.gelu(nx.window_linear(h, self.enc_spatial.weight, self.enc_spatial.bias, *_CONTEXT_3X3))
        # causal stride-2 windows over time: frames 2k-2 .. 2k+1 per latent k
        h = nx.gelu(nx.window_linear(h, self.enc_temporal.weight, self.enc_temporal.bias,
                                     (0,), 4, 2, 2, h.shape[0] % 2))
        z = self.enc_out(h)  # [T', B, 8, 8, 4]
        return nx.transpose(z, (1, 0, 4, 2, 3))

    def decode_batch(self, latents: Tensor | np.ndarray, frames: int | None = None) -> Tensor:
        """[B, T', 4, 8, 8] -> [B, frames, 3, 32, 32]; `frames` defaults to 2T'
        and must be 2T' - 1 or 2T'."""
        if not isinstance(latents, Tensor):
            latents = Tensor(np.asarray(latents, dtype=np.float32))
        if latents.ndim != 5 or latents.shape[2:] != (LATENT_CHANNELS, LATENT_SIZE, LATENT_SIZE):
            raise nx.ShapeError("vae_decode", f"expected [B, T', {LATENT_CHANNELS}, {LATENT_SIZE}, "
                                              f"{LATENT_SIZE}], got {latents.shape}")
        b, t_lat = latents.shape[:2]
        frames = frames if frames is not None else 2 * t_lat
        if (frames + 1) // 2 != t_lat:
            raise nx.ShapeError("vae_decode", f"{frames} frames incompatible with {t_lat} latent frames")
        h = nx.transpose(latents, (1, 0, 3, 4, 2))  # [T', B, 8, 8, 4]
        h = nx.gelu(self.dec_embed(h))
        # dec_spatial's first rows read the 3x3 context and its last VAE_HIDDEN
        # rows the scene summary (the grid mean), whose product is broadcast
        ctx, w = 9 * VAE_HIDDEN, self.dec_spatial.weight
        summary = nx.matmul(nx.mean(h, axis=(2, 3), keepdims=True), w[ctx:])
        h = nx.gelu(nx.add(nx.window_linear(h, w[:ctx], self.dec_spatial.bias, *_CONTEXT_3X3), summary))
        # latents k-1 and k
        h = nx.gelu(nx.window_linear(h, self.dec_temporal.weight, self.dec_temporal.bias, (0,), 2, 1, 1, 0))
        out = self.dec_out(h)  # [T', B, 8, 8, 2 * patch_dim]
        p, g = SPATIAL_PATCH, LATENT_SIZE
        out = nx.reshape(out, (t_lat, b, g, g, 2, 3, p, p))
        out = nx.transpose(out, (1, 0, 4, 5, 2, 6, 3, 7))  # [B, T', 2, 3, g, p, g, p]
        video = nx.reshape(out, (b, 2 * t_lat, 3, FRAME_SIZE, FRAME_SIZE))
        if frames != 2 * t_lat:
            video = video[:, :frames]
        return video

    def encode(self, video: np.ndarray) -> Tensor:
        """`encode_batch` of one video: [T, 3, 32, 32] -> [T', 4, 8, 8]."""
        return self.encode_batch(np.asarray(video)[None])[0]

    def decode(self, latent: Tensor | np.ndarray) -> Tensor:
        """`decode_batch` of one latent video: [T', 4, 8, 8] -> [2T', 3, 32, 32]."""
        if not isinstance(latent, Tensor):
            latent = Tensor(np.asarray(latent, dtype=np.float32))
        return self.decode_batch(nx.reshape(latent, (1, *latent.shape)))[0]

    # latent normalization for the flow-matching space

    def set_latent_stats(self, mean: np.ndarray, std: np.ndarray) -> None:
        """Per-channel float32 [LATENT_CHANNELS] mean and std; both finite, std > 0."""
        mean, std = np.asarray(mean, dtype=np.float32), np.asarray(std, dtype=np.float32)
        if mean.shape != (LATENT_CHANNELS,) or std.shape != (LATENT_CHANNELS,):
            raise nx.ShapeError("set_latent_stats", f"expected mean and std of shape ({LATENT_CHANNELS},), "
                                                    f"got {mean.shape} and {std.shape}")
        if not (np.isfinite(mean).all() and np.isfinite(std).all() and (std > 0).all()):
            raise nx.ShapeError("set_latent_stats", f"need finite mean and std > 0, got {mean} and {std}")
        self.latent_mean.data = mean
        self.latent_std.data = std

    def normalize_latent(self, z: np.ndarray) -> np.ndarray:
        m = self.latent_mean.data.reshape(1, -1, 1, 1)
        s = self.latent_std.data.reshape(1, -1, 1, 1)
        return (z - m) / s

    def denormalize_latent(self, z: np.ndarray) -> np.ndarray:
        m = self.latent_mean.data.reshape(1, -1, 1, 1)
        s = self.latent_std.data.reshape(1, -1, 1, 1)
        return z * s + m

    def encode_normalized(self, video: np.ndarray) -> np.ndarray:
        with nx.no_grad():
            return self.normalize_latent(self.encode(video).numpy())


def _vae_batch(rng: np.random.Generator, batch: int, frames: int) -> np.ndarray:
    videos = []
    for _ in range(batch):
        spec = sd.random_spec(rng)
        if rng.random() < 0.1:
            spec = spec.without_object()
        videos.append(sd.render(spec, frames))
    return np.stack(videos)


def _edge_weights(videos: np.ndarray) -> np.ndarray:
    """Float32 [..., 1, H, W] for videos [..., C, H, W]: weight 4 on pixels near
    spatial edges in any channel, 1 elsewhere; flat regions train in a few steps."""
    g = np.zeros(videos.shape, np.float32)
    dy = np.subtract(videos[..., 1:, :], videos[..., :-1, :], out=g[..., 1:, :])
    np.abs(dy, out=dy)
    dx = np.subtract(videos[..., :, 1:], videos[..., :, :-1])
    g[..., :, 1:] += np.abs(dx, out=dx)
    return np.where(g.max(axis=-3, keepdims=True) > 0.02, np.float32(4.0), np.float32(1.0))


def pretrain_vae(*, steps: int = 4000, batch: int = 8, seed: int = 21,
                 stat_videos: int = 64) -> tuple[CausalVideoVae, list[float]]:
    """Edge-weighted pixel reconstruction, then freeze and record latent stats.

    A fifth of the steps train on one-frame batches (images), the rest on
    eight-frame ones. The learning rate is a cosine decay from 2e-3 to 0 plus a
    constant 5e-5. The latent statistics are taken over `stat_videos` eight-frame
    videos in chunks of `batch`, so a call never needs more memory than one
    training step."""
    if batch < 1 or stat_videos < 1:
        raise nx.ShapeError("pretrain_vae", f"batch and stat_videos must be at least 1, "
                                            f"got {batch} and {stat_videos}")
    vae = CausalVideoVae(seed)
    lr = 2e-3
    rng = np.random.default_rng(seed + 1)

    def loss_at(step: int) -> Tensor:
        frames = 1 if rng.random() < 0.2 else 8
        videos = _vae_batch(rng, batch, frames)
        rec = vae.decode_batch(vae.encode_batch(videos), frames=frames)
        d = nx.sub(rec, Tensor(videos))
        weights = Tensor(_edge_weights(videos))
        return nx.mean(nx.mul(nx.mul(d, d), weights))

    def lr_at(step: int) -> float:
        return lr * (0.5 * (1.0 + np.cos(np.pi * step / steps))) + lr * 0.025

    history = nx.fit(vae.parameters(), loss_at, steps=steps, lr=lr, weight_decay=1e-5, lr_at=lr_at)
    # measure latent statistics for the generative latent space
    with nx.no_grad():
        z = np.concatenate([vae.encode_batch(_vae_batch(rng, min(batch, stat_videos - i), 8)).numpy()
                            for i in range(0, stat_videos, batch)])
    lat = z.transpose(2, 0, 1, 3, 4).reshape(LATENT_CHANNELS, -1)
    vae.set_latent_stats(lat.mean(axis=1), lat.std(axis=1) + 1e-6)
    vae.freeze()
    return vae, history
