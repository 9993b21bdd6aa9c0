"""The synthetic data, pinned by SHA-256: spec draws, mixture samples and the
perception batches. A renderer or RNG change that moves one bit, or draws the
same values in another order, fails here."""

import dataclasses
import hashlib

import numpy as np

from univid import perception as pc
from univid import synthdata as sd


def digest(*values) -> str:
    """SHA-256 over arrays (dtype, shape and bytes) and the repr of anything else."""
    h = hashlib.sha256()
    for v in values:
        if isinstance(v, np.ndarray):
            h.update(f"{v.dtype}{v.shape}".encode())
            h.update(np.ascontiguousarray(v).tobytes())
        else:
            h.update(repr(v).encode())
    return h.hexdigest()


def after(rng: np.random.Generator) -> int:
    """The next draw, so that a digest also pins how much of the stream was read."""
    return int(rng.integers(2**62))


def data_digests() -> dict[str, str]:
    rng = np.random.default_rng(1)
    specs = [sd.random_spec(rng) for _ in range(200)]
    found = {"random_spec": digest(*specs, after(rng))}
    rng = np.random.default_rng(3)
    samples = sd.sample_mixture(60, rng=rng)
    found["sample_mixture"] = digest(*(getattr(s, f.name) for s in samples for f in dataclasses.fields(s)),
                                     after(rng))
    rng = np.random.default_rng(5)
    videos = pc._vae_batch(rng, 8, 8)
    images = pc._vae_batch(rng, 8, 1)
    found["vae_batch"] = digest(videos, images, after(rng))
    found["edge_weights"] = digest(np.broadcast_to(pc._edge_weights(videos), videos.shape))
    rng = np.random.default_rng(7)
    found["contrastive_batch"] = digest(*pc._contrastive_batch(rng, 24), *pc._contrastive_batch(rng, 24),
                                        after(rng))
    return found


PINNED = {
    "random_spec": "7f589c146c06c4e2ffca6f1f9c3d91f61c395941d9d3188e3f87d232c81b7ca3",
    "sample_mixture": "fb93b4c0fcee304b2885f6c5a216ac30b2ba1fd1a06efa0c1c714fdc9c6179e9",
    "vae_batch": "99c20c38e673736dd1c09260a06873ba6eb1ad6d16cef4224ecf9714df9098db",
    "edge_weights": "c6d2c0e703d878cf5b68960e13b8e92dafc45a88640bfe0da99dea31c0da6a84",
    "contrastive_batch": "b20b1bd03ca7daaebee8b1992002c7268301a66e7466f255a6647263aa400185",
}


def test_data_matches_pinned_digests():
    assert data_digests() == PINNED
