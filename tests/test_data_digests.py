"""The synthetic data, pinned by SHA-256: spec draws, mixture samples, edit
pairs, the perception batches, the parse of a shard of sequences and the bytes
of a sample shard and its manifest. A renderer, RNG, parser or shard-format
change that moves one bit, or draws the same values in another order, fails
here."""

import dataclasses
import hashlib
from pathlib import Path

import numpy as np

from univid import perception as pc
from univid import sequence as sq
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


def data_digests(tmp: Path) -> dict[str, str]:
    """The digests, with the sample shard written under `tmp`."""
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
    spec = sd.SceneSpec("triangle", "red", "right", "gray", "large", seed=4)
    for op in (sd.Recolor("blue"), sd.RemoveObject(), sd.ChangeBackground("black"), sd.AddObject()):
        for frames in (1, 8):
            edit = sd.make_edit_pair("video_edit", spec, op, frames)
            found[f"make_edit_pair/{type(op).__name__}/{frames}"] = digest(
                edit.spec, edit.source, edit.instruction, edit.target, edit.preserved_mask, edit.edited_spec)
    rng = np.random.default_rng(9)
    parsed = [sq.parse(sq.deserialize(sq.serialize(sq.pack_parts(parts))))
              for parts in shard_parts(sd.sample_mixture(32, rng=rng), rng)]
    found["parse"] = digest(*(v for p in parsed for v in (p.text_segments, *(x for b in p.blocks for x in b))))
    shard = sample_shard(tmp / "mixture.bin")
    found["shard"] = hashlib.sha256(shard.read_bytes()).hexdigest()
    found["shard/manifest"] = hashlib.sha256(manifest_of(shard).read_bytes()).hexdigest()
    return found


def sample_shard(path: Path) -> Path:
    return sd.write_shard(sd.sample_mixture(32, rng=np.random.default_rng(11)), path, seed=11)


def manifest_of(shard: Path) -> Path:
    return shard.with_suffix(shard.suffix + ".manifest.json")


def shard_parts(samples: list[sd.Sample], rng: np.random.Generator) -> list[list]:
    """The parts of each sample's sequence as the corpus benchmark builds them:
    its text around one visual block (two for an edit) of random vectors."""
    out = []
    for s in samples:
        block = "image" if s.frames() == 1 else "video"
        parts = [("text", sq.encode_text(s.question or s.caption_detailed or s.instruction))]
        parts += [(block, rng.standard_normal((s.frames(), sq.VISUAL_DIM)).astype(np.float32))
                  for _ in range(2 if s.kind.endswith("edit") else 1)]
        if s.answer:
            parts.append(("text", sq.encode_text(s.answer)))
        out.append(parts)
    return out


PINNED = {
    "random_spec": "7f589c146c06c4e2ffca6f1f9c3d91f61c395941d9d3188e3f87d232c81b7ca3",
    "sample_mixture": "fb93b4c0fcee304b2885f6c5a216ac30b2ba1fd1a06efa0c1c714fdc9c6179e9",
    "vae_batch": "99c20c38e673736dd1c09260a06873ba6eb1ad6d16cef4224ecf9714df9098db",
    "edge_weights": "c6d2c0e703d878cf5b68960e13b8e92dafc45a88640bfe0da99dea31c0da6a84",
    "contrastive_batch": "b20b1bd03ca7daaebee8b1992002c7268301a66e7466f255a6647263aa400185",
    "make_edit_pair/Recolor/1": "cb3ecd7cbf220dcd3d8fafd3c16758f01d63b425a2792230e7c7c38ce708f6b8",
    "make_edit_pair/Recolor/8": "2ac8af0a7cb73bfb7b206ecc78f3c7aa54414827d0a072e98a1b0d00cea65b4b",
    "make_edit_pair/RemoveObject/1": "e50c82a284a139cd0bd11b08f7e305cd4f52a0c297faf25dc8aa02dc3ed48676",
    "make_edit_pair/RemoveObject/8": "21861bbacaf6e07418584f367a0826d1bb4f2c9078c2b8e5cf8e0a726b2ac992",
    "make_edit_pair/ChangeBackground/1": "867f34f19b7bc5d1a4fc59edcc77bce1704bf2ce07f9ca4b4cf44d915e5266a4",
    "make_edit_pair/ChangeBackground/8": "87e9a1fe1065ae5c36ade101eafd1c6d7888937da40ddab8e5111ed7db7ccaff",
    "make_edit_pair/AddObject/1": "af520a664a4818a68a79990f987303aac16bc8b887dccf392bf745ccc7c8d157",
    "make_edit_pair/AddObject/8": "f8113f28bce17f78854da071a1ee0590f2ab3c91dde325c35c8064dfebf2603a",
    "parse": "5d823e497c5d8b47bd8f39b3b0efa6553bf519a8e93ef0d5ab12c73f897c5ccd",
    "shard": "5216eb72cd1a5b996782d235eb567d50ac8e3d4dfb2c76ca7c1feb78eae389b6",
    "shard/manifest": "d29712d11e8b94b384341d0c5af337c7aac590303bf9defd59dda9bb930a8848",
}


def test_data_matches_pinned_digests(tmp_path):
    assert data_digests(tmp_path) == PINNED


def test_rewriting_a_read_shard_reproduces_its_bytes(tmp_path):
    shard = sample_shard(tmp_path / "a.bin")
    again = sd.write_shard(sd.read_shard(shard), tmp_path / "b.bin", seed=11)
    assert again.read_bytes() == shard.read_bytes()
    assert manifest_of(again).read_bytes() == manifest_of(shard).read_bytes()
