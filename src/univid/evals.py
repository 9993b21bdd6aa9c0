"""Evaluation utilities: frozen attribute probes and the metric suites.

The attribute probe is a set of linear softmax classifiers trained on frozen
frame-encoder features of rendered videos; it is the measuring instrument for
generation quality, so it is trained once on real renders and then applied to
model outputs unchanged.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nx
from . import perception as pc
from . import synthdata as sd

PROBE_ATTRS = {
    "shape": sd.SHAPES,
    "color": sd.COLOR_NAMES,
    "motion": sd.MOTION_NAMES,
    "background": sd.BACKGROUND_NAMES,
}


def probe_features(encoder: pc.FrameEncoder, video: np.ndarray) -> np.ndarray:
    """[mean frame embedding, mean successive embedding delta] -> [2 * dim]."""
    emb = encoder.encode_frames(video).numpy()
    mean = emb.mean(axis=0)
    if emb.shape[0] > 1:
        delta = np.diff(emb, axis=0).mean(axis=0) * 8.0  # deltas are small; rescale
    else:
        delta = np.zeros_like(mean)
    return np.concatenate([mean, delta]).astype(np.float32)


@dataclass
class AttributeProbe:
    encoder: pc.FrameEncoder
    weights: dict = field(default_factory=dict)  # attr -> (W [F, C], b [C])

    def classify(self, video: np.ndarray) -> dict:
        f = probe_features(self.encoder, video)
        out = {}
        for attr, names in PROBE_ATTRS.items():
            w, b = self.weights[attr]
            out[attr] = names[int(np.argmax(f @ w + b))]
        return out

    def accuracy(self, videos: Iterable[np.ndarray], specs: Iterable[sd.SceneSpec]) -> dict:
        """Per attribute of PROBE_ATTRS, the fraction of `videos` that `classify` gets right against `specs`.

        Both are read once, in step, so `videos` may be a generator that renders
        each video as it is needed."""
        hits = dict.fromkeys(PROBE_ATTRS, 0)
        n = 0
        for n, (video, spec) in enumerate(zip(videos, specs, strict=True), 1):
            pred = self.classify(video)
            for a in PROBE_ATTRS:
                hits[a] += int(pred[a] == getattr(spec, a))
        return {a: hits[a] / max(1, n) for a in PROBE_ATTRS}


def train_probe(encoder: pc.FrameEncoder, *, n_train: int = 600, steps: int = 300) -> AttributeProbe:
    """Fit one softmax classifier per attribute on `n_train` 8-frame renders of a fixed seed.

    The classifiers start from zero weights and train together in one AdamW
    run at lr 0.1 on the sum of their cross-entropies; they share no
    parameter, so each one's gradient and update is that of its own loss."""
    rng = np.random.default_rng(515)
    specs = [sd.random_spec(rng) for _ in range(n_train)]
    x = nx.Tensor(np.stack([probe_features(encoder, sd.render(s, 8)) for s in specs]))
    heads = {attr: (nx.Parameter(np.zeros((x.shape[1], len(names)), dtype=np.float32)),
                    nx.Parameter(np.zeros(len(names), dtype=np.float32)),
                    np.array([names.index(getattr(s, attr)) for s in specs]))
             for attr, names in PROBE_ATTRS.items()}

    def loss_at(step: int) -> nx.Tensor:
        losses = [nx.cross_entropy(nx.linear(x, w, b), y) for w, b, y in heads.values()]
        return functools.reduce(nx.add, losses)

    nx.fit([p for w, b, _ in heads.values() for p in (w, b)], loss_at, steps=steps, lr=0.1, weight_decay=1e-4)
    return AttributeProbe(encoder=encoder, weights={attr: (w.data, b.data) for attr, (w, b, _) in heads.items()})


def probe_accuracy_on_renders(probe: AttributeProbe) -> dict:
    """`probe.accuracy` on 200 8-frame renders of a fixed seed."""
    rng = np.random.default_rng(616)
    specs = [sd.random_spec(rng) for _ in range(200)]
    return probe.accuracy((sd.render(s, 8) for s in specs), specs)
