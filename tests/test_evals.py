"""Attribute probes on a tiny, untrained frame encoder."""

import hashlib

import numpy as np
import pytest

from univid import evals
from univid import numerics as nx
from univid import perception as pc
from univid import synthdata as sd


def small_probe():
    return evals.train_probe(pc.FrameEncoder(), n_train=24, steps=10)


def test_probe_weights_repeat_bitwise():
    a, b = small_probe(), small_probe()
    assert a.weights.keys() == b.weights.keys() == evals.PROBE_ATTRS.keys()
    for attr in evals.PROBE_ATTRS:
        for x, y in zip(a.weights[attr], b.weights[attr]):
            assert x.tobytes() == y.tobytes()


def test_probe_weights_are_pinned_by_digest():
    # the four heads train in one fit; they share no parameter, so each
    # head's weights are bitwise those of a fit of its own loss alone
    h = hashlib.sha256()
    for attr, (w, b) in small_probe().weights.items():
        h.update(attr.encode() + w.tobytes() + b.tobytes())
    assert h.hexdigest() == "6ef97fa41795692a81c1aecece485a3f3834fe20c755fa7538da62e5aa8f2bc5"


def test_classify_names_and_accuracy_range():
    probe = small_probe()
    rng = np.random.default_rng(0)
    specs = [sd.random_spec(rng) for _ in range(4)]
    videos = [sd.render(s, 8) for s in specs]
    pred = probe.classify(videos[0])
    assert pred.keys() == evals.PROBE_ATTRS.keys()
    for attr, names in evals.PROBE_ATTRS.items():
        assert pred[attr] in names
    for value in probe.accuracy(videos, specs).values():
        assert 0.0 <= value <= 1.0
    with pytest.raises(nx.ShapeError, match="encode_frames"):
        probe.classify(sd.render(specs[0], 2))  # not a frame count the encoder takes


def test_accuracy_rejects_videos_and_specs_of_different_lengths():
    probe = small_probe()
    rng = np.random.default_rng(1)
    specs = [sd.random_spec(rng) for _ in range(4)]
    videos = [sd.render(s, 8) for s in specs]
    with pytest.raises(ValueError):
        probe.accuracy(videos, specs[:3])
    with pytest.raises(ValueError):
        probe.accuracy(iter(videos[:3]), specs)


def test_accuracy_takes_a_generator_of_videos():
    probe = small_probe()
    rng = np.random.default_rng(2)
    specs = [sd.random_spec(rng) for _ in range(6)]
    videos = [sd.render(s, 8) for s in specs]
    assert probe.accuracy((sd.render(s, 8) for s in specs), specs) == probe.accuracy(videos, specs)
