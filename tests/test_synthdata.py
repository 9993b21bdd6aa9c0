"""Procedural corpus: rendering, captions, edits, QA, mixture, shards."""

import numpy as np
import pytest

from univid import synthdata as sd


def spec_of(**kw):
    base = dict(shape="circle", color="red", motion="right", background="gray", size="large", seed=3)
    base.update(kw)
    return sd.SceneSpec(**base)


def centroid_x(frame: np.ndarray, bg: float) -> float:
    """Independent centroid oracle: mean column index of non-background pixels."""
    diff = np.abs(frame - bg).max(axis=0)
    ys, xs = np.nonzero(diff > 1e-6)
    assert len(xs) > 0
    return xs.mean()


def test_render_static_all_frames_identical():
    video = sd.render(spec_of(motion="static"), 8)
    for t in range(1, 8):
        assert np.array_equal(video[t], video[0])


def test_render_deterministic():
    a = sd.render(spec_of(), 8)
    b = sd.render(spec_of(), 8)
    assert np.array_equal(a, b)
    assert a.shape == (8, 3, 32, 32) and a.dtype == np.float32


def test_render_right_motion_centroid_strictly_increases():
    spec = spec_of(motion="right")
    video = sd.render(spec, 12)
    bg = sd.BACKGROUNDS[spec.background]
    xs = [centroid_x(video[t], bg) for t in range(12)]
    assert all(b > a for a, b in zip(xs, xs[1:]))


def test_render_clamps_and_flags_when_shape_would_exit():
    # by frame 40 a right-moving large shape has run into the right edge
    cx, _ = sd._center(spec_of(motion="right", seed=0), 40)
    assert cx == 31 - sd.SIZES["large"]


def test_standard_corpus_never_clamps():
    # unclamped centers move by exactly the motion's velocity every frame
    rng = np.random.default_rng(0)
    for _ in range(100):
        spec = sd.random_spec(rng)
        vx, vy = sd.MOTIONS[spec.motion]
        x0, y0 = sd._center(spec, 0)
        for t in range(1, 12):
            assert sd._center(spec, t) == (x0 + vx * t, y0 + vy * t)


def test_jitter_is_drawn_once_per_spec(monkeypatch):
    spec = spec_of(seed=11)
    rng = np.random.default_rng(spec.seed)
    want = tuple(int(rng.choice(sd._JITTER)) for _ in range(2))
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append(seed) or default_rng(seed))
    sd.render(spec, 12)
    sd.render(spec, 8)
    assert made == [11] and spec.jitter == want


def test_pixels_in_unit_range_with_exact_flat_regions():
    spec = spec_of(color="yellow", background="black")
    video = sd.render(spec, 1)
    assert video.min() >= 0.0 and video.max() <= 1.0
    cov = sd.coverage(spec, 0)
    core, outside = cov >= 1.0, cov == 0
    assert np.array_equal(np.unique(video[0][:, core], axis=1),
                          np.array(sd.COLORS["yellow"], np.float32)[:, None])
    assert (video[0][:, outside] == sd.BACKGROUNDS["black"]).all()
    # anti-aliasing: some blended pixels on the rim
    rim = ~outside & ~core
    assert rim.any()


# An independent oracle for the stamp table: a full-canvas rasterizer with 4x4
# subpixel samples over the whole 128x128 grid, one image per centre.
SUBPIXELS = (np.arange(sd.CANVAS * 4) + 0.5) / 4 - 0.5
# BLOCKS @ m @ BLOCKS.T counts the samples in each pixel's 4x4 block, exactly
BLOCKS = np.kron(np.eye(sd.CANVAS), np.ones(4))


def oracle_coverage(shape: str, r: int, centres) -> np.ndarray:
    """Float32 [len(centres), CANVAS, CANVAS] for (cx, cy) integer centres."""
    cx, cy = np.array(centres).T
    fx = SUBPIXELS[None, None, :] - cx[:, None, None]
    fy = SUBPIXELS[None, :, None] - cy[:, None, None]
    if shape == "circle":
        m = fx * fx + fy * fy <= r * r
    elif shape == "square":
        m = (np.abs(fx) <= r) & (np.abs(fy) <= r)
    else:
        m = (np.abs(fy) <= r) & (np.abs(fx) <= (fy + r) / 2.0)
    return (BLOCKS @ m @ BLOCKS.T / 16).astype(np.float32)


def oracle_render(spec, frames):
    """render(spec, frames), with the jitter drawn as two `choice` calls."""
    video = np.full((frames, 3, sd.CANVAS, sd.CANVAS), sd.BACKGROUNDS[spec.background], dtype=np.float32)
    if not spec.has_object:
        return video
    jr = np.random.default_rng(spec.seed)
    jx, jy = int(jr.choice((-2, 0, 2))), int(jr.choice((-2, 0, 2)))
    (vx, vy), r = sd.MOTIONS[spec.motion], sd.SIZES[spec.size]
    centres = [(min(max(16 - 6 * vx + jx + vx * t, r), 31 - r), min(max(16 - 6 * vy + jy + vy * t, r), 31 - r))
               for t in range(frames)]
    cov = oracle_coverage(spec.shape, r, centres)[:, None]
    return video * (1.0 - cov) + np.array(sd.COLORS[spec.color], dtype=np.float32).reshape(3, 1, 1) * cov


def test_coverage_matches_oracle_at_every_centre(monkeypatch):
    # the frame argument carries the centre straight through
    monkeypatch.setattr(sd, "_center", lambda spec, frame: frame)
    for shape in sd.SHAPES:
        for size, r in sd.SIZES.items():
            spec = spec_of(shape=shape, size=size)
            for cy in range(r, sd.CANVAS - r):
                centres = [(cx, cy) for cx in range(r, sd.CANVAS - r)]
                want = oracle_coverage(shape, r, centres)
                got = np.stack([sd.coverage(spec, c) for c in centres])
                assert got.dtype == want.dtype and np.array_equal(got, want), (shape, size, cy)


def test_render_matches_oracle():
    rng = np.random.default_rng(12)
    for i in range(100):
        spec = sd.random_spec(rng)
        if i % 3 == 0:
            spec = spec.without_object()
        frames = int(rng.integers(1, 30))
        got, want = sd.render(spec, frames), oracle_render(spec, frames)
        assert got.dtype == want.dtype and np.array_equal(got, want), (spec, frames)
        t = int(rng.integers(frames))
        assert np.array_equal(sd.render_frame(spec, t), want[t])


def test_caption_contains_all_attribute_words():
    spec = spec_of(size="small", color="blue", shape="triangle", background="white", motion="up")
    det = sd.caption(spec, "detailed")
    for word in ("small", "blue", "triangle", "white", "up"):
        assert word in det.split()


def test_short_caption_words_subset_of_detailed():
    spec = spec_of()
    short_words = set(sd.caption(spec, "short").split())
    det_words = set(sd.caption(spec, "detailed").split())
    assert short_words <= det_words


def test_caption_round_trip_through_parser():
    rng = np.random.default_rng(11)
    for _ in range(200):
        spec = sd.random_spec(rng)
        parsed = sd.parse_caption(sd.caption(spec, "detailed"))
        for field in ("shape", "color", "motion", "background", "size"):
            assert parsed[field] == getattr(spec, field)


def test_captions_stay_in_alphabet():
    from univid import sequence as sq
    rng = np.random.default_rng(2)
    for _ in range(50):
        spec = sd.random_spec(rng)
        sq.encode_text(sd.caption(spec, "detailed"))
        sq.encode_text(sd.caption(spec, "short"))
        q, a = sd.make_qa(spec, str(rng.choice(sd.QUESTIONS)))
        sq.encode_text(q)
        sq.encode_text(a)


def test_qa_templates():
    spec = spec_of(color="red", shape="circle")
    q, a = sd.make_qa(spec, which="color")
    assert q == "what color is the circle?" and a == "red"
    q, a = sd.make_qa(spec, which="motion")
    assert a == "right"
    for which in sd.QUESTIONS:
        _, a = sd.make_qa(spec, which=which)
        assert a in sd.COLOR_NAMES + sd.SHAPES + sd.MOTION_NAMES + sd.BACKGROUND_NAMES


# -- edits ---------------------------------------------------------------------


def test_recolor_preserves_outside_mask_bitwise():
    spec = spec_of()
    pair = sd.make_edit_pair("video_edit", spec, sd.Recolor("blue"), 8)
    outside = pair.preserved_mask
    for t in range(8):
        src = pair.source[t][:, outside[t]]
        tgt = pair.target[t][:, outside[t]]
        assert np.array_equal(src, tgt)
        assert not np.array_equal(pair.source[t], pair.target[t])


def test_remove_object_target_is_background_only():
    spec = spec_of()
    pair = sd.make_edit_pair("video_edit", spec, sd.RemoveObject(), 4)
    expected = sd.render(spec.without_object(), 4)
    assert np.array_equal(pair.target, expected)


def test_change_background_shape_kept_background_changed():
    spec = spec_of(background="gray")
    pair = sd.make_edit_pair("video_edit", spec, sd.ChangeBackground("black"), 6)
    for t in range(6):
        mask = pair.preserved_mask[t]
        assert np.array_equal(pair.source[t][:, mask], pair.target[t][:, mask])
        # complement region (background) differs everywhere
        diff = np.abs(pair.source[t] - pair.target[t]).max(axis=0)
        assert (diff[~mask] > 0).all()


def test_add_object_source_is_background_only():
    spec = spec_of()
    pair = sd.make_edit_pair("video_edit", spec, sd.AddObject(), 4)
    assert np.array_equal(pair.source, sd.render(spec.without_object(), 4))
    assert np.array_equal(pair.target, sd.render(spec, 4))


@pytest.mark.parametrize("op", [sd.Recolor("blue"), sd.RemoveObject(), sd.AddObject(),
                                sd.ChangeBackground("black")], ids=lambda op: type(op).__name__)
def test_edit_pair_computes_coverage_once_per_frame(monkeypatch, op):
    calls = []
    coverage = sd.coverage

    def counted(spec, frame):
        calls.append(frame)
        return coverage(spec, frame)

    monkeypatch.setattr(sd, "coverage", counted)
    sd.make_edit_pair("video_edit", spec_of(), op, 5)
    assert sorted(calls) == list(range(5))


def test_edit_pair_needs_a_frame():
    with pytest.raises(sd.SynthError):
        sd.make_edit_pair("video_edit", spec_of(), sd.RemoveObject(), 0)


def test_inapplicable_ops_error():
    spec = spec_of(color="red", background="gray")
    with pytest.raises(sd.SynthError):
        sd.make_edit_pair("video_edit", spec, sd.Recolor("red"), 2)
    with pytest.raises(sd.SynthError):
        sd.make_edit_pair("video_edit", spec, sd.ChangeBackground("gray"), 2)
    with pytest.raises(sd.SynthError):
        sd.make_edit_pair("video_edit", spec.without_object(), sd.RemoveObject(), 2)


@pytest.mark.parametrize("field, value", [("seed", -1), ("seed", 2**64), ("seed", 1.5), ("seed", True),
                                          ("has_object", "yes"), ("has_object", 2), ("has_object", None)])
def test_spec_rejects_values_a_shard_or_render_cannot_take(field, value):
    # each of these used to construct, then fail in write_shard or render with another error type
    with pytest.raises(sd.SynthError, match="invalid scene spec"):
        spec_of(**{field: value})


def test_spec_takes_the_ends_of_the_seed_range(tmp_path):
    specs = [spec_of(seed=0), spec_of(seed=2**64 - 1, has_object=False)]
    shard = sd.write_shard([sd.Sample(kind="text_to_image", spec=s) for s in specs], tmp_path / "s.bin")
    assert [s.spec for s in sd.read_shard(shard)] == specs
    assert sd.render(specs[1], 1).shape == (1, 3, sd.CANVAS, sd.CANVAS)


# -- mixture ---------------------------------------------------------------------


def test_mixture_frequencies_match_ratio_table(monkeypatch):
    # each sample is just its kind, so 100 000 draws take no rendering
    monkeypatch.setattr(sd, "build_sample", lambda kind, rng: kind)
    kinds = np.asarray(sd.sample_mixture(100_000, rng=np.random.default_rng(1234)))
    for task, ratio in zip(sd.TASKS, sd.TASK_RATIOS):  # the table sums to 99.99
        freq = (kinds == task).mean() * 100.0
        assert abs(freq - ratio) <= 0.5, f"{task}: {freq:.2f} vs {ratio}"


def test_sample_mixture_of_zero_is_empty():
    assert sd.sample_mixture(0, rng=np.random.default_rng(0)) == []


def test_every_sample_validates():
    rng = np.random.default_rng(99)
    for s in sd.sample_mixture(60, rng=rng):
        s.validate()
        assert s.frames() in (1, 8)


def test_build_sample_keeps_its_kind():
    rng = np.random.default_rng(5)
    for kind in sd.TASKS:
        s = sd.build_sample(kind, rng)
        s.validate()
        assert s.kind == kind and s.frames() == (1 if "image" in kind else 8)


def edit_sample(frames=2):
    return sd.make_edit_pair("video_edit", spec_of(), sd.Recolor("blue"), frames)


def test_validate_rejects_sample_without_video():
    spec = spec_of()
    question, answer = sd.make_qa(spec, "shape")
    for s in (sd.Sample(kind="text_to_video", spec=spec, caption_detailed=sd.caption(spec)),
              sd.Sample(kind="video_understanding", spec=spec, question=question, answer=answer)):
        with pytest.raises(sd.SynthError, match="needs a float video"):
            s.validate()


def test_validate_rejects_mask_frames_unlike_media():
    s = edit_sample(frames=1)
    s.validate()
    s.preserved_mask = np.concatenate([s.preserved_mask, s.preserved_mask])
    with pytest.raises(sd.SynthError, match="preserved_mask"):
        s.validate()


def test_validate_rejects_edit_without_media_after_shard_round_trip(tmp_path):
    s = edit_sample()
    s.source = s.target = None
    with pytest.raises(sd.SynthError, match="source"):
        s.validate()
    (back,) = sd.read_shard(sd.write_shard([s], tmp_path / "s.bin"))
    with pytest.raises(sd.SynthError, match="source"):
        back.validate()


# -- shards -----------------------------------------------------------------------


def test_shard_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    samples = sd.sample_mixture(25, rng=rng)
    path = sd.write_shard(samples, tmp_path / "shard0.bin", seed=7)
    again = sd.read_shard(path)
    assert len(again) == len(samples)
    for a, b in zip(samples, again):
        assert a.kind == b.kind and a.spec == b.spec
        assert a.question == b.question and a.answer == b.answer
        assert a.instruction == b.instruction
        for field in ("video", "source", "target"):
            va, vb = getattr(a, field), getattr(b, field)
            assert (va is None) == (vb is None)
            if va is not None:
                assert np.array_equal(va, vb)
        if a.preserved_mask is not None:
            assert np.array_equal(a.preserved_mask, b.preserved_mask)
        b.validate()
    manifest = path.with_suffix(path.suffix + ".manifest.json")
    assert manifest.exists()
    import json
    meta = json.loads(manifest.read_text())
    assert meta["count"] == 25 and meta["seed"] == 7
    assert meta["ratio_table"] == dict(zip(sd.TASKS, sd.TASK_RATIOS))


def test_shard_corruption_detected(tmp_path):
    rng = np.random.default_rng(8)
    samples = sd.sample_mixture(3, rng=rng)
    path = sd.write_shard(samples, tmp_path / "s.bin")
    data = bytearray(path.read_bytes())
    data[0] = ord("X")
    path.write_bytes(bytes(data))
    from univid.sequence import DecodeError
    with pytest.raises(DecodeError):
        sd.read_shard(path)
