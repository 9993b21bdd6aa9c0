"""Procedural moving-shapes corpus covering all six task families.

The world is a closed enumeration (shape, color, motion, background, size), so
captions, edit instructions and QA answers are exact by construction and every
sample can re-validate itself. Start positions are a deterministic function of
the motion plus a small seed-chosen jitter, which makes a caption almost
fully determine its video.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import codec

CANVAS = 32

SHAPES = ("circle", "square", "triangle")
COLORS = {"red": (1.0, 0.0, 0.0), "green": (0.0, 1.0, 0.0), "blue": (0.0, 0.0, 1.0), "yellow": (1.0, 1.0, 0.0)}
MOTIONS = {"left": (-1, 0), "right": (1, 0), "up": (0, -1), "down": (0, 1), "static": (0, 0)}
BACKGROUNDS = {"gray": 0.5, "white": 1.0, "black": 0.0}
SIZES = {"small": 4, "large": 7}

COLOR_NAMES = tuple(COLORS)
MOTION_NAMES = tuple(MOTIONS)
BACKGROUND_NAMES = tuple(BACKGROUNDS)
SIZE_NAMES = tuple(SIZES)

TASKS = ("image_understanding", "video_understanding", "text_to_image",
         "text_to_video", "image_edit", "video_edit")
# mixture weights, percent
TASK_RATIOS = (37.9, 4.36, 33.05, 3.97, 18.95, 1.76)

_JITTER = (-2, 0, 2)


class SynthError(Exception):
    pass


@dataclass(frozen=True)
class SceneSpec:
    shape: str
    color: str
    motion: str
    background: str
    size: str
    seed: int = 0
    has_object: bool = True

    def __post_init__(self):
        # a shard stores the seed as a u64 and has_object as an index into (False, True)
        if self.shape not in SHAPES or self.color not in COLORS or self.motion not in MOTIONS \
                or self.background not in BACKGROUNDS or self.size not in SIZES \
                or isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) \
                or not 0 <= self.seed < 2**64 or not isinstance(self.has_object, bool):
            raise SynthError(f"invalid scene spec {self}")

    def without_object(self) -> "SceneSpec":
        return dataclasses.replace(self, has_object=False)

    @functools.cached_property
    def jitter(self) -> tuple[int, int]:
        """(x, y) pixel offset of the start position: two `choice(_JITTER)` draws from `seed`, made once."""
        jx, jy = np.random.default_rng(self.seed).integers(len(_JITTER), size=2)
        return _JITTER[jx], _JITTER[jy]


def random_spec(rng: np.random.Generator) -> SceneSpec:
    # one draw per attribute in field order, then the seed
    tables = (SHAPES, COLOR_NAMES, MOTION_NAMES, BACKGROUND_NAMES, SIZE_NAMES)
    return SceneSpec(*[names[rng.integers(len(names))] for names in tables], seed=int(rng.integers(0, 2**31)))


# -- rendering ------------------------------------------------------------------


def _center(spec: SceneSpec, frame: int) -> tuple[int, int]:
    """(col, row) of the shape center: the frame-0 position, a deterministic
    function of (motion, seed), plus frame * velocity, clamped so the shape
    stays on the canvas."""
    vx, vy = MOTIONS[spec.motion]
    jx, jy = spec.jitter
    lo, hi = SIZES[spec.size], CANVAS - 1 - SIZES[spec.size]
    cx = CANVAS // 2 - 6 * vx + jx + vx * frame
    cy = CANVAS // 2 - 6 * vy + jy + vy * frame
    return min(max(cx, lo), hi), min(max(cy, lo), hi)


_SUBSAMPLE = 4


def _stamp(shape: str, r: int) -> np.ndarray:
    """Float32 [2r+1, 2r+1] coverage of `shape` at radius `r` about the middle pixel."""
    # subpixel sample positions along one axis, in pixels from the centre
    f = (np.arange((2 * r + 1) * _SUBSAMPLE) + 0.5) / _SUBSAMPLE - 0.5 - r
    fx, fy = f[None, :], f[:, None]
    if shape == "circle":
        m = fx * fx + fy * fy <= r * r
    elif shape == "square":
        m = (np.abs(fx) <= r) & (np.abs(fy) <= r)
    else:
        # upward triangle: apex r above the centre, base r below it
        m = (np.abs(fy) <= r) & (np.abs(fx) <= (fy + r) / 2.0)
    return m.reshape(2 * r + 1, _SUBSAMPLE, 2 * r + 1, _SUBSAMPLE).mean(axis=(1, 3)).astype(np.float32)


_STAMPS = {(shape, size): _stamp(shape, r) for shape in SHAPES for size, r in SIZES.items()}


def coverage(spec: SceneSpec, frame: int) -> np.ndarray:
    """Float [CANVAS, CANVAS] per-pixel shape coverage in [0, 1].

    Rasterization is anti-aliased by 4x4 subpixel sampling; edges are one-pixel
    ramps, deterministic per (spec, frame). Centres are integer pixels clamped
    into [r, CANVAS-1-r], so this is the (shape, size) stamp pasted whole at an
    integer offset, bitwise what a full-canvas subpixel grid gives: the offsets
    from the centre are the same exact dyadic values either way."""
    out = np.zeros((CANVAS, CANVAS), dtype=np.float32)
    if spec.has_object:
        r = SIZES[spec.size]
        cx, cy = _center(spec, frame)
        out[cy - r:cy + r + 1, cx - r:cx + r + 1] = _STAMPS[spec.shape, spec.size]
    return out


def _coverages(spec: SceneSpec, frames: int) -> np.ndarray:
    """Float [frames, CANVAS, CANVAS]: the coverage of frames 0 .. frames-1."""
    if frames < 1:
        raise SynthError(f"frames must be >= 1, got {frames}")
    return np.stack([coverage(spec, t) for t in range(frames)])


def _paint(spec: SceneSpec, cov: np.ndarray) -> np.ndarray:
    """Float32 [T, 3, CANVAS, CANVAS]: the background, with the object's color
    blended in by coverage `cov` [T, CANVAS, CANVAS] if the scene has one."""
    video = np.full((len(cov), 3, CANVAS, CANVAS), BACKGROUNDS[spec.background], dtype=np.float32)
    if not spec.has_object:
        return video
    # blend inside the bounding box of all frames' coverage; outside it the
    # blend bg * (1 - 0) + color * 0 is exactly bg
    rows, cols = np.nonzero(cov.any(axis=0))
    box = np.s_[..., rows.min():rows.max() + 1, cols.min():cols.max() + 1]
    c = cov[:, None][box]
    video[box] = video[box] * (1.0 - c) + np.array(COLORS[spec.color], dtype=np.float32).reshape(3, 1, 1) * c
    return video


def render(spec: SceneSpec, frames: int) -> np.ndarray:
    """Rasterize to float32 [frames, 3, CANVAS, CANVAS] in [0, 1]."""
    return _paint(spec, _coverages(spec, frames))


def render_frame(spec: SceneSpec, frame: int) -> np.ndarray:
    """Float32 [3, CANVAS, CANVAS]: frame `frame` of a render, drawn alone."""
    return _paint(spec, coverage(spec, frame)[None])[0]


# -- language -------------------------------------------------------------------


def caption(spec: SceneSpec, style: str = "detailed") -> str:
    if not spec.has_object:
        raise SynthError("cannot caption a background-only scene")
    if style == "short":
        return f"{spec.color} {spec.shape} {spec.motion}"
    if style == "detailed":
        return (f"a {spec.size} {spec.color} {spec.shape} on a {spec.background} "
                f"background moving {spec.motion}")
    raise SynthError(f"unknown caption style {style!r}")


def parse_caption(text: str) -> dict:
    """Scan for attribute words; returns whichever enum fields are present."""
    words = set(text.replace(".", " ").replace(",", " ").lower().split())
    found = {}
    for field, names in (("shape", SHAPES), ("color", COLOR_NAMES), ("motion", MOTION_NAMES),
                         ("background", BACKGROUND_NAMES), ("size", SIZE_NAMES)):
        hits = [n for n in names if n in words]
        if len(hits) == 1:
            found[field] = hits[0]
    return found


QUESTIONS = ("color", "shape", "motion", "background")


def make_qa(spec: SceneSpec, which: str) -> tuple[str, str]:
    if which == "color":
        return f"what color is the {spec.shape}?", spec.color
    if which == "shape":
        return "what shape is it?", spec.shape
    if which == "motion":
        return "which direction does it move?", spec.motion
    if which == "background":
        return "what is the background?", spec.background
    raise SynthError(f"unknown question kind {which!r}")


# -- editing --------------------------------------------------------------------


@dataclass(frozen=True)
class Recolor:
    new_color: str


@dataclass(frozen=True)
class RemoveObject:
    pass


@dataclass(frozen=True)
class ChangeBackground:
    new_background: str


@dataclass(frozen=True)
class AddObject:
    pass


def random_edit_op(spec: SceneSpec, rng: np.random.Generator) -> Recolor | RemoveObject | ChangeBackground | AddObject:
    # an `integers` index reads the same stream as `choice` over the names, at a fifth of the cost
    kind = ("recolor", "remove", "background", "add")[rng.integers(4)]
    if kind == "recolor":
        choices = [c for c in COLOR_NAMES if c != spec.color]
        return Recolor(choices[rng.integers(len(choices))])
    if kind == "remove":
        return RemoveObject()
    if kind == "background":
        choices = [b for b in BACKGROUND_NAMES if b != spec.background]
        return ChangeBackground(choices[rng.integers(len(choices))])
    return AddObject()


def make_edit_pair(kind: str, spec: SceneSpec, op: Recolor | RemoveObject | ChangeBackground | AddObject,
                   frames: int) -> Sample:
    """The `kind` ("image_edit" or "video_edit") sample that applies `op` to
    `spec` over `frames` frames."""
    if not spec.has_object:
        raise SynthError("edit pairs are built from a scene with an object")
    cov = _coverages(spec, frames)
    source_spec = spec
    preserved = cov == 0  # every pixel the shape does not touch
    if isinstance(op, Recolor):
        if op.new_color == spec.color:
            raise SynthError("recolor target equals the current color")
        edited = dataclasses.replace(spec, color=op.new_color)
        instruction = f"recolor the {spec.shape} to {op.new_color}"
    elif isinstance(op, RemoveObject):
        edited = spec.without_object()
        instruction = f"remove the {spec.shape}"
    elif isinstance(op, ChangeBackground):
        if op.new_background == spec.background:
            raise SynthError("background target equals the current background")
        edited = dataclasses.replace(spec, background=op.new_background)
        instruction = f"change the background to {op.new_background}"
        # only fully covered pixels are untouched; edge ramps blend the new bg
        preserved = cov >= 1.0
    elif isinstance(op, AddObject):
        edited, source_spec = spec, spec.without_object()
        instruction = f"add a {spec.size} {spec.color} {spec.shape} moving {spec.motion}"
    else:
        raise SynthError(f"unknown edit op {op!r}")
    return Sample(kind=kind, spec=spec, source=_paint(source_spec, cov), instruction=instruction,
                  target=_paint(edited, cov), preserved_mask=preserved, edited_spec=edited)


# -- samples and mixture -----------------------------------------------------------


@dataclass
class Sample:
    kind: str
    spec: SceneSpec
    caption_short: str = ""
    caption_detailed: str = ""
    question: str = ""
    answer: str = ""
    video: np.ndarray | None = None  # understanding input or generation target
    source: np.ndarray | None = None  # editing source
    instruction: str = ""
    target: np.ndarray | None = None  # editing target
    preserved_mask: np.ndarray | None = None  # bool [T, CANVAS, CANVAS], True where target must match source
    edited_spec: SceneSpec | None = None

    def frames(self) -> int:
        media = self.video if self.video is not None else self.target
        return int(media.shape[0])

    def validate(self) -> None:
        """Cheap self-consistency checks; raises SynthError on violation."""
        if self.kind not in TASKS:
            raise SynthError(f"unknown task kind {self.kind}")
        edit = self.kind in ("image_edit", "video_edit")
        names = ("source", "target", "preserved_mask") if edit else ("video",)
        frames = getattr(getattr(self, names[0]), "shape", ())[:1]
        for name in names:
            a = getattr(self, name)
            mask = name == "preserved_mask"
            want = (*frames, CANVAS, CANVAS) if mask else (*frames, 3, CANVAS, CANVAS)
            if not isinstance(a, np.ndarray) or a.shape != want or a.dtype.kind != ("b" if mask else "f"):
                raise SynthError(f"{self.kind} sample needs a {'bool' if mask else 'float'} {name} of "
                                 f"shape {want}, got {getattr(a, 'dtype', a)} {getattr(a, 'shape', '')}")
        if self.kind in ("image_understanding", "video_understanding"):
            if (self.question, self.answer) not in [make_qa(self.spec, which=w) for w in QUESTIONS]:
                raise SynthError(f"question {self.question!r} / answer {self.answer!r} do not match spec {self.spec}")
        if self.caption_detailed:
            parsed = parse_caption(self.caption_detailed)
            for field in ("shape", "color", "motion", "background", "size"):
                if parsed.get(field) != getattr(self.spec, field):
                    raise SynthError(f"caption does not round-trip for {field}: {self.caption_detailed!r}")
        if edit:
            diff = np.abs(self.source - self.target).max(axis=1)  # max over channels
            if (diff[self.preserved_mask] > 0).any():
                raise SynthError("edit pair differs inside the preserved region")


def build_sample(kind: str, rng: np.random.Generator) -> Sample:
    """A random sample of task `kind`: one frame for the image tasks, eight for the video tasks."""
    spec = random_spec(rng)
    n = 1 if kind.startswith("image") or kind == "text_to_image" else 8
    if kind in ("image_understanding", "video_understanding"):
        question, answer = make_qa(spec, QUESTIONS[rng.integers(len(QUESTIONS))])
        return Sample(kind=kind, spec=spec, question=question, answer=answer,
                      video=render(spec, n))
    if kind in ("text_to_image", "text_to_video"):
        return Sample(kind=kind, spec=spec, caption_short=caption(spec, "short"),
                      caption_detailed=caption(spec, "detailed"), video=render(spec, n))
    if kind in ("image_edit", "video_edit"):
        return make_edit_pair(kind, spec, random_edit_op(spec, rng), n)
    raise SynthError(f"unknown task kind {kind}")


def sample_mixture(n: int, *, rng: np.random.Generator) -> list[Sample]:
    """`n` samples whose tasks are drawn at TASK_RATIOS."""
    ratios = np.asarray(TASK_RATIOS, dtype=np.float64)
    kinds = rng.choice(len(TASKS), size=n, p=ratios / ratios.sum())
    return [build_sample(TASKS[k], rng) for k in kinds]


# -- shards -----------------------------------------------------------------------
#
# One binary file per shard plus a JSON manifest. The file is a `codec`
# envelope (magic b"UVSH", version 2, CRC32 trailer) around:
#   count   u32     number of samples
#   samples, each:
#     present u16   bit i set when the i-th `Sample` field, in declaration
#                   order, is stored (not None and not "")
#     the present fields in declaration order, each stored as
#       text:   u32 byte length, UTF-8 bytes
#       spec:   u8 indices of shape, color, motion, background, size and
#               has_object into their name tables, then seed u64
#       tensor: codec n-d float32 array
#       mask:   codec n-d bit-packed boolean array
#
# The field order and storage are part of the format: adding, removing or
# reordering a `Sample` field changes it and needs a SHARD_VERSION bump.

SHARD_MAGIC = b"UVSH"
SHARD_VERSION = 2

_SPEC = struct.Struct("<6BQ")
_SPEC_TABLES = (SHAPES, COLOR_NAMES, MOTION_NAMES, BACKGROUND_NAMES, SIZE_NAMES, (False, True))


def _write_spec(w: codec.Writer, spec: SceneSpec) -> None:
    values = (spec.shape, spec.color, spec.motion, spec.background, spec.size, spec.has_object)
    w.pack(_SPEC, *(names.index(v) for names, v in zip(_SPEC_TABLES, values)), spec.seed)


def _read_spec(r: codec.Reader) -> SceneSpec:
    shape, color, motion, background, size, has_object, seed = r.enums(_SPEC, _SPEC_TABLES)
    return SceneSpec(shape, color, motion, background, size, seed, has_object)


_TEXT = (codec.Writer.text, codec.Reader.text)
_SPEC_IO = (_write_spec, _read_spec)
_TENSOR = (codec.Writer.tensor, codec.Reader.tensor)
_FIELD_IO = {"kind": _TEXT, "spec": _SPEC_IO, "caption_short": _TEXT, "caption_detailed": _TEXT,
             "question": _TEXT, "answer": _TEXT, "video": _TENSOR, "source": _TENSOR,
             "instruction": _TEXT, "target": _TENSOR,
             "preserved_mask": (codec.Writer.bits, codec.Reader.bits), "edited_spec": _SPEC_IO}
# (name, write, read) in declaration order; a field missing above fails here
_SAMPLE_IO = [(f.name, *_FIELD_IO[f.name]) for f in dataclasses.fields(Sample)]
_REQUIRED = sum(1 << i for i, f in enumerate(dataclasses.fields(Sample)) if f.default is dataclasses.MISSING)


def write_shard(samples: list[Sample], path: str | Path, *, seed: int | None = None) -> Path:
    path = Path(path)
    w = codec.Writer(SHARD_MAGIC, SHARD_VERSION)
    w.pack(codec.U32, len(samples))
    for s in samples:
        values = [getattr(s, name) for name, _, _ in _SAMPLE_IO]
        present = [v is not None and not (isinstance(v, str) and not v) for v in values]
        w.pack(codec.U16, sum(1 << i for i, p in enumerate(present) if p))
        for (_, write, _), value, p in zip(_SAMPLE_IO, values, present):
            if p:
                write(w, value)
    path.write_bytes(w.finish())
    manifest = {
        "version": SHARD_VERSION,
        "count": len(samples),
        "counts_per_task": collections.Counter(s.kind for s in samples),
        "seed": seed,
        "ratio_table": dict(zip(TASKS, TASK_RATIOS)),
    }
    path.with_suffix(path.suffix + ".manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return path


def read_shard(path: str | Path) -> list[Sample]:
    r = codec.Reader(Path(path).read_bytes(), SHARD_MAGIC, SHARD_VERSION)
    (count,) = r.unpack(codec.U32)
    samples = []
    for _ in range(count):
        at = r.off
        (present,) = r.unpack(codec.U16)
        if present & _REQUIRED != _REQUIRED or present >> len(_SAMPLE_IO):
            raise codec.DecodeError(at, f"bad field mask {present:#06x}")
        samples.append(Sample(**{name: read(r) for i, (name, _, read) in enumerate(_SAMPLE_IO)
                                 if present >> i & 1}))
    r.finish()
    return samples
