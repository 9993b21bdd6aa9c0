"""Shared fuzzing helpers for sequence round-trip and malformed-input tests."""

import numpy as np

from univid import sequence as sq


def random_valid_parts(rng: np.random.Generator, *, max_parts: int = 5):
    parts = []
    for _ in range(rng.integers(0, max_parts + 1)):
        roll = rng.random()
        if roll < 0.5:
            n = int(rng.integers(0, 13))
            parts.append(("text", rng.integers(0, sq.TEXT_VOCAB, size=n).tolist()))
        elif roll < 0.75:
            parts.append(("image", rng.standard_normal((1, sq.VISUAL_DIM)).astype(np.float32)))
        else:
            frames = int(rng.choice([8, 12]))
            parts.append(("video", rng.standard_normal((frames, sq.VISUAL_DIM)).astype(np.float32)))
    return parts


def random_valid_sequence(rng: np.random.Generator, **kw) -> sq.MultimodalSequence:
    return sq.pack_parts(random_valid_parts(rng, **kw))


def reassemble(parsed: sq.ParsedSequence, original: sq.MultimodalSequence) -> bool:
    """Rebuild the id and vector columns from parse output and compare them with
    the original's."""
    ids = {}
    for pos, run in parsed.text_segments:
        ids.update(enumerate(run, pos))
    if len(parsed.blocks) != len(parsed.spans):
        return False
    for span, (kind, emb) in zip(parsed.spans, parsed.blocks):
        if kind != span.kind or emb.shape[0] != span.length:
            return False
        opener, closer = (sq.BOI, sq.EOI) if kind == "image" else (sq.BOV, sq.EOV)
        ids.update(enumerate([opener, *[sq.VISUAL] * span.length, closer], span.start))
    if sorted(ids) != list(range(len(original))):
        return False
    vectors = np.concatenate([np.zeros((0, sq.VISUAL_DIM), np.float32), *(emb for _, emb in parsed.blocks)])
    return sq.MultimodalSequence([ids[i] for i in range(len(original))], vectors) == original


def mutate_sequence(seq: sq.MultimodalSequence, rng: np.random.Generator):
    """Apply one structural corruption; returns (sequence, expected_error) or None
    if the chosen mutation does not apply to this sequence."""
    ids, vectors = seq.ids, seq.vectors
    spans = sq.parse(seq).spans
    kind = rng.choice(["drop_closer", "stray_visual", "nest_opener", "swap_closer",
                       "shrink_span", "orphan_closer", "text_in_span"])
    if kind == "stray_visual":
        vec = rng.standard_normal((1, sq.VISUAL_DIM)).astype(np.float32)
        # position 0 is always outside all spans
        stray = sq.MultimodalSequence(np.insert(ids, 0, sq.VISUAL), np.concatenate([vec, vectors]))
        return stray, sq.StrayVisualTokenError
    if kind == "orphan_closer":
        return sq.MultimodalSequence(np.insert(ids, 0, sq.EOV), vectors), sq.UnmatchedCloserError
    if not spans:
        return None
    s = spans[int(rng.integers(len(spans)))]
    closer = s.start + s.length + 1
    if kind == "drop_closer":
        return sq.MultimodalSequence(np.delete(ids, closer), vectors), sq.ParseError
    if kind == "nest_opener":
        return sq.MultimodalSequence(np.insert(ids, s.start + 1, sq.BOV), vectors), sq.NestedSpanError
    if kind == "swap_closer":
        swapped = ids.copy()
        swapped[closer] = sq.EOI if s.kind == "video" else sq.EOV
        return sq.MultimodalSequence(swapped, vectors), sq.MismatchedCloserError
    if kind == "shrink_span":
        row = np.count_nonzero(ids[:s.start] == sq.VISUAL)  # the span's first vector
        return sq.MultimodalSequence(np.delete(ids, s.start + 1), np.delete(vectors, row, axis=0)), sq.SpanLengthError
    return sq.MultimodalSequence(np.insert(ids, s.start + 1, 65), vectors), sq.SpanContentError  # text_in_span
