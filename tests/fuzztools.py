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
    """Rebuild the id and vector columns from parse output alone, each text run
    at its position and the blocks in order between them, and compare them
    with the original's."""
    ids, runs = [], dict(parsed.text_segments)
    for kind, emb in parsed.blocks:
        ids += runs.pop(len(ids), [])
        opener, closer = (sq.BOI, sq.EOI) if kind == "image" else (sq.BOV, sq.EOV)
        ids += [opener, *[sq.VISUAL] * len(emb), closer]
    ids += runs.pop(len(ids), [])
    if runs:  # a run whose position the rebuild never reached
        return False
    vectors = np.concatenate([np.zeros((0, sq.VISUAL_DIM), np.float32), *(emb for _, emb in parsed.blocks)])
    return sq.MultimodalSequence(ids, vectors) == original


def mutate_sequence(seq: sq.MultimodalSequence, rng: np.random.Generator):
    """Apply one structural corruption; returns (sequence, expected_error) or None
    if the chosen mutation does not apply to this sequence."""
    ids, vectors = seq.ids, seq.vectors
    # the openers, one per parsed block and in the same order
    starts = np.flatnonzero((ids == sq.BOI) | (ids == sq.BOV))
    kind = rng.choice(["drop_closer", "stray_visual", "nest_opener", "swap_closer",
                       "shrink_span", "orphan_closer", "text_in_span"])
    if kind == "stray_visual":
        vec = rng.standard_normal((1, sq.VISUAL_DIM)).astype(np.float32)
        # position 0 is always outside all spans
        stray = sq.MultimodalSequence(np.insert(ids, 0, sq.VISUAL), np.concatenate([vec, vectors]))
        return stray, sq.StrayVisualTokenError
    if kind == "orphan_closer":
        return sq.MultimodalSequence(np.insert(ids, 0, sq.EOV), vectors), sq.UnmatchedCloserError
    if not len(starts):
        return None
    i = int(rng.integers(len(starts)))
    start, (span_kind, emb) = int(starts[i]), sq.parse(seq).blocks[i]
    closer = start + len(emb) + 1
    if kind == "drop_closer":
        return sq.MultimodalSequence(np.delete(ids, closer), vectors), sq.ParseError
    if kind == "nest_opener":
        return sq.MultimodalSequence(np.insert(ids, start + 1, sq.BOV), vectors), sq.NestedSpanError
    if kind == "swap_closer":
        swapped = ids.copy()
        swapped[closer] = sq.EOI if span_kind == "video" else sq.EOV
        return sq.MultimodalSequence(swapped, vectors), sq.MismatchedCloserError
    if kind == "shrink_span":
        row = np.count_nonzero(ids[:start] == sq.VISUAL)  # the span's first vector
        return sq.MultimodalSequence(np.delete(ids, start + 1), np.delete(vectors, row, axis=0)), sq.SpanLengthError
    return sq.MultimodalSequence(np.insert(ids, start + 1, 65), vectors), sq.SpanContentError  # text_in_span
