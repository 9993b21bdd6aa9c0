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
    return sequence_of(random_valid_parts(rng, **kw))


def sequence_of(parts) -> sq.MultimodalSequence:
    """The element stream of (tag, payload) parts, each visual block wrapped in
    its opener and closer; blocks carry their own length, so any frame count
    is accepted."""
    elements = []
    for tag, payload in parts:
        if tag == "text":
            elements.extend(sq.TextToken(int(i)) for i in payload)
        else:
            opener, closer = (sq.BOI, sq.EOI) if tag == "image" else (sq.BOV, sq.EOV)
            elements.append(sq.TextToken(opener))
            elements.extend(sq.VisualToken(row) for row in payload)
            elements.append(sq.TextToken(closer))
    return sq.MultimodalSequence(elements=elements)


def reassemble(parsed: sq.ParsedSequence, original: sq.MultimodalSequence) -> bool:
    """Check parse output against the original element stream."""
    rebuilt = {}
    for pos, ids in parsed.text_segments:
        for k, tid in enumerate(ids):
            rebuilt[pos + k] = sq.TextToken(tid)
    bi = 0
    for span in parsed.spans:
        kind, emb = parsed.blocks[bi]
        if kind != span.kind or emb.shape[0] != span.length:
            return False
        rebuilt[span.start] = sq.TextToken(sq.BOI if kind == "image" else sq.BOV)
        for k in range(span.length):
            rebuilt[span.start + 1 + k] = sq.VisualToken(emb[k])
        rebuilt[span.start + span.length + 1] = sq.TextToken(sq.EOI if kind == "image" else sq.EOV)
        bi += 1
    if len(rebuilt) != len(original.elements):
        return False
    return all(rebuilt[i] == el for i, el in enumerate(original.elements))


def mutate_sequence(seq: sq.MultimodalSequence, rng: np.random.Generator):
    """Apply one structural corruption; returns (elements, expected_error) or None
    if the chosen mutation does not apply to this sequence."""
    elements = list(seq.elements)
    spans = sq.parse(seq).spans
    kind = rng.choice(["drop_closer", "stray_visual", "nest_opener", "swap_closer",
                       "shrink_span", "orphan_closer", "text_in_span"])
    if kind == "drop_closer" and spans:
        s = spans[int(rng.integers(len(spans)))]
        del elements[s.start + s.length + 1]
        return elements, sq.ParseError
    if kind == "stray_visual":
        vec = rng.standard_normal(sq.VISUAL_DIM).astype(np.float32)
        # insert at a position outside all spans (position 0 is always outside)
        elements.insert(0, sq.VisualToken(vec))
        return elements, sq.StrayVisualTokenError
    if kind == "nest_opener" and spans:
        s = spans[int(rng.integers(len(spans)))]
        elements.insert(s.start + 1, sq.TextToken(sq.BOV))
        return elements, sq.NestedSpanError
    if kind == "swap_closer" and spans:
        s = spans[int(rng.integers(len(spans)))]
        pos = s.start + s.length + 1
        wrong = sq.EOI if s.kind == "video" else sq.EOV
        elements[pos] = sq.TextToken(wrong)
        return elements, sq.MismatchedCloserError
    if kind == "shrink_span" and spans:
        s = spans[int(rng.integers(len(spans)))]
        del elements[s.start + 1]
        return elements, sq.SpanLengthError
    if kind == "orphan_closer":
        elements.insert(0, sq.TextToken(sq.EOV))
        return elements, sq.UnmatchedCloserError
    if kind == "text_in_span" and spans:
        s = spans[int(rng.integers(len(spans)))]
        elements.insert(s.start + 1, sq.TextToken(65))
        return elements, sq.SpanContentError
    return None
