"""The four closed-loop workloads: one client, the next op starts when the last ends.

Each workload is built from the benchmark seed, prepares its inputs in
`__init__` (outside every timer), does its set-up in `setup` (timed as set-up)
and runs ops in `run` until a time budget is spent. `run` can be called more
than once; every call replays the same inputs from the start, so two calls do
identical work and their outputs must match bitwise. Set-up does the same work
whatever the benchmark seed, so that `setup_s` does not vary with it.

Output checks never abort a run: a failed check or a raised error marks the op
failed, and the first few messages are kept for the report.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from univid import evals, perception, sequence, synthdata
from univid import numerics as nx
from univid.numerics import optim as nx_optim

from spans import clock, patched

MAX_NOTES = 5
SETUP_SEED = 0  # benchmark seed of every set-up
SETUP_INDEX = 2**31 - 1  # run/shard index reserved for set-up, never measured


@dataclass
class Measured:
    """What one `run` call did. Times are seconds of wall clock."""

    op_s: list = field(default_factory=list)  # wall time of each op
    op_items: list = field(default_factory=list)  # items each op completed
    intervals: list = field(default_factory=list)  # (start, end) clock reads of each op
    frames_used: float = 0  # rendered frames fed to a model or stored in a shard, in ops
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    final_losses: list = field(default_factory=list)
    read_items: int = 0
    read_s: float = 0.0

    def add_op(self, start: float, end: float, items: int) -> None:
        self.op_s.append(end - start)
        self.op_items.append(items)
        self.intervals.append((start, end))

    @property
    def items_per_s(self) -> float:
        busy = sum(self.op_s)
        return sum(self.op_items) / busy if busy else 0.0

    def extend(self, other: "Measured") -> None:
        """Append the ops of a later run."""
        for f in dataclasses.fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            setattr(self, f.name, mine + theirs)
        del self.notes[MAX_NOTES:]

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.notes) < MAX_NOTES:
            self.notes.append(message)


def _run_seed(seed: int, index: int) -> int:
    """Distinct, reproducible seed for the index-th training run or shard."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0] % (2**31))


class _Deadline(Exception):
    """Raised from the step hook to end a pretraining call when time is up."""


class Pretrain:
    """Repeated pretraining calls at the function's defaults, each for a fixed
    number of steps. One op is one optimizer step.

    The step hook on the public `AdamW.step` is the only clock read inside the
    program; a counter on the model's entry point (no clock) counts the items
    each step consumes. When the budget is spent the step hook raises, which
    ends the current call mid-run; only calls that ran all their steps give a
    final loss. The second call repeats the first call's seed, and the losses
    of each seed are kept across `run` calls, so every run that completes two
    calls in all checks that a repeated seed gives bitwise the same losses."""

    steps_per_run = 40
    warmup_steps = 2

    def __init__(self, seed: int, pretrain, entry_owner, entry_attr: str, items_of, used_per_item: float):
        self.seed = seed
        self.pretrain = pretrain
        self.entry = (entry_owner, entry_attr)
        self.items_of = items_of  # arguments of the entry call -> items it consumes
        self.used_per_item = used_per_item  # rendered frames used per item
        self.histories: dict[int, list[float]] = {}

    def setup(self) -> None:
        self.pretrain(steps=self.warmup_steps, seed=_run_seed(SETUP_SEED, SETUP_INDEX))

    def run(self, seconds: float) -> Measured:
        m = Measured()
        deadline = clock() + seconds
        prev = [0.0]
        pending = [0]
        step = nx_optim.AdamW.__dict__["step"]
        owner, attr = self.entry
        entry = getattr(owner, attr)

        def timed_step(opt):
            step(opt)
            now = clock()
            m.add_op(prev[0], now, pending[0])
            m.frames_used += pending[0] * self.used_per_item
            pending[0] = 0
            prev[0] = now
            if now >= deadline:
                raise _Deadline

        def counted(*args, **kwargs):
            pending[0] += self.items_of(args)
            return entry(*args, **kwargs)

        with patched(nx_optim.AdamW, "step", timed_step), patched(owner, attr, counted):
            calls = 0
            while clock() < deadline:
                index = max(0, calls - 1)  # seed indices 0, 0, 1, 2, ...
                calls += 1
                steps_before = len(m.op_s)
                prev[0] = clock()
                pending[0] = 0
                history = None
                try:
                    _, history = self.pretrain(steps=self.steps_per_run, seed=_run_seed(self.seed, index))
                except _Deadline:
                    pass
                except Exception as e:  # a failing step is reported, never fatal
                    m.attempted += 1
                    m.fail(f"run {index} step {len(m.op_s) - steps_before}: {type(e).__name__}: {e}")
                m.attempted += len(m.op_s) - steps_before
                if history is not None:
                    self._check(index, history, m)
        return m

    def _check(self, index: int, history: list, m: Measured) -> None:
        losses = np.asarray(history, dtype=np.float64)
        if len(losses) != self.steps_per_run:
            m.fail(f"run {index}: {len(losses)} losses for {self.steps_per_run} steps")
            return
        if not np.isfinite(losses).all():
            m.fail(f"run {index}: non-finite loss")
            return
        final = float(losses[-max(1, len(losses) // 10):].mean())
        if not final < losses[0]:
            m.fail(f"run {index}: final loss {final:.5f} not below first-step loss {losses[0]:.5f}")
        seen = self.histories.setdefault(index, list(history))
        if seen != list(history):
            m.fail(f"run {index}: losses differ from an earlier run with the same seed")
        m.final_losses.append(final)


def vae_pretrain(seed: int, workdir: Path) -> Pretrain:
    """An item is one reconstructed frame: batch x frames of each encoded batch."""
    return Pretrain(seed, perception.pretrain_vae, perception.CausalVideoVae, "encode_batch",
                    lambda args: args[1].shape[0] * args[1].shape[1], used_per_item=1.0)


def encoder_pretrain(seed: int, workdir: Path) -> Pretrain:
    """An item is one augmented view; each rendered frame kept gives two views."""
    return Pretrain(seed, perception.pretrain_frame_encoder, perception, "contrastive_loss",
                    lambda args: args[1].shape[0] + args[2].shape[0], used_per_item=0.5)


# -- corpus shards --------------------------------------------------------------


def _sample_parts(s: synthdata.Sample, rng: np.random.Generator) -> list:
    """Interleaved parts for one sample; visual blocks hold random embeddings."""
    block = "image" if s.frames() == 1 else "video"

    def emb():
        return rng.standard_normal((s.frames(), sequence.VISUAL_DIM)).astype(np.float32)

    text = sequence.encode_text
    if s.kind.endswith("understanding"):
        return [("text", text(s.question)), (block, emb()), ("text", text(s.answer))]
    if s.kind.startswith("text_to"):
        return [("text", text(s.caption_detailed)), (block, emb())]
    return [("text", text(s.instruction)), (block, emb()), (block, emb())]


def _same_sample(a: synthdata.Sample, b: synthdata.Sample) -> str | None:
    for f in dataclasses.fields(synthdata.Sample):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if not (isinstance(x, np.ndarray) and isinstance(y, np.ndarray)
                    and x.dtype == y.dtype and np.array_equal(x, y)):
                return f.name
        elif x != y:
            return f.name
    return None


def _same_parse(parts: list, parsed: sequence.ParsedSequence) -> bool:
    blocks = [(tag, p) for tag, p in parts if tag != "text"]
    texts = [p for tag, p in parts if tag == "text"]
    return (len(blocks) == len(parsed.blocks)
            and all(k == pk and np.array_equal(e, pe) for (k, e), (pk, pe) in zip(blocks, parsed.blocks))
            and texts == [ids for _, ids in parsed.text_segments])


class CorpusShards:
    """One op builds one shard at the paper's task mixture, writes it, reads
    it back and validates it; each sample also makes a round trip through the
    sequence wire format. An item is one sample."""

    samples_per_shard = 32

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        self._op(SETUP_SEED, SETUP_INDEX, Measured())

    def run(self, seconds: float) -> Measured:
        m = Measured()
        deadline = clock() + seconds
        index = 0
        while clock() < deadline:
            self._op(self.seed, index, m)
            index += 1
        return m

    def _op(self, seed: int, index: int, m: Measured) -> None:
        rng = np.random.default_rng(_run_seed(seed, index))
        path = self.workdir / f"shard-{index}.uvsh"
        m.attempted += 1
        try:
            t0 = clock()
            samples = synthdata.sample_mixture(self.samples_per_shard, rng=rng)
            synthdata.write_shard(samples, path, seed=seed)
            parts = [_sample_parts(s, rng) for s in samples]
            packed = [sequence.pack_parts(p) for p in parts]
            wire = [sequence.serialize(q) for q in packed]
            t1 = clock()
            back = synthdata.read_shard(path)
            seqs = [sequence.deserialize(w) for w in wire]
            parsed = [sequence.parse(q) for q in seqs]
            t2 = clock()
            for s in back:
                s.validate()
            t3 = clock()
        except Exception as e:  # reported as a failed op, never fatal
            m.fail(f"shard {index}: {type(e).__name__}: {e}")
            return
        finally:
            for p in (path, path.with_suffix(path.suffix + ".manifest.json")):
                p.unlink(missing_ok=True)
        m.add_op(t0, t3, len(samples))
        m.read_items += len(back)
        m.read_s += t2 - t1
        m.frames_used += sum(sum(a.shape[0] for a in (s.video, s.source, s.target) if a is not None)
                             for s in samples)
        problem = None
        if len(back) != len(samples):
            problem = f"read {len(back)} samples, wrote {len(samples)}"
        else:
            for i, (a, b) in enumerate(zip(samples, back)):
                bad = _same_sample(a, b)
                if bad is not None:
                    problem = f"sample {i} field {bad!r} differs after the shard round trip"
                    break
        for i, (p, q0, q, pr) in enumerate(zip(parts, packed, seqs, parsed)):
            if problem is not None:
                break
            if q != q0:
                problem = f"sample {i}: deserialize(serialize(seq)) != seq"
            elif not _same_parse(p, pr):
                problem = f"sample {i}: parse does not return the packed blocks"
        if problem is not None:
            m.fail(f"shard {index}: {problem}")


# -- perception requests ----------------------------------------------------------


class PerceptionInfer:
    """Forward-only requests on pre-rendered 8-frame videos: attribute probe
    plus VAE encode/decode under no_grad. An item is one request.

    The models are the default-seeded (untrained) ones; the timing does not
    depend on the weights. Requests cycle through the pool, so every request
    after the first pass repeats an earlier one and must match it bitwise."""

    pool_size = 32
    frames = 8
    probe_videos = 48
    probe_steps = 60
    warmup_requests = 2

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.pool = [synthdata.render(synthdata.random_spec(rng), self.frames) for _ in range(self.pool_size)]
        self.digests: dict[int, bytes] = {}

    def setup(self) -> None:
        self.encoder = perception.FrameEncoder()
        self.vae = perception.CausalVideoVae()
        self.probe = evals.train_probe(self.encoder, n_train=self.probe_videos, steps=self.probe_steps)
        for j in range(self.warmup_requests):
            self._request(self.pool[j])

    def _request(self, video: np.ndarray):
        labels = self.probe.classify(video)
        with nx.no_grad():
            recon = self.vae.decode(self.vae.encode(video)).numpy()
        return labels, recon

    def run(self, seconds: float) -> Measured:
        m = Measured()
        deadline = clock() + seconds
        n = 0
        while clock() < deadline:
            j = n % self.pool_size
            video = self.pool[j]
            n += 1
            m.attempted += 1
            try:
                t0 = clock()
                labels, recon = self._request(video)
                t1 = clock()
            except Exception as e:  # reported as a failed op, never fatal
                m.fail(f"request {n - 1}: {type(e).__name__}: {e}")
                continue
            m.add_op(t0, t1, 1)
            problem = self._check(j, video, labels, recon)
            if problem is not None:
                m.fail(f"request {n - 1}: {problem}")
        return m

    def _check(self, j: int, video: np.ndarray, labels: dict, recon: np.ndarray) -> str | None:
        if recon.shape != video.shape:
            return f"reconstruction shape {recon.shape}, expected {video.shape}"
        if not np.isfinite(recon).all():
            return "non-finite reconstruction"
        if set(labels) != set(evals.PROBE_ATTRS):
            return f"labels for {sorted(labels)}, expected {sorted(evals.PROBE_ATTRS)}"
        for attr, names in evals.PROBE_ATTRS.items():
            if labels[attr] not in names:
                return f"label {labels[attr]!r} is not a {attr}"
        digest = hashlib.sha256(recon.tobytes() + repr(sorted(labels.items())).encode()).digest()
        if self.digests.setdefault(j, digest) != digest:
            return f"repeat of pool video {j} is not bitwise identical"
        return None


WORKLOADS = {
    "vae_pretrain": vae_pretrain,
    "encoder_pretrain": encoder_pretrain,
    "corpus_shards": CorpusShards,
    "perception_infer": PerceptionInfer,
}

