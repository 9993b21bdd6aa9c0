"""univid benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload vae_pretrain --seed 1 --seconds 20 --trace 0

With `--trace 0` the budget runs untraced in five equal segments, each after
one set-up and each replaying the same inputs, and the end-to-end metrics are
printed. With `--trace 1` the first half of the budget runs untraced and the
second half runs the same inputs again with span tracing on; the per-layer
metrics come from the traced half, and the two halves give the tracing
overhead. The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# BLAS threads are fixed before numpy loads. The tensor engine is written as
# single-threaded, and one thread keeps timings steady on a shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5
BLOCKS = 80
MIN_BLOCK_OPS = 32
# Run in a fresh interpreter with SRC as its argument; prints the import's seconds.
IMPORT_CODE = """import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import numpy, univid
from univid import evals, numerics, perception, sequence, synthdata
print(time.perf_counter() - t0)
"""


def _import_program() -> None:
    """Import numpy and every univid module from SRC."""
    if not (SRC / "univid" / "__init__.py").is_file():
        raise SystemExit(f"error: no univid sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import univid
    from univid import evals, numerics, perception, sequence, synthdata  # noqa: F401
    if not Path(univid.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: univid was imported from {univid.__file__}, not from {SRC}")


def _fresh_import_s() -> float:
    """Seconds a fresh process takes to import numpy and every univid module."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(SRC)], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def _blas_info() -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"library": blas.get("name"), "version": blas.get("version"), "threads_requested": BLAS_THREADS}
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    try:
        get = ctypes.CDLL(str(libs[0])).scipy_openblas_get_num_threads64_
        get.restype, get.argtypes = ctypes.c_int, []
        info["threads"] = int(get())
    except (IndexError, OSError, AttributeError):
        info["threads"] = None
    return info


def _facts(args) -> dict:
    import numpy as np

    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__, "blas": _blas_info(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "src_lines": src_lines,
    }


def _blocks(n_ops: int, min_ops: int) -> list:
    """Up to BLOCKS runs of at least `min_ops` consecutive ops, as index arrays."""
    import numpy as np

    return np.array_split(np.arange(n_ops), max(1, min(BLOCKS, n_ops // min_ops)))


def best_items_per_s(m) -> float:
    """Items per second of op time in the block with the highest throughput,
    at the run's mix of op kinds.

    Ops of a kind carry the same number of items (the VAE's one-frame and
    eight-frame steps are two kinds). A block's throughput is the run's items
    over the time the run's ops would take at the block's mean time per kind,
    so a block cannot win by holding few of a slow kind. Blocks that miss a
    kind are skipped; with one kind this is the block's plain throughput."""
    import numpy as np

    op_s, items = np.asarray(m.op_s), np.asarray(m.op_items)
    if not op_s.sum():
        return 0.0
    kinds, kind, counts = np.unique(items, return_inverse=True, return_counts=True)
    best = 0.0
    for b in _blocks(len(op_s), MIN_BLOCK_OPS):
        present = np.bincount(kind[b], minlength=len(kinds))
        if present.all():
            mean_s = np.bincount(kind[b], weights=op_s[b], minlength=len(kinds)) / present
            best = max(best, float((counts * kinds).sum() / (counts * mean_s).sum()))
    return best or float(items.sum() / op_s.sum())


def end_to_end(m, setup_s: float) -> tuple[dict, dict]:
    """The gated metrics, and whole-run figures printed beside them.

    Other tenants of a shared machine only ever add time, in stretches of
    seconds, and the slowdown shows in CPU time too. So op_p50_ms and
    items_per_s are read from the least-disturbed block of consecutive ops:
    the lowest block median and the highest block throughput at the run's
    mix of op kinds (see best_items_per_s). The median
    counts only the ops that carry the most common number of items, so that a
    block's median cannot flip between the VAE's one-frame and eight-frame
    steps. op_p90_ms is taken over all ops of the run."""
    import numpy as np

    op_s, items = (np.asarray(m.op_s), np.asarray(m.op_items)) if m.op_s else (np.zeros(1), np.zeros(1))
    values, counts = np.unique(items, return_counts=True)
    common = items == values[np.argmax(counts)]
    p50 = min(float(np.median(op_s[b][common[b]])) for b in _blocks(len(op_s), MIN_BLOCK_OPS) if common[b].any())
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (1e3 * p50, "ms"),
        "op_p90_ms": (1e3 * float(np.quantile(op_s, 0.9)), "ms"),
        "items_per_s": (best_items_per_s(m), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    whole_run = {
        "ops": (len(m.op_s), "count"),
        "all_ops.op_p50_ms": (1e3 * float(np.median(op_s)), "ms"),
        "all_ops.items_per_s": (m.items_per_s, "1/s"),
    }
    return metrics, whole_run


def _step_split(steps, roots, spans) -> tuple[dict, str | None]:
    """Mean ms per op in data/forward/backward/optim, from the traced root
    spans that start inside each op interval. Data is the part of the op
    outside the other three. Returns the split and a problem, if any."""
    import numpy as np

    n = len(steps)
    if not n:
        return {phase: 0.0 for phase in ("data", "forward", "backward", "optim")}, None
    bounds = np.asarray(steps)
    phase = np.zeros((3, n))
    outlasts = False
    for name, start, end in roots:
        k = int(np.searchsorted(bounds[:, 0], start, side="right")) - 1
        outlasts |= end > bounds[k, 1]
        if name in spans.BACKWARD_SPANS:
            phase[1, k] += end - start
        elif name in spans.OPTIM_SPANS:
            phase[2, k] += end - start
        elif name not in spans.DATA_SPANS:
            phase[0, k] += end - start
    wall = bounds[:, 1] - bounds[:, 0]
    data = wall - phase.sum(axis=0)
    split = {"data": data.mean(), "forward": phase[0].mean(), "backward": phase[1].mean(),
             "optim": phase[2].mean()}
    problem = None
    if outlasts:
        problem = "a traced span outlasts its op"
    elif data.min() < -1e-9:
        problem = "traced spans exceed a step's wall time"
    elif abs(sum(split.values()) - wall.mean()) > 1e-9 * max(1.0, wall.mean()):
        problem = "step split does not sum to the step wall time"
    return {k: 1e3 * float(v) for k, v in split.items()}, problem


def per_layer(m0, m1, setup_table, tracer) -> tuple[dict, str | None]:
    """Per-layer metrics, each per op of the traced half unless its unit says
    otherwise. Only spans inside the traced half's op intervals count, so
    work between ops (the VAE's latent statistics after its last step) is
    left out as it is from op_p50_ms."""
    import spans

    ops = max(1, len(m1.op_s))
    table = tracer.table(m1.intervals)
    out: dict = {}

    def calls(key, name=None):
        out[name or f"{key}.calls"] = (table[key]["calls"] / ops, "count/op")

    def ms(key, name=None):
        out[name or f"{key}.ms"] = (1e3 * table[key]["total_s"] / ops, "ms/op")

    for op in spans.NUMERICS_OPS:
        key = f"numerics.{op}"
        calls(key)
        out[f"{key}.self_ms"] = (1e3 * table[key]["self_s"] / ops, "ms/op")
        out[f"{key}.out_mb"] = (table[key]["amount"] / 1e6 / ops, "MB/op")
    for key in ("numerics.attention", "numerics.TransformerBlock", "numerics.backward",
                "numerics.adamw.step", "numerics.adamw.zero_grad"):
        ms(key)
    out["numerics.ops_per_step"] = (tracer.graph_nodes(m1.intervals) / ops, "count/op")

    split, problem = _step_split(m1.intervals, tracer.roots(m1.intervals), spans)
    for phase, value in split.items():
        out[f"perception.step.{phase}_ms"] = (value, "ms/op")
    for key in ("perception.CausalVideoVae.encode_batch", "perception.CausalVideoVae.decode_batch",
                "perception.FrameEncoder.embed_frames"):
        ms(key)
    calls("perception.augment_frame")
    ms("perception.augment_frame")
    ms("perception.contrastive_loss")
    out["final_loss"] = (statistics.fmean(m1.final_losses) if m1.final_losses else 0.0, "loss")

    rendered = table["synthdata.render"]["amount"]
    calls("synthdata.render")
    ms("synthdata.render")
    out["synthdata.render.frames"] = (rendered / ops, "frames/op")
    out["synthdata.render.frames_used_ratio"] = (m1.frames_used / rendered if rendered else 0.0, "ratio")
    calls("synthdata.coverage")
    for key in ("synthdata.coverage", "synthdata.sample_mixture", "synthdata.make_edit_pair",
                "synthdata.write_shard"):
        ms(key)
    out["synthdata.write_shard.bytes"] = (table["synthdata.write_shard"]["amount"] / ops, "bytes/op")
    for key in ("synthdata.read_shard", "synthdata.Sample.validate"):
        ms(key)
    out["read_items_per_s"] = (m0.read_items / m0.read_s if m0.read_s else 0.0, "1/s")

    for key in ("sequence.pack_parts", "sequence.serialize", "sequence.deserialize", "sequence.parse"):
        ms(key)
    out["sequence.serialize.bytes"] = (table["sequence.serialize"]["amount"] / ops, "bytes/op")

    ms("evals.probe_features")
    ms("evals.AttributeProbe.classify")
    out["evals.train_probe.ms"] = (1e3 * setup_table["evals.train_probe"]["total_s"], "ms/setup")

    traced = best_items_per_s(m1)
    out["trace.overhead_pct"] = (100.0 * (best_items_per_s(m0) / traced - 1.0) if traced else 0.0, "%")
    return out, problem


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    _import_program()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        return _run(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _setup_s(wl) -> float:
    """One set-up as a user pays it: a fresh process's import, then `setup`."""
    import_s = _fresh_import_s()
    t0 = time.perf_counter()
    wl.setup()
    return import_s + time.perf_counter() - t0


def _run(args, workloads, workdir: Path) -> int:
    facts = _facts(args)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)

    problem = None
    if not args.trace:
        # Set-up runs before each of SETUP_REPEATS equal segments of the timed
        # phase, so that its median samples the host across the whole run.
        m = workloads.Measured()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            setup_times.append(_setup_s(wl))
            m.extend(wl.run(args.seconds / SETUP_REPEATS))
        setup_s = statistics.median(setup_times)
        attempted, failed, notes = m.attempted, m.failed, m.notes
        metrics, whole_run = end_to_end(m, setup_s)
        info = {"error_rate": (failed / max(1, attempted), "ratio"), **whole_run}
        if m.final_losses:
            info["final_loss"] = (statistics.fmean(m.final_losses), "loss")
        if m.read_s:
            info["read_items_per_s"] = (m.read_items / m.read_s, "1/s")
    else:
        import spans

        wl.setup()
        m0 = wl.run(args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            wl.setup()
            setup_table = tracer.table()
            tracer.clear()
            m1 = wl.run(args.seconds / 2)
        finally:
            tracer.uninstall()
        attempted, failed = m0.attempted + m1.attempted, m0.failed + m1.failed
        notes = m0.notes + m1.notes
        metrics, problem = per_layer(m0, m1, setup_table, tracer)
        info = {"error_rate": (failed / max(1, attempted), "ratio"), "ops_traced": (len(m1.op_s), "count"),
                "items_per_s_untraced": (best_items_per_s(m0), "1/s"),
                "items_per_s_traced": (best_items_per_s(m1), "1/s")}
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"facts": facts, "setup": setup_table,
                                          "measure": tracer.table(m1.intervals)}, indent=1))
        print(f"spans written to {trace_file.relative_to(ROOT)}")

    print("facts " + json.dumps(facts, sort_keys=True))
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{name:<44} {value:>14.6g} {unit}")
    for note in notes:
        print(f"failed: {note}")
    if problem:
        print(f"harness check failed: {problem}")
    result = {
        "correct": attempted > 0 and failed == 0 and problem is None,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
