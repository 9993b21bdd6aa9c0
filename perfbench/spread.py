"""Run workloads over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workloads perception_infer --seeds 1-10
    python3 perfbench/spread.py --workloads vae_pretrain,encoder_pretrain,corpus_shards,perception_infer \\
        --seeds 101-110 --trace-seeds 101-103 --baseline perfbench/baseline.json

Runs are sequential, one process each, from the repository root. `--seeds`
gives the untraced runs, whose end-to-end metrics are summarised; `--trace-seeds`
gives traced runs, whose per-layer metrics are summarised. For every metric it
prints the median, the quartiles from `statistics.quantiles(n=4)`, the spread
(third minus first quartile) as a share of the median, which is what the
end-to-end bounds in BENCHMARK.json are compared with, and the minimum and
maximum. `--baseline FILE` writes the summaries, with the run facts and the
command that made them, in the layout of perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if not text:
        return []
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: its result line and its facts."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    facts = next(json.loads(line[len("facts "):]) for line in lines if line.startswith("facts "))
    result = json.loads(lines[-1])
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    return result, facts


def summarize(results: list[dict]) -> dict:
    """metric -> {median, q1, q3, spread, min, max, unit} over the runs."""
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for r in results:
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    out = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0], None, vals[0])
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
                     "min": min(vals), "max": max(vals), "unit": units[name]}
    return out


def _print(title: str, summary: dict) -> None:
    print(f"{title:<44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'min':>12} {'max':>12}")
    for name, s in summary.items():
        print(f"{name:<44} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} {s['spread']:>8.2%} "
              f"{s['min']:>12.6g} {s['max']:>12.6g} {s['unit']}")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]),
                        help="comma-separated; default: the workloads in BENCHMARK.json")
    parser.add_argument("--seeds", default="1-10", help="untraced runs: a range like 1-10 or a list like 3,5,8")
    parser.add_argument("--trace-seeds", default="", help="traced runs, in the same form; default none")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--baseline", type=Path, help="write the summaries here")
    args = parser.parse_args(argv)

    command = (f"python3 perfbench/spread.py --workloads {args.workloads} --seeds {args.seeds} "
               f"--trace-seeds {args.trace_seeds} --seconds {args.seconds}")
    baseline = {"what": f"Medians over seeds, measured with: {command}. end_to_end: the untraced runs; "
                "per_layer: the traced runs. spread is (q3 - q1) / median from statistics.quantiles(n=4).",
                "facts": None, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = {0: [], 1: []}
        for trace, seeds in ((0, _seeds(args.seeds)), (1, _seeds(args.trace_seeds))):
            for seed in seeds:
                result, facts = _run(workload, seed, args.seconds, trace)
                runs[trace].append(result)
                baseline["facts"] = {k: v for k, v in facts.items() if k not in ("workload", "seed", "trace")}
        every = runs[0] + runs[1]
        entry = {"runs": {"untraced": len(runs[0]), "traced": len(runs[1]),
                          "attempted": sum(r["attempted"] for r in every),
                          "failed": sum(r["failed"] for r in every),
                          "all_correct": all(r["correct"] for r in every)}}
        for key, trace in (("end_to_end", 0), ("per_layer", 1)):
            if runs[trace]:
                entry[key] = summarize(runs[trace])
                _print(f"{workload} {key}", entry[key])
        baseline["workloads"][workload] = entry
    if args.baseline:
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
