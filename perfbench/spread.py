"""Run-to-run spread of the benchmark, and the recorded baseline.

    python3 perfbench/spread.py --first-seed 7000                   # 10 seeds per workload
    python3 perfbench/spread.py --first-seed 7000 --write-baseline  # also traced runs

Runs the command in ``BENCHMARK.json`` on every workload it lists, with ten
seeds from ``--first-seed`` on, one run after another (never in parallel),
and reports for every end-to-end metric its median, quartiles and spread:
the distance between the first and third quartile as a share of the
median. Every spread must stay below a third of the metric's bound. With
``--write-baseline`` it also
makes one traced run per workload and writes everything, with the
environment record, to ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    report = json.loads((ROOT / ".perfbench" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    result["environment"] = report["environment"]
    result["tail"] = report.get("tail")
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = {"run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            result = run_once(spec, workload, seed, 0)
            runs.append(result)
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: {shown}", flush=True)
        entry = {"seeds": [args.first_seed, args.first_seed + RUNS - 1], "end_to_end": {}}
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            ok = stats["spread"] < bound / 3
            steady &= ok
            entry["end_to_end"][name] = {"unit": runs[0]["metrics"][name]["unit"], "bound": bound, **stats}
            print(
                f"  {name:<14} median {stats['median']:<12.6g} q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g} "
                f"spread {stats['spread']:.4f} (bound/3 {bound / 3:.4f}){'' if ok else '  TOO WIDE'}",
                flush=True,
            )
        entry["tail"] = [r["tail"] for r in runs]
        if args.write_baseline:
            traced = run_once(spec, workload, args.first_seed, 1)
            entry["per_layer"] = traced["metrics"]
            baseline["environment"] = traced["environment"]
        baseline["workloads"][workload] = entry
    if args.write_baseline:
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"wrote {HERE / 'baseline.json'}")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
