"""Run-to-run spread of the end-to-end metrics, and agreement of two sets of runs.

    python3 bench/steadiness.py [--record FILE]

Runs the benchmark command of BENCHMARK.json on every workload with the
seeds in SEEDS, one run at a time, and then does the same a second time.
For every set, workload and end-to-end metric it prints the median and the
spread: the distance between the first and the third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound.  For every workload and metric it then prints by how much
the second set's median is worse than the first's, as a share of the first.
Every run's values go to --record (default bench/out/steadiness.json),
which is written again after each workload, so a cut-off run keeps what it
measured.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SETS = 2


def run_once(spec, workload: str, seed: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print(workload, seed, f"{wall:.1f}s",
          " ".join(f"{k}={v:.4g}" for k, v in values.items()), flush=True)
    return {"seed": seed, "wall_s": wall, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": values}


def summarise(spec, runs: list) -> dict:
    summary = {}
    for metric in spec["end_to_end"]:
        q1, med, q3 = statistics.quantiles([r["metrics"][metric["name"]] for r in runs], n=4)
        summary[metric["name"]] = {
            "median": med, "spread": (q3 - q1) / med, "bound": metric["bound"],
        }
    return summary


def agreement(spec, sets: list) -> dict:
    """Per workload and metric: how much worse the second median is than the
    first, as a share of the first (negative when it is better)."""
    out = {}
    for workload in sets[1]:
        out[workload] = {}
        for metric in spec["end_to_end"]:
            first, second = (s[workload]["summary"][metric["name"]]["median"] for s in sets)
            change = (second - first) / first
            out[workload][metric["name"]] = {
                "first": first, "second": second,
                "worse_by": change if metric["better"] == "lower" else -change,
                "bound": metric["bound"],
            }
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", default=str(ROOT / "bench" / "out" / "steadiness.json"))
    args = parser.parse_args()
    record_path = pathlib.Path(args.record)
    record_path.parent.mkdir(parents=True, exist_ok=True)

    record = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "sets": []}
    for n in range(1, SETS + 1):
        record["sets"].append({})
        for w in spec["workloads"]:
            runs = [run_once(spec, w["name"], seed) for seed in SEEDS]
            summary = summarise(spec, runs)
            record["sets"][-1][w["name"]] = {"runs": runs, "summary": summary}
            for name, s in summary.items():
                print(f"  set {n} {w['name']} {name:12s} median {s['median']:.6g}"
                      f"  spread {s['spread']:.3f}  bound {s['bound']}", flush=True)
            record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    record["agreement"] = agreement(spec, record["sets"])
    for workload, metrics in record["agreement"].items():
        for name, a in metrics.items():
            print(f"  {workload} {name:12s} second median worse by {a['worse_by']:+.3f}"
                  f"  bound {a['bound']}")
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
