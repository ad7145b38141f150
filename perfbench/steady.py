"""Steadiness check: run workloads repeatedly and judge each end-to-end
metric's spread against the bound in BENCHMARK.json.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--first-seed 1]
                                [--out runs.json] [--against earlier.json]

Each run is `perfbench/run.py --trace 0` with its own seed and the
BENCHMARK.json run length. A metric's spread is the distance between the
first and third quartile of its values (statistics.quantiles, n=4) as a
share of their median. It should stay under a third of the metric's bound
and must stay under the bound.
With --against, every median must also be no worse than the earlier set's
by more than the bound. Exits 1 when a rule fails or a run is incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int) -> dict:
    cmd = [*BENCH["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", "0"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}: {out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in BENCH["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, help="write every run's metrics here as JSON")
    parser.add_argument("--against", type=Path, help="an earlier --out file to compare medians with")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in BENCH["workloads"]]
    earlier = json.loads(args.against.read_text(encoding="utf-8")) if args.against else {}

    values: dict[str, dict[str, list[float]]] = {}
    ok = True
    for w in workloads:
        values[w] = {m["name"]: [] for m in BENCH["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res = run_once(w, seed)
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {seed}: {res['failed']} of {res['attempted']} ops failed")
                ok = False
            for name, vals in values[w].items():
                vals.append(res["metrics"][name]["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{n}={res['metrics'][n]['value']:.4g}" for n in values[w]), flush=True)

    print(f"\n{'workload':<12} {'metric':<12} {'median':>10} {'spread':>8} {'bound':>6}  verdict")
    for w in workloads:
        for m in BENCH["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = values[w][name]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            verdict = "steady" if spread < bound / 3 else "within bound" if spread <= bound else "TOO WIDE"
            if verdict == "TOO WIDE":
                ok = False
            if w in earlier:
                before = statistics.median(earlier[w][name])
                worse = (med - before) / before if m["better"] == "lower" else (before - med) / before
                verdict += f"; {worse:+.1%} vs earlier"
                if worse > bound:
                    verdict += " WORSE THAN BOUND"
                    ok = False
            print(f"{w:<12} {name:<12} {med:>10.4g} {spread:>8.3f} {bound:>6.2f}  {verdict}")
    if args.out:
        args.out.write_text(json.dumps(values, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
