"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/sweep.py --seeds 1-10 [--out FILE] [--compare EARLIER_FILE]

Runs bench/run.py once per workload and seed, one run at a time, with
tracing off, for the run_seconds of BENCHMARK.json.  For every end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread, which is the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.  --out writes the summary, with the
machine, the per-seed values and the round digests, as JSON; this is the
format of the files in bench/trajectory/.  --compare checks the medians
against an earlier summary, by the bound of each metric, and checks that
the round digests of every seed run in both agree; it refuses a summary
made with another run length.

Exit code 1 if any run failed or was incorrect, or a comparison failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((ROOT / ".bench_out" / f"{workload}-seed{seed}-trace0.json")
                        .read_text(encoding="utf-8"))
    return result, report


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"), "values": values}


def sweep(bench, seeds):
    seconds = bench["run_seconds"]
    out = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for w in (w["name"] for w in bench["workloads"]):
        values, digests, counts = {}, {}, []
        for seed in seeds:
            result, report = run_once(w, seed, seconds)
            out.setdefault("machine", report["machine"])
            ok &= result["correct"] and result["failed"] == 0
            counts.append({"seed": seed, "attempted": result["attempted"],
                           "failed": result["failed"], "rounds": report["rounds"]})
            digests[str(seed)] = report["round_digests"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + "  ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        metrics = {}
        for spec in bench["end_to_end"]:
            s = summarise(values[spec["name"]])
            s["bound"] = spec["bound"]
            metrics[spec["name"]] = s
            flag = "" if s["spread"] < spec["bound"] / 3 else "  <-- spread >= bound/3"
            print(f"  {w:14s} {spec['name']:14s} median {s['median']:.5g} {spec['unit']:4s} "
                  f"q1 {s['q1']:.5g} q3 {s['q3']:.5g} spread {s['spread']:.3f} "
                  f"bound {spec['bound']}{flag}", flush=True)
        out["workloads"][w] = {"metrics": metrics, "runs": counts, "round_digests": digests}
    return out, ok


def compare(bench, current, earlier):
    if current["seconds"] != earlier["seconds"]:
        print(f"  cannot compare: runs of {current['seconds']} s against "
              f"runs of {earlier['seconds']} s")
        return False
    ok = True
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    for w, cur in current["workloads"].items():
        old = earlier["workloads"].get(w)
        if old is None:
            continue
        for name, s in cur["metrics"].items():
            prev = old["metrics"][name]["median"]
            worse = (s["median"] - prev) / prev if better[name] == "lower" \
                else (prev - s["median"]) / prev
            verdict = "ok" if worse <= s["bound"] else "WORSE THAN BOUND"
            ok &= verdict == "ok"
            print(f"  {w:14s} {name:14s} {prev:.5g} -> {s['median']:.5g} "
                  f"worse by {worse:+.3f} (bound {s['bound']}) {verdict}")
        for seed, digests in cur["round_digests"].items():
            before = old["round_digests"].get(seed)
            if before is None:
                continue
            n = min(len(before), len(digests))
            same = before[:n] == digests[:n]
            ok &= same
            print(f"  {w:14s} seed {seed}: first {n} round digests "
                  f"{'identical' if same else 'DIFFER'}")
    return ok


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args(argv)

    current, ok = sweep(bench, parse_seeds(args.seeds))
    if args.out:
        Path(args.out).write_text(json.dumps(current, indent=1) + "\n", encoding="utf-8")
    if args.compare:
        earlier = json.loads(Path(args.compare).read_text(encoding="utf-8"))
        ok &= compare(bench, current, earlier)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
