"""The quadwalk benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload classify-grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The inputs are made from --seed; the
program gets only those inputs.  Items run in a closed loop, one at a
time, in whole rounds until --seconds have passed, and every output is
checked.  With --trace 0 the run prints the end-to-end metrics; with
--trace 1 it runs each round untraced and then traced, and prints the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
A fuller report (machine, item counts, round digests, errors) goes to
.bench_out/, and traced runs also write their spans there.

See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the highest percentile with at least ten items beyond it at the run
# length of BENCHMARK.json (every workload completes >= 40 items there)
TAIL_PERCENTILE = 75
# set-up is short, so it is sampled several times between rounds to
# average over the machine's speed changes
SETUPS_PER_ROUND = 3
# the tracked files whose changes git_dirty reports
PROGRAM = ("src", "models")


def _percentile(values, p):
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def machine_info() -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "python": platform.python_version(),
        "git_sha": None,
        "git_dirty": None,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            info["git_sha"] = subprocess.run(
                git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                check=True).stdout.strip()
            # the program only: the benchmark's own files do not count
            info["git_dirty"] = bool(subprocess.run(
                git + ["status", "--porcelain", "--untracked-files=no", "--", *PROGRAM],
                capture_output=True, text=True, check=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return info


def _is_quadwalk(name):
    return name == "quadwalk" or name.startswith("quadwalk.")


def set_up(workload_cls, seed, work):
    """Import quadwalk from a clean module table and make the inputs;
    returns the workload and the seconds this took.

    When quadwalk is already loaded (a repeat between rounds), the new
    modules are dropped afterwards, so the items keep running on the
    modules their inputs were made with.
    """
    live = {n: sys.modules.pop(n) for n in list(sys.modules) if _is_quadwalk(n)}
    gc.collect()
    start = time.perf_counter()
    workload = workload_cls(seed, ROOT, work)
    seconds = time.perf_counter() - start
    if live:
        for name in [n for n in sys.modules if _is_quadwalk(n)]:
            del sys.modules[name]
        sys.modules.update(live)
    return workload, seconds


def set_up_in_child(workload_cls, seed, work) -> float:
    """The seconds of one set_up in a fresh interpreter, which adds
    nothing to the bench process's own peak RSS."""
    from workloads import child_env

    code = ("import sys; from pathlib import Path; import run, workloads; "
            "print(repr(run.set_up(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]), "
            "Path(sys.argv[3]))[1]))")
    path = os.pathsep.join((str(ROOT / "bench"), str(ROOT / "src")))
    proc = subprocess.run([sys.executable, "-c", code, workload_cls.name, str(seed), str(work)],
                          cwd=ROOT, env={**child_env(), "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    return float(proc.stdout)


def run_pass(items, call, seen, digests=None):
    """Run items one at a time; returns one result dict per item.

    seen maps item keys to the digest of their first output: a later
    output of the same key must be byte-identical.
    """
    from workloads import CheckFailed, digest_text

    results = []
    for item in items:
        error = digest = None
        start = time.perf_counter()
        try:
            raw = call(item)
            seconds = time.perf_counter() - start
            digest = digest_text(item.check(raw))
            if seen.setdefault(item.key, digest) != digest:
                raise CheckFailed(f"output of {item.key!r} differs from its first run")
        except Exception as e:  # an item failure is data; the run goes on
            seconds = time.perf_counter() - start
            error = f"{type(e).__name__}: {e}"[:500]
        results.append({"id": item.id, "seconds": seconds, "ok": error is None,
                        "digest": digest, "error": error})
    if digests is not None:
        digests.append(digest_text("".join(str(r["digest"]) for r in results).encode()))
    return results


def run_rounds(seconds, one_round, between=None):
    """Whole rounds, stopping at the round boundary nearest to `seconds`
    of measured time; `between` runs untimed after each round.  Returns
    the number of rounds and the measured seconds."""
    measured, r = 0.0, 0
    while True:
        start = time.perf_counter()
        one_round(r)
        measured += time.perf_counter() - start
        r += 1
        if between is not None:
            between(r)
        if measured + measured / r / 2 >= seconds:
            return r, measured


def measure(workload_cls, seed, seconds, work):
    """Untraced closed loop.  Set-up is timed before the first round and
    again after every round, and setup_s is the median.  The repeats run
    on the side of the process boundary that peak_rss_mib does not read:
    in a child for the in-process workloads, in the bench process for cli."""
    workload, first = set_up(workload_cls, seed, work)
    setups = [first]
    results, digests, seen = [], [], {}

    def one_round(r):
        results.extend(run_pass(workload.round(r), lambda item: item.call(None),
                                seen, digests))

    def set_up_again(r):
        for k in range(SETUPS_PER_ROUND):
            again = work / f"setup{r}.{k}"
            again.mkdir()
            if workload.in_process:
                setups.append(set_up_in_child(workload_cls, seed, again))
            else:
                setups.append(set_up(workload_cls, seed, again)[1])

    gc.collect()
    rounds, wall = run_rounds(seconds, one_round, set_up_again)
    ok = [x["seconds"] for x in results if x["ok"]]
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    metrics = {
        "items_per_s": (len(ok) / wall, "1/s"),
        "item_p50_s": (statistics.median(ok) if ok else 0.0, "s"),
        "item_tail_s": (_percentile(ok, TAIL_PERCENTILE) if ok else 0.0, "s"),
        "peak_rss_mib": (resource.getrusage(who).ru_maxrss / 1024, "MiB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    extra = {"rounds": rounds, "wall_s": wall, "setup_samples_s": setups,
             "tail_percentile": TAIL_PERCENTILE,
             "tail_items_beyond": sum(1 for s in ok if s > metrics["item_tail_s"][0])}
    return results, digests, metrics, extra


def measure_traced(workload_cls, seed, seconds, work):
    """Each round untraced, then again (fresh inputs) with the tracer."""
    from tracer import Tracer, function_stats, installed

    workload, _ = set_up(workload_cls, seed, work)
    tracer = Tracer()
    results, digests, seen = [], [], {}
    walls = {"untraced": 0.0, "traced": 0.0}
    counts = {"untraced": 0, "traced": 0}

    def traced_call(item):
        if workload.in_process:
            return tracer.run_item(item.id, lambda: item.call(tracer))
        return item.call(tracer)

    def one_round(r):
        t0 = time.perf_counter()
        res = run_pass(workload.round(r), lambda item: item.call(None), seen, digests)
        walls["untraced"] += time.perf_counter() - t0
        counts["untraced"] += sum(x["ok"] for x in res)
        results.extend(res)
        with installed(tracer) if workload.in_process else nullcontext():
            items = workload.round(r, fresh=True)
            t0 = time.perf_counter()
            res = run_pass(items, traced_call, seen)
            walls["traced"] += time.perf_counter() - t0
        counts["traced"] += sum(x["ok"] for x in res)
        results.extend(dict(x, id=x["id"] + ".traced") for x in res)

    gc.collect()
    rounds, _ = run_rounds(seconds, one_round)
    n = max(counts["traced"], 1)
    stats = function_stats(tracer.spans, tracer.loose_ops)
    metrics = layer_metrics(stats, tracer.spans, n)
    metrics["trace.items_per_s"] = (counts["traced"] / walls["traced"], "1/s")
    metrics["trace.untraced_items_per_s"] = (counts["untraced"] / walls["untraced"], "1/s")
    metrics["trace.overhead_ratio"] = (walls["traced"] / walls["untraced"], "1")
    extra = {"rounds": rounds, "traced_items": counts["traced"], "spans": len(tracer.spans)}
    return results, digests, metrics, extra, tracer


def layer_metrics(stats, spans, n_items) -> dict:
    """Per-layer metrics, each a mean per traced item."""
    from tracer import TARGETS

    out = {}
    for name, *_ in TARGETS:
        calls, total, self_s = stats.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls / n_items, "calls/item")
        out[f"{name}.total_s"] = (total / n_items, "s/item")
        out[f"{name}.self_s"] = (self_s / n_items, "s/item")
    out["cli.import_s"] = (stats.get("cli.import", (0, 0.0, 0.0))[1] / n_items, "s/item")
    distances = [s.ok for s in spans if s.name == "sigmadist.sigma_distance"]
    out["sigmadist.sigma_distance.found_ratio"] = (
        sum(distances) / len(distances) if distances else 0.0, "1")
    classify_calls = stats.get("classifier.classify", (0,))[0]
    out["curve.critical_sets.per_classify"] = (
        stats.get("curve.critical_sets", (0,))[0] / classify_calls if classify_calls else 0.0,
        "1")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "quadwalk" / "__init__.py").is_file():
        print(f"error: no quadwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / str(os.getpid())
    out_dir = ROOT / ".bench_out"
    work.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    try:
        if args.trace:
            results, digests, metrics, extra, tracer = measure_traced(
                WORKLOADS[args.workload], args.seed, args.seconds, work)
        else:
            results, digests, metrics, extra = measure(
                WORKLOADS[args.workload], args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        from tracer import write_spans

        write_spans(out_dir / f"{stem}.spans.jsonl", tracer.spans)
    failed = sum(not x["ok"] for x in results)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_info(),
        "attempted": len(results), "failed": failed,
        "failed_ratio": failed / len(results),
        **extra,
        "round_digests": digests,
        "items": [[x["id"], x["seconds"], x["ok"]] for x in results],
        "errors": [{"id": x["id"], "error": x["error"]} for x in results if not x["ok"]][:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {extra['rounds']}  attempted {len(results)}  failed {failed}")
    print("machine " + json.dumps(report["machine"], sort_keys=True))
    print(f"failed_ratio {report['failed_ratio']:.6g} 1")
    if not args.trace:
        print(f"tail level p{TAIL_PERCENTILE}: {extra['tail_items_beyond']} of "
              f"{len(results)} items beyond it")
    print(f"digest round0 {digests[0]}")
    for k, (v, u) in metrics.items():
        print(f"{k} {v!r} {u}")
    for err in report["errors"][:5]:
        print(f"FAILED {err['id']}: {err['error']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
