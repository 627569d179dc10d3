"""Tests of the benchmark's inputs, checks and output contract."""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
import sweep
from tracer import Tracer, installed
from workloads import (AXIS, EDGE, HALF, LOCI, RATIONAL_CURVE, STEPS, ClassifyGrid, Cli,
                       Oracle, draw_spec, expected_verdict, round_rng)

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_theorem_table():
    assert expected_verdict("S1", Fraction(3), Fraction(3, 2)) == "Rational"
    assert expected_verdict("S2", Fraction(2), Fraction(2)) == "Rational"
    assert expected_verdict("S3", Fraction(2), Fraction(2)) == "Algebraic"
    assert expected_verdict("S3", Fraction(3), Fraction(3, 2)) == "NotDAlgebraic"
    assert expected_verdict("S4", Fraction(2), Fraction(2)) == "NotDAlgebraic"
    assert expected_verdict("S1", Fraction(2), Fraction(1)) == "NotDAlgebraic"


def test_loci_are_drawn_exactly():
    rng = round_rng(0, "test", 0)
    for tag in STEPS:
        for _ in range(20):
            s = draw_spec(rng, tag, RATIONAL_CURVE)
            assert s.a + s.b == s.a * s.b and s.a > 0 and s.b > 0
            s = draw_spec(rng, tag, HALF)
            assert s.a == s.b == 2
            s = draw_spec(rng, tag, EDGE)
            assert s.b == 2 and s.a != 2
            s = draw_spec(rng, tag, AXIS)
            assert 1 in (s.a, s.b)
            assert all(w > 0 for _, w in s.weights)


def test_rounds_are_seeded_and_cover_every_support_and_locus(tmp_path):
    grid = ClassifyGrid(7, ROOT, tmp_path)
    again = ClassifyGrid(7, ROOT, tmp_path)
    ids = [[i.id for i in grid.round(r)] for r in range(4)]
    assert ids == [[i.id for i in again.round(r)] for r in range(4)]
    assert ids != [[i.id for i in ClassifyGrid(8, ROOT, tmp_path).round(r)] for r in range(4)]
    seen = {tuple(i.split(".")[2:]) for round_ids in ids for i in round_ids}
    assert {tag for tag, _ in seen} == set(STEPS)
    assert {locus for _, locus in seen} == set(LOCI)


def _digests(results):
    assert all(r["ok"] for r in results), results
    return {r["id"]: r["digest"] for r in results}


@pytest.mark.parametrize("cls, keep", [
    (ClassifyGrid, (".S1.", ".S2.", ".S3.")),
    (Oracle, ("enum.S1", "vcf.S1", "vcf.S3")),
])
def test_traced_pass_gives_the_untraced_verdicts_and_digests(tmp_path, cls, keep):
    workload = cls(3, ROOT, tmp_path)
    pick = lambda items: [i for i in items if any(k in i.id for k in keep)]
    seen = {}
    plain = _digests(run.run_pass(pick(workload.round(0)), lambda i: i.call(None), seen))
    tracer = Tracer()
    with installed(tracer):
        items = pick(workload.round(0, fresh=True))
        traced = _digests(run.run_pass(
            items, lambda i: tracer.run_item(i.id, lambda: i.call(tracer)), seen))
    assert plain == traced and len(plain) >= 3
    assert {s.item for s in tracer.spans} >= set(plain)


def test_traced_cli_child_gives_the_untraced_stdout(tmp_path):
    workload = Cli(3, ROOT, tmp_path)
    items = [i for i in workload.round(0) if i.key.startswith(("classify --model s1", "phase-scan"))]
    seen = {}
    plain = _digests(run.run_pass(items, lambda i: i.call(None), seen))
    tracer = Tracer()
    traced = _digests(run.run_pass(items, lambda i: i.call(tracer), seen))
    assert plain == traced and len(plain) == 2
    names = {s.name for s in tracer.spans}
    assert {"cli.import", "cli.main", "classifier.classify", "enumerator.specialize"} <= names


def test_changed_output_counts_as_a_failed_item(tmp_path):
    workload = Oracle(3, ROOT, tmp_path)
    (item,) = [i for i in workload.round(0) if "vcf.S1" in i.id]
    seen = {item.key: "0" * 64}
    (result,) = run.run_pass([item], lambda i: i.call(None), seen)
    assert not result["ok"] and "differs" in result["error"]


def _run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_last_line_reports_every_declared_metric(trace, section):
    proc = _run_bench(ROOT, "--workload", "oracle", "--seed", "1", "--seconds", "0",
                      "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 8
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "oracle", "--seed", "1", "--seconds", "1",
                      "--trace", "0")
    assert proc.returncode != 0 and proc.stdout == ""


def test_compare_refuses_sweeps_of_another_run_length(capsys):
    summary = {"seconds": 35, "workloads": {}}
    assert sweep.compare(BENCHMARK, summary, dict(summary))
    assert not sweep.compare(BENCHMARK, summary, dict(summary, seconds=10))
    assert "cannot compare" in capsys.readouterr().out
