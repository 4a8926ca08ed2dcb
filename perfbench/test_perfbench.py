"""Tests of the benchmark itself: its generators, its checks and its output.

Run with ``python -m pytest perfbench`` from the repository root.  They
import cateff once and never re-import it, so that they can share a process
with the rest of the test suite; whole runs go through a subprocess.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import run
from calibrate import Calibrator
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Small sizes, so that a pass takes well under a second; spans are
    written under a temporary directory."""
    monkeypatch.setattr(run, "CHAIN_N", 3)
    monkeypatch.setattr(run, "BRANCH_N", 3)
    monkeypatch.setattr(run, "CORPUS_COUNT", 4)
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("make", [gen.chain_case, gen.branching_case])
def test_same_seed_same_text(make):
    a, b = make(7, 1, 9), make(7, 1, 9)
    assert a.text.encode() == b.text.encode()
    assert a == b
    assert make(8, 1, 9).text != a.text


def test_normal_forms_follow_the_rewrite_rules():
    assert gen.reduce_word("cabbc") == ("c", "b", "c")
    assert gen.reduce_word("cabbac") == ("c", "c")
    assert gen.suffix_grades("abc") == [("b", "c"), ("c",), ()]
    assert gen.reduce_path(("t", "u", "t"), {("t", "u")}) == ("t",)


@pytest.mark.parametrize("make,n", [(gen.chain_case, 4), (gen.chain_case, 7),
                                    (gen.branching_case, 3),
                                    (gen.branching_case, 5)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_programs_get_the_expected_answers(make, n, seed):
    cf = run.cateff_modules()
    rec = run.Record(Calibrator())
    run.process_case(cf, Tracer(), rec, make(seed, 0, n), traced_run=True)
    assert rec.attempted == len(run.OPS)
    assert rec.failed == 0, rec.causes


def test_a_wrong_answer_is_counted_with_its_cause():
    cf = run.cateff_modules()
    case = gen.chain_case(0, 0, 4)
    wrong = gen.Expected(**{**vars(case.expected["main"]),
                            "grade": "a;b"})
    case = gen.Case(**{**vars(case),
                       "expected": {**case.expected, "main": wrong}})
    rec = run.Record(Calibrator())
    run.process_case(cf, Tracer(), rec, case, traced_run=False)
    assert rec.failed == 1
    assert rec.causes == {"check: wrong judgement for main": 1}


def test_a_raising_layer_is_counted_and_the_rest_skipped():
    cf = run.cateff_modules()
    case = gen.chain_case(0, 0, 4)
    case = gen.Case(**{**vars(case), "text": case.text + "program"})
    rec = run.Record(Calibrator())
    run.process_case(cf, Tracer(), rec, case, traced_run=False)
    assert rec.attempted == rec.failed == len(run.OPS)
    assert rec.causes["check: CeffSyntaxError"] == 1


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_same_seed_same_exact_counts(small, workload):
    w, cal, cf = run.WORKLOADS[workload](), Calibrator(), run.cateff_modules()
    counts = []
    for _ in range(2):
        state = w.setup(cf, 3)
        tr = Tracer()
        rec = run.Record(cal)
        run.timed_pass(w, cf, state, rec, tr)
        assert rec.failed == 0, rec.causes
        counts.append({k: tr.counts[k] for k in run.EXACT_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["eval.steps"] > 0 and counts[0]["freemodel.leaves"] > 0
    assert counts[0]["conformance.terms"] > 0


SMALL_RUN = (
    "import sys; sys.path.insert(0, {here!r}); import run; "
    "run.CHAIN_N = run.BRANCH_N = 3; run.CORPUS_COUNT = 4; "
    "run.CORPUS_ROUNDS = 1; sys.exit(run.main(sys.argv[1:]))")


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_are_those_of_benchmark_json(workload, trace,
                                                     tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    code = SMALL_RUN.format(here=str(ROOT / "perfbench"))
    out = subprocess.run(
        [sys.executable, "-c", code, "--workload", workload, "--seed", "1",
         "--seconds", "0.3", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=300, check=True)
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    section = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in section}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    for name in result["metrics"]:
        assert any(line.startswith(f"{name} = ") for line in lines)


def test_traced_self_times_add_up_to_the_pass(small):
    w, cal, cf = run.WORKLOADS["chain_handled"](), Calibrator(), \
        run.cateff_modules()
    metrics, _, rec = run.traced_run(w, cf, w.setup(cf, 1), cal, 0.0,
                                     Path("spans.jsonl"))
    assert rec.failed == 0
    total = metrics["trace.layers_ms"] + metrics["trace.bench_ms"]
    assert total == pytest.approx(metrics["trace.traced_ms"], rel=1e-6)


def test_without_sources_it_fails_without_a_result(monkeypatch, tmp_path,
                                                    capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "chain_handled", "--seed", "1",
                     "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
