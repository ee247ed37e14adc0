"""Tests of the benchmark's own logic: statistics, span self time, output
normalisation and digest checks, the traced CLI, and agreement with
BENCHMARK.json."""

import json
import math
from pathlib import Path

import pytest

import run
from measure import (
    Span,
    check_output,
    compare_problem,
    digest,
    output_digest,
    self_time_by_name,
    self_times,
    strip_wall_time,
    tail_latency,
)
from tracing import TRACED_CALLS, Trace
from workloads import WORKLOADS, document_text

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize(
    "samples, percentile, beyond",
    [
        (5, 50.0, 2),     # too few for ten beyond even the median: fall back to it
        (33, 50.0, 16),   # 75th has only 8 beyond
        (40, 75.0, 10),
        (55, 75.0, 13),
        (99, 75.0, 24),   # 90th has only 9 beyond
        (100, 90.0, 10),
        (200, 95.0, 10),
        (1000, 99.0, 10),
    ],
)
def test_tail_picks_highest_percentile_with_ten_beyond(samples, percentile, beyond):
    tail = tail_latency(float(i) for i in range(samples))
    assert (tail.percentile, tail.samples, tail.beyond) == (percentile, samples, beyond)
    assert tail.value == samples - 1 - beyond


def test_tail_stays_inside_one_job_for_every_allowed_pass_count():
    jobs = len(next(iter(WORKLOADS.values())).jobs)
    for passes in range(run.MIN_PASSES, run.MAX_PASSES + 1):
        values = [job + 0.001 * p for job in range(jobs) for p in range(passes)]
        tail = tail_latency(values)
        assert tail.percentile == 75.0
        assert int(tail.value) == 5  # the sixth-cheapest job


def test_self_time_subtracts_children_on_synthetic_tree():
    spans = [
        Span(0, "job", 0.0, 10.0, None, "a"),
        Span(1, "core.parse", 1.0, 4.0, 0, "a"),
        Span(2, "greedy.greedy_cover", 5.0, 7.0, 0, "a"),
        Span(3, "core.set_masks", 5.5, 6.5, 2, "a"),
        Span(4, "core.parse", 8.0, 9.0, 0, "a"),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 4.0, 1: 3.0, 2: 1.0, 3: 1.0, 4: 1.0})
    assert self_time_by_name(spans) == pytest.approx(
        {"job": 4.0, "core.parse": 4.0, "greedy.greedy_cover": 1.0, "core.set_masks": 1.0}
    )


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(0, "job", 0.0, 10.0, None, "a"),
        Span(1, "x", 2.0, 6.0, 0, "a"),
        Span(2, "y", 4.0, 8.0, 0, "a"),
    ]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_compare_csv_drops_only_the_wall_time_column():
    first = "algorithm,covered,uncovered,guarantee,wall_time_s,opt\nexact,10,2,1.0,0.123456,10\n"
    second = "algorithm,covered,uncovered,guarantee,wall_time_s,opt\nexact,10,2,1.0,9.876543,10\n"
    assert strip_wall_time(first) == "algorithm,covered,uncovered,guarantee,opt\nexact,10,2,1.0,10\n"
    assert output_digest("compare", first.encode()) == output_digest("compare", second.encode())
    assert output_digest("solve", first.encode()) != output_digest("solve", second.encode())


def test_digest_check_catches_an_altered_report():
    report = b'{\n  "algorithm": "greedy",\n  "chosen": [1, 3],\n  "covered": 7\n}\n'
    expected = (0, digest(report))
    assert check_output(expected, 0, output_digest("solve", report)) is None
    altered = report.replace(b"7", b"8")
    assert "digest" in check_output(expected, 0, output_digest("solve", altered))
    assert "exit code 2" in check_output(expected, 2, None)
    assert check_output(None, 0, output_digest("solve", altered)) is None


def test_compare_rows_must_meet_guarantee_and_optimum():
    header = "algorithm,covered,uncovered,guarantee,wall_time_s,opt\n"
    good = header + "exact,10,0,1.0,0.1,10\ngreedy,7,3,0.6321205588285577,0.1,10\n"
    assert compare_problem(good) is None
    assert "guarantee" in compare_problem(header + "greedy,6,4,0.6321205588285577,0.1,10\n")
    assert "optimum" in compare_problem(header + "exact,9,1,1.0,0.1,10\n")
    assert compare_problem("algorithm,covered,uncovered,guarantee,wall_time_s\ngreedy,1,9,,0.1\n") is None


def test_benchmark_json_names_what_the_runner_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.per_layer_units()


def test_every_workload_has_seven_distinct_jobs():
    for workload in WORKLOADS.values():
        assert len({job.id for job in workload.jobs}) == len(workload.jobs) == 7
        assert {job.doc for job in workload.jobs} <= {doc.name for doc in workload.docs}


def test_documents_depend_only_on_the_seed():
    doc = WORKLOADS["exhaustive-small"].docs[0]
    assert document_text(doc, 3, 0) == document_text(doc, 3, 0)
    assert document_text(doc, 3, 0) != document_text(doc, 4, 0)


def test_traced_cli_writes_the_same_bytes_and_restores_the_cli(tmp_path):
    doc = tmp_path / "doc.txt"
    doc.write_text(document_text(WORKLOADS["exhaustive-small"].docs[2], 0, 2), encoding="ascii")
    argv = ["solve", "--alg", "exact", "--with-opt", "--in", str(doc)]
    originals = [getattr(owner, attr) for owner, attr, _, _ in TRACED_CALLS]
    assert run.call_cli([*argv, "--out", str(tmp_path / "plain.json")])[0] == 0

    trace = Trace()
    with trace.patched():
        assert run.call_cli([*argv, "--out", str(tmp_path / "traced.json")])[0] == 0
    assert [getattr(owner, attr) for owner, attr, _, _ in TRACED_CALLS] == originals
    assert (tmp_path / "traced.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    names = [s.name for s in trace.spans]
    assert names.count("exact.brute_force") == 1  # the oracle's scan stays inside cli.oracle
    assert {"cli.read", "core.parse", "cli.oracle", "cli.report"} <= set(names)
    c, inst = trace.counters, trace.instance
    assert c["exact.subsets_total"] == 2 * math.comb(inst.m, inst.effective_budget)  # the solve and the oracle
    assert 0 < c["exact.subsets_scanned"] <= c["exact.subsets_total"]
    assert (c["cli.oracle_requests"], c["cli.oracle_answers"]) == (1, 1)
    assert c["core.parse_bytes"] == len(doc.read_bytes())
    assert c["core.incidences"] == sum(map(len, inst.sets))
