"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.use_source_tree()
import spans  # noqa: E402
import workloads  # noqa: E402
from postsel import cli, scenarios  # noqa: E402
from postsel.witness import Condition, WitnessReport  # noqa: E402
from workloads import count_verify_failures  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _counts(p: workloads.Pass) -> tuple[int, int]:
    assert p.call_s and all(t > 0 for t in p.call_s)
    return p.attempted, p.failed


def _result(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    assert code == 0
    return json.loads(out.getvalue().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == ["verify-all", "oracle-dense"]
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(
        spans.LAYER_METRICS + run.RUN_METRICS
    )
    assert list(spans.SCENARIO_NAMES) == list(scenarios.SCENARIOS)


def test_same_seed_gives_same_input_digest(tmp_path):
    for name, cls in workloads.WORKLOADS.items():
        first = cls(5, tmp_path / name / "a").input_digest
        assert cls(5, tmp_path / name / "b").input_digest == first
        assert cls(6, tmp_path / name / "c").input_digest != first


def test_wrong_oracle_value_is_counted_as_failed(tmp_path, monkeypatch):
    wl = workloads.OracleDense(1, tmp_path)
    wl.items = wl.items[:2]
    assert _counts(wl.run_pass()) == (2, 0)
    exact = cli.path_sum

    def off_by_one(*args, **kwargs):
        g, m = exact(*args, **kwargs)
        return g + 1, m

    monkeypatch.setattr(cli, "path_sum", off_by_one)
    assert _counts(wl.run_pass()) == (2, 2)


def test_wrong_gap_expectations_are_counted_as_failed(tmp_path):
    wl = workloads.GapCount(1, tmp_path)
    clean = wl.items[0]
    dirty = next(item for item in wl.items if item.dirty)
    other = wl.items[1].machine
    wl.items = [
        clean,
        dirty,
        dataclasses.replace(clean, c=0),  # expects a contract error that never comes
        dataclasses.replace(dirty, c=2),  # raises MachineContractError
        dataclasses.replace(clean, machine=other),  # file does not parse to this machine
    ]
    assert _counts(wl.run_pass()) == (5, 3)


def test_failing_verify_row_is_counted(tmp_path, monkeypatch):
    def fake(name: str, passed: bool):
        def scenario(seed, r):
            report = WitnessReport(name)
            report.add(Condition("c", "1", "==", "1" if passed else "2", passed))
            return report

        return scenario

    for name in scenarios.SCENARIOS:
        monkeypatch.setitem(scenarios.SCENARIOS, name, fake(name, name != "gap-squared"))
    assert _counts(workloads.VerifyAll(3, tmp_path).run_pass()) == (12, 1)


def test_verify_gate_needs_exit_zero_and_every_row():
    names = ["a", "b"]
    good = (
        "scenario=a condition=x lhs=1 op=== rhs=1 result=pass\n"
        "scenario=b condition=y lhs=1 op=<= rhs=2 result=pass\n"
    )
    assert count_verify_failures(0, good, names) == 0
    assert count_verify_failures(0, good.replace("2 result=pass", "2 result=fail"), names) == 1
    assert count_verify_failures(0, good.splitlines()[0], names) == 1
    assert count_verify_failures(1, good, names) == 2
    assert count_verify_failures(0, good + "Traceback\n", names) == 2


def test_refuses_to_run_with_a_width_cap_override(monkeypatch):
    monkeypatch.setenv("POSTSEL_MAX_QUBITS", "30")
    with pytest.raises(SystemExit, match="POSTSEL_MAX_QUBITS"):
        run.main(["--workload", "gap-count", "--seed", "1", "--seconds", "1"])


def test_outputs_carry_every_metric_and_tracing_leaves_no_wrapper():
    argv = ["--workload", "oracle-dense", "--seed", "2", "--seconds", "0"]
    plain = _result(argv + ["--trace", "0"])
    traced = _result(argv + ["--trace", "1"])
    assert list(plain["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(traced["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    for result in (plain, traced):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    layer = {name: v["value"] for name, v in traced["metrics"].items()}
    assert layer["simulator.run.calls"] == layer["pathsum.path_sum.calls"] == 8
    assert layer["simulator.run.live_frac"] >= 1 / 8
    assert not hasattr(cli.path_sum, "__wrapped__")
    assert not hasattr(scenarios.SCENARIOS["pp-to-postsel"], "__wrapped__")


def test_tracer_reaches_every_layer_the_suites_use():
    with spans.Tracer() as tracer:
        for suite in ("awpp", "classical", "theorem5"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["verify", "--suite", suite, "--format", "machine"]) == 0
    layer = spans.layer_metrics(tracer.spans)
    for name in (
        "simulator.run.calls",
        "simulator.run.live_amps",
        "simulator.measure.s",
        "pathsum.path_sum.calls",
        "counting.gap.calls",
        "circuit.expand_mcx.gates_out",
        "constructions.compile.calls",
        "classical.s",
        "witness.s",
        "scenarios.awpp-forward.s",
        "scenarios.classical-upcoup.s",
        "cli.main.s",
    ):
        assert layer[name] > 0, name
    assert 0 < layer["simulator.run.live_frac"] <= 1
    assert all(sp.end >= sp.start and sp.parent < i for i, sp in enumerate(tracer.spans))
