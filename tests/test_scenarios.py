"""End-to-end verification scenarios: all pass, deterministically.

The pass tests read the seed-42 ``all`` suite from the session's
``seed42_reports`` fixture rather than running the scenarios again.
"""

import pytest

from postsel import SCENARIOS, SUITES, BadArgument, StatsMismatch, run_scenario, run_suite
from postsel.cli import main

# exact-postsel-adjust and pp-to-postsel have tests of their own below
FAST = [
    "oracle-equivalence",
    "gap-squared",
    "awpp-forward",
    "awpp-forward-complement",
    "awpp-backward",
    "app-forward",
    "wpp-promise",
    "postsel-rescale",
    "classical-upcoup",
    "error-algebra",
]


@pytest.mark.parametrize("name", FAST)
def test_fast_scenarios_pass(name, seed42_reports):
    report = seed42_reports[name]
    assert report.passed, report.to_text()
    assert report.conditions, "scenario produced no conditions"


def test_exact_postsel_adjust_passes(seed42_reports):
    report = seed42_reports["exact-postsel-adjust"]
    assert report.passed, report.to_text()


def test_pp_to_postsel_passes(seed42_reports):
    report = seed42_reports["pp-to-postsel"]
    assert report.passed, report.to_text()


def test_registry_and_suites_consistent():
    assert SUITES["all"] == list(SCENARIOS)
    assert set(SUITES) == {
        "all",
        "awpp",
        "app",
        "wpp",
        "theorem5",
        "theorem6",
        "classical",
        "pp",
        "algebra",
    }
    for names in SUITES.values():
        assert all(n in SCENARIOS for n in names)
    for name in SCENARIOS:
        assert " " not in name


def test_unknown_names_raise():
    """A bad name is refused before any scenario runs, never reported as a row."""
    with pytest.raises(BadArgument, match="unknown scenario 'nope'"):
        run_scenario("nope")
    with pytest.raises(BadArgument, match="unknown suite 'nope'; known suites: all, awpp"):
        run_suite("nope")


@pytest.mark.parametrize("seed", [42, 7])
def test_condition_ids_are_unique_within_every_report(seed, seed42_reports):
    reports = seed42_reports.values() if seed == 42 else run_suite("all", seed=seed)
    for rep in reports:
        ids = [c.cid for c in rep.conditions]
        assert len(ids) == len(set(ids)), (rep.name, sorted({i for i in ids if ids.count(i) > 1}))


def test_a_scenario_that_raises_is_one_failed_row(monkeypatch, capsys):
    """A ``PostselError`` inside one scenario fails that scenario's one row and
    every other scenario still reports; a builtin exception stays a bug."""

    def planted(seed, fixtures):
        raise StatsMismatch("planted")

    monkeypatch.setitem(SCENARIOS, "wpp-promise", planted)
    assert main(["verify", "--suite", "all", "--format", "machine"]) == 1
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 863
    assert [r for r in rows if not r.endswith("result=pass")] == [
        "scenario=wpp-promise condition=raised lhs=StatsMismatch op=== rhs=nothing result=fail"
    ]

    def broken(seed, fixtures):
        raise ZeroDivisionError

    monkeypatch.setitem(SCENARIOS, "wpp-promise", broken)
    with pytest.raises(ZeroDivisionError):
        run_suite("wpp")


def test_seeded_runs_are_byte_identical(seed42_reports):
    again = run_scenario("gap-squared", seed=42).to_machine()
    assert again == seed42_reports["gap-squared"].to_machine()


def test_different_seeds_vary_the_sampled_conditions():
    a = run_scenario("gap-squared", seed=7).to_machine()
    b = run_scenario("gap-squared", seed=8).to_machine()
    assert a != b


def test_suite_runner_returns_one_report_per_scenario():
    reports = run_suite("awpp", seed=42)
    assert [rep.name for rep in reports] == SUITES["awpp"]
    assert all(rep.passed for rep in reports)
