"""End-to-end verification scenarios: all pass, deterministically.

The pass tests read the seed-42 ``all`` suite from the session's
``seed42_reports`` fixture rather than running the scenarios again.
"""

import pytest

from postsel import SCENARIOS, SUITES, run_scenario, run_suite

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
    with pytest.raises(ValueError):
        run_scenario("nope")
    with pytest.raises(ValueError):
        run_suite("nope")


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
