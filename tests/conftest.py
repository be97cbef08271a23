"""Fixtures shared across test modules."""

import pytest

from postsel import run_suite


@pytest.fixture(scope="session")
def seed42_reports():
    """``run_suite("all", seed=42, r=4)`` by scenario name, run once per session.

    The acceptance criteria read their rows, the scenario pass tests their
    verdicts, and criterion 11 their machine text.
    """
    return {rep.name: rep for rep in run_suite("all", seed=42, r=4)}
