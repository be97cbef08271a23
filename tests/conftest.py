"""Fixtures shared across test modules."""

import pytest

from postsel import PredicateCircuit, ccx, run_suite


@pytest.fixture(scope="session")
def seed42_reports():
    """``run_suite("all", seed=42)`` by scenario name, run once per session.

    The acceptance criteria read their rows, the scenario pass tests their
    verdicts, and criterion 11 their machine text.
    """
    return {rep.name: rep for rep in run_suite("all", seed=42)}


@pytest.fixture
def self_reading_machine():
    """Gap -2 on two path bits: it accepts path 11 only.  Its first gate reads
    the accept bit into scratch bit 2, so running its gates twice, rather than
    forward and then in reverse, leaves bit 2 set on path 11.  Every other
    test machine's forward pass is its own inverse, so only this one sees the
    order in which a construction uncomputes."""
    return PredicateCircuit(0, 2, 1, (ccx(0, 3, 2), ccx(0, 1, 3)), 3)
