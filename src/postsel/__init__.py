"""Exact desk-scale laboratory for postselected circuits and counting gaps.

Everything is computed over exact integer arithmetic, and every probability
is a ``fractions.Fraction``; no floating point enters any probability.  The
package pairs a sparse statevector simulator with an independent
branch-enumeration oracle, compiles counting machines into circuits whose
statistics are closed forms in the machine gaps, and verifies witness-style
acceptance conditions as exact comparisons.

``import postsel`` loads no submodule and no numpy.  Each public name is
listed once, in ``_EXPORTS`` under the module that defines it, and that
module is imported the first time the name is read (PEP 562); the name is
then cached in this package's namespace.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "circuit": (
        "Circuit", "Gate", "apply_gate_classical", "ccx", "cx", "default_input",
        "expand_mcx", "h", "mcx", "parse_circuit", "serialize_circuit", "x",
    ),
    "classical": ("CoinMachine", "build_upcoup", "run_ptm", "wapp_witness"),
    "constructions": (
        "compile_fqp_to_exp", "compile_gap_squared", "compile_pair_postsel",
        "compile_pp_instance", "gadget_biased_flag", "gap_squared_prob",
        "mix_with_constant", "mixed_conditional", "pair_stats", "rescale_postsel",
        "verify_error_algebra",
    ),
    "counting": (
        "FPFunction", "PredicateCircuit", "complement_machine", "emit_less_than",
        "eval_machine", "gap", "make_gap_machine", "parse_machine", "scale_gap",
        "serialize_machine", "tabulated_count_machine",
    ),
    "errors": (
        "BadArgument", "CapExceeded", "CircuitSyntaxError", "InsufficientAncillas",
        "MachineContractError", "PostselError", "PromiseViolation", "StatsMismatch",
        "ZeroPostselection",
    ),
    "pathsum": ("path_sum", "path_sum_slow"),
    "scenarios": ("SCENARIOS", "SUITES", "run_scenario", "run_suite"),
    "simulator": (
        "PostselStats", "QuantumState", "joint_prob", "measure_prob",
        "postselect_stats", "run",
    ),
    "witness": (
        "Condition", "WitnessReport", "check_awpp_witness", "check_wapp_witness",
        "classify_postsel_profile",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)
