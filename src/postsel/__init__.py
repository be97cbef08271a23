"""Exact desk-scale laboratory for postselected circuits and counting gaps.

Everything is computed over exact integer, dyadic and rational arithmetic;
no floating point enters any probability.  The package pairs a sparse
statevector simulator with an independent branch-enumeration oracle,
compiles counting machines into circuits whose statistics are closed forms
in the machine gaps, and verifies witness-style acceptance conditions as
exact comparisons.
"""

from .circuit import (
    Circuit,
    Gate,
    apply_gate_classical,
    ccx,
    cx,
    default_input,
    expand_mcx,
    h,
    mcx,
    parse_circuit,
    serialize_circuit,
    x,
)
from .classical import CoinMachine, WappWitness, build_upcoup, run_ptm, wapp_witness
from .constructions import (
    compile_fqp_to_exp,
    compile_gap_squared,
    compile_pair_postsel,
    compile_pp_instance,
    gadget_biased_flag,
    gap_squared_prob,
    mix_with_constant,
    mixed_conditional,
    pair_stats,
    rescale_postsel,
    verify_error_algebra,
)
from .counting import (
    FPFunction,
    GapValue,
    PredicateCircuit,
    complement_machine,
    emit_less_than,
    eval_machine,
    gap,
    make_gap_machine,
    parse_machine,
    scale_gap,
    serialize_machine,
    tabulated_count_machine,
)
from .errors import (
    CapExceeded,
    CircuitSyntaxError,
    InsufficientAncillas,
    MachineContractError,
    PostselError,
    PromiseViolation,
    StatsMismatch,
    ZeroPostselection,
)
from .exactring import DyadicRational
from .pathsum import path_sum, path_sum_slow
from .scenarios import SCENARIOS, SUITES, run_scenario, run_suite
from .simulator import (
    PostselStats,
    QuantumState,
    ancillas_restored,
    joint_prob,
    measure_prob,
    postselect_stats,
    run,
)
from .witness import (
    Condition,
    WitnessReport,
    check_awpp_witness,
    check_wapp_witness,
    classify_postsel_profile,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "Circuit",
    "CircuitSyntaxError",
    "CoinMachine",
    "Condition",
    "DyadicRational",
    "FPFunction",
    "GapValue",
    "Gate",
    "InsufficientAncillas",
    "MachineContractError",
    "PostselError",
    "PostselStats",
    "PredicateCircuit",
    "PromiseViolation",
    "QuantumState",
    "SCENARIOS",
    "SUITES",
    "StatsMismatch",
    "WappWitness",
    "WitnessReport",
    "ZeroPostselection",
    "ancillas_restored",
    "apply_gate_classical",
    "build_upcoup",
    "ccx",
    "check_awpp_witness",
    "check_wapp_witness",
    "classify_postsel_profile",
    "compile_fqp_to_exp",
    "compile_gap_squared",
    "compile_pair_postsel",
    "compile_pp_instance",
    "complement_machine",
    "cx",
    "default_input",
    "emit_less_than",
    "eval_machine",
    "expand_mcx",
    "gadget_biased_flag",
    "gap",
    "gap_squared_prob",
    "h",
    "joint_prob",
    "make_gap_machine",
    "mcx",
    "measure_prob",
    "mix_with_constant",
    "mixed_conditional",
    "pair_stats",
    "parse_circuit",
    "parse_machine",
    "path_sum",
    "path_sum_slow",
    "postselect_stats",
    "rescale_postsel",
    "run",
    "run_ptm",
    "run_scenario",
    "run_suite",
    "scale_gap",
    "serialize_circuit",
    "serialize_machine",
    "tabulated_count_machine",
    "verify_error_algebra",
    "wapp_witness",
    "x",
]
