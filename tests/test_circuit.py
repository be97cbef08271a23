"""Circuit IR: text grammar, validation, classical action, mcx expansion."""

import copy
import pickle
import random
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postsel import (
    BadArgument,
    Circuit,
    CircuitSyntaxError,
    CoinMachine,
    Condition,
    DyadicRational,
    FPFunction,
    Gate,
    InsufficientAncillas,
    PostselStats,
    PredicateCircuit,
    WitnessReport,
    apply_gate_classical,
    ccx,
    cx,
    default_input,
    eval_machine,
    expand_mcx,
    gap,
    h,
    make_gap_machine,
    mcx,
    parse_circuit,
    run,
    serialize_circuit,
    x,
)
from postsel.circuit import GATE_KINDS, _integer, _tuple
from postsel.classical import WappWitness
from postsel.counting import GapValue
from postsel.planes import Planes, apply_gates_planes

# ===================================================================
# gate constructors
# ===================================================================


def test_mcx_helper_normalizes_by_control_count():
    assert mcx([], 0).kind == "x"
    assert mcx([1], 0).kind == "cx"
    assert mcx([1, 2], 0).kind == "ccx"
    assert mcx([1, 2, 3], 0).kind == "mcx"
    assert mcx([1, 2, 3, 4], 0).kind == "mcx"


def test_gate_rejects_malformed():
    with pytest.raises(ValueError):
        Gate("cz", 0)
    with pytest.raises(ValueError):
        Gate("cx", 0, (1, 2), (False, False))
    with pytest.raises(ValueError):
        Gate("mcx", 0, (1, 2), (False, False))  # too few controls for the macro
    with pytest.raises(ValueError):
        cx(0, 0)  # target is also a control
    with pytest.raises(ValueError):
        Gate("ccx", 2, (1, 1), (False, False))  # duplicate control
    with pytest.raises(ValueError):
        Gate("cx", 0, (1,), ())  # missing polarity flag
    # a polarity flag that is not a bool: a truthy tuple or int used to be kept
    # as is, serialized as "!" and read back as True, unequal to the original
    for bad in (lambda: ccx(9, 62, 40, (True, False)), lambda: cx(0, 1, neg=2),
                lambda: Gate("cx", 0, (1,), (1,)), lambda: Gate("cx", 0, (1,), (None,))):
        with pytest.raises(ValueError, match="negated flag must be a bool"):
            bad()
    good = Circuit(63, (ccx(9, 62, 40, True, False), cx(62, 9, neg=True)), 0)
    assert parse_circuit(serialize_circuit(good)) == good


def test_gates_and_controls_refuse_unordered_collections():
    """A set or a mapping would hand over its items in hash order."""
    for bad, role in ((lambda: Gate("ccx", 2, {0, 1}, (False, False)), "controls"),
                      (lambda: mcx({5, 1, 2}, 0), "controls"),
                      (lambda: mcx([1, 2, 3], 0, {True, False}), "negated"),
                      (lambda: Circuit(2, {x(0)}, 0), "gates"),
                      (lambda: PredicateCircuit(0, 1, 0, {x(1): 0}, 1), "gates")):
        with pytest.raises(ValueError, match=f"{role} must be a sequence, got unordered"):
            bad()


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(0, (), 0)
    with pytest.raises(ValueError):
        Circuit(2, (), 5)  # output outside register
    with pytest.raises(ValueError):
        Circuit(2, (), 0, postselect=0)  # output == postselect
    with pytest.raises(ValueError):
        Circuit(2, (cx(0, 5),), 0)  # gate off the register
    with pytest.raises(ValueError):
        Circuit(2, (), 0, ancillas=((1, 2),))  # ancilla value not a bit
    with pytest.raises(ValueError):
        Circuit(2, (), 0, ancillas=((1, 0), (1, 1)))  # declared twice


# the first gate qubit outside the register is named with its gate's kind
OFF_REGISTER = [
    ((cx(0, -1),), "cx gate qubit -1 outside width 3"),
    ((h(0), ccx(0, 3, 1)), "ccx gate qubit 3 outside width 3"),
    ((x(2), mcx([0, 1, -2], 2), cx(5, 1)), "mcx gate qubit -2 outside width 3"),
    ((h(3), 5), "h gate qubit 3 outside width 3"),
    ((h(0), 5, h(3)), "gates must be Gate objects, got 5"),
    # a control and the target both off the register: the control is named
    ((cx(5, 7),), "cx gate qubit 5 outside width 3"),
    ((ccx(0, -1, 9),), "ccx gate qubit -1 outside width 3"),
    ((mcx([1, 4, 2], 3),), "mcx gate qubit 4 outside width 3"),
]


@pytest.mark.parametrize("gates, message", OFF_REGISTER)
def test_off_register_gate_error_names_kind_and_qubit(gates, message):
    with pytest.raises(ValueError) as e:
        Circuit(3, gates, 0)
    assert str(e.value) == message


# one non-integer per field; each used to slip through or raise a raw TypeError
NON_INTEGER_FIELDS = {
    "width": lambda: Circuit("2", (), 0),
    "target": lambda: Circuit(2, (x("1"),), 0),
    "h-target": lambda: h(1.0),
    "control": lambda: Circuit(2, (cx("0", 1),), 1),
    "output": lambda: Circuit(2, (), "0"),
    "bool-target": lambda: Gate("x", True),
    "bool-output": lambda: Circuit(2, (), True),
    "postselect": lambda: Circuit(2, (), 0, postselect=1.0),
    "ancilla": lambda: Circuit(3, (), 0, ancillas=(("2", 0),)),
}


@pytest.mark.parametrize("field", NON_INTEGER_FIELDS)
def test_non_integer_qubits_raise_value_error(field):
    with pytest.raises(ValueError, match="must be an integer"):
        NON_INTEGER_FIELDS[field]()


# a scalar where a sequence belongs; each used to raise a raw TypeError
NON_SEQUENCE_FIELDS = {
    "ancilla-pair": lambda: Circuit(3, (), 0, None, (1,)),
    "ancillas": lambda: Circuit(3, (), 0, None, 1),
    "gates": lambda: Circuit(3, 5, 0),
    "controls": lambda: Gate("cx", 0, 1, (False,)),
    "negated": lambda: Gate("cx", 0, (1,), False),
    "mcx-controls": lambda: mcx(5, 0),
    "mcx-negated": lambda: mcx([1, 2, 3], 0, 7),
    # a gate list holding something that is not a Gate
    "gate-entry": lambda: Circuit(2, (5,), 0),
    "machine-gate-entry": lambda: PredicateCircuit(0, 1, 0, (5,), 1),
}


@pytest.mark.parametrize("field", NON_SEQUENCE_FIELDS)
def test_non_sequence_containers_raise_value_error(field):
    with pytest.raises(ValueError):
        NON_SEQUENCE_FIELDS[field]()


# --- Gate checks against a check-by-check reference ---------------------------
# Each draw must give the same fields, or the same error type and text, as
# these checks made one by one in order; a qubit is stored as a plain int.


def _reference_gate_fields(kind, target, controls=(), negated=()):
    """(kind, target, controls, negated) as a Gate stores them, or its error."""
    if kind not in GATE_KINDS:
        raise BadArgument(f"unknown gate kind {kind!r}")
    if not type(controls) is type(negated) is tuple:
        controls, negated = _tuple(controls, "controls"), _tuple(negated, "negated")
    target = _integer(target, "target")
    controls = tuple(_integer(c, "control") for c in controls)
    for flag in negated:
        if type(flag) is not bool:
            raise BadArgument(f"negated flag must be a bool, got {flag!r}")
    expected = {"h": 0, "x": 0, "cx": 1, "ccx": 2}.get(kind)
    if expected is not None and len(controls) != expected:
        raise BadArgument(f"{kind} takes {expected} controls")
    if kind == "mcx" and len(controls) < 3:
        raise BadArgument("mcx gates carry >= 3 controls once normalized")
    if len(negated) != len(controls):
        raise BadArgument("one polarity flag per control")
    if target in controls:
        raise BadArgument("target may not also be a control")
    if len(set(controls)) != len(controls):
        raise BadArgument("duplicate control qubit")
    return kind, target, controls, negated


# few small qubits, so that duplicates and a target among the controls are common
QUBIT = st.one_of(
    st.integers(-1, 4),
    st.integers(0, 4).map(np.int64),
    st.booleans(),
    st.sampled_from(["1", "x", 1.0, 2.5]),
)
FLAG = st.one_of(st.booleans(), st.sampled_from([0, 1, None, np.True_]))


def _sequences(elements):
    """Tuples mostly, and lists, sets, strings and bare scalars."""
    items = st.lists(elements, max_size=4)
    return st.one_of(
        items.map(tuple), items, st.sets(elements, max_size=3), st.text("01x", max_size=3),
        elements,
    )


class _Kind(str):
    """A str subclass: equal to, and hashed as, the plain string."""


@settings(max_examples=600, deadline=None)
@given(
    kind=st.sampled_from([*GATE_KINDS, "cz", "H", "", None, ["h"], _Kind("h")]),
    target=QUBIT,
    controls=_sequences(QUBIT),
    negated=st.one_of(_sequences(FLAG), st.integers(0, 4).map(lambda n: (False,) * n)),
)
def test_gate_matches_check_by_check_reference(kind, target, controls, negated):
    try:
        expected = _reference_gate_fields(kind, target, controls, negated)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            Gate(kind, target, controls, negated)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
    else:
        g = Gate(kind, target, controls, negated)
        fields = (g.kind, g.target, g.controls, g.negated)
        assert fields == expected and repr(fields) == repr(expected)
        assert all(type(q) is int for q in g.qubits)
        assert g.qubits == g.controls + (g.target,)
        assert g.span == (min(g.qubits), max(g.qubits))


def test_numpy_integer_qubits_are_stored_as_python_ints():
    # an np.int64 qubit or register index kept as such would make later shifts overflow int64
    g = cx(np.int64(69), np.int64(70))
    assert g == cx(69, 70) and repr(g) == repr(cx(69, 70))
    assert eval_machine(PredicateCircuit(0, 70, 0, (g,), 70), "", 1 << 69)
    assert eval_machine(PredicateCircuit(0, 70, 0, (x(70),), np.int64(70)), "", 1 << 69)
    assert repr(Circuit(np.int64(3), (h(0),), np.int64(1))) == repr(Circuit(3, (h(0),), 1))
    c = Circuit(np.int64(3), (h(0),), np.int64(1), np.int64(2))
    assert repr(c) == repr(Circuit(3, (h(0),), 1, 2))
    got = gap(make_gap_machine(np.int64(2), np.int64(2)), "")
    assert (got.accepts, got.rejects) == (3, 1) and type(got.rejects) is int


_M = PredicateCircuit(1, 1, 0, (ccx(0, 1, 2),), 2)
_M_REPR = (
    "PredicateCircuit(input_width=1, path_width=1, ancilla_count=0, gates=(Gate(kind='ccx', "
    "target=2, controls=(0, 1), negated=(False, False)),), accept_index=2)"
)
# one value of each immutable record type: its fields by keyword, in order,
# and the repr that the type printed when it was a frozen dataclass
_VALUES = {
    "Gate": (Gate, dict(kind="ccx", target=2, controls=(0, 1), negated=(True, False)),
             "Gate(kind='ccx', target=2, controls=(0, 1), negated=(True, False))"),
    "Circuit": (
        Circuit, dict(width=3, gates=(h(0), cx(0, 1)), output=1, postselect=0, ancillas=((2, 1),)),
        "Circuit(width=3, gates=(Gate(kind='h', target=0, controls=(), negated=()), "
        "Gate(kind='cx', target=1, controls=(0,), negated=(False,))), output=1, postselect=0, "
        "ancillas=((2, 1),))",
    ),
    "PostselStats": (
        PostselStats,
        dict(p_post=DyadicRational(1, 1), p_joint=DyadicRational(1, 2)),
        "PostselStats(p_post=DyadicRational(n=1, k=1), p_joint=DyadicRational(n=1, k=2))",
    ),
    "DyadicRational": (DyadicRational, dict(n=9, k=4), "DyadicRational(n=9, k=4)"),
    "PredicateCircuit": (
        PredicateCircuit,
        dict(input_width=1, path_width=1, ancilla_count=0, gates=(ccx(0, 1, 2),), accept_index=2),
        _M_REPR,
    ),
    "GapValue": (GapValue, dict(accepts=3, rejects=1), "GapValue(accepts=3, rejects=1)"),
    "FPFunction": (FPFunction, dict(bound_exp=2, machine=_M),
                   f"FPFunction(bound_exp=2, machine={_M_REPR})"),
    "CoinMachine": (CoinMachine, dict(post=_M, joint=_M),
                    f"CoinMachine(post={_M_REPR}, joint={_M_REPR})"),
    "WappWitness": (WappWitness, dict(g_machine=_M, f_of={"1": 2}, p_exp=1),
                    f"WappWitness(g_machine={_M_REPR}, f_of={{'1': 2}}, p_exp=1)"),
    "Condition": (Condition, dict(cid="c1", lhs="1", op="==", rhs="1", passed=True),
                  "Condition(cid='c1', lhs='1', op='==', rhs='1', passed=True)"),
}


def _hash(value):
    """hash(value), or the message of the TypeError it raises (a dict field)."""
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize("name", list(_VALUES))
def test_gate_is_a_frozen_value_unequal_to_its_fields(name):
    """Each record type is the value its frozen dataclass was: the same repr,
    equal to an equal value but not to its field tuple or to the same fields
    in another class, hashed as its field tuple, frozen, and unchanged by a
    pickle, copy or deepcopy round trip.  It is built by keyword or by
    position."""
    cls, kwargs, pinned = _VALUES[name]
    v, fields = cls(**kwargs), tuple(kwargs.values())
    assert repr(v) == pinned
    assert v == cls(*fields) and v != fields and v.__eq__(fields) is NotImplemented
    assert v != type("Twin", (cls,), {})(**kwargs)
    assert _hash(v) == _hash(fields)
    field = next(iter(kwargs))
    with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{field}'"):
        setattr(v, field, None)
    with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{field}'"):
        delattr(v, field)
    for twin in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
        assert type(twin) is cls and twin == v and repr(twin) == pinned


def test_a_state_compares_by_identity_and_a_report_by_value():
    circuit = Circuit(2, (h(0),), 0)
    st = run(circuit, "00")
    assert repr(st) == "QuantumState(width=2, _short=None, m=1, n=2)"
    assert st == st and st != run(circuit, "00") and hash(st) == object.__hash__(st)
    assert st.coeffs.tolist() == [1, 1] and "coeffs" in vars(st)  # cached on first read
    rows = [Condition("c1", "1", "==", "1", True)]
    rep = WitnessReport("r", rows)
    assert repr(rep) == (
        "WitnessReport(name='r', conditions=[Condition(cid='c1', lhs='1', op='==', rhs='1', "
        "passed=True)])"
    )
    assert rep == WitnessReport(name="r", conditions=list(rows)) and rep != WitnessReport("r")
    with pytest.raises(TypeError, match="unhashable type: 'WitnessReport'"):
        hash(rep)


def test_gate_stores_controls_as_tuples():
    assert Gate("cx", 0, [1], [True]) == cx(1, 0, neg=True)


def test_default_input_uses_ancilla_values():
    c = Circuit(5, (), 0, ancillas=((1, 1), (3, 1)))
    assert default_input(c) == "01010"
    assert default_input(Circuit(3, (), 0)) == "000"


# ===================================================================
# classical gate action
# ===================================================================


def test_classical_action_x_and_cx():
    assert apply_gate_classical(0b000, x(1)) == 0b010
    assert apply_gate_classical(0b001, cx(0, 2)) == 0b101
    assert apply_gate_classical(0b000, cx(0, 2)) == 0b000
    assert apply_gate_classical(0b000, cx(0, 2, neg=True)) == 0b100


def test_classical_action_ccx_truth_table():
    g = ccx(0, 1, 2)
    for s in range(8):
        expect = s ^ (0b100 if (s & 0b11) == 0b11 else 0)
        assert apply_gate_classical(s, g) == expect


def test_classical_action_rejects_h():
    with pytest.raises(ValueError):
        apply_gate_classical(0, h(0))


@given(st.integers(min_value=0, max_value=63), st.data())
def test_classical_gates_are_involutions(state, data):
    n_ctl = data.draw(st.integers(min_value=0, max_value=4))
    qubits = data.draw(
        st.permutations(range(6)).map(lambda p: p[: n_ctl + 1])
    )
    negs = data.draw(st.lists(st.booleans(), min_size=n_ctl, max_size=n_ctl))
    g = mcx(qubits[:-1], qubits[-1], negs)
    assert apply_gate_classical(apply_gate_classical(state, g), g) == state


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_plane_kernel_matches_per_path_action_on_ints_and_words(data):
    """128 paths over 7 wires: the same gates on Python-int planes and on
    uint64 word-array planes give every path's per-gate classical result."""
    states = data.draw(st.lists(st.integers(0, 127), min_size=128, max_size=128))
    gates = []
    for _ in range(data.draw(st.integers(0, 8))):
        n_ctl = data.draw(st.integers(0, 4))
        qs = data.draw(st.permutations(range(7)))[: n_ctl + 1]
        negs = data.draw(st.lists(st.booleans(), min_size=n_ctl, max_size=n_ctl))
        gates.append(mcx(qs[:-1], qs[-1], negs))
    ints = [sum(((z >> q) & 1) << j for j, z in enumerate(states)) for q in range(7)]
    words = [np.array([p & (2**64 - 1), p >> 64], np.uint64) for p in ints]
    apply_gates_planes(ints, gates, 2**128 - 1)
    apply_gates_planes(words, gates, np.full(2, 2**64 - 1, np.uint64))
    for j, z in enumerate(states):
        for g in gates:
            z = apply_gate_classical(z, g)
        assert [(p >> j) & 1 for p in ints] == [(z >> q) & 1 for q in range(7)]
    assert [int(w[0]) | int(w[1]) << 64 for w in words] == ints


def test_plane_kernel_rejects_h():
    with pytest.raises(ValueError):
        apply_gates_planes([0], [h(0)], 1)


def test_branch_planes_sets_each_branched_wire_to_a_path_index_bit():
    """Branching writes only the target plane; the others, wire 0 among them,
    read their value on every path once grown, and no sign is written."""
    st = Planes(1, 4)  # one path: wire 0 at 1
    for wire in (2, 1, 3):
        st.branch_signed(wire)
    planes = st.grown(range(5))
    assert st.n == 8
    for j in range(8):
        assert [(p >> j) & 1 for p in planes] == [1, (j >> 1) & 1, j & 1, (j >> 2) & 1, 0]


# ===================================================================
# mcx expansion
# ===================================================================


def _classical_run(circuit: Circuit, state: int) -> int:
    for g in circuit.gates:
        state = apply_gate_classical(state, g)
    return state


def test_expand_mcx_matches_direct_action_exhaustively():
    """Every control pattern and polarity; ladder vs direct mcx semantics on
    every basis state, so borrowed ancillas start at both values.  Besides
    single gates: circuits of several mcx sharing one pool, whose pool qubits
    may also be other gates' controls or targets."""
    rng = random.Random(7)
    circuits = []
    for n_ctl in (3, 4, 5):
        width = n_ctl + 1 + (n_ctl - 2)  # controls + target + borrowed pool
        anc = tuple((q, 0) for q in range(n_ctl + 1, width))
        for _ in range(4):
            order = list(range(n_ctl + 1))
            rng.shuffle(order)
            ctls, tgt = order[:-1], order[-1]
            negs = [rng.random() < 0.5 for _ in ctls]
            circuits.append(Circuit(width, (mcx(ctls, tgt, negs),), 0, ancillas=anc))
    for _ in range(12):
        width = rng.randint(6, 8)
        pool = rng.sample(range(width), 3)
        gates = []
        while len(gates) < 3:
            n_ctl = rng.randint(3, 5)
            qs = rng.sample(range(width), n_ctl + 1)
            if sum(q not in qs for q in pool) >= n_ctl - 2:
                gates.append(mcx(qs[:-1], qs[-1], [rng.random() < 0.5 for _ in qs[:-1]]))
        circuits.append(Circuit(width, tuple(gates), 0, ancillas=tuple((q, 0) for q in pool)))
    assert any(q in g.qubits for c in circuits for g in c.gates for q, _ in c.ancillas)
    for c in circuits:
        ex = expand_mcx(c)
        assert all(gate.kind != "mcx" for gate in ex.gates)
        for state in range(1 << c.width):
            assert _classical_run(ex, state) == _classical_run(c, state)


def test_expand_mcx_restores_dirty_ancillas():
    """Borrowed work qubits come back to their initial value, whatever it was."""
    g = mcx([0, 1, 2, 3], 4)
    c = Circuit(7, (g,), 0, ancillas=((5, 0), (6, 0)))
    ex = expand_mcx(c)
    for state in range(1 << 7):  # including states where the pool is dirty
        after = _classical_run(ex, state)
        assert (after >> 5) & 0b11 == (state >> 5) & 0b11


def test_expand_mcx_skips_pool_qubits_inside_the_gate():
    # Pool qubit 3 participates in the gate, so only 4 and 5 are borrowable.
    g = mcx([0, 1, 2, 3], 6)
    c = Circuit(7, (g,), 0, ancillas=((3, 1), (4, 0), (5, 0)))
    ex = expand_mcx(c)
    borrowed = {q for gate in ex.gates for q in gate.qubits} - set(g.qubits)
    assert borrowed <= {4, 5}


def test_expand_mcx_insufficient_pool():
    g = mcx([0, 1, 2, 3], 4)
    c = Circuit(6, (g,), 0, ancillas=((5, 0),))
    with pytest.raises(InsufficientAncillas):
        expand_mcx(c)


def test_expand_mcx_cost_is_linear():
    """4*(n-2) CCX per all-positive expansion."""
    for n_ctl in (3, 4, 5, 6):
        width = 2 * n_ctl
        anc = tuple((q, 0) for q in range(n_ctl + 1, width))
        c = Circuit(width, (mcx(range(n_ctl), n_ctl),), 0, ancillas=anc)
        ex = expand_mcx(c)
        assert len(ex.gates) == 4 * (n_ctl - 2)
        assert all(gate.kind == "ccx" for gate in ex.gates)


# ===================================================================
# text format
# ===================================================================

SAMPLE = """\
# three-qubit demo
qubits 4
ancilla 3 1
h 0
x 1
cx !0 1
ccx 0 !1 2
mcx 0 1 !2 3
output 2
postselect 1
"""


def test_parse_sample():
    c = parse_circuit(SAMPLE)
    assert c.width == 4
    assert c.output == 2
    assert c.postselect == 1
    assert c.ancillas == ((3, 1),)
    kinds = [g.kind for g in c.gates]
    assert kinds == ["h", "x", "cx", "ccx", "mcx"]
    assert c.gates[2].negated == (True,)
    assert c.gates[4].negated == (False, False, True)


def test_serialize_parse_roundtrip():
    c = parse_circuit(SAMPLE)
    again = parse_circuit(serialize_circuit(c))
    assert again == c


def test_parse_errors_carry_line_numbers():
    with pytest.raises(CircuitSyntaxError) as e:
        parse_circuit("qubits 2\nzz 0\noutput 0\n")
    assert "line 2" in str(e.value)
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("h 0\nqubits 2\noutput 0\n")  # width must come first
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("qubits 2\nqubits 2\noutput 0\n")
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("qubits 2\n")  # missing output
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("qubits 2\nh !0\noutput 0\n")  # negated target
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("qubits 2\ncx 0 1 1\noutput 0\n")  # arity
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("qubits 2\nancilla 0 2\noutput 0\n")
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("qubits 2\ncx 1 1\noutput 0\n")  # target == control


BAD_QUBIT_DIRECTIVES = ["output", "postselect", "output !1", "output 0 2", "postselect 1 1"]


def _circuit_with_directive(directive: str) -> str:
    """An otherwise valid 3-qubit circuit whose line 3 is ``directive``."""
    tail = "postselect 2\n" if directive.startswith("output") else "output 2\n"
    return f"qubits 3\nh 0\n{directive}\n{tail}"


@pytest.mark.parametrize("directive", BAD_QUBIT_DIRECTIVES)
def test_parse_rejects_malformed_output_and_postselect(directive):
    with pytest.raises(CircuitSyntaxError, match="line 3"):
        parse_circuit(_circuit_with_directive(directive))


def test_parse_normalizes_wide_gates_spelled_short():
    c = parse_circuit("qubits 5\nmcx 0 1 2\nmcx 0 1 2 3 4\noutput 0\n")
    assert c.gates[0].kind == "ccx"
    assert c.gates[1].kind == "mcx"


def _random_text(rng: random.Random) -> str:
    width = rng.randint(2, 6)
    lines = [f"qubits {width}"]
    for _ in range(rng.randint(0, 12)):
        kind = rng.choice(["h", "x", "cx", "ccx", "mcx"])
        need = {"h": 1, "x": 1, "cx": 2, "ccx": 3}.get(kind, min(4, width))
        if need > width:
            continue
        qs = rng.sample(range(width), need)
        if kind in ("h", "x"):
            lines.append(f"{kind} {qs[0]}")
        else:
            ctls = " ".join(
                ("!" if rng.random() < 0.5 else "") + str(q) for q in qs[:-1]
            )
            lines.append(f"{kind} {ctls} {qs[-1]}")
    out = rng.randrange(width)
    lines.append(f"output {out}")
    if width > 1 and rng.random() < 0.5:
        post = rng.choice([q for q in range(width) if q != out])
        lines.append(f"postselect {post}")
    return "\n".join(lines) + "\n"


def test_roundtrip_many_random_circuits():
    rng = random.Random(11)
    for _ in range(200):
        text = _random_text(rng)
        try:
            c = parse_circuit(text)
        except CircuitSyntaxError:
            continue  # generator may collide output/postselect; skip those
        assert parse_circuit(serialize_circuit(c)) == c
