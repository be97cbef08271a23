"""Predicate machines: gaps, comparators, scaling, tables, text format."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from postsel import (
    CapExceeded,
    CircuitSyntaxError,
    FPFunction,
    MachineContractError,
    PredicateCircuit,
    apply_gate_classical,
    ccx,
    complement_machine,
    cx,
    emit_less_than,
    eval_machine,
    gap,
    h,
    make_gap_machine,
    mcx,
    parse_machine,
    scale_gap,
    serialize_machine,
    tabulated_count_machine,
    x,
)
from postsel.counting import DEFAULT_MAX_PATH_BITS
from postsel.scenarios import random_machine

# ===================================================================
# machine structure and evaluation
# ===================================================================


def test_machine_validation():
    with pytest.raises(ValueError, match="accept bit must sit past"):
        PredicateCircuit(1, 1, 0, (), 0)  # accept inside instance bits
    with pytest.raises(ValueError, match="accept bit must sit past"):
        PredicateCircuit(1, 1, 0, (), 3)  # accept past the register


# checked per gate in order: not a Gate, then h, then the register range
MACHINE_OFF_REGISTER = [
    ((cx(0, -1),), "gate touches bit -1 outside machine"),
    ((cx(0, 3),), "gate touches bit 3 outside machine"),  # the first bit past it
    # a control and the target both off the register: the control is named
    ((ccx(0, 7, -1),), "gate touches bit 7 outside machine"),
    ((x(1), 5), "gates must be Gate objects, got 5"),
    ((h(0), cx(0, 5)), "predicate machines are reversible: no h gates"),
    ((cx(0, 5), h(0)), "gate touches bit 5 outside machine"),
]


@pytest.mark.parametrize("gates, message", MACHINE_OFF_REGISTER)
def test_machine_off_register_gate_error_names_the_bit(gates, message):
    with pytest.raises(ValueError) as e:
        PredicateCircuit(0, 2, 0, gates, 2)
    assert str(e.value) == message


@pytest.mark.parametrize(
    "args",
    [
        ("1", 0, 0, (), 1),  # a string width
        (0, 1.0, 0, (), 1),  # a float width
        (0, 1, None, (), 1),  # no scratch count
        (0, 1, 0, 5, 1),  # gates that are not a sequence
        (0, 1, 0, (x(0),), 1.0),  # a float accept index
        (True, 1, 0, (), 2),  # a bool width, which would be written as "True"
    ],
)
def test_machine_rejects_non_integer_fields(args):
    with pytest.raises(ValueError, match="must be"):
        PredicateCircuit(*args)


def test_machine_rejects_hadamard():
    with pytest.raises(ValueError, match="reversible"):
        PredicateCircuit(0, 1, 0, (h(0),), 1)


def test_eval_simple_machine():
    # accept iff path bit equals instance bit: w xor x xor 1 -> accept
    m = PredicateCircuit(1, 1, 0, (cx(0, 2), cx(1, 2), x(2)), 2)
    assert eval_machine(m, "0", 0) is True
    assert eval_machine(m, "0", 1) is False
    assert eval_machine(m, "1", 1) is True
    g = gap(m, "0")
    assert (g.accepts, g.rejects, g.gap) == (1, 1, 0)


def test_eval_enforces_contract():
    dirty = PredicateCircuit(1, 1, 0, (x(0),), 2)  # flips an instance bit
    with pytest.raises(MachineContractError):
        eval_machine(dirty, "0", 0)
    with pytest.raises(MachineContractError):
        eval_machine(PredicateCircuit(1, 1, 0, (), 2), "00", 0)  # wrong |w|


def test_gap_counts_all_paths():
    m = PredicateCircuit(0, 3, 0, (cx(0, 3),), 3)  # accept iff x0 == 1
    g = gap(m, "")
    assert (g.accepts, g.rejects, g.gap) == (4, 4, 0)
    assert g.accepts + g.rejects == 1 << m.path_width


def _per_path(m, w):
    """(accepts, rejects) by eval_machine on every path, or "contract"."""
    try:
        accepts = sum(eval_machine(m, w, x_val) for x_val in range(1 << m.path_width))
    except MachineContractError:
        return "contract"
    return accepts, (1 << m.path_width) - accepts


def _bitsliced(m, w):
    try:
        g = gap(m, w)
    except MachineContractError:
        return "contract"
    return g.accepts, g.rejects


def _dirty(m: PredicateCircuit, negs) -> PredicateCircuit:
    """``m`` plus one scratch bit that is flipped, and never restored, on the
    path whose bits match ``negs`` (True for 0): the last path when none is."""
    path = list(range(m.input_width, m.input_width + m.path_width))
    flip = mcx(path, m.total_bits, negs)
    return PredicateCircuit(
        m.input_width, m.path_width, m.ancilla_count + 1, m.gates + (flip,), m.accept_index
    )


@hst.composite
def _machines(draw):
    """A random machine, maybe scaled and complemented, maybe made dirty on one
    late path (at most its lowest two path bits must be 0)."""
    in_w, q = draw(hst.integers(0, 2)), draw(hst.integers(0, 6))
    m = random_machine(random.Random(draw(hst.integers(0, 2**32))), in_w, q)
    if q and draw(hst.booleans()):
        m = scale_gap(m, draw(hst.integers(2, 3)))
    if draw(hst.booleans()):
        m = complement_machine(m)
    if draw(hst.booleans()):
        q = m.path_width
        m = _dirty(m, [i < 2 and draw(hst.booleans()) for i in range(q)])
    w = "".join(draw(hst.sampled_from("01")) for _ in range(in_w))
    return m, w


@settings(max_examples=200, deadline=None)
@given(_machines())
def test_bitsliced_gap_matches_per_path_reference(case):
    m, w = case
    assert _bitsliced(m, w) == _per_path(m, w)


def test_gap_at_the_path_bit_cap():
    """q = DEFAULT_MAX_PATH_BITS: a machine that reads only its first 4 path
    bits accepts 2**(q - 4) times as often as the same machine at q = 4, and a
    dirty flip on the last path alone breaks the contract."""
    q = DEFAULT_MAX_PATH_BITS
    rng = random.Random(7)
    for _ in range(3):
        small = random_machine(rng, 1, 4)
        big = PredicateCircuit(
            1,
            q,
            0,
            tuple(mcx(g.controls, 1 + q, g.negated) for g in small.gates),
            1 + q,
        )
        for w in "01":
            accepts, _ = _per_path(small, w)
            assert _bitsliced(big, w) == (accepts << (q - 4), (16 - accepts) << (q - 4))
        dirty = _dirty(big, [False] * q)
        assert _bitsliced(dirty, "1") == "contract"
        eval_machine(dirty, "1", (1 << q) - 2)  # the path before it is clean
        with pytest.raises(MachineContractError):
            eval_machine(dirty, "1", (1 << q) - 1)
    for v in (-(1 << q), -6, 0, 1 << (q - 1), 1 << q):
        assert gap(make_gap_machine(v, q), "").gap == v


@pytest.mark.parametrize(
    "gates, want",
    [
        ((ccx(1, 3, 5),), {"0": (2, 6), "1": (2, 6)}),  # accepts on x0 & x2, skips x1
        ((ccx(1, 3, 4),), {"0": "contract", "1": "contract"}),  # scratch left set
        ((cx(3, 2),), {"0": "contract", "1": "contract"}),  # x1 ^= x2, x0 unread
        ((cx(0, 5), cx(0, 4)), {"0": (0, 8), "1": "contract"}),  # scratch = w
        ((x(4),), {"0": "contract", "1": "contract"}),  # reads no path bit at all
    ],
)
def test_gap_grows_only_the_bits_its_gates_read(gates, want):
    """One instance bit, path bits 1-3 and scratch bit 4: gates that skip
    some path bits leave those planes at the length of their branch, the
    instance plane at one bit, and the contract is still checked on every
    path, as eval_machine checks it."""
    m = PredicateCircuit(1, 3, 1, gates, 5)
    for w, expected in want.items():
        assert _bitsliced(m, w) == _per_path(m, w) == expected, w


def test_gap_with_no_path_bits():
    m = PredicateCircuit(1, 0, 0, (cx(0, 1),), 1)  # accept iff w = 1
    assert _bitsliced(m, "1") == _per_path(m, "1") == (1, 0)
    assert _bitsliced(m, "0") == _per_path(m, "0") == (0, 1)
    assert _bitsliced(_dirty(m, []), "1") == _per_path(_dirty(m, []), "1") == "contract"


def test_gap_path_cap():
    m = PredicateCircuit(0, 21, 0, (), 21)
    with pytest.raises(CapExceeded):
        gap(m, "")


# ===================================================================
# comparator synthesis
# ===================================================================


def test_emit_less_than_exhaustive():
    """[x < c] for every width 0..4 and every constant, by direct replay."""
    for q in range(5):
        for c in range(-1, (1 << q) + 2):
            gates = emit_less_than(list(range(q)), c, q)
            for x_val in range(1 << q):
                state = x_val
                for g in gates:
                    state = apply_gate_classical(state, g)
                flag = (state >> q) & 1
                assert flag == (1 if x_val < c else 0), (q, c, x_val)
                assert state & ((1 << q) - 1) == x_val  # inputs untouched


def test_emit_less_than_degenerate_constants():
    assert emit_less_than([0, 1], 0, 2) == []
    assert emit_less_than([0, 1], -3, 2) == []
    gates = emit_less_than([0, 1], 4, 2)
    assert len(gates) == 1 and gates[0].kind == "x"


def test_emit_less_than_term_count_is_popcount():
    gates = emit_less_than(list(range(6)), 0b101101, 6)
    assert len(gates) == 4


# ===================================================================
# gap surgery
# ===================================================================


def test_make_gap_machine_hits_every_legal_gap():
    for q in range(0, 6):
        v = -(1 << q)
        while v <= (1 << q):
            m = make_gap_machine(v, q)
            assert gap(m, "").gap == v, (v, q)
            v += 2


def test_make_gap_machine_rejects_bad_values():
    with pytest.raises(ValueError):
        make_gap_machine(3, 2)  # parity: 3 != 4 mod 2
    with pytest.raises(ValueError):
        make_gap_machine(10, 2)  # too big for 2 path bits
    with pytest.raises(ValueError, match="^path width must be >= 0, got -1$"):
        make_gap_machine(0, -1)
    for q in (1.5, True):
        with pytest.raises(ValueError, match=f"^path width must be an integer, got {q!r}$"):
            make_gap_machine(0, q)


def test_complement_negates_gap():
    for v in (-4, -2, 0, 2, 4):
        m = make_gap_machine(v, 2)
        assert gap(complement_machine(m), "").gap == -v


def test_scale_gap_multiplies_exactly(self_reading_machine):
    rng = random.Random(13)
    for _ in range(20):
        q = rng.randint(1, 3)
        v = rng.randrange(-(1 << q), (1 << q) + 1, 2)
        base = make_gap_machine(v, q)
        c = rng.randint(1, 9)
        scaled = scale_gap(base, c)
        got = gap(scaled, "")
        assert got.gap == c * v, (v, q, c)
        assert got.accepts + got.rejects == 1 << scaled.path_width
    for c in (2, 3, 4, 7):
        assert gap(scale_gap(self_reading_machine, c), "").gap == -2 * c


def test_scale_gap_preserves_instance_dependence():
    # machine accepting iff x0 == w0: gap is 0 either way, counts shift
    m = PredicateCircuit(1, 1, 0, (cx(0, 2), cx(1, 2), x(2)), 2)
    s = scale_gap(m, 3)
    for w in ("0", "1"):
        base = gap(m, w)
        got = gap(s, w)
        assert got.gap == 3 * base.gap


def test_scale_gap_validation():
    with pytest.raises(ValueError):
        scale_gap(make_gap_machine(2, 1), 0)
    with pytest.raises(ValueError):
        scale_gap(PredicateCircuit(0, 0, 0, (), 0), 2)  # no path bits
    m = make_gap_machine(2, 1)
    assert scale_gap(m, 1) is m
    assert scale_gap(m, np.int64(3)) == scale_gap(m, 3)
    with pytest.raises(ValueError, match="scale factor must be an integer, got True"):
        scale_gap(m, True)


# ===================================================================
# tabulated counts
# ===================================================================


def test_tabulated_count_machine_matches_table():
    table = {"00": 0, "01": 3, "10": 8, "11": 5}
    m = tabulated_count_machine(table, 2, 3)
    for w, count in table.items():
        g = gap(m, w)
        assert g.accepts == count
        assert g.gap == 2 * count - (1 << 3)


def test_tabulated_count_machine_missing_instance_counts_zero():
    m = tabulated_count_machine({"1": 2}, 1, 2)
    assert gap(m, "0").accepts == 0
    assert gap(m, "1").accepts == 2


def test_tabulated_count_machine_rejects_overflow():
    with pytest.raises(ValueError):
        tabulated_count_machine({"0": 9}, 1, 3)


# ===================================================================
# the length normalizer
# ===================================================================


def _with_ignored_instance(inner: PredicateCircuit, in_w: int) -> PredicateCircuit:
    """Prefix in_w never-read instance bits onto an instance-free machine."""
    shifted = tuple(
        mcx([c + in_w for c in g.controls], g.target + in_w, g.negated)
        for g in inner.gates
    )
    return PredicateCircuit(
        in_w, inner.path_width, inner.ancilla_count, shifted, inner.accept_index + in_w
    )


def test_fp_function_from_length_gap():
    # gap 6 on any 2-bit instance; value depends only on |w|
    m = _with_ignored_instance(make_gap_machine(6, 3), 2)
    f = FPFunction(3, m)
    assert f("00") == 6
    assert f("10") == 6
    for w in ("000", "ab", "2x"):  # the wrong length, and not bits at all
        with pytest.raises(MachineContractError):
            f(w)


def test_fp_function_gap_variant_rejects_nonpositive_gap():
    m = _with_ignored_instance(make_gap_machine(-2, 2), 1)
    f = FPFunction(2, m)
    with pytest.raises(ValueError):
        f("1")


def test_fp_function_checks_its_bound_before_any_shift():
    """bound_exp is an int >= 0, and the range test builds no 2**bound_exp."""
    m = make_gap_machine(2, 2)  # instance-free, gap 2
    with pytest.raises(ValueError, match="^bound_exp must be an integer, got '7'$"):
        FPFunction("7", m)
    with pytest.raises(ValueError, match="^bound_exp must be >= 0, got -1$"):
        FPFunction(-1, m)
    assert FPFunction(10**12, m)("") == 2
    assert FPFunction(1, m)("") == 2  # 2**bound_exp itself is in range
    with pytest.raises(ValueError, match=r"^f\(''\) = 2 outside \(0, 2\*\*0\]$"):
        FPFunction(0, m)("")


# ===================================================================
# text format
# ===================================================================

MACHINE_TEXT = """\
# accept iff x0 != w0
machine 1 1 1
cx 0 3
cx 1 3
ccx !0 1 2
ccx !0 1 2
accept 3
"""


def test_parse_serialize_machine_roundtrip():
    m = parse_machine(MACHINE_TEXT)
    assert (m.input_width, m.path_width, m.ancilla_count) == (1, 1, 1)
    assert m.accept_index == 3
    assert parse_machine(serialize_machine(m)) == m
    assert gap(m, "0").accepts == 1


def test_parse_machine_errors():
    with pytest.raises(CircuitSyntaxError):
        parse_machine("x 0\naccept 0\n")  # header must come first
    with pytest.raises(CircuitSyntaxError):
        parse_machine("machine 0 1 0\n")  # missing accept
    with pytest.raises(CircuitSyntaxError):
        parse_machine("machine 0 1 0\nh 0\naccept 1\n")
    with pytest.raises(CircuitSyntaxError):
        parse_machine("machine 0 1 0\nzz 0\naccept 1\n")
    with pytest.raises(CircuitSyntaxError):
        parse_machine("machine 0 1 0\ncx 0 !1\naccept 1\n")  # negated target
    with pytest.raises(CircuitSyntaxError):
        parse_machine("machine 0 1 0\naccept 5\n")  # accept out of range


def test_roundtrip_generated_machines():
    rng = random.Random(31)
    for _ in range(25):
        v = rng.randrange(-8, 9, 2)
        m = scale_gap(make_gap_machine(v, 3), rng.randint(1, 4))
        again = parse_machine(serialize_machine(m))
        assert again == m
        assert gap(again, "").gap == gap(m, "").gap
