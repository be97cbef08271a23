"""Branch-enumeration oracle: pinned values, agreement with the simulator."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from postsel import pathsum
from postsel import (
    CapExceeded,
    Circuit,
    DyadicRational,
    ccx,
    compile_fqp_to_exp,
    cx,
    default_input,
    expand_mcx,
    h,
    joint_prob,
    mcx,
    measure_prob,
    path_sum,
    path_sum_slow,
    run,
    x,
)
from postsel.scenarios import _uniform_circuit

# ===================================================================
# pinned closed forms
# ===================================================================


def test_single_hadamard():
    c = Circuit(1, (h(0),), 0)
    assert path_sum(c, "0", [(0, 1)]) == (1, 1)
    assert path_sum(c, "0", [(0, 0)]) == (1, 1)


def test_double_hadamard_interference():
    """H;H from |0>: the two paths to |1> cancel, g(q0=1) == 0."""
    c = Circuit(1, (h(0), h(0)), 0)
    assert path_sum(c, "0", [(0, 1)]) == (0, 2)
    assert path_sum(c, "0", [(0, 0)]) == (4, 2)


def test_no_hadamards_is_deterministic():
    c = Circuit(2, (x(0), cx(0, 1)), 0)
    assert path_sum(c, "00", [(0, 1), (1, 1)]) == (1, 0)
    assert path_sum(c, "00", [(1, 0)]) == (0, 0)


def test_empty_constraints_total_probability():
    c = Circuit(2, (h(0), h(1), cx(0, 1)), 0)
    g, m = path_sum(c, "00", [])
    assert DyadicRational(g, m) == DyadicRational(1, 0)


def test_bell_joint():
    c = Circuit(2, (h(0), cx(0, 1)), 0)
    assert path_sum(c, "00", [(0, 1), (1, 1)]) == (1, 1)
    assert path_sum(c, "00", [(0, 0), (1, 1)]) == (0, 1)


def test_conflicting_constraints_give_zero():
    c = Circuit(1, (h(0),), 0)
    g, _ = path_sum(c, "0", [(0, 0), (0, 1)])
    assert g == 0


# ===================================================================
# the two oracles agree with each other and with the simulator
# ===================================================================


def _random_circuit(rng: random.Random, width: int, with_mcx: bool) -> Circuit:
    kinds = ["h", "x", "cx", "ccx"] + (["mcx"] if with_mcx and width >= 6 else [])
    kinds = [k for k in kinds if {"h": 1, "x": 1, "cx": 2, "ccx": 3, "mcx": 4}[k] <= width]
    gates = []
    budget = 8  # keep 2**H small
    for _ in range(rng.randint(1, 14)):
        kind = rng.choice(kinds)
        if kind == "h":
            if budget == 0:
                continue
            budget -= 1
        need = {"h": 1, "x": 1, "cx": 2, "ccx": 3, "mcx": 4}[kind]
        qs = rng.sample(range(width), need)
        gates.append(mcx(qs[:-1], qs[-1], [rng.random() < 0.5 for _ in qs[:-1]]))
    return Circuit(width, tuple(gates), 0)


def test_fast_oracle_matches_slow_oracle():
    rng = random.Random(21)
    for _ in range(40):
        width = rng.randint(1, 6)
        c = _random_circuit(rng, width, with_mcx=False)
        bits = "".join(rng.choice("01") for _ in range(width))
        cons = [(q, rng.randint(0, 1)) for q in rng.sample(range(width), rng.randint(0, width))]
        assert path_sum(c, bits, cons) == path_sum_slow(c, bits, cons)


def test_oracle_matches_simulator():
    rng = random.Random(22)
    for _ in range(40):
        width = rng.randint(1, 6)
        c = _random_circuit(rng, width, with_mcx=False)
        bits = "".join(rng.choice("01") for _ in range(width))
        cons = [(q, rng.randint(0, 1)) for q in rng.sample(range(width), rng.randint(0, width))]
        g, m = path_sum(c, bits, cons)
        assert DyadicRational(g, m) == joint_prob(run(c, bits), cons)


@hst.composite
def _layered_circuits(draw):
    """Layers of x/cx/ccx/mcx gates (controls may be negated), each followed by
    Hadamards, some repeated on one qubit, so that gates act on paths grown
    mid-circuit; at most 10 Hadamards keep path_sum_slow quick.  Qubits come
    from the whole index range; at width 63 qubit 62 (the top bit of a
    nonnegative int64 index) is always a data qubit.  Two more qubits are
    declared ancillas for expanding mcx with up to 4 controls.  Constraints
    may repeat or contradict each other."""
    width = draw(hst.sampled_from([7, 12, 63]))
    others = hst.lists(hst.integers(0, width - 2), min_size=6, max_size=6, unique=True)
    live = [width - 1] + draw(others)
    data, anc = live[:5], live[5:]
    gates = []
    for _ in range(draw(hst.integers(1, 4))):
        for _ in range(draw(hst.integers(0, 4))):
            n_ctl = draw(hst.integers(0, 4))
            qs = draw(hst.permutations(data))[: n_ctl + 1]
            negs = draw(hst.lists(hst.booleans(), min_size=n_ctl, max_size=n_ctl))
            gates.append(mcx(qs[:-1], qs[-1], negs))
        for q in draw(hst.lists(hst.sampled_from(data), max_size=3)):
            if sum(g.kind == "h" for g in gates) < 9:
                gates += [h(q)] * draw(hst.integers(1, 2))
    anc_vals = draw(hst.lists(hst.integers(0, 1), min_size=2, max_size=2))
    bits = [draw(hst.integers(0, 1)) for _ in range(width)]
    for q, v in zip(anc, anc_vals):
        bits[q] = v
    pair = hst.tuples(hst.sampled_from(live), hst.integers(0, 1))
    cons = draw(hst.lists(pair, min_size=1, max_size=5))
    circuit = Circuit(width, tuple(gates), data[0], ancillas=tuple(zip(anc, anc_vals)))
    return circuit, "".join(map(str, bits)), cons


@settings(max_examples=150, deadline=None)
@given(_layered_circuits())
def test_oracles_match_simulator_on_layered_wide_circuits(case):
    """The drawn constraints, then each gate target alone."""
    circuit, bits, cons = case
    state = run(expand_mcx(circuit), bits)
    for c in [cons] + [[(q, 1)] for q in sorted({g.target for g in circuit.gates})]:
        g, m = path_sum(circuit, bits, c)
        assert m == circuit.h_count
        assert (g, m) == path_sum_slow(circuit, bits, c)
        assert DyadicRational(g, m) == joint_prob(state, c)


@hst.composite
def _fresh_or_meeting_circuits(draw):
    """Both kinds of circuit ``path_sum`` tells apart.  In a fresh one every H
    hits a wire no earlier gate touched, so the wire is constant on the live
    paths, no two paths meet and g is a count of kept paths.  In a meeting
    one, an H somewhere repeats at once on its wire, which then varies, so
    paths meet and may cancel.  Gates are x/cx/ccx/mcx with up to 4 possibly
    negated controls; at most 10 Hadamards keep path_sum_slow quick."""
    width = draw(hst.integers(1, 7))
    fresh = draw(hst.booleans())
    gates, touched = [], set()
    for _ in range(draw(hst.integers(0, 16))):
        untouched = sorted(set(range(width)) - touched) if fresh else list(range(width))
        if untouched and draw(hst.booleans()) and sum(g.kind == "h" for g in gates) < 8:
            gates.append(h(draw(hst.sampled_from(untouched))))
        else:
            n_ctl = draw(hst.integers(0, min(4, width - 1)))
            qs = draw(hst.permutations(range(width)))[: n_ctl + 1]
            negs = draw(hst.lists(hst.booleans(), min_size=n_ctl, max_size=n_ctl))
            gates.append(mcx(qs[:-1], qs[-1], negs))
        touched.update(gates[-1].qubits)
    if not fresh:
        at = draw(hst.integers(0, len(gates)))
        gates[at:at] = [h(draw(hst.integers(0, width - 1)))] * 2
    bits = "".join(draw(hst.lists(hst.sampled_from("01"), min_size=width, max_size=width)))
    pair = hst.tuples(hst.integers(0, width - 1), hst.integers(0, 1))
    cons = draw(hst.lists(pair, max_size=4))
    return Circuit(width, tuple(gates), 0), bits, cons


@settings(max_examples=200, deadline=None)
@given(_fresh_or_meeting_circuits())
@example((Circuit(3, (h(0), h(1), ccx(0, 1, 2, True)), 0), "000", [(2, 1)]))  # fresh: g = 1
# meeting: H (x) H maps the Bell state to itself, g = 4 where 2 paths are kept
@example((Circuit(2, (h(1), cx(1, 0), h(1), h(0)), 0), "00", [(0, 0), (1, 0)]))
def test_path_sum_matches_the_slow_oracle_with_and_without_meeting_paths(case):
    """Against path_sum_slow, which shares no plane code with path_sum."""
    circuit, bits, cons = case
    assert path_sum(circuit, bits, cons) == path_sum_slow(circuit, bits, cons)


@pytest.mark.parametrize("h_exp", [1, 2, 3])
def test_fast_oracle_matches_slow_oracle_on_postsel_adjust_circuits(h_exp):
    """The circuits of the exact-postsel-adjust scenario: Hadamard layers
    separated by comparators, the shape the lazy path growth targets."""
    for f in range(1, (1 << h_exp) + 1):
        w2 = compile_fqp_to_exp(_uniform_circuit(h_exp, f, None), f, h_exp)
        bits = default_input(w2)
        for cons in ([(w2.postselect, 1)], [(w2.output, 1), (w2.postselect, 1)]):
            assert path_sum(w2, bits, cons) == path_sum_slow(w2, bits, cons)


_ANC = 7  # an ancilla held at 1, read as a control and never written


def _layout_circuit(hcount: int) -> tuple[Circuit, list[int]]:
    """``hcount`` Hadamards (5, 6 or 7) mixed with negated controls, mcx with
    3 and 4 controls and a 1-valued ancilla.  Qubit 0 is branched from 1 and
    then branched again by the very last Hadamard, so some paths turn
    negative and paths interfere.  The qubits of the last Hadamards are
    returned, the very last one last; no later gate writes them."""
    lasts = [3, 8, 9][: hcount - 4] + [0]
    gates = [x(0), h(0), h(1), h(2)]
    gates += [
        mcx([0, 1, 2, _ANC], 5, [False, True, False, False]),
        ccx(_ANC, 2, 6, False, True),
        cx(_ANC, 4, True),  # never fires: the ancilla is 1
        mcx([5, 6, 1], 4, [True, False, True]),
        x(2),
    ]
    gates += [h(q) for q in lasts]
    gates.append(mcx([*lasts, _ANC], 6, [False] * (len(lasts) - 1) + [True, False]))
    circuit = Circuit(10, tuple(gates), 4, ancillas=((_ANC, 1),))
    assert circuit.h_count == hcount
    return circuit, lasts


@pytest.mark.parametrize("hcount", [5, 6, 7])
def test_fast_oracle_matches_slow_oracle_where_the_plane_layout_changes(hcount):
    """32, 64 and 128 paths, so the planes fill part of one uint64 word, one
    word and two words when the kept paths are transposed: the constraints
    keep no path, every path, only the upper half (the last word at 128
    paths), only the last block of 2**(hcount - len(lasts)) paths, or a mix."""
    circuit, lasts = _layout_circuit(hcount)
    cases = {
        "none": ([(_ANC, 0)], 0),
        "all": ([], 1 << hcount),
        "all-pinned": ([(_ANC, 1)], 1 << hcount),
        "last-half": ([(lasts[-1], 1)], None),
        "last-block": ([(q, 1) for q in lasts], None),
        "mixed": ([(5, 1), (0, 0)], None),
        "mixed-negated": ([(6, 0), (4, 1), (lasts[-1], 1)], None),
    }
    for bits in ("0000000100", "0100100100"):
        for name, (cons, want) in cases.items():
            got = path_sum(circuit, bits, cons)
            assert got == path_sum_slow(circuit, bits, cons), (bits, name)
            if want is not None:
                assert got == (want, hcount), (bits, name)


def test_oracle_handles_mcx_natively():
    """mcx acts classically on each path; no expansion or ancillas needed."""
    g = mcx([0, 1, 2, 3], 4)
    c = Circuit(5, (x(0), x(1), x(2), h(3), g), 0)
    assert path_sum(c, "00000", [(4, 1)]) == (1, 1)
    # cross-check through expansion + simulator on a widened circuit
    wide = Circuit(7, c.gates, 0, ancillas=((5, 0), (6, 0)))
    st = run(expand_mcx(wide), "0000000")
    assert joint_prob(st, [(4, 1)]) == DyadicRational(1, 1)


def test_oracle_branch_cap(monkeypatch):
    c = Circuit(1, tuple(h(0) for _ in range(21)), 0)
    with pytest.raises(CapExceeded):
        path_sum(c, "0", [])
    monkeypatch.setattr(pathsum, "DEFAULT_MAX_BRANCH", 21)
    g, m = path_sum(c, "0", [(0, 0)])
    # 21 h's == one net h; amplitude 2**10/sqrt2**21 squares to 2**20/2**21
    assert (g, m) == (1 << 20, 21)
    assert DyadicRational(g, m) == DyadicRational(1, 1)


def test_oracle_validates_constraints():
    c = Circuit(2, (), 0)
    with pytest.raises(ValueError):
        path_sum(c, "00", [(5, 1)])
    with pytest.raises(ValueError):
        path_sum(c, "00", [(0, 2)])


_CONSTRAINT_READERS = {
    "path_sum": lambda c, pairs: path_sum(c, "00", pairs),
    "path_sum_slow": lambda c, pairs: path_sum_slow(c, "00", pairs),
    "joint_prob": lambda c, pairs: joint_prob(run(c, "00"), pairs),
    "measure_prob": lambda c, pairs: [measure_prob(run(c, "00"), q, v) for q, v in pairs],
}


@pytest.mark.parametrize("reader", sorted(_CONSTRAINT_READERS))
@pytest.mark.parametrize(
    "pair",
    [("1", 1), (1, "1"), (1.0, 1), (1, 1.0), (None, 0)],
    ids=["str-qubit", "str-value", "float-qubit", "float-value", "none-qubit"],
)
def test_every_constraint_reader_rejects_non_integers(reader, pair):
    c = Circuit(2, (h(0),), 0)
    with pytest.raises(ValueError):
        _CONSTRAINT_READERS[reader](c, [pair])
