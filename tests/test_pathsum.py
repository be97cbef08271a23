"""Branch-enumeration oracle: pinned values, and the differential harness on
wide circuits and on narrow ones, where paths meet most often."""

import random
import tracemalloc

import pytest
from hypothesis import example, given, settings

from postsel import pathsum
from postsel import (
    CapExceeded,
    Circuit,
    DyadicRational,
    ccx,
    compile_fqp_to_exp,
    cx,
    default_input,
    h,
    joint_prob,
    mcx,
    measure_prob,
    path_sum,
    path_sum_slow,
    run,
    x,
)
from postsel.scenarios import _uniform_circuit, random_circuit

from engine_harness import check_engines, circuits

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


def test_fast_oracle_matches_slow_oracle():
    rng = random.Random(21)
    for _ in range(40):
        c, bits = random_circuit(rng, allow_mcx=rng.random() < 0.5)
        cons = [(q, rng.randint(0, 1)) for q in rng.sample(range(c.width), rng.randint(0, c.width))]
        assert path_sum(c, bits, cons) == path_sum_slow(c, bits, cons)


def test_oracle_matches_simulator():
    """check_engines on circuits of verify's own generator, mcx included,
    pinned where verify pins them and at random."""
    rng = random.Random(22)
    for _ in range(40):
        c, bits = random_circuit(rng, allow_mcx=rng.random() < 0.5)
        pins = [(c.output, 1)] + ([(c.postselect, 1)] if c.postselect is not None else [])
        drawn = [(q, rng.randint(0, 1)) for q in rng.sample(range(c.width), rng.randint(0, 3))]
        check_engines(c, bits, [pins, drawn])


@settings(max_examples=50, deadline=None)
@given(circuits(widths=(7, 63)))
def test_oracles_match_simulator_on_layered_wide_circuits(case):
    """check_engines on widths 7-63, the top often: path_sum and
    path_sum_slow on the unlowered circuit, with mcx of up to four negated
    controls and Hadamards repeated on a wire, against run."""
    check_engines(*case)


@settings(max_examples=50, deadline=None)
@given(circuits(widths=(1, 7)))
@example((Circuit(3, (h(0), h(1), ccx(0, 1, 2, True)), 0), "000", [[(2, 1)]]))  # fresh: g = 1
# meeting: H (x) H maps the Bell state to itself, g = 4 where 2 paths are kept
@example((Circuit(2, (h(1), cx(1, 0), h(1), h(0)), 0), "00", [[(0, 0), (1, 0)]]))
def test_path_sum_matches_the_slow_oracle_with_and_without_meeting_paths(case):
    """check_engines on widths 1-7, where few wires stay fresh, so most
    Hadamards hit varying wires and paths meet and cancel: path_sum against
    path_sum_slow, which shares no plane code with it, and both against run
    and the dict reference."""
    check_engines(*case)


@pytest.mark.parametrize("h_exp", [1, 2, 3])
def test_fast_oracle_matches_slow_oracle_on_postsel_adjust_circuits(h_exp):
    """The circuits of the exact-postsel-adjust scenario: Hadamard layers
    separated by comparators, the shape the lazy path growth targets."""
    for f in range(1, (1 << h_exp) + 1):
        w2 = compile_fqp_to_exp(_uniform_circuit(h_exp, f, None), f, h_exp)
        bits = default_input(w2)
        for cons in ([(w2.postselect, 1)], [(w2.output, 1), (w2.postselect, 1)]):
            assert path_sum(w2, bits, cons) == path_sum_slow(w2, bits, cons)


# Planes are tiled up to the entry count only where they are read: each case
# names the plane that comes back short, and the constraint sets pin it.
_TILING_CASES = {
    # wire 1 written at 2 entries (and wire 2 set at 2), read at 8 by the ccx
    "written-early-read-late": (
        Circuit(5, (h(0), cx(0, 1), x(2), h(3), h(4), ccx(1, 2, 3)), 3), "00000",
        [[(3, 1)], [(1, 1), (4, 0)], [(3, 0), (1, 0), (2, 1)]],
    ),
    # the same, then an H on the varying wire 1: path_sum sorts, run merges
    "written-early-read-late-meeting": (
        Circuit(5, (h(0), cx(0, 1), x(2), h(3), h(4), ccx(1, 2, 3), h(1)), 3), "00000",
        [[(3, 1)], [(1, 1), (4, 0)], [(3, 0), (1, 0), (2, 1)]],
    ),
    # wire 1 is never read after the layer on wires 2 and 3, only pinned
    "cold-and-pinned": (
        Circuit(4, (h(0), cx(0, 1), h(2), h(3)), 1), "0000",
        [[(1, 1)], [(1, 0), (3, 1)], [(1, 1), (0, 0)], [(1, 1), (0, 1), (2, 0)]],
    ),
    # the sign plane is set at 2 entries by h(2) on a 1; h(3), on a wire set
    # to 1 at 2 entries, grows both to 8 entries; the last H meets, so
    # path_sum sorts on the sign plane and run merges on it
    "sign-grown-from-short": (
        Circuit(4, (x(2), h(2), x(3), h(0), h(1), h(3), cx(0, 1), h(1)), 0), "0000",
        [[(2, 1)], [(3, 0), (1, 1)], [(0, 1), (2, 0), (3, 1)]],
    ),
    # run merges at the last h(0) with wires 1, 4 (at 2 entries), 2 (at 4)
    # and 3 (at 8) behind n
    "merge-after-cold-planes": (
        Circuit(5, (h(0), cx(0, 1), x(4), h(2), h(3), h(0)), 0), "00000",
        [[(0, 0)], [(1, 1), (4, 1)], [(0, 1), (2, 1), (3, 0)]],
    ),
    # the sign plane is set at 2 entries by h(0) on a 1 and no later H grows
    # it: run's state still holds it short when amplitude and coeffs read it
    "sign-short-at-the-end": (
        Circuit(2, (h(0), h(1)), 0), "10",
        [[(0, 1)], [(0, 1), (1, 1)]],
    ),
}


@pytest.mark.parametrize("name", sorted(_TILING_CASES))
def test_planes_grown_where_read_match_both_references(name):
    """check_engines (run, path_sum and _amplitudes against _dict_reference)
    and path_sum against path_sum_slow, on circuits whose planes are read
    after later Hadamards than their last write, or never read again."""
    circuit, bits, constraints = _TILING_CASES[name]
    check_engines(circuit, bits, constraints)
    for pins in [[]] + constraints:
        assert path_sum(circuit, bits, pins) == path_sum_slow(circuit, bits, pins), pins


@pytest.mark.parametrize("engine, expected", [
    (path_sum, (1 << 14, 20)),
    (lambda c, bits, pins: joint_prob(run(c, bits), pins), DyadicRational(1 << 14, 20)),
    # pins all 28 wires: a constraint ANDs the pinned planes at their own sizes
    (lambda c, bits, pins: run(c, bits).amplitude(4194303), (1, 20)),
], ids=["path_sum", "run", "amplitude"])
def test_path_sum_memory_follows_the_planes_read_after_their_last_growth(engine, expected):
    """The heaviest path sum of the exact-postsel-adjust scenario: 20
    Hadamards on 28 wires, but only 9 wires are read after the last layer.
    Doubling every plane at every Hadamard peaked at 3.46 MiB in path_sum;
    growing them where read keeps it near 1.5 MiB.  run's state keeps the
    same short planes, so run + joint_prob (3.21 MiB when run grew every
    plane before it returned) stays near 1.7 MiB, and so does run +
    amplitude (3.47 MiB when a constraint grew the planes it pinned)."""
    w2 = compile_fqp_to_exp(_uniform_circuit(6, 64, None), 64, 6)
    bits, pins = default_input(w2), [(w2.postselect, 1)]
    assert (w2.width, w2.h_count) == (28, 20)
    engine(w2, bits, pins)  # imports and first-call caches stay out of the peak
    tracemalloc.start()
    try:
        assert engine(w2, bits, pins) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak


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
    # cross-check through the simulator, which lowers mcx on a widened circuit
    wide = Circuit(7, c.gates, 0, ancillas=((5, 0), (6, 0)))
    st = run(wide, "0000000")
    assert joint_prob(st, [(4, 1)]) == DyadicRational(1, 1)


def test_oracle_branch_cap(monkeypatch):
    c = Circuit(1, tuple(h(0) for _ in range(21)), 0)
    for oracle in (path_sum, path_sum_slow):
        with pytest.raises(CapExceeded, match="^21 Hadamard branchings exceed oracle cap 20$"):
            oracle(c, "0", [])
    monkeypatch.setattr(pathsum, "DEFAULT_MAX_BRANCH", 21)
    g, m = path_sum(c, "0", [(0, 0)])
    # 21 h's == one net h; amplitude 2**10/sqrt2**21 squares to 2**20/2**21
    assert (g, m) == (1 << 20, 21)
    assert DyadicRational(g, m) == DyadicRational(1, 1)
    # path_sum_slow reads the same cap: 2**21 paths in Python would take
    # seconds, so lower it instead
    monkeypatch.setattr(pathsum, "DEFAULT_MAX_BRANCH", 2)
    three = Circuit(1, (h(0),) * 3, 0)
    with pytest.raises(CapExceeded, match="^3 Hadamard branchings exceed oracle cap 2$"):
        path_sum_slow(three, "0", [])
    assert path_sum_slow(Circuit(1, (h(0),) * 2, 0), "0", [(0, 0)]) == (4, 2)


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
    [("1", 1), (1, "1"), (1.0, 1), (1, 1.0), (None, 0), (True, 1)],
    ids=["str-qubit", "str-value", "float-qubit", "float-value", "none-qubit", "bool-qubit"],
)
def test_every_constraint_reader_rejects_non_integers(reader, pair):
    c = Circuit(2, (h(0),), 0)
    with pytest.raises(ValueError):
        _CONSTRAINT_READERS[reader](c, [pair])
