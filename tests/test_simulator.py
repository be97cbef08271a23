"""Sparse exact simulator: known states, invariants, caps, postselection,
and differential checks against the path-sum oracles and a dense reference."""

import random
from collections import defaultdict

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from postsel import simulator
from postsel import (
    CapExceeded,
    Circuit,
    DyadicRational,
    InsufficientAncillas,
    QuantumState,
    ZeroPostselection,
    ancillas_restored,
    apply_gate_classical,
    ccx,
    cx,
    expand_mcx,
    h,
    joint_prob,
    mcx,
    measure_prob,
    path_sum,
    path_sum_slow,
    postselect_stats,
    run,
    x,
)
from postsel.scenarios import random_circuit

# ===================================================================
# known small states
# ===================================================================


def test_single_hadamard_is_uniform():
    st = run(Circuit(1, (h(0),), 0), "0")
    assert st.m == 1
    assert list(st.to_dense()) == [1, 1]
    assert st.amplitude(0) == (1, 1)  # 1/sqrt2
    assert measure_prob(st, 0, 1) == DyadicRational(1, 1)


def test_hh_is_identity():
    raw = run(Circuit(1, (h(0), h(0)), 0), "0")
    assert raw.amplitude(0) == (2, 2)  # 2/sqrt2**2 == 1
    assert raw.amplitude(1) == (0, 2)  # off the support: the paths cancelled
    st = raw.canonical()
    assert st.m == 0
    assert list(st.to_dense()) == [1, 0]
    assert list(st.indices) == [0]  # the cancelled |1> entry is dropped


def test_hh_from_one_interferes_back():
    st = run(Circuit(1, (h(0), h(0)), 0), "1").canonical()
    assert list(st.to_dense()) == [0, 1]


def test_bell_pair():
    st = run(Circuit(2, (h(0), cx(0, 1)), 0), "00")
    assert st.m == 1
    assert list(st.to_dense()) == [1, 0, 0, 1]  # (|00> + |11>)/sqrt2
    assert measure_prob(st, 0, 1) == DyadicRational(1, 1)
    assert joint_prob(st, [(0, 1), (1, 0)]) == DyadicRational(0, 0)
    assert joint_prob(st, [(0, 1), (1, 1)]) == DyadicRational(1, 1)


def test_x_and_negated_control():
    st = run(Circuit(2, (x(0), cx(0, 1, neg=True)), 0), "00")
    assert list(st.to_dense()) == [0, 1, 0, 0]  # |01> as (q1 q0); no fire on 1
    st = run(Circuit(2, (cx(0, 1, neg=True),), 0), "00")
    assert list(st.to_dense()) == [0, 0, 1, 0]  # fires on 0: |10>


def test_ccx_only_on_11():
    c = Circuit(3, (ccx(0, 1, 2),), 0)
    for z0 in range(8):
        st = run(c, format(z0, "03b")[::-1])
        expect = z0 ^ (0b100 if (z0 & 0b11) == 0b11 else 0)
        assert list(st.indices) == [expect] and st.norm_sq() == 1


# ===================================================================
# invariants
# ===================================================================


def _random_flat_circuit(rng: random.Random, width: int, n_gates: int) -> Circuit:
    gates = []
    kinds = [k for k, need in (("h", 1), ("x", 1), ("cx", 2), ("ccx", 3)) if need <= width]
    for _ in range(n_gates):
        kind = rng.choice(kinds)
        need = {"h": 1, "x": 1, "cx": 2, "ccx": 3}[kind]
        qs = rng.sample(range(width), need)
        negs = [rng.random() < 0.5 for _ in qs[:-1]]
        gates.append(h(qs[0]) if kind == "h" else mcx(qs[:-1], qs[-1], negs))
    return Circuit(width, tuple(gates), 0)


def test_norm_invariant_sum_of_squares_is_2_to_m():
    """Unitarity in integer form: sum(coeffs**2) == 2**m after every run."""
    rng = random.Random(3)
    for _ in range(60):
        width = rng.randint(1, 6)
        c = _random_flat_circuit(rng, width, rng.randint(0, 20))
        bits = "".join(rng.choice("01") for _ in range(width))
        st = run(c, bits)
        assert st.norm_sq() == 1 << st.m
        assert st.m == c.h_count


def test_marginals_sum_to_one():
    rng = random.Random(4)
    for _ in range(30):
        width = rng.randint(1, 5)
        c = _random_flat_circuit(rng, width, 12)
        st = run(c, "0" * width)
        for q in range(width):
            total = measure_prob(st, q, 0).as_fraction() + measure_prob(st, q, 1).as_fraction()
            assert total == Fraction(1)


def test_sparse_kernel_matches_mask_reference():
    """The sparse engine's dense image equals the dense arange-mask kernel."""
    rng = random.Random(5)
    for _ in range(25):
        width = rng.randint(2, 6)
        c = _random_flat_circuit(rng, width, 15)
        bits = "".join(rng.choice("01") for _ in range(width))
        assert list(run(c, bits).to_dense()) == _mask_reference(c, bits)


def _mask_reference(circuit: Circuit, bits: str) -> list:
    """Reference dense kernel: a length-2**n vector updated through arange masks."""
    n = circuit.width
    vec = np.zeros(1 << n, dtype=np.int64)
    vec[sum(int(b) << i for i, b in enumerate(bits))] = 1
    idx = np.arange(1 << n, dtype=np.int64)
    for g in circuit.gates:
        if g.kind == "h":
            v3 = vec.reshape(-1, 2, 1 << g.target)
            lo = v3[:, 0, :].copy()
            hi = v3[:, 1, :].copy()
            v3[:, 0, :] = lo + hi
            v3[:, 1, :] = lo - hi
        else:
            sel = ((idx >> g.target) & 1) == 0
            for c, neg in zip(g.controls, g.negated):
                sel &= ((idx >> c) & 1) == (0 if neg else 1)
            i0 = idx[sel]
            i1 = i0 | (1 << g.target)
            vec[i0], vec[i1] = vec[i1], vec[i0].copy()
    return list(vec)


def _check_against_references(circuit: Circuit, bits: str, *, oracles: bool = True):
    """Sparse run + joint_prob against the dense mask reference and, when
    ``oracles``, against path_sum and path_sum_slow on the unexpanded circuit,
    for every constraint set over the output and postselect qubits."""
    flat = expand_mcx(circuit)
    st = run(flat, bits)
    assert st.m == circuit.h_count
    assert np.all(st.coeffs != 0)  # zeros are dropped: the support is exactly the live set
    assert len(set(st.indices.tolist())) == st.indices.size
    dense = _mask_reference(flat, bits)
    assert list(st.to_dense()) == dense
    idx = np.arange(1 << circuit.width)
    dense_obj = np.array(dense, dtype=object)
    for o in (None, 0, 1):
        for p in (None, 0, 1):
            pins = ((circuit.output, o), (circuit.postselect, p))
            cons = [(q, v) for q, v in pins if v is not None]
            sel = np.ones(idx.size, dtype=bool)
            for q, v in cons:
                sel &= ((idx >> q) & 1) == v
            expect = DyadicRational(sum(int(c) ** 2 for c in dense_obj[sel]), st.m)
            assert joint_prob(st, cons) == expect
            if oracles:
                assert DyadicRational(*path_sum(circuit, bits, cons)) == expect
                assert DyadicRational(*path_sum_slow(circuit, bits, cons)) == expect


@hst.composite
def _circuits(draw):
    """Data qubits first, then 0-2 declared ancillas borrowed by mcx expansion;
    at most 10 Hadamards so that path_sum_slow stays quick."""
    n_data = draw(hst.integers(2, 6))
    n_anc = draw(hst.integers(0, 2))
    width = n_data + n_anc
    arity = {"h": 0, "hh": 0, "x": 0, "cx": 1, "ccx": 2, "mcx": 3}
    kinds = [k for k, n in arity.items() if n < n_data and (k != "mcx" or n_anc)]
    gates = []
    for _ in range(draw(hst.integers(0, 14))):
        kind = draw(hst.sampled_from(kinds))
        if kind in ("h", "hh"):
            if sum(g.kind == "h" for g in gates) < 9:
                # "hh" repeats H on one qubit: merge path and cancellations
                gates += [h(draw(hst.integers(0, n_data - 1)))] * len(kind)
            continue
        n_ctl = arity[kind]
        if kind == "mcx":
            n_ctl = draw(hst.integers(3, min(2 + n_anc, n_data - 1)))
        qs = draw(hst.permutations(range(n_data)))[: n_ctl + 1]
        negs = draw(hst.lists(hst.booleans(), min_size=n_ctl, max_size=n_ctl))
        gates.append(mcx(qs[:-1], qs[-1], negs))
    out, post = draw(hst.permutations(range(width)))[:2]
    anc_vals = draw(hst.lists(hst.sampled_from("01"), min_size=n_anc, max_size=n_anc))
    ancillas = tuple((q, int(v)) for q, v in zip(range(n_data, width), anc_vals))
    data_bits = draw(hst.lists(hst.sampled_from("01"), min_size=n_data, max_size=n_data))
    return Circuit(width, tuple(gates), out, post, ancillas), "".join(data_bits + anc_vals)


@settings(max_examples=150, deadline=None)
@given(_circuits())
def test_sparse_run_matches_path_sums_and_dense_reference(case):
    _check_against_references(*case)


def _dict_reference(circuit: Circuit, bits: str) -> dict[int, int]:
    """Per-index reference: H splits and merges {z: c}; every other gate moves
    each basis state on its own through apply_gate_classical."""
    state = {sum(int(b) << i for i, b in enumerate(bits)): 1}
    for g in circuit.gates:
        if g.kind != "h":
            state = {apply_gate_classical(z, g): c for z, c in state.items()}
            continue
        t = 1 << g.target
        out: dict[int, int] = defaultdict(int)
        for z, c in state.items():
            out[z & ~t] += c
            out[z | t] += -c if z & t else c
        state = {z: c for z, c in out.items() if c}
    return state


@hst.composite
def _wide_circuits(draw):
    """Widths 1-63 (63 drawn often, so wire 62 and index bytes 1-7 are reached),
    at most 11 Hadamards, negated controls, and reversible gates drawn twice in
    a row so that some runs leave their targets where they were."""
    width = draw(hst.one_of(hst.just(63), hst.integers(1, 63)))
    arity = {"h": 0, "x": 0, "cx": 1, "ccx": 2}
    kinds = [k for k, n in arity.items() if n < width]
    gates = []
    for _ in range(draw(hst.integers(0, 24))):
        kind = draw(hst.sampled_from(kinds))
        n_ctl = arity[kind]
        qs = draw(hst.lists(hst.integers(0, width - 1), min_size=n_ctl + 1,
                            max_size=n_ctl + 1, unique=True))
        if kind == "h":
            if sum(g.kind == "h" for g in gates) < 11:
                gates.append(h(qs[0]))
            continue
        negs = draw(hst.lists(hst.booleans(), min_size=n_ctl, max_size=n_ctl))
        gates += [mcx(qs[:-1], qs[-1], negs)] * draw(hst.integers(1, 2))
    bits = draw(hst.lists(hst.sampled_from("01"), min_size=width, max_size=width))
    return Circuit(width, tuple(gates), 0), "".join(bits)


@settings(max_examples=200, deadline=None)
@given(_wide_circuits())
# support of 1: no Hadamard, gates on wires in index bytes 1, 5 and 7
@example((Circuit(63, (x(62), cx(62, 40), ccx(40, 62, 9), cx(9, 0, neg=True)), 0), "0" * 63))
# a run over 5 live entries, not a multiple of 8, with negated controls on wires 9 and 62
@example((Circuit(63, (h(9), h(62), ccx(9, 62, 40, (True, False)), h(9), cx(62, 40, neg=True),
                       ccx(9, 40, 62, (False, True))), 0), "0" * 63))
# a run whose x, cx and ccx each fire twice: every target ends where it began
@example((Circuit(63, (h(40), h(17), x(62), x(62), cx(40, 9), cx(40, 9),
                       ccx(17, 40, 62), ccx(17, 40, 62)), 0), "1" * 63))
# width 1: runs on the only wire, before and after an H
@example((Circuit(1, (x(0), h(0), x(0)), 0), "1"))
def test_wide_runs_match_dict_reference(case):
    """run equals a per-index dict reference on every index byte."""
    circuit, bits = case
    st = run(circuit, bits)
    assert st.m == circuit.h_count
    assert len(set(st.indices.tolist())) == st.indices.size
    assert dict(zip(st.indices.tolist(), st.coeffs.tolist())) == _dict_reference(circuit, bits)


@hst.composite
def _branch_merge_circuits(draw):
    """Widths 1-63 and at most 9 Hadamards, each on a wire drawn from all wires
    (at large widths mostly one no gate has touched, where H branches) or from
    the wires gates have touched (where H usually merges).  Reversible gates
    draw their controls from the touched wires too, so merges meet entries."""
    width = draw(hst.integers(1, 63))
    touched: list[int] = []
    gates = []
    for _ in range(draw(hst.integers(0, 20))):
        kind = draw(hst.sampled_from(["h", "h", "x", "cx", "ccx"]))
        n_ctl = {"h": 0, "x": 0, "cx": 1, "ccx": 2}[kind]
        if n_ctl >= width or (kind == "h" and sum(g.kind == "h" for g in gates) >= 9):
            continue
        pool = draw(hst.sampled_from([range(width), sorted(set(touched)) or range(width)]))
        qs = [draw(hst.sampled_from(pool))]
        while len(qs) <= n_ctl:
            q = draw(hst.integers(0, width - 1))
            if q not in qs:
                qs.append(q)
        negs = draw(hst.lists(hst.booleans(), min_size=n_ctl, max_size=n_ctl))
        gates.append(h(qs[0]) if kind == "h" else mcx(qs[1:], qs[0], negs))
        touched += qs
    bits = draw(hst.lists(hst.sampled_from("01"), min_size=width, max_size=width))
    return Circuit(width, tuple(gates), 0), "".join(bits)


# supports of 5 and 7 on wires 0-2, and of 9 and 13 on wires 3-6: side by side
# they multiply, to 63 = 7 * 9 and 65 = 5 * 13 entries
_SUPPORT_5 = (h(1), h(0), ccx(0, 1, 2, False, True), h(1))
_SUPPORT_7 = (h(0), h(1), ccx(0, 1, 2, False, True), h(0), ccx(0, 2, 1), h(0),
              cx(0, 1, neg=True))
_SUPPORT_9 = (h(3), h(6), cx(6, 4, neg=True), cx(4, 3), ccx(3, 6, 5), h(3),
              ccx(5, 3, 6, True, True), h(5), ccx(5, 6, 4, False, True), h(6), ccx(6, 3, 5))
_SUPPORT_13 = (h(3), ccx(4, 6, 5, False, True), h(4), h(6), ccx(6, 4, 5, True, False),
               ccx(3, 5, 6, False, True), ccx(5, 4, 3, True, False), h(5))


@settings(max_examples=200, deadline=None)
@given(_branch_merge_circuits())
# supports of 128 (the last H is on a varying wire, yet no two entries meet) and of
# 64 (branches only, every one on an all-ones wire)
@example((Circuit(8, (*map(h, range(6)), ccx(0, 1, 6), h(6)), 0), "0" * 8))
@example((Circuit(63, tuple(map(h, (0, 9, 17, 40, 55, 62))), 0), "1" * 63))
# supports of 63 and 65, and of 5 alone
@example((Circuit(7, _SUPPORT_7 + _SUPPORT_9, 0), "0" * 7))
@example((Circuit(7, _SUPPORT_5 + _SUPPORT_13, 0), "0" * 7))
@example((Circuit(3, _SUPPORT_5, 0), "000"))
# H on an all-ones wire: the new half is negated
@example((Circuit(4, (h(0), x(3), cx(0, 2), h(3), h(1)), 0), "0000"))
@example((Circuit(2, (h(1),), 0), "11"))
# merges that cancel entries: HH on a wire, and H on a wire entangled with another
@example((Circuit(3, (h(0), h(1), h(0), h(1)), 0), "010"))
@example((Circuit(3, (h(0), cx(0, 1), h(0), h(1)), 0), "000"))
# coefficients written out from a short array and a sign plane: mid-run, after a
# branch on an all-ones wire; tiled from the 5 merged ones, then merged again;
# and at the end of a run whose last Hadamards branch after a merge
@example((Circuit(2, (h(0), h(1), h(0)), 0), "01"))
@example((Circuit(4, _SUPPORT_5 + (h(3), h(0)), 0), "0001"))
@example((Circuit(5, _SUPPORT_5 + (h(3), h(4)), 0), "00010"))
# more than 60 Hadamards: object-dtype coefficients
@example((Circuit(3, tuple(h(q) for _ in range(31) for q in (0, 1)) + (h(2), cx(2, 0)), 0), "100"))
# one entry with coefficient 2 at m = 2: every |coeff| is 1 only after canonical()
@example((Circuit(1, (h(0), h(0)), 0), "0"))
def test_branch_and_merge_match_dict_reference(case):
    """run's indices, coeffs, canonical() and == against the per-index dict
    reference, across Hadamards that branch and that merge; joint_prob on one
    wire and on two (q and q + 1, the same wire when the width is 1) for the
    state and its canonical() form, both with every |coeff| 1 and without."""
    circuit, bits = case
    st = run(circuit, bits)
    ref = _dict_reference(circuit, bits)
    assert st.m == circuit.h_count
    assert st.indices.size == len(ref)
    assert dict(zip(st.indices.tolist(), st.coeffs.tolist())) == ref
    zs = sorted(ref)
    coeffs, m = [ref[z] for z in zs], st.m
    while m >= 2 and all(c % 2 == 0 for c in coeffs):
        coeffs, m = [c // 2 for c in coeffs], m - 2
    canon = st.canonical()
    assert (canon.indices.tolist(), canon.coeffs.tolist(), canon.m) == (zs, coeffs, m)
    for s in (st, canon):  # joint_prob counts kept entries exactly when every |coeff| is 1
        assert (s.coeffs.size == 1 << s.m) == bool(np.all(np.abs(s.coeffs) == 1))
    for q in range(circuit.width):
        r = (q + 1) % circuit.width
        weight = defaultdict(int)  # (value of q, value of r) -> sum of squares
        for z, c in ref.items():
            weight[(z >> q) & 1, (z >> r) & 1] += c * c
        for s in (st, canon):
            for v in (0, 1):
                one = weight[v, 0] + weight[v, 1]
                assert joint_prob(s, [(q, v)]) == DyadicRational(one, st.m)
                for u in (0, 1):  # q == r with u != v clashes: weight 0
                    assert joint_prob(s, [(q, v), (r, u)]) == DyadicRational(weight[v, u], st.m)
    # the same state listed backwards, its planes packed bit by bit
    zs.reverse()
    planes = [sum(((z >> q) & 1) << j for j, z in enumerate(zs)) for q in range(circuit.width)]
    coeffs = np.array([ref[z] for z in zs], st.coeffs.dtype)
    backwards = QuantumState(circuit.width, planes, coeffs, st.m)
    assert st == backwards
    assert st != QuantumState(circuit.width, planes, -backwards.coeffs, st.m)


@hst.composite
def _branch_form_cases(draw):
    """Widths 2-6: random h/x/cx/ccx gates on the data wires (so Hadamards
    merge), then one H on each spare wire, which starts at 1 and no gate
    touches: those branch last and leave the sign plane nonzero.  Plus
    random constraint sets of one to three (qubit, value) pairs."""
    data = draw(hst.integers(1, 4))
    spare = draw(hst.integers(1, 2))
    width = data + spare
    gates = []
    for _ in range(draw(hst.integers(0, 12))):
        kind = draw(hst.sampled_from(["h", "h", "x", "cx", "ccx"][: 2 + min(data, 3)]))
        qs = draw(hst.permutations(range(data)))[: {"h": 1, "x": 1, "cx": 2, "ccx": 3}[kind]]
        negs = draw(hst.lists(hst.booleans(), min_size=len(qs) - 1, max_size=len(qs) - 1))
        gates.append(h(qs[0]) if kind == "h" else mcx(qs[1:], qs[0], negs))
    gates += [h(q) for q in range(data, width)]
    bits = "".join(draw(hst.lists(hst.sampled_from("01"), min_size=data, max_size=data)))
    pair = hst.tuples(hst.integers(0, width - 1), hst.integers(0, 1))
    cons = draw(hst.lists(hst.lists(pair, min_size=1, max_size=3), min_size=1, max_size=4))
    return Circuit(width, tuple(gates), 0), bits + "1" * spare, cons


def _check_branch_form(st: QuantumState, written: dict, cons) -> None:
    """amplitude on every basis state, joint_prob on each constraint set and
    norm_sq, all against the written-out entries."""
    for z in range(1 << st.width):
        assert st.amplitude(z) == (written.get(z, 0), st.m)
    for pins in cons:
        kept = [c for z, c in written.items() if all((z >> q) & 1 == v for q, v in pins)]
        assert joint_prob(st, pins) == DyadicRational(sum(c * c for c in kept), st.m)
    assert st.norm_sq() == sum(c * c for c in written.values())


@settings(max_examples=200, deadline=None)
@given(_branch_form_cases())
# merges to 5 coefficients, 2 of them +-2, then branches on wires at 1: a
# tiled short array under a sign plane
@example((Circuit(5, _SUPPORT_5 + (h(3), h(4)), 0), "00011",
          [[(0, 0)], [(1, 1), (3, 0)], [(2, 1), (4, 1)], [(0, 1), (1, 0)]]))
# more than 60 Hadamards, 62 of them merging: object dtype
@example((Circuit(3, tuple(h(q) for _ in range(31) for q in (0, 1)) + (h(2),), 0), "001",
          [[(0, 0)], [(2, 1)], [(1, 0), (2, 0)]]))
def test_branch_form_matches_its_written_out_entries(case):
    """The branch form that run returns answers amplitude, joint_prob and
    norm_sq as its written-out indices and coeffs do, before and after
    coeffs is first read; so does the same state with its short array tiled
    to full length under the same sign plane, where a write-out that
    negated in place would change what amplitude reads."""
    circuit, bits, cons = case
    ref = run(circuit, bits)
    written = dict(zip(ref.indices.tolist(), ref.coeffs.tolist()))
    st = run(circuit, bits)
    assert st.sign != 0  # the spare wires branch last, each on a 1
    full = QuantumState(st.width, st.planes, np.tile(st.short, st.n // st.short.size), st.m,
                        st.sign, st.n)
    for s in (st, full):
        _check_branch_form(s, written, cons)
        assert "coeffs" not in vars(s)
        assert dict(zip(s.indices.tolist(), s.coeffs.tolist())) == written
        _check_branch_form(s, written, cons)


def test_queries_leave_a_branch_only_state_unwritten():
    """After an H layer, joint_prob (by popcount, and by counts per short
    coefficient), amplitude and norm_sq read the short form: no n-entry
    coefficient array or index array is built."""
    layer = tuple(map(h, range(1, 17)))
    for gates, bits, amp in (
        (layer, "0" * 17, (1, 16)),  # every |coeff| is 1: popcount
        # coefficient 2 at m = 2, then branches on wires at 1: qubit 1 set is -2
        ((h(0), h(0)) + layer, "0" + "1" * 16, (-2, 18)),
    ):
        st = run(Circuit(17, gates, 0), bits)
        assert (st.short.size, st.n) == (1, 1 << 16)
        assert joint_prob(st, [(1, 1), (16, 0)]) == DyadicRational(1, 2)
        assert st.amplitude(0b10) == amp
        assert st.norm_sq() == 1 << st.m
        assert "coeffs" not in vars(st) and "indices" not in vars(st)


def test_object_dtype_fallback_for_many_hadamards():
    """More than 60 h gates switches to Python-int coefficients, still exact."""
    gates = tuple(h(q) for _ in range(31) for q in (0, 1)) + (h(0),)
    c = Circuit(2, gates, 0)
    assert c.h_count == 63
    st = run(c, "00")
    assert st.coeffs.dtype == object
    assert st.norm_sq() == 1 << 63
    canon = st.canonical()
    assert canon.m == 1  # 62 of the 63 branchings cancel pairwise
    # qubit 0 saw 32 h's (identity), qubit 1 saw 31 (one net h)
    assert list(canon.to_dense()) == [1, 0, 1, 0]
    # a mixed circuit past the int64 bound still matches the dense reference
    rng = random.Random(6)
    mixed = _random_flat_circuit(rng, 4, 40)
    mixed = Circuit(4, gates + mixed.gates, 2, postselect=3)
    assert mixed.h_count > 60
    _check_against_references(mixed, "0110", oracles=False)


def test_repr_of_a_large_state_is_short():
    """The planes (2**16-bit ints here) stay out of repr, which pytest and
    Hypothesis call on failure: int's str limit would make it raise."""
    st = run(Circuit(16, tuple(map(h, range(16))), 0), "0" * 16)
    assert st.coeffs.size == 1 << 16
    assert len(repr(st)) < 1000


@pytest.mark.parametrize("z", ["1", 1.0, np.float64(1), True, None, 4, -1, 1 << 70])
def test_amplitude_rejects_non_basis_states(z):
    st = run(Circuit(2, (h(0),), 0), "11")
    with pytest.raises(ValueError, match="basis state"):
        st.amplitude(z)


def test_amplitude_reads_every_basis_state():
    st = run(Circuit(2, (h(0),), 0), "11")  # (|10> - |11>)/sqrt2 as (q1 q0)
    assert [st.amplitude(z) for z in range(4)] == [(0, 1), (0, 1), (1, 1), (-1, 1)]
    assert st.amplitude(np.int64(3)) == (-1, 1)


def test_int64_path_for_few_hadamards():
    st = run(Circuit(2, (h(0), h(1)), 0), "00")
    assert st.coeffs.dtype == np.int64


# ===================================================================
# guard rails
# ===================================================================


def test_support_cap(monkeypatch):
    """DEFAULT_MAX_SUPPORT bounds the live support after every h, not the width."""
    c = Circuit(4, (h(0), h(1), h(2), h(3)), 0)
    monkeypatch.setattr(simulator, "DEFAULT_MAX_SUPPORT", 16)
    assert run(c, "0000").coeffs.size == 16
    monkeypatch.setattr(simulator, "DEFAULT_MAX_SUPPORT", 15)
    with pytest.raises(CapExceeded, match="support"):
        run(c, "0000")
    # the cap applies after the merge: the last h pairs 4 entries into 2
    monkeypatch.setattr(simulator, "DEFAULT_MAX_SUPPORT", 4)
    merged = run(Circuit(2, (h(0), h(1), h(0)), 0), "00")
    assert sorted(merged.indices.tolist()) == [0, 2]
    # width alone costs nothing: 40 qubits with two live entries
    wide = run(Circuit(40, (h(0), cx(0, 39)), 0), "0" * 40)
    assert sorted(wide.indices.tolist()) == [0, 1 | 1 << 39]


def test_width_limit_is_63_qubits_on_both_engines():
    ok = Circuit(63, (h(0), x(62), cx(62, 61)), 0)
    st = run(ok, "0" * 63)
    assert joint_prob(st, [(0, 1), (61, 1)]) == DyadicRational(1, 1)
    assert path_sum(ok, "0" * 63, [(0, 1), (61, 1)]) == (1, 1)
    wide = Circuit(64, (h(0), x(63)), 0)
    with pytest.raises(CapExceeded, match="63-qubit"):
        run(wide, "0" * 64)
    with pytest.raises(CapExceeded, match="63-qubit"):
        path_sum(wide, "0" * 64, [(0, 1)])


def test_equality_ignores_support_order():
    a = run(Circuit(2, (h(0), h(1)), 0), "00")
    b = run(Circuit(2, (h(1), h(0)), 0), "00")
    assert list(a.indices) != list(b.indices)
    assert a == b
    assert a != run(Circuit(2, (h(0),), 0), "00")


@settings(max_examples=150, deadline=None)
@given(
    hst.one_of(
        hst.integers(0, 2**32).map(lambda s: random_circuit(random.Random(s), allow_mcx=True)),
        _circuits(),
    )
)
@example((Circuit(6, (h(0), h(2), mcx([0, 1, 2], 3, [False, True, True])), 3, 0,
                  ((4, 1), (5, 0))), "000010"))  # negated controls; the borrowed wire holds 1
def test_run_lowers_mcx_like_expand_mcx(case):
    """run lowers mcx itself: the same state and statistics as on the circuit
    expand_mcx returns, negated controls included."""
    circuit, bits = case
    flat = expand_mcx(circuit)
    assert run(circuit, bits) == run(flat, bits)
    if circuit.postselect is None:
        return
    try:
        expect = postselect_stats(flat, bits)
    except ZeroPostselection:
        with pytest.raises(ZeroPostselection):
            postselect_stats(circuit, bits)
    else:
        assert postselect_stats(circuit, bits) == expect


def test_run_raises_when_the_ancilla_pool_is_short():
    c = Circuit(6, (mcx([0, 1, 2, 3], 4),), 4, ancillas=((5, 0),))
    with pytest.raises(InsufficientAncillas, match="needs 2 ancillas"):
        run(c, "000000")


def test_rejects_input_contradicting_ancilla():
    c = Circuit(2, (), 0, ancillas=((1, 1),))
    with pytest.raises(ValueError, match="ancilla"):
        run(c, "00")
    run(c, "01")


def test_rejects_bad_bits():
    with pytest.raises(ValueError):
        run(Circuit(2, (), 0), "0")
    with pytest.raises(ValueError):
        run(Circuit(2, (), 0), "0z")


# ===================================================================
# postselection statistics
# ===================================================================


def test_postselect_stats_bell():
    c = Circuit(2, (h(0), cx(0, 1)), output=1, postselect=0)
    st = postselect_stats(c, "00")
    assert st.p_post == DyadicRational(1, 1)
    assert st.p_joint == DyadicRational(1, 1)
    assert st.p_cond == Fraction(1)


def test_postselect_stats_conditional_is_exact_fraction():
    # p ~ uniform on 2 coins; o = AND of the coins; P(o|p) needs thirds.
    c = Circuit(
        4,
        (h(0), h(1), ccx(0, 1, 2), cx(0, 3), cx(1, 3), ccx(0, 1, 3)),
        output=2,
        postselect=3,  # p == OR of the coins
    )
    st = postselect_stats(c, "0000")
    assert st.p_post == DyadicRational(3, 2)
    assert st.p_joint == DyadicRational(1, 2)
    assert st.p_cond == Fraction(1, 3)


def test_postselect_stats_zero_raises():
    c = Circuit(2, (), output=0, postselect=1)
    with pytest.raises(ZeroPostselection):
        postselect_stats(c, "00")


def test_postselect_stats_requires_postselect_qubit():
    with pytest.raises(ValueError):
        postselect_stats(Circuit(2, (), 0), "00")


def test_joint_prob_conflicting_constraints_is_zero():
    st = run(Circuit(2, (h(0),), 0), "00")
    assert joint_prob(st, [(0, 0), (0, 1)]) == DyadicRational(0, 0)
    assert joint_prob(st, [(0, 1), (0, 1)]) == DyadicRational(1, 1)


def test_ancillas_restored_reads_planes_and_checks_width():
    c = Circuit(3, (), 0, ancillas=((2, 0),))
    clean = run(Circuit(3, (h(0), h(1)), 0), "000")
    assert ancillas_restored(c, clean)
    assert "indices" not in vars(clean)  # answered from the planes alone
    assert not ancillas_restored(c, run(Circuit(3, (h(0), cx(0, 2)), 0), "000"))
    assert not ancillas_restored(c, run(Circuit(3, (h(0), x(2)), 0), "000"))
    with pytest.raises(ValueError, match="width"):
        ancillas_restored(c, run(Circuit(2, (h(0),), 0), "00"))


def test_ancillas_restored_detects_dirt():
    c = Circuit(3, (mcx([0, 1], 2),), 0, ancillas=((2, 0),))
    good = run(c.with_gates((x(0),)), "000")
    assert ancillas_restored(c, good)
    bad = run(c.with_gates((x(2),)), "000")
    assert not ancillas_restored(c, bad)
