"""The differential harness for the engines, imported by the test modules.

``circuits`` is the one Hypothesis strategy for engine circuits, and
``check_engines`` compares, on one draw, ``run`` read every way it can be
read (``amplitude``, ``joint_prob``, ``measure_prob``, ``indices`` and
``coeffs``), ``path_sum`` and the signed amplitudes that ``path_sum_slow``
sums (``pathsum._amplitudes``) against ``_dict_reference``.  That per-index
reference merges at every Hadamard, so it also reaches the examples with
more than 60 Hadamards, far past the 20-H branch cap of the path oracles.
"""

from collections import defaultdict
from fractions import Fraction

import numpy as np
from hypothesis import strategies as hst

from postsel import (
    Circuit,
    QuantumState,
    apply_gate_classical,
    h,
    joint_prob,
    mcx,
    measure_prob,
    path_sum,
    run,
)
from postsel.pathsum import _amplitudes

# _amplitudes walks every one of the 2**H paths through the gate list in
# Python: about 3 ms a call at H = 10 and 30 gates, and the time doubles with
# each Hadamard more.  Above this bound check_engines leaves both path
# oracles out.
_ORACLE_MAX_H = 10


_KINDS = hst.sampled_from(["h", "h", "x", "cx", "ccx", "mcx"])
_PLACES = hst.sampled_from(["fresh", "repeat", "touched"])


@hst.composite
def circuits(draw, widths=(1, 63)):
    """(circuit, bits, constraint sets) for ``check_engines``.

    The width is drawn from ``widths``, its top often, so that at width 63
    wire 62 and index bytes 1-7 are reached.  Up to two declared ancillas,
    each held at 0 or 1, let ``run`` lower an mcx of up to four controls.
    Up to two spare wires start at 1 and take the last Hadamards, which
    branch on a 1, so the sign plane ends nonzero.  Every other H goes on a
    fresh data wire (where it branches), twice at once on one wire (the
    second merges) or on a wire gates have touched (where it usually
    merges); at most ``_ORACLE_MAX_H`` Hadamards in all.  x/cx/ccx/mcx
    gates carry negated controls, take their target from the touched wires
    or from all data wires, and at times come twice in a row, so that their
    target ends where it began.  A constraint set pins up to four wires,
    touched ones half the time; pins may repeat or clash.
    """

    def pick(wires: list[int]) -> int:
        return wires[draw(hst.integers(0, len(wires) - 1))]

    width = draw(hst.one_of(hst.just(widths[1]), hst.integers(*widths)))
    data = list(range(width))
    n_spare = draw(hst.integers(0, min(2, width - 1)))
    spares = [data.pop(draw(hst.integers(0, len(data) - 1))) for _ in range(n_spare)]
    anc = [data.pop(draw(hst.integers(0, len(data) - 1)))
           for _ in range(draw(hst.integers(0, min(2, len(data) - 1))))]
    touched: list[int] = []
    gates = []
    h_left = _ORACLE_MAX_H - n_spare
    for _ in range(draw(hst.integers(0, 20))):
        kind = draw(_KINDS)
        if kind == "h":
            if not h_left:
                continue
            place = draw(_PLACES)
            fresh = [q for q in data if q not in touched]
            q = pick({"fresh": fresh, "touched": touched}.get(place) or data)
            k = min(h_left, 2 if place == "repeat" else 1)
            gates += [h(q)] * k
            h_left -= k
            touched.append(q)
            continue
        if kind != "mcx":
            n_ctl = ["x", "cx", "ccx"].index(kind)
        elif anc:
            n_ctl = draw(hst.integers(3, 2 + len(anc)))
        else:
            continue
        if n_ctl >= len(data):
            continue
        t = pick(touched if touched and draw(hst.booleans()) else data)
        rest = [q for q in data if q != t]
        ctl = [rest.pop(draw(hst.integers(0, len(rest) - 1))) for _ in range(n_ctl)]
        negs = draw(hst.lists(hst.booleans(), min_size=n_ctl, max_size=n_ctl))
        gates += [mcx(ctl, t, negs)] * draw(hst.integers(1, 2))
        touched += [t, *ctl]
    gates += map(h, spares)
    z = draw(hst.integers(0, (1 << width) - 1))
    ancillas = tuple((q, draw(hst.integers(0, 1))) for q in anc)
    for q, v in ancillas:
        z = z & ~(1 << q) | v << q
    for q in spares:
        z |= 1 << q
    bits = "".join(str((z >> q) & 1) for q in range(width))
    hot = touched + spares or data
    constraints = [
        [(pick(hot) if draw(hst.booleans()) else draw(hst.integers(0, width - 1)),
          draw(hst.integers(0, 1))) for _ in range(draw(hst.integers(0, 4)))]
        for _ in range(draw(hst.integers(0, 3)))
    ]
    return Circuit(width, tuple(gates), 0, ancillas=ancillas), bits, constraints


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


def check_engines(circuit: Circuit, bits: str, constraints) -> None:
    """Every engine and every reading of ``run``'s state against the dict
    reference, on one circuit, input and list of constraint sets.

    ``run`` returns a branch form on the ``Planes`` it drove, whose planes
    grow only when a query reads them.  It, and the same state with its
    short coefficients tiled to full length on the ``Planes`` of a second
    ``run`` (where a write-out that negated in place would change what
    ``amplitude`` reads, and whose reads also start from short planes),
    answer ``amplitude`` on and off the support (every basis state of the
    low six wires) and ``joint_prob`` on ``[]`` (unitarity: 1) and on each
    constraint set, both before ``coeffs`` is first read and after; then
    ``indices``/``coeffs`` list the reference's entries once each, and
    n == 2**m exactly when every |coeff| is 1.  ``run``'s state before the
    write-out also answers ``measure_prob`` on every wire and ``joint_prob``
    on each pair of wires q, q + 1.  Up to ``_ORACLE_MAX_H``
    Hadamards, ``path_sum`` on the unlowered circuit gives the (g, m) of
    ``[]`` and of each constraint set, and ``_amplitudes`` the reference's
    entries.
    """
    width = circuit.width
    ref = _dict_reference(circuit, bits)
    st = run(circuit, bits)
    m = circuit.h_count
    assert st.m == m
    zs = np.array(list(ref), np.int64)
    squares = np.array([c * c for c in ref.values()], object)

    def weight(pins) -> Fraction:
        keep = np.ones(zs.size, bool)
        for q, v in pins:
            keep &= (zs >> q) & 1 == v
        return Fraction(int(squares[keep].sum()), 1 << m)

    drawn = [(pins, weight(pins)) for pins in [[]] + list(constraints)]
    assert drawn[0][1] == Fraction(1)
    pairs, marginals = [], []
    for q in range(width):  # wire q and the next, the same wire at width 1
        r = (q + 1) % width
        both = ((zs >> q) & 1) * 2 + ((zs >> r) & 1)
        w = [int(squares[both == k].sum()) for k in range(4)]
        for v in (0, 1):
            marginals.append((q, v, Fraction(w[2 * v] + w[2 * v + 1], 1 << m)))
            pairs += [([(q, v), (r, u)], Fraction(w[2 * v + u], 1 << m)) for u in (0, 1)]
    z0 = next(iter(ref))  # off the support: basis states of the low six wires, z0's neighbours
    off = {*range(1 << min(width, 6)), *(z0 ^ 1 << q for q in range(width))} - ref.keys()
    unit = all(abs(c) == 1 for c in ref.values())

    def check_queries(s: QuantumState, every_wire: bool) -> None:
        for z, c in ref.items():
            assert s.amplitude(z) == (c, m)
        for z in off:
            assert s.amplitude(z) == (0, m)
        for pins, p in drawn + pairs if every_wire else drawn:
            assert joint_prob(s, pins) == p
        for q, v, p in marginals if every_wire else ():
            assert measure_prob(s, q, v) == p

    tiled = np.tile(st.short, st.n // st.short.size)
    full = QuantumState(width, run(circuit, bits).planes, tiled, m)  # planes as short as st's
    for s in (st, full):
        check_queries(s, s is st)
        assert "coeffs" not in vars(s)
        assert len(set(s.indices.tolist())) == s.n
        assert dict(zip(s.indices.tolist(), s.coeffs.tolist())) == ref
        assert (s.n == 1 << m) == unit
        check_queries(s, False)

    if m <= _ORACLE_MAX_H:
        assert _amplitudes(circuit, int(bits[::-1], 2)) == ref
        for pins, p in drawn:
            g, m_g = path_sum(circuit, bits, pins)
            assert m_g == m and Fraction(g, 1 << m) == p
