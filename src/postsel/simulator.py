"""Exact sparse statevector simulation of Hadamard+Toffoli circuits.

A state after m Hadamards is its n live entries on bit-planes (see
``planes``) with nonzero integer coefficients, entry j at amplitude
c_j / sqrt(2)**m.  ``run`` lowers ``mcx`` with ``expand_mcx`` and then runs
the gate loop it shares with ``pathsum`` (``planes.Planes.drive``).  An H on
a wire constant across the support branches the entries with
``Planes.branch_signed`` and leaves the coefficients short: c_j is
coeffs[j % coeffs.size], negated where the sign plane has bit j.  A branch
writes only its target and sign planes; the others are tiled up to n where
they are next read.  An H on a wire that varies branches too, and then two
entries may hold one basis state.  A merge (``_keys._consolidate``) grows
every plane, writes the coefficients out in full, transposes to int64 basis
indices, sums the entries at one basis state by one sort, drops zeros and
transposes back: the first merge imports numpy, which nothing else in
``run`` needs.  Since a merge of 10 entries costs about what one of 1000
does, ``drive`` merges only once n reaches max(``planes._FLOOR``, twice the
count after the last merge), once n passes the support cap, and after the
last gate.  ``run`` returns the state in this branch form, on the
``Planes`` it drove, with no basis state twice: a query tiles the planes it
pins only for itself, and ``QuantumState`` writes the n coefficients out
only when a caller reads ``coeffs``.  Cost follows the live support, not
2**w (Jaques & Haener, arXiv:2105.01533): over w qubits a merge leaves at
most min(2**w, 2**m) entries, and between merges n stays at most 2**m and
below max(2 * ``planes._FLOOR``, 2**(w + 2)).  Unitarity gives sum(c_j**2) ==
2**m: with at most ``_keys._INT64_SAFE_H`` Hadamards every coefficient, square
and partial sum of squares fits in int64; larger circuits use object-dtype
Python ints.  ``joint_prob`` counts the kept entries when n == 2**m (every
coefficient is then +-1) and otherwise counts them per short coefficient
and weighs each count by its square.  ``CapExceeded`` is raised above
``DEFAULT_MAX_SUPPORT`` = 2**24 live entries (so every circuit of width
<= 24 runs) and above ``planes.MAX_WIDTH`` = 63 qubits.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from ._value import _Value
from .circuit import Circuit, _integer, expand_mcx
from .errors import BadArgument, StatsMismatch, ZeroPostselection
from .exactring import DyadicRational
from .planes import Planes, _basis_index, _constraint_mask

DEFAULT_MAX_SUPPORT = 1 << 24


class QuantumState:
    """n entries: entry j is c_j / sqrt(2)**m at the basis state whose qubit q
    is bit j of wire q's plane; every c_j is nonzero, other basis states are 0.

    c_j is short[j % short.size], negated where the sign plane has bit j: the
    branch form ``run`` returns, on the ``Planes`` it drove, whose planes grow
    only when a query reads them.  Before any merge ``_short`` is None, every
    c_j is +-1 and only reading ``short``, ``coeffs`` or ``indices`` loads numpy.
    Unitarity gives sum(c_j**2) == 2**m, which ``joint_prob`` relies on.
    A state is mutable and compares by identity.
    """

    def __init__(self, width: int, planes: Planes, _short, m: int):
        self.width, self.planes, self._short, self.m = width, planes, _short, m

    def __repr__(self) -> str:
        # the planes are n-bit ints: a repr of them could pass int's str limit
        return f"QuantumState(width={self.width}, _short={self._short!r}, m={self.m}, n={self.n})"

    @property
    def n(self) -> int:
        return self.planes.n

    @cached_property
    def short(self):
        """The short coefficients: ``_short``, or before any merge one 1."""
        from . import _keys
        return _keys._ones(self.m) if self._short is None else self._short

    @cached_property
    def coeffs(self):
        """The n coefficients c_j, written out on first use."""
        from . import _keys
        return _keys._write_out(self.short, self.planes.grown((-1,))[-1], self.n)

    @cached_property
    def indices(self):
        """int64 basis state of each entry (bit i = qubit i), transposed on first use."""
        from . import _keys
        planes = self.planes.grown(range(self.width))[: self.width]
        return _keys._plane_keys(planes, self.n, self.planes.ones).view(_keys._INDEX)

    def amplitude(self, z: int) -> tuple[int, int]:
        """Exact (c, m) with amplitude(z) == c / sqrt(2)**m; c == 0 off the support."""
        z = _integer(z, "basis state")
        if not 0 <= z < 1 << self.width:
            raise BadArgument(f"basis state {z} is not an integer in [0, 2**{self.width})")
        hit = self.planes.kept((1 << self.width) - 1, z)
        if not hit:
            return 0, self.m
        j = hit.bit_length() - 1
        c = 1 if self._short is None else int(self._short[j % self._short.size])
        return (-c if (self.planes.grown((-1,))[-1] >> j) & 1 else c), self.m


class PostselStats(_Value):
    """Exact P(p = 1) and P(o = 1, p = 1) of a postselecting run, from which
    ``p_cond`` derives P(o = 1 | p = 1).  This is the one check of the
    probability axioms: P(p = 1) == 0 raises ``ZeroPostselection``, and any
    other pair outside 0 <= P(o = 1, p = 1) <= P(p = 1) <= 1 raises
    ``StatsMismatch``."""

    def __init__(self, p_post: DyadicRational, p_joint: DyadicRational):
        if p_post.is_zero():
            raise ZeroPostselection("P(postselect=1) is exactly zero")
        k = max(p_post.k, p_joint.k)  # both numerators over 2**k
        if not 0 <= p_joint.n << (k - p_joint.k) <= p_post.n << (k - p_post.k) <= 1 << k:
            raise StatsMismatch(f"impossible record: P(p=1) = {p_post}, P(o=1, p=1) = {p_joint}")
        self._set(p_post, p_joint)

    @property
    def p_cond(self) -> Fraction:
        """P(o = 1 | p = 1), an exact Fraction: never rounded."""
        return self.p_joint.as_fraction() / self.p_post.as_fraction()


def run(circuit: Circuit, input_bits) -> QuantumState:
    """Exactly simulate a circuit on the given basis-state input.

    Raises ``CapExceeded`` if the circuit is wider than ``planes.MAX_WIDTH``
    or its live support outgrows ``DEFAULT_MAX_SUPPORT`` entries,
    ``InsufficientAncillas`` if an mcx cannot be lowered with the declared
    ancillas, and ``BadArgument`` if an input bit contradicts a declared ancilla
    value.
    """
    z0 = _basis_index(circuit, input_bits)
    if any(g.kind == "mcx" for g in circuit.gates):
        circuit = expand_mcx(circuit)

    short, m = None, circuit.h_count

    def merge(planes: list[int], n: int):
        nonlocal short  # the first merge loads numpy and picks the dtype (_keys._ones)
        from . import _keys
        short, planes = _keys._consolidate(short, planes, n, m)
        return planes, short.size

    st = Planes(z0, circuit.width)
    st.drive(circuit.gates, merge, DEFAULT_MAX_SUPPORT)
    return QuantumState(circuit.width, st, short, m)


def measure_prob(state: QuantumState, qubit: int, value: int) -> DyadicRational:
    """Exact probability that measuring ``qubit`` yields ``value``."""
    return joint_prob(state, [(qubit, value)])


def joint_prob(state: QuantumState, constraints) -> DyadicRational:
    """Exact probability that every (qubit, value) constraint holds at once."""
    n, pin = state.n, _constraint_mask(state.width, constraints)
    keep = state.planes.kept(*pin) if pin else 0
    # n nonzero integers whose squares sum to 2**m: n == 2**m forces every
    # square to be 1, so the kept squares sum to the number of kept entries
    # (as they do, 0, when no entry is kept)
    if n == 1 << state.m or not keep:
        return DyadicRational(keep.bit_count(), state.m)
    from . import _keys  # only a merge makes a coefficient other than +-1
    return DyadicRational(_keys._weighed_count(state._short, keep, n), state.m)


def _events(circuit: Circuit) -> dict[str, list[tuple[int, int]]]:
    """The (qubit, value) constraints of each event of a circuit, by the name
    ``simulate`` prints: P(o=1) as ``prob_output`` and, when a postselect
    qubit is declared, P(p=1) as ``prob_postselect`` and P(o=1, p=1) as
    ``prob_joint``, last."""
    events = {"prob_output": [(circuit.output, 1)]}
    if circuit.postselect is not None:
        events["prob_postselect"] = [(circuit.postselect, 1)]
        events["prob_joint"] = [(circuit.output, 1), (circuit.postselect, 1)]
    return events


def postselect_stats(circuit: Circuit, input_bits) -> PostselStats:
    """Run the circuit once: the ``PostselStats`` of its ``prob_postselect`` and
    ``prob_joint`` events.  Raises ``BadArgument`` when the circuit declares no
    postselect qubit and ``ZeroPostselection`` when P(p=1) == 0."""
    if circuit.postselect is None:
        raise BadArgument("circuit declares no postselect qubit")
    events = _events(circuit)
    state = run(circuit, input_bits)
    return PostselStats(
        joint_prob(state, events["prob_postselect"]), joint_prob(state, events["prob_joint"])
    )
