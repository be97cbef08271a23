"""Classical randomized machines with postselection, counted exactly.

A coin machine is a pair of counting machines on shared instance and coin
registers: ``post`` accepts a coin outcome iff the run postselects (p = 1),
and ``joint`` accepts iff it postselects with output 1 (p = 1 and o = 1).
The coin register is the machines' path register, so the exact
postselection statistics over all 2**t outcomes are two accept counts,
``gap(post, w).accepts`` and ``gap(joint, w).accepts``, each over 2**t as a
``Fraction`` in the ``PostselStats`` record the quantum simulator reports for
circuits; that record, not this module, refuses a ``joint`` that accepts
more outcomes than ``post``.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from ._value import _Value
from .circuit import _integer, _uncomputed, cx
from .counting import PredicateCircuit, gap
from .errors import BadArgument, MachineContractError, PromiseViolation, StatsMismatch
from .simulator import PostselStats


class CoinMachine(_Value):
    """``post`` accepts iff p = 1; ``joint`` accepts iff p = 1 and o = 1."""

    def __init__(self, post: PredicateCircuit, joint: PredicateCircuit):
        if post.input_width != joint.input_width:
            raise MachineContractError("post and joint must read the same instance width")
        if post.path_width != joint.path_width:
            raise MachineContractError("post and joint must flip the same coins")
        self._set(post, joint)


def run_ptm(tm: CoinMachine, w: str) -> PostselStats:
    """Exact statistics from the accept counts of ``post`` and ``joint`` over
    all 2**t coin outcomes.  The record refuses what no machine run can give:
    ``ZeroPostselection`` if no outcome postselects, ``StatsMismatch`` if
    ``joint`` accepts more outcomes than ``post``."""
    coins = 1 << tm.post.path_width
    return PostselStats(
        Fraction(gap(tm.post, w).accepts, coins), Fraction(gap(tm.joint, w).accepts, coins)
    )


def build_upcoup(
    n_machine: PredicateCircuit, m_machine: PredicateCircuit, w: str
) -> CoinMachine:
    """Couple two counting machines promised to hold one accepting path total.

    The coins pick a path x fed to both machines: if the first accepts, the
    run postselects with output 1; if the second accepts, it postselects with
    output 0; otherwise it discards.  Under the promise this yields

        P(p=1) = 2**-q    and    P(o=1 | p=1) in {0, 1},

    the conditional telling which machine owns the unique path.  ``post``
    runs the two machines one at a time on one scratch block, each XORing its
    accept bit into one flag past both machines' bits and then uncomputed
    (``_uncomputed``) before the next; at most one accept bit is set under
    the promise, so the XOR is their OR.  ``joint`` is the first machine.
    Violating the promise raises eagerly.
    """
    if n_machine.input_width != m_machine.input_width:
        raise MachineContractError("machines must read the same instance width")
    if n_machine.path_width != m_machine.path_width:
        raise MachineContractError("machines must share a path width")
    total = gap(n_machine, w).accepts + gap(m_machine, w).accepts
    if total != 1:
        raise PromiseViolation(
            f"promise requires exactly one accepting path across both machines, got {total}"
        )
    # layout: [w | x | the scratch and accept bits of either machine | flag]
    data = n_machine.input_width + n_machine.path_width
    flag = max(n_machine.total_bits, m_machine.total_bits)
    gates = [*_uncomputed(n_machine.gates, [cx(n_machine.accept_index, flag)]),
             *_uncomputed(m_machine.gates, [cx(m_machine.accept_index, flag)])]
    post = PredicateCircuit(n_machine.input_width, n_machine.path_width, flag - data, gates, flag)
    return CoinMachine(post, n_machine)


class WappWitness(_Value):
    """Counting-machine form of a coin machine's conditional acceptance.

    The ratio accepts(g_machine, w) / (f(w) * 2**p_exp) reproduces the
    machine's conditional probability exactly.
    """

    def __init__(self, g_machine: PredicateCircuit, f_of: Mapping[str, int], p_exp: int):
        self._set(g_machine, f_of, p_exp)

    def ratio(self, w: str) -> Fraction:
        if w not in self.f_of:
            raise BadArgument(f"instance {w!r} is not declared")
        count = gap(self.g_machine, w).accepts
        return Fraction(count, self.f_of[w] << self.p_exp)


def wapp_witness(
    tm: CoinMachine,
    fp_numerators: Mapping[str, int],
    fp_exponent: int,
) -> WappWitness:
    """The counting witness of a machine whose postselection is declared.

    The declaration is P(p=1) = f(w) / 2**s on every declared instance w,
    with f(w) = ``fp_numerators[w]`` and s = ``fp_exponent``: the FP
    equality of ``classify_postsel_profile("FP")``, checked against
    ``run_ptm(tm, w).p_post`` and refused with ``StatsMismatch``.  The
    witness's g-machine is ``joint`` itself: its accept count on w is
    n(o=1, p=1) = P(o=1, p=1) * 2**t, and f(w) * 2**(t - s) = n(p=1).
    """
    if not fp_numerators:
        raise BadArgument("no declared statistics to witness")
    t, fp_exponent = tm.post.path_width, _integer(fp_exponent, "fp_exponent")
    if not 0 <= fp_exponent <= t:
        raise BadArgument(f"declared denominator 2**{fp_exponent} is outside 2**0 .. 2**{t}")
    for w in sorted(fp_numerators):
        p_post = run_ptm(tm, w).p_post
        declared = Fraction(_integer(fp_numerators[w], "numerator"), 1 << fp_exponent)
        if p_post != declared:
            raise StatsMismatch(f"on {w!r}: P(p=1) = {p_post}, declaration says {declared}")
    return WappWitness(tm.joint, dict(fp_numerators), t - fp_exponent)
