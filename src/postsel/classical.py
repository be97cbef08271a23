"""Classical randomized machines with postselection, enumerated exactly.

A probabilistic machine here is a finite object: ``coin_width`` fair coins
and a deterministic evaluator mapping (instance, coin outcome) to a
(postselect, output) bit pair.  Enumerating all 2**t coin outcomes gives the
exact postselection statistics as dyadic rationals, mirroring what the
quantum simulator reports for circuits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

from .counting import PredicateCircuit, eval_machine, gap, tabulated_count_machine
from .errors import PromiseViolation, StatsMismatch, ZeroPostselection
from .exactring import DyadicRational
from .simulator import PostselStats


@dataclass
class ProbTM:
    """A coin-flipping machine plus optional declared statistics.

    ``evaluate(w, coins)`` must be deterministic and return the pair
    (postselect_bit, output_bit).  The optional fields declare the machine's
    postselection restriction — numerators ``fp_numerators[w]`` over
    denominator 2**fp_exponent — and a labeled instance set for threshold
    checks at margin ``epsilon``.
    """

    coin_width: int
    evaluate: Callable[[str, int], tuple[int, int]]
    fp_numerators: dict[str, int] | None = None
    fp_exponent: int = 0
    epsilon: Fraction | None = None
    instances: dict[str, bool] = field(default_factory=dict)

    def __post_init__(self):
        if self.coin_width < 0:
            raise ValueError("coin_width must be >= 0")


def _count_outcomes(tm: ProbTM, w: str) -> tuple[int, int]:
    """(n(p=1), n(o=1, p=1)) over every coin outcome of the machine on ``w``."""
    n_post = 0
    n_joint = 0
    for coins in range(1 << tm.coin_width):
        p_bit, o_bit = tm.evaluate(w, coins)
        if p_bit not in (0, 1) or o_bit not in (0, 1):
            raise ValueError("evaluator must return bit pairs")
        n_post += p_bit
        n_joint += p_bit & o_bit
    return n_post, n_joint


def run_ptm(tm: ProbTM, w: str) -> PostselStats:
    """Exact statistics by enumerating every coin outcome."""
    n_post, n_joint = _count_outcomes(tm, w)
    if n_post == 0:
        raise ZeroPostselection(f"machine never postselects on {w!r}")
    return PostselStats(
        DyadicRational(n_post, tm.coin_width),
        DyadicRational(n_joint, tm.coin_width),
        Fraction(n_joint, n_post),
    )


def build_upcoup(
    n_machine: PredicateCircuit, m_machine: PredicateCircuit, w: str
) -> ProbTM:
    """Couple two counting machines promised to hold one accepting path total.

    The coins pick a path x fed to both machines: if the first accepts, the
    run postselects with output 1; if the second accepts, it postselects with
    output 0; otherwise it discards.  Under the promise this yields

        P(p=1) = 2**-q    and    P(o=1 | p=1) in {0, 1},

    the conditional telling which machine owns the unique path.  Violating
    the promise raises eagerly.
    """
    if n_machine.input_width != m_machine.input_width:
        raise ValueError("machines must read the same instance width")
    if n_machine.path_width != m_machine.path_width:
        raise ValueError("machines must share a path width")
    total = gap(n_machine, w).accepts + gap(m_machine, w).accepts
    if total != 1:
        raise PromiseViolation(
            f"promise requires exactly one accepting path across both machines, got {total}"
        )

    def evaluate(inst: str, coins: int) -> tuple[int, int]:
        if eval_machine(n_machine, inst, coins):
            return 1, 1
        if eval_machine(m_machine, inst, coins):
            return 1, 0
        return 0, 0

    return ProbTM(n_machine.path_width, evaluate, instances={w: True})


@dataclass(frozen=True)
class WappWitness:
    """Counting-machine form of a coin machine's conditional acceptance.

    The ratio accepts(g_machine, w) / (f(w) * 2**p_exp) reproduces the
    machine's conditional probability exactly; ``epsilon`` is the margin the
    surrounding thresholds are checked at.
    """

    g_machine: PredicateCircuit
    f_of: Mapping[str, int]
    p_exp: int
    epsilon: Fraction

    def ratio(self, w: str) -> Fraction:
        count = gap(self.g_machine, w).accepts
        return Fraction(count, self.f_of[w] << self.p_exp)


def wapp_witness(tm: ProbTM) -> WappWitness:
    """Extract the counting witness from a machine with declared statistics.

    Requires ``fp_numerators``, ``epsilon`` and a nonempty labeled instance
    set.  Checks the declaration n_post(w) == f(w) * 2**(t - s) against the
    enumerated counts and tabulates the joint counts n(o=1, p=1) into a
    counting machine over t path bits.
    """
    if tm.fp_numerators is None or tm.epsilon is None or not tm.instances:
        raise ValueError("machine carries no declared statistics to witness")
    if tm.fp_exponent > tm.coin_width:
        raise ValueError("declared denominator exceeds the coin space")
    lengths = {len(w) for w in tm.instances}
    if len(lengths) != 1:
        raise ValueError("witness extraction needs same-length instances")
    p_exp = tm.coin_width - tm.fp_exponent
    joint_counts: dict[str, int] = {}
    for w in sorted(tm.instances):
        n_post, n_joint = _count_outcomes(tm, w)
        declared = tm.fp_numerators[w] << p_exp
        if n_post != declared:
            raise StatsMismatch(
                f"on {w!r}: {n_post} postselecting outcomes, declaration implies {declared}"
            )
        joint_counts[w] = n_joint
    g_machine = tabulated_count_machine(
        joint_counts, lengths.pop(), tm.coin_width
    )
    return WappWitness(g_machine, dict(tm.fp_numerators), p_exp, tm.epsilon)
