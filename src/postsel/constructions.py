"""Compilers from counting machines to postselected circuits, plus the exact
probability-adjustment gadgets that reshape a circuit's acceptance statistics.

All output statistics are stated in terms of raw machine gaps G = N_a - N_r.
Analyses that normalize a gap to half its value (h = G/2) are reconciled by
the identity (G1**2 + G2**2) == 4*(h1**2 + h2**2); the compilers here keep
the raw form so no divisions ever happen.

A machine compiler (``compile_gap_squared``, ``compile_pair_postsel``,
``compile_pp_instance``) builds one circuit for every instance: wires 0..n-1
are the machines' instance register, left as they came in, and instance w
runs on ``_instance_input(c, w, n)`` = ``w + default_input(c)[n:]``, which
refuses a w that is not n bits (``MachineContractError``).  The gadgets
``mix_with_constant`` and ``compile_fqp_to_exp`` force P(p=1) on one input.

A compiler composes ``_Builder`` steps and finishes once, into a Circuit with
one borrow pool whose mcx macros are still unexpanded; enough work qubits are
declared that ``expand_mcx`` always succeeds.  Probabilities quoted in the
docstrings are exact, not bounds, unless explicitly written as inequalities;
the closed forms ``gap_squared_prob`` and ``pair_stats`` return them as
Fractions, the values the simulator reports.
"""

from __future__ import annotations

from fractions import Fraction

from .circuit import (
    Circuit, Gate, _borrowed, _exponent, _frac, _integer, _placed, _uncomputed, ccx,
    default_input, h, mcx, x,
)
from .counting import PredicateCircuit, emit_less_than
from .errors import BadArgument, MachineContractError, StatsMismatch
from .planes import _check_width
from .simulator import PostselStats, postselect_stats
from .witness import WitnessReport


class _Builder:
    """Mutable helper that allocates qubits and finishes into a Circuit."""

    def __init__(self, base: Circuit | None = None):
        """An empty circuit, or a copy of ``base`` to grow."""
        self.width = 0 if base is None else base.width
        self.gates: list[Gate] = [] if base is None else list(base.gates)
        self.anc: dict[int, int] = {} if base is None else dict(base.ancillas)

    def alloc(self, n: int) -> list[int]:
        _check_width(self.width + n)  # no engine runs a circuit past planes.MAX_WIDTH
        start = self.width
        self.width += n
        return list(range(start, start + n))

    def alloc1(self) -> int:
        return self.alloc(1)[0]

    def add(self, gate: Gate) -> None:
        self.gates.append(gate)

    def extend(self, gates) -> None:
        self.gates.extend(gates)

    def declare(self, qubits: list[int]) -> None:
        """Declare work qubits that start, and end, at 0."""
        self.anc.update((q, 0) for q in qubits)

    def biased_flag(self, a: int, m: int) -> int:
        """A flag on m fresh fair coins that is 1 with probability a / 2**m."""
        coins = self.alloc(m)
        flag = self.alloc1()
        self.extend(map(h, coins))
        self.extend(emit_less_than(coins, a, flag))
        return flag

    def finish(self, output: int, postselect: int | None = None) -> Circuit:
        # top up the declared work pool so every mcx can borrow its n-2 bits
        deficit = max((_borrowed(g, self.anc)[1] for g in self.gates if g.kind == "mcx"), default=0)
        if deficit:
            self.declare(self.alloc(deficit))
        return Circuit(
            self.width,
            tuple(self.gates),
            output,
            postselect,
            tuple(sorted(self.anc.items())),
        )


def _instance_input(circuit: Circuit, w: str, width: int) -> str:
    """The input that runs a compiled circuit on instance w, ``width`` bits, on its first wires."""
    if len(w) != width:
        raise MachineContractError(f"instance {w!r} is not {width} bits")
    return w + default_input(circuit)[width:]


def _machine_gates(
    machine: PredicateCircuit,
    w_map: list[int],
    x_map: list[int],
    scratch_map: list[int],
    accept_q: int,
) -> list[Gate]:
    """Map a machine's gate list onto circuit qubits, gate for gate."""
    assert len(scratch_map) == machine.ancilla_count
    # the accept bit sits among the scratch bits, past the instance and path bits
    rest = list(scratch_map)
    rest.insert(machine.accept_index - machine.input_width - machine.path_width, accept_q)
    return _placed(machine.gates, (w_map + x_map + rest).__getitem__)


def gap_squared_prob(g_val: int, q: int) -> Fraction:
    """Closed form for the single-machine compiler: P(o=1) = G**2 / 2**2q."""
    g_val = _integer(g_val, "gap")
    return Fraction(g_val * g_val, 1 << (2 * _exponent(q, "q")))


def pair_stats(g1: int, g2: int, q: int, k: int) -> PostselStats:
    """Closed forms for the two-machine compiler, with e = 2q+2+2k:

    P(p=1) = (G1**2 + G2**2) / 2**e      P(o=1, p=1) = G1**2 / 2**e

    so P(o=1 | p=1) = G1**2 / (G1**2 + G2**2); G1 == G2 == 0 raises ``ZeroPostselection``.
    """
    g1, g2 = _integer(g1, "gap"), _integer(g2, "gap")
    e = 2 * _exponent(q, "q") + 2 + 2 * _exponent(k, "k")
    return PostselStats(Fraction(g1 * g1 + g2 * g2, 1 << e), Fraction(g1 * g1, 1 << e))


def _gap_squared_block(b: _Builder, machine: PredicateCircuit, wq: list[int]) -> int:
    """Append ``compile_gap_squared``'s block on the instance wires ``wq``, which
    it leaves as it came in, and return its output wire.  Walks all paths in
    superposition, imprints the sign (-1) on every rejecting path through a
    computed flag bit, interferes the paths back and detects the all-zero path
    register."""
    q = machine.path_width
    xq = b.alloc(q)
    scratch = b.alloc(machine.ancilla_count)
    acc = b.alloc1()
    out = b.alloc1()

    b.extend(map(h, xq))
    # phase (-1) exactly on rejecting paths: flip acc into a reject flag,
    # apply Z = H X H, flip back
    phase = [x(acc), h(acc), x(acc), h(acc), x(acc)]
    b.extend(_uncomputed(_machine_gates(machine, wq, xq, scratch, acc), phase))
    b.extend(map(h, xq))
    b.add(mcx(xq, out, [True] * q))
    b.declare(scratch + [acc])
    return out


def compile_gap_squared(machine: PredicateCircuit) -> Circuit:
    """Circuit without postselection whose P(output=1) == G**2 / 2**2q on
    instance w, with G = gap(machine, w): one ``_gap_squared_block``."""
    b = _Builder()
    wq = b.alloc(machine.input_width)
    return b.finish(output=_gap_squared_block(b, machine, wq))


def compile_pair_postsel(m1: PredicateCircuit, m2: PredicateCircuit, k: int = 0) -> Circuit:
    """Postselected circuit encoding two machine gaps at once.

    On instance w, with G_i = gap(m_i, w) and q their shared path width:

        P(p=1)       = (G1**2 + G2**2) / 2**(2q+2+2k)
        P(o=1 | p=1) = G1**2 / (G1**2 + G2**2)

    A selector qubit chooses machine 1 (selector 1, the output) or machine 2
    (selector 0) in superposition.  Both machines run on every branch, one
    after the other on the shared scratch, and each is uncomputed before the
    next; only the copy of a reject flag reads the selector, so the flag holds
    the selected machine's, and the branch picks up the sign (-1) on its
    rejecting paths.  Postselection projects the 2k padding qubits, the path
    register and the flag onto the uniform state via a Hadamard layer and an
    all-zeros detector.  ``pair_stats`` states these closed forms; on an instance
    where both gaps vanish, ``postselect_stats`` raises ``ZeroPostselection``.
    """
    k = _exponent(k, "k")
    if m1.input_width != m2.input_width or m1.path_width != m2.path_width:
        raise MachineContractError("machines must share instance and path widths")
    b = _Builder()
    wq = b.alloc(m1.input_width)
    q = m1.path_width
    pad = b.alloc(2 * k)
    xq = b.alloc(q)
    flag = b.alloc1()  # reject flag of the selected machine
    sel = b.alloc1()  # selector, doubles as the output qubit
    scratch = b.alloc(max(m1.ancilla_count, m2.ancilla_count))
    acc = b.alloc1()
    post = b.alloc1()

    b.extend(map(h, [sel, *xq]))

    for m, neg in ((m1, False), (m2, True)):  # machine 1 on sel = 1, machine 2 on sel = 0
        fw = _machine_gates(m, wq, xq, scratch[: m.ancilla_count], acc)
        # flag ^= [sel selects m] & not-accept
        b.extend(_uncomputed(fw, [ccx(sel, acc, flag, neg1=neg, neg2=True)]))

    # phase (-1) on rejecting paths of whichever machine was selected
    b.extend([h(flag), x(flag), h(flag)])

    plus_reg = pad + xq + [flag]
    b.extend(map(h, plus_reg))
    b.add(mcx(plus_reg, post, [True] * len(plus_reg)))

    b.declare(scratch + [acc])
    return b.finish(output=sel, postselect=post)


def gadget_biased_flag(a: int, m: int) -> Circuit:
    """Circuit whose output flag is 1 with probability exactly a / 2**m."""
    a, m = _integer(a, "a"), _exponent(m, "m")
    _check_width(m + 1)  # the circuit's width, before 1 << m is built
    if not 0 <= a <= (1 << m):
        raise BadArgument("need 0 <= a <= 2**m")
    b = _Builder()
    return b.finish(output=b.biased_flag(a, m))


def rescale_postsel(circuit: Circuit, t: int) -> Circuit:
    """Multiply P(p=1) by exactly 2**-t without touching the conditional.

    ANDs the old postselection bit with an independent ``biased_flag(1, t)``,
    which fires with probability 2**-t.  t == 0 returns the circuit unchanged.
    """
    t = _exponent(t, "t")
    if circuit.postselect is None:
        raise BadArgument("circuit declares no postselect qubit")
    if t == 0:
        return circuit
    b = _Builder(circuit)
    flag = b.biased_flag(1, t)
    p_new = b.alloc1()
    b.add(ccx(flag, circuit.postselect, p_new))
    return b.finish(output=circuit.output, postselect=p_new)


def mixed_conditional(f: int, t: int, inner: Fraction) -> Fraction:
    """Exact conditional of the half-and-half mix:

    cond_W = (f / 2**(t+1)) * cond_V + (1/2) * (2**(t+1) - f) / 2**(t+1)
    """
    f, t, inner = _integer(f, "f"), _exponent(t, "t"), _frac(inner)
    return Fraction(f, 1 << (t + 1)) * inner + Fraction(1, 2) * Fraction(
        (1 << (t + 1)) - f, 1 << (t + 1)
    )


def mix_with_constant(circuit: Circuit, f: int, h_exp: int, bits=None) -> Circuit:
    """Mix a postselecting circuit with a constant-statistics branch.

    Requires P(p=1) == f / 2**h exactly on the input ``bits`` (default:
    ``default_input(circuit)``), checked by simulating it; the statistics
    below hold on that input, padded with the new wires' zeros.  With
    t = floor(log2 f), a fair coin selects on heads the given circuit and on
    tails a branch whose output is 1 with probability 1/2 and whose
    postselection bit fires with probability (2**(t+1) - f) / 2**h,
    independently.  The result W satisfies

        P_W(p=1) = 2**t / 2**h
        P_W(o=1 | p=1) = mixed_conditional(f, t, P(o=1 | p=1)).

    The given circuit runs unconditionally; the tails branch simply never
    reads its qubits, since selection happens through controlled swaps of
    its output and postselection bits onto the tails-side qubits.
    """
    f, h_exp = _integer(f, "f"), _exponent(h_exp, "h")
    _check_width(circuit.width + h_exp + 3)  # the result's width, before 1 << h_exp is built
    if not 0 < f <= (1 << h_exp):
        raise BadArgument(f"need 0 < f <= 2**h, got f = {f}, h = {h_exp}")
    stats = postselect_stats(circuit, default_input(circuit) if bits is None else bits)
    if stats.p_post != Fraction(f, 1 << h_exp):
        raise StatsMismatch(f"P(p=1) is {stats.p_post}, expected {Fraction(f, 1 << h_exp)}")
    t = f.bit_length() - 1
    a = (1 << (t + 1)) - f

    b = _Builder(circuit)
    coin = b.alloc1()
    b.add(h(coin))
    o_tails = b.alloc1()
    b.add(h(o_tails))
    p_tails = b.biased_flag(a, h_exp)
    _cswap(b, coin, circuit.output, o_tails)
    _cswap(b, coin, circuit.postselect, p_tails)
    return b.finish(output=o_tails, postselect=p_tails)


def _cswap(b: _Builder, c: int, u: int, v: int) -> None:
    b.add(ccx(c, u, v))
    b.add(ccx(c, v, u))
    b.add(ccx(c, u, v))


def compile_fqp_to_exp(circuit: Circuit, f: int, h_exp: int, bits=None) -> Circuit:
    """Force P(p=1) to exactly 2**-h, whatever f was, on the input ``bits``
    that ``mix_with_constant`` checks.

    Chains the constant mix (bringing P(p=1) to 2**t / 2**h) with a 2**-t
    rescale.  The final postselection probability depends only on h; the
    conditional is the mixed conditional of the input circuit's.
    """
    f = _integer(f, "f")
    mixed = mix_with_constant(circuit, f, h_exp, bits)
    t = f.bit_length() - 1
    return rescale_postsel(mixed, t)


def compile_pp_instance(mg: PredicateCircuit, mf: PredicateCircuit) -> Circuit:
    """Postselected circuit for a majority-vote style gap pair (g, f).

    Appends two squared-gap blocks (``_gap_squared_block``) on one instance
    register, which each leaves as it came in, with one borrow pool between
    them; downscales each by the other's path budget and routes them through a
    selector that fires with probability 1/4 (``_Builder.biased_flag(1, 2)``:
    both of its coins read 0).  A firing selector simulates the f block (output
    forced to 0); otherwise the g block runs (output mirrors it).  With
    q = 2 * mg.path_width and q' = 2 * mf.path_width, on instance w:

        P_V(o=1) = G_g**2 / 2**(q+q')      P_W(o=1) = G_f**2 / 2**(q+q')
        P(p=1)   = (3 * P_V + P_W) / 4     P(o=1 | p=1) = 3 P_V / (3 P_V + P_W)

    Where gap(mf, w) != 0, P(p=1) >= 2**-(q+q'+2), with equality only in
    the degenerate all-zero-g, unit-f case; on an instance where both gaps
    vanish, ``postselect_stats`` raises ``ZeroPostselection``.
    """
    if mg.input_width != mf.input_width:
        raise MachineContractError("machines must share an instance width")
    q_exp = 2 * mg.path_width
    qp_exp = 2 * mf.path_width

    b = _Builder()
    wq = b.alloc(mg.input_width)
    o_g = _gap_squared_block(b, mg, wq)
    o_f = _gap_squared_block(b, mf, wq)

    coins = b.alloc(max(q_exp, qp_exp))
    b.extend(map(h, coins))
    flag_g = b.alloc1()  # scales the g block by 2**-q'
    flag_f = b.alloc1()  # scales the f block by 2**-q
    b.add(mcx(coins[:qp_exp], flag_g, [True] * qp_exp))
    b.add(mcx(coins[:q_exp], flag_f, [True] * q_exp))

    sel = b.biased_flag(1, 2)

    out = b.alloc1()
    post = b.alloc1()
    b.add(mcx([sel, o_g, flag_g], out, [True, False, False]))
    b.add(mcx([sel, o_g, flag_g], post, [True, False, False]))
    b.add(mcx([sel, o_f, flag_f], post, [False, False, False]))
    return b.finish(output=out, postselect=post)


def verify_error_algebra(r: int) -> WitnessReport:
    """Exact rational checks of the error-propagation inequalities used by
    the witness analyses, at sharpness exponent r >= 2.  Each returned
    condition carries its exact Fraction sides; nothing is rounded.
    """
    if _integer(r, "r") < 2:
        raise BadArgument("r must be >= 2")
    eps1 = Fraction(1, 1 << (r - 1))  # 2**-(r+1-2) = 2**-(r-1)
    eps2 = Fraction(1, 1 << (r - 2))  # 2**-(r-2)
    eps = Fraction(1, 1 << r)
    report = WitnessReport(f"error-algebra-r{r}")
    report.check("inflate-upper", 1 / (1 - eps1), "<=", 1 + eps2)
    report.check("deflate-lower", 1 / (1 + eps1) - (1 - eps2), ">=", 0)
    report.check("square-lower", (1 - eps) ** 2, ">=", 1 - eps1)
    report.check("cross-upper", 1 + eps * eps, "<=", 1 + eps1)
    return report
