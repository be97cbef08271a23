"""Reversible predicate machines and exact path counting.

A ``PredicateCircuit`` is a reversible circuit over {x, cx, ccx, mcx} acting
on an input register (the instance bits w), a path register (the
nondeterministic choice bits x), scratch bits and one accept flag.  All 2**q
settings of the path register are live by construction, so the accept count
N_a and reject count N_r always satisfy N_a + N_r == 2**q and the gap
G = N_a - N_r is congruent to 2**q mod 2.

Machine files are read by the circuit format's statement reader and written
with its gate lines, so the comment, index and ``!``-control rules and the
per-gate control counts are the same; only the directives differ, and a
machine has no ``h``::

    machine IN_WIDTH PATH_WIDTH ANCILLAS
    x 3
    cx !0 4
    ...
    accept BITINDEX

Bit layout: [0, IN_WIDTH) instance bits, then PATH_WIDTH path bits, then
ANCILLAS scratch bits, then one more bit; ``accept`` must point into the
scratch-or-last region.  A machine must leave the instance and path bits
untouched and every scratch bit back at 0 after a forward pass; this is
checked during evaluation.

``gap`` runs all 2**q paths at once on bit-planes (see ``planes``): the
accept count is the popcount of the accept plane, and the contract holds iff
every other plane ends equal to its starting plane.  Only the planes that the
gates or the accept count read are grown to 2**q bits; they and their
starting copies take at most 2 * total_bits * 2**q / 8 bytes.
``eval_machine`` runs one path and is the per-path reference.  Past 20 path
bits ``gap`` raises ``CapExceeded``, "path bits = 21 exceeds cap 20".

``FPFunction`` is the length normalizer: an efficiently-computable positive
integer function whose value on w is a machine's gap on the all-ones
instance of length |w|.
"""

from __future__ import annotations

from ._value import _Value
from .circuit import (
    Gate,
    _body,
    _capped,
    _exponent,
    _gate_line,
    _integer,
    _pack_bits,
    _parse_gate,
    _placed,
    _tuple,
    _uncomputed,
    _wire,
    apply_gate_classical,
    mcx,
    x,
)
from .errors import BadArgument, CircuitSyntaxError, MachineContractError
from .planes import Planes, _wires, apply_gates_planes

# At the cap a plane grown to full length is 2**20 bits (128 KiB): at most
# 16 MiB with the starting copies for a 64-bit machine whose gates read every
# bit.  A bit no gate reads keeps the length of its branch, or one bit.
DEFAULT_MAX_PATH_BITS = 20


class PredicateCircuit(_Value):
    def __init__(
        self, input_width: int, path_width: int, ancilla_count: int,
        gates: tuple[Gate, ...], accept_index: int,
    ):
        self._set(
            _exponent(input_width, "input_width"), _exponent(path_width, "path_width"),
            _exponent(ancilla_count, "ancilla_count"), _tuple(gates, "gates"),
            _integer(accept_index, "accept_index"),
        )
        data, total = self.input_width + self.path_width, self.total_bits
        if not data <= self.accept_index < total:
            raise BadArgument("accept bit must sit past the instance and path bits")
        for g in self.gates:
            if not isinstance(g, Gate):
                raise BadArgument(f"gates must be Gate objects, got {g!r}")
            if g.kind == "h":
                raise BadArgument("predicate machines are reversible: no h gates")
            if g.span[0] < 0 or g.span[1] >= total:  # name the first bit off the register
                for q in g.qubits:
                    _wire(q, total, f"{g.kind} gate")

    @property
    def total_bits(self) -> int:
        return self.input_width + self.path_width + self.ancilla_count + 1


class GapValue(_Value):
    def __init__(self, accepts: int, rejects: int):
        self._set(accepts, rejects)

    @property
    def gap(self) -> int:
        return self.accepts - self.rejects


def _instance(machine: PredicateCircuit, w) -> int:
    """The packed instance bits, or MachineContractError if the machine cannot read them."""
    try:
        return _pack_bits(w, machine.input_width)
    except BadArgument as exc:
        raise MachineContractError(f"bad instance for the machine: {exc}") from exc


_CONTRACT = "machine left instance/path/scratch bits modified after a forward pass"


def eval_machine(machine: PredicateCircuit, w, x_val: int) -> bool:
    """Run one nondeterministic path; True iff the accept bit ends at 1.

    Also enforces the machine contract: instance and path bits unchanged,
    scratch bits restored to 0.  This is the per-path reference for ``gap``.
    """
    w_int, x_val = _instance(machine, w), _integer(x_val, "path index")
    if not 0 <= x_val < (1 << machine.path_width):
        raise BadArgument("path index out of range")
    start = state = w_int | x_val << machine.input_width
    for g in machine.gates:
        state = apply_gate_classical(state, g)
    accept = (state >> machine.accept_index) & 1
    if (state ^ (accept << machine.accept_index)) != start:
        raise MachineContractError(_CONTRACT)
    return bool(accept)


def gap(machine: PredicateCircuit, w) -> GapValue:
    """Exact accept/reject counts over all 2**q paths, for q <= DEFAULT_MAX_PATH_BITS.

    All paths run at once on bit-planes; path x sets the path bits to x.
    """
    q = _capped(machine.path_width, DEFAULT_MAX_PATH_BITS, "path bits")
    w_int = _instance(machine, w)
    st = Planes(w_int, machine.total_bits)
    for j in range(q):  # path bit j starts at 0: no sign is written
        st.branch_signed(machine.input_width + j)
    planes = st.grown({machine.accept_index} | _wires(machine.gates))
    start = planes.copy()
    apply_gates_planes(planes, machine.gates, st.ones)
    accepts = planes[machine.accept_index].bit_count()
    planes[machine.accept_index] = start[machine.accept_index]
    if planes != start:
        raise MachineContractError(_CONTRACT)
    return GapValue(accepts, (1 << q) - accepts)


def emit_less_than(bit_indices, constant: int, flag_index: int) -> list[Gate]:
    """Gates XOR-ing [value(bits) < constant] into ``flag_index``.

    ``bit_indices`` lists the compared bits least-significant first.  The
    comparison decomposes into mutually exclusive prefix terms, one per set
    bit of the constant, so plain XOR accumulation realizes the OR.
    """
    q, constant = len(bit_indices), _integer(constant, "constant")
    if constant <= 0:
        return []
    if constant >= (1 << q):
        return [x(flag_index)]
    out: list[Gate] = []
    for i in range(q - 1, -1, -1):
        if not (constant >> i) & 1:
            continue
        ctls = [bit_indices[j] for j in range(i + 1, q)] + [bit_indices[i]]
        negs = [not ((constant >> j) & 1) for j in range(i + 1, q)] + [True]
        out.append(mcx(ctls, flag_index, negs))
    return out


def make_gap_machine(v: int, q: int) -> PredicateCircuit:
    """Machine with q path bits whose gap on the empty instance is exactly v.

    The ``tabulated_count_machine`` that accepts the paths x < (2**q + v) / 2,
    so v must satisfy |v| <= 2**q and v == 2**q (mod 2).
    """
    v, q = _integer(v, "gap"), _exponent(q, "path width")
    if abs(v) > (1 << q):
        raise BadArgument(f"|gap| {abs(v)} needs more than {q} path bits")
    if (v - (1 << q)) % 2:
        raise BadArgument(f"gap {v} has wrong parity for {q} path bits")
    return tabulated_count_machine({"": ((1 << q) + v) // 2}, 0, q)


def scale_gap(machine: PredicateCircuit, c: int) -> PredicateCircuit:
    """Machine whose gap is exactly c times the input machine's gap (c >= 1).

    Appends ceil(log2 c) extra path bits y.  Branches with y < c replay the
    base machine; the remaining branches accept exactly half the time and
    contribute nothing to the gap.  The base machine and the comparator
    y < c are computed, the accept bit is copied out of them, and both are
    uncomputed (``_uncomputed``).
    """
    c = _integer(c, "scale factor")
    if c < 1:
        raise BadArgument("scale factor must be >= 1")
    if c == 1:
        return machine
    if machine.path_width < 1:
        raise BadArgument("base machine needs at least one path bit")
    extra = (c - 1).bit_length()
    in_w, q = machine.input_width, machine.path_width
    # new layout: [w | x (q) | y (extra) | old scratch | old accept slot | u | accept]
    base = _placed(machine.gates, lambda i: i if i < in_w + q else i + extra)
    y_bits = list(range(in_w + q, in_w + q + extra))
    a_m = machine.accept_index + extra
    u = in_w + q + extra + machine.ancilla_count + 1
    accept = u + 1
    compute = base + emit_less_than(y_bits, c, u)
    gates = _uncomputed(compute, [mcx([u, a_m], accept), mcx([u, in_w], accept, [True, True])])
    return PredicateCircuit(in_w, q + extra, machine.ancilla_count + 2, gates, accept)


def complement_machine(machine: PredicateCircuit) -> PredicateCircuit:
    """Swap accept and reject, negating the gap."""
    return PredicateCircuit(
        machine.input_width,
        machine.path_width,
        machine.ancilla_count,
        machine.gates + (x(machine.accept_index),),
        machine.accept_index,
    )


def tabulated_count_machine(
    table: dict[str, int], input_width: int, path_width: int
) -> PredicateCircuit:
    """Machine whose accept count on instance w is table[w] (0 if missing).

    One block of comparator terms per table entry, each guarded on the full
    instance pattern; the guards are mutually exclusive across entries.
    """
    input_width = _exponent(input_width, "input_width")
    path_width = _exponent(path_width, "path_width")
    gates: list[Gate] = []
    accept = input_width + path_width
    x_bits = list(range(input_width, accept))
    for w, count in sorted(table.items()):
        w_int, count = _pack_bits(w, input_width), _integer(count, "count")
        if not 0 <= count <= (1 << path_width):
            raise BadArgument(f"count {count} does not fit in {path_width} path bits")
        guard_ctls = list(range(input_width))
        guard_negs = [(w_int >> i) & 1 == 0 for i in guard_ctls]
        for term in emit_less_than(x_bits, count, accept):
            gates.append(
                mcx(
                    guard_ctls + list(term.controls),
                    accept,
                    guard_negs + list(term.negated),
                )
            )
    return PredicateCircuit(input_width, path_width, 0, tuple(gates), accept)


class FPFunction(_Value):
    """Positive integer function with a declared bound 0 < f(w) <= 2**bound_exp:
    ``machine``'s gap on the all-ones instance of length |w|, so the value
    depends only on |w|."""

    def __init__(self, bound_exp: int, machine: PredicateCircuit):
        self._set(_exponent(bound_exp, "bound_exp"), machine)

    def __call__(self, w: str) -> int:
        _instance(self.machine, w)  # w must be bits the length machine can read
        val = gap(self.machine, "1" * len(w)).gap
        if not (val > 0 and (val - 1).bit_length() <= self.bound_exp):
            raise BadArgument(f"f({w!r}) = {val} outside (0, 2**{self.bound_exp}]")
        return val


# --- machine text format ----------------------------------------------------


def parse_machine(text: str) -> PredicateCircuit:
    found: dict[str, list[int]] = {}
    gates: list[Gate] = []
    for line_no, op, args in _body(text, ("machine IN PATH ANC", "accept BITINDEX"), found):
        if op == "h":
            raise CircuitSyntaxError("machines are reversible: no h gates", line_no)
        gates.append(_parse_gate(op, args, line_no))
    if "accept" not in found:
        raise CircuitSyntaxError("missing accept line")
    try:
        return PredicateCircuit(*found["machine"], tuple(gates), *found["accept"])
    except BadArgument as exc:
        raise CircuitSyntaxError(str(exc)) from exc


def serialize_machine(machine: PredicateCircuit) -> str:
    lines = [
        f"machine {machine.input_width} {machine.path_width} {machine.ancilla_count}"
    ]
    lines += [_gate_line(g) for g in machine.gates]
    lines.append(f"accept {machine.accept_index}")
    return "\n".join(lines) + "\n"
