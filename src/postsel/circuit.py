"""Circuit intermediate representation for the Hadamard+Toffoli gate set.

A circuit is a fixed-width ordered gate list plus a designated output qubit,
an optional postselection qubit (always postselected on value 1) and declared
work-qubit initial values.  The multi-controlled X macro ``mcx`` is the only
gate the statevector simulator does not apply directly: ``expand_mcx``
rewrites it into CCX ladders, and ``simulator.run`` calls it itself.

Text format, one statement per line, ``#`` starts a comment, indices are
0-based, controls may carry a ``!`` prefix for a negated (fires-on-0)
control::

    qubits N
    h Q
    x Q
    cx C T
    ccx C1 C2 T
    mcx C1 ... Cn T
    output Q
    postselect Q
    ancilla Q V

Files are plain 7-bit ASCII, and only LF, CRLF and CR end a line (``\\v``,
``\\f`` and ``\\x1c``-``\\x1e`` are whitespace inside a line).  ``ancilla Q V``
declares that qubit Q must be given input value V (0 or 1) and is returned to
that value by the gates that borrow it.

Each fact is checked in one place: a ``Gate`` checks its structure (kind,
integer qubits, bool flags, control count, distinct qubits) and keeps the
span that a ``Circuit`` (or ``counting.PredicateCircuit``) tests against its
register, and the reader the tokens (ASCII digits, ``!`` on controls only).
A gate's cost follows its control count (an ``h`` or ``x`` skips the control
checks).  One token loop, ``_indices``, reads a gate line's tokens and a
directive's arguments alike.

The statement reader, the token loop, the gate-line parser and the gate-line
writer here also serve the machine format of ``counting``, and
``_pack_bits`` is the one rule for instance and input bit strings.
``_placed`` is the one rule for moving a gate list onto other wires (a
relabelling: a placed gate gains no control), ``_uncomputed`` the one rule
for computing, copying out and uncomputing, and ``_borrowed`` the one rule
for the work qubits an ``mcx`` borrows.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence, Set
from numbers import Integral

from ._value import _Value
from .errors import BadArgument, CircuitSyntaxError, InsufficientAncillas

# controls per kind, at least _ARITY["mcx"] for an mcx; _MCX_KINDS renames an mcx with fewer
_ARITY = {"h": 0, "x": 0, "cx": 1, "ccx": 2, "mcx": 3}
_MCX_KINDS = {0: "x", 1: "cx", 2: "ccx"}
GATE_KINDS = tuple(_ARITY)


def _integer(value, role: str) -> int:
    """``value`` as an int; ``BadArgument`` unless an ``Integral`` (numpy ints too), not a bool."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, Integral)):
        raise BadArgument(f"{role} must be an integer, got {value!r}")
    return int(value)


def _exponent(value, role: str) -> int:
    """``value`` as an int >= 0, checked before any ``1 << value`` is built."""
    value = _integer(value, role)
    if value < 0:
        raise BadArgument(f"{role} must be >= 0, got {value}")
    return value


def _tuple(value, role: str) -> tuple:
    """``value`` as a tuple; ``BadArgument`` unless it is an ordered iterable (a set or a mapping
    would hand over its items in hash order).  Tuples, lists and strings skip the ABC test."""
    if type(value) not in (tuple, list, str) and isinstance(value, (Set, Mapping)):
        raise BadArgument(f"{role} must be a sequence, got unordered {type(value).__name__}")
    try:
        return tuple(value)
    except TypeError:
        raise BadArgument(f"{role} must be a sequence, got {value!r}") from None


class Gate(_Value):
    def __init__(self, kind: str, target: int, controls=(), negated=()):
        try:
            arity = _ARITY[kind]
        except (KeyError, TypeError):  # TypeError: an unhashable kind
            raise BadArgument(f"unknown gate kind {kind!r}") from None
        if not type(controls) is type(negated) is tuple:
            controls, negated = _tuple(controls, "controls"), _tuple(negated, "negated")
        if type(target) is not int:
            target = _integer(target, "target")
        if arity or controls or negated:  # an h or x with no controls has none to check
            for c in controls:  # qubits are stored as ints; build a new tuple only if one is not
                if type(c) is not int:
                    controls = tuple([_integer(c, "control") for c in controls])
                    break
            for flag in negated:
                if type(flag) is not bool:
                    raise BadArgument(f"negated flag must be a bool, got {flag!r}")
            n = len(controls)
            if kind == "mcx":
                if n < arity:
                    raise BadArgument(f"mcx gates carry >= {arity} controls once normalized")
            elif n != arity:
                raise BadArgument(f"{kind} takes {arity} controls")
            if len(negated) != n:
                raise BadArgument("one polarity flag per control")
            if target in controls:
                raise BadArgument("target may not also be a control")
            if n > 1 and len(set(controls)) != n:
                raise BadArgument("duplicate control qubit")
        d = self.__dict__  # written directly, not by _set: the hot path
        d["kind"], d["target"], d["controls"], d["negated"] = kind, target, controls, negated
        # not fields: controls then target, and the range a register tests once
        d["qubits"] = controls + (target,)
        lo = hi = target  # a loop: min() and max() cost more on so few qubits
        for c in controls:
            if c < lo:
                lo = c
            elif c > hi:
                hi = c
        d["span"] = lo, hi


def h(q: int) -> Gate:
    return Gate("h", q)


def x(q: int) -> Gate:
    return Gate("x", q)


def cx(c: int, t: int, neg: bool = False) -> Gate:
    return Gate("cx", t, (c,), (neg,))


def ccx(c1: int, c2: int, t: int, neg1: bool = False, neg2: bool = False) -> Gate:
    return Gate("ccx", t, (c1, c2), (neg1, neg2))


def mcx(controls: Sequence[int], target: int, negated: Sequence[bool] | None = None) -> Gate:
    """Multi-controlled X, normalized by control count (0->x, 1->cx, 2->ccx)."""
    controls = _tuple(controls, "controls")
    negated = _tuple(negated, "negated") if negated is not None else (False,) * len(controls)
    return Gate(_MCX_KINDS.get(len(controls), "mcx"), target, controls, negated)


class Circuit(_Value):
    """Immutable gate list over ``width`` qubits.

    ``output`` is the qubit whose value-1 probability is the circuit's answer;
    ``postselect``, when present, is the qubit conditioned to 1.  ``ancillas``
    holds (qubit, initial value) pairs for declared work qubits."""

    def __init__(self, width: int, gates: Iterable[Gate], output: int,
                 postselect: int | None = None, ancillas: Iterable[tuple[int, int]] = ()):
        gates = _tuple(gates, "gates")
        try:
            ancillas = tuple(sorted(
                (_integer(q, "ancilla qubit"), _integer(v, "ancilla value")) for q, v in ancillas
            ))
        except TypeError:
            raise BadArgument(f"ancillas must be (qubit, value) pairs, got {ancillas!r}") from None
        width = _integer(width, "width")
        if width < 1:
            raise BadArgument("width must be >= 1")
        def _chk(q, role):
            if not 0 <= q < width:
                raise BadArgument(f"{role} qubit {q} outside width {width}")
            return q
        output = _chk(_integer(output, "output qubit"), "output")
        if postselect is not None:
            postselect = _chk(_integer(postselect, "postselect qubit"), "postselect")
            if postselect == output:
                raise BadArgument("output and postselect qubits must differ")
        seen = set()
        for q, v in ancillas:
            _chk(q, "ancilla")
            if v not in (0, 1):
                raise BadArgument("ancilla initial value must be 0 or 1")
            if q in seen:
                raise BadArgument(f"qubit {q} declared ancilla twice")
            seen.add(q)
        for g in gates:
            if not isinstance(g, Gate):
                raise BadArgument(f"gates must be Gate objects, got {g!r}")
            if g.span[0] < 0 or g.span[1] >= width:  # name the first qubit off the register
                for q in g.qubits:
                    _chk(q, f"{g.kind} gate")
        self._set(width, gates, output, postselect, ancillas)

    @property
    def h_count(self) -> int:
        return sum(1 for g in self.gates if g.kind == "h")


def default_input(circuit: Circuit) -> str:
    """Canonical input bitstring: declared ancilla values, zeros elsewhere."""
    bits = ["0"] * circuit.width
    for q, v in circuit.ancillas:
        bits[q] = str(v)
    return "".join(bits)


def _placed(gates: Iterable[Gate], wire: Callable[[int], int]) -> list[Gate]:
    """``gates`` with every wire q moved to ``wire(q)``; kinds and polarities are kept."""
    return [Gate(g.kind, wire(g.target), tuple(map(wire, g.controls)), g.negated) for g in gates]


def _uncomputed(compute: Sequence[Gate], copy: Iterable[Gate]) -> list[Gate]:
    """``compute``, then ``copy``, then ``compute`` undone: every gate is its
    own inverse, so the undoing is ``compute`` in reverse order."""
    return [*compute, *copy, *reversed(compute)]


def apply_gate_classical(state: int, gate: Gate) -> int:
    """Apply a reversible (non-h) gate to a computational basis state."""
    if gate.kind == "h":
        raise BadArgument("h has no classical action")
    for c, neg in zip(gate.controls, gate.negated):
        if ((state >> c) & 1) == (1 if neg else 0):
            return state
    return state ^ (1 << gate.target)


def _ladder(c: Sequence[int], target: int, a: Sequence[int]) -> list[Gate]:
    """CCX network for an all-positive multi-controlled X on the n >= 3 controls
    ``c``, using the n-2 work qubits ``a``, which may hold anything (each is
    returned to its initial value), at a cost of 4*(n-2) CCX gates."""
    n = len(c)
    assert len(a) >= n - 2
    seq = [ccx(c[n - 1], a[n - 3], target)]
    seq += [ccx(c[i], a[i - 2], a[i - 1]) for i in range(n - 2, 1, -1)]
    seq.append(ccx(c[0], c[1], a[0]))
    seq += [ccx(c[i], a[i - 2], a[i - 1]) for i in range(2, n - 1)]
    return seq + seq


def _borrowed(g: Gate, pool: Iterable[int]) -> tuple[list[int], int]:
    """The first n-2 ``pool`` qubits off an n-control mcx, which its ladder
    borrows, and how many of the n-2 the pool lacks."""
    need = len(g.controls) - 2
    free = [q for q in pool if q not in g.qubits][:need]
    return free, need - len(free)


def expand_mcx(circuit: Circuit) -> Circuit:
    """Rewrite every mcx macro into {x, cx, ccx} using declared ancillas.  Negated
    controls are flipped by X before the ladder and back after it (``_uncomputed``).
    Each expansion borrows (``_borrowed``) declared ancilla qubits; the ladder
    restores them, so the same pool serves every mcx in the circuit."""
    anc_pool = [q for q, _ in circuit.ancillas]
    out: list[Gate] = []
    for g in circuit.gates:
        if g.kind != "mcx":
            out.append(g)
            continue
        free, short = _borrowed(g, anc_pool)
        if short:
            raise InsufficientAncillas(
                f"mcx with {len(g.controls)} controls needs {len(free) + short} ancillas, "
                f"only {len(free)} declared and free")
        flips = [x(c) for c, neg in zip(g.controls, g.negated) if neg]
        out.extend(_uncomputed(flips, _ladder(g.controls, g.target, free)))
    return Circuit(circuit.width, out, circuit.output, circuit.postselect, circuit.ancillas)


# --- text format -----------------------------------------------------------


def _pack_bits(bits, width: int) -> int:
    """0/1 bits (a string or a sequence) as an int, bit i at position i; ``BadArgument``
    unless there are exactly ``width`` bits, each ``"0"``/``"1"`` or an ``_integer`` 0/1."""
    bits = _tuple(bits, "bits")
    if len(bits) != width:
        raise BadArgument(f"expected {width} bits, got {len(bits)}")
    z = 0
    for i, b in enumerate(bits):
        v = b if isinstance(b, str) else _integer(b, "bit")
        if v not in (0, 1, "0", "1"):
            raise BadArgument(f"bits must be 0/1, got {b!r}")
        z |= int(v) << i
    return z


def _lines(text: str) -> list[str]:
    """The lines of ``text``: only LF, CRLF and CR end a line."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _body(text: str, usages: Sequence[str], found: dict[str, list[int]]):
    """(line_no, op, args) per statement of a headed file other than its
    integer directives; ``#`` comments and blank lines are dropped.  ``usages``
    spell the directives (``"qubits N"``, ``"output Q"``); the first is the
    header, which must open the file.  Each directive may appear once, and its
    parsed arguments land in ``found`` under its keyword."""
    usage = {u.split()[0]: u for u in usages}
    header = usages[0].split()[0]
    for line_no, raw in enumerate(_lines(text), start=1):
        args = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not args:
            continue
        op = args.pop(0).lower()
        if header not in found and op != header:
            raise CircuitSyntaxError(f"{header} line must come first", line_no)
        if op not in usage:
            yield line_no, op, args
        elif op in found:
            raise CircuitSyntaxError(f"duplicate {op} line", line_no)
        else:
            found[op] = _parse_ints(args, usage[op], line_no)
    if header not in found:
        raise CircuitSyntaxError(f"missing {header} line")


def _indices(args: list[str], line_no: int) -> tuple[list[int], list[bool]]:
    """The ASCII-digit indices of ``args``, and which carry a ``!`` (negated) prefix."""
    values, negated = [], []
    for tok in args:
        body = tok.removeprefix("!")
        if not (body.isdigit() and body.isascii()):
            raise CircuitSyntaxError(f"expected a non-negative integer, got {tok!r}", line_no)
        try:
            values.append(int(body))
        except ValueError:  # past sys.get_int_max_str_digits(); the token is not echoed
            raise CircuitSyntaxError(f"index of {len(body)} digits is too long", line_no) from None
        negated.append(len(body) < len(tok))
    return values, negated


def _parse_ints(args: list[str], usage: str, line_no: int) -> list[int]:
    """The un-negated integer arguments of a directive spelled ``usage``."""
    if len(args) != len(usage.split()) - 1:
        raise CircuitSyntaxError(f"usage: {usage}", line_no)
    values, negated = _indices(args, line_no)
    if any(negated):
        raise CircuitSyntaxError(f"{usage.split()[0]} arguments cannot be negated", line_no)
    return values


def _parse_gate(op: str, args: list[str], line_no: int) -> Gate:
    """One gate line, its tokens read by ``_indices``; ``mcx`` normalized by count."""
    if op not in _ARITY:
        raise CircuitSyntaxError(f"unknown statement {op!r}", line_no)
    controls, negated = _indices(args, line_no)
    if not controls:
        raise CircuitSyntaxError(f"{op} needs a target", line_no)
    tgt = controls.pop()
    if negated.pop():
        raise CircuitSyntaxError("targets cannot be negated", line_no)
    if op == "mcx":
        if not controls:
            raise CircuitSyntaxError("mcx needs controls and a target", line_no)
        op = _MCX_KINDS.get(len(controls), "mcx")
    try:
        return Gate(op, tgt, tuple(controls), tuple(negated))
    except BadArgument as exc:
        raise CircuitSyntaxError(str(exc), line_no) from exc


def parse_circuit(text: str) -> Circuit:
    found: dict[str, list[int]] = {}
    gates: list[Gate] = []
    ancillas: list[tuple[int, int]] = []
    for line_no, op, args in _body(text, ("qubits N", "output Q", "postselect Q"), found):
        if op == "ancilla":
            q, v = _parse_ints(args, "ancilla Q V", line_no)
            if v not in (0, 1):
                raise CircuitSyntaxError("ancilla value must be 0 or 1", line_no)
            ancillas.append((q, v))
        else:
            gates.append(_parse_gate(op, args, line_no))
    if "output" not in found:
        raise CircuitSyntaxError("missing output line")
    (width,), (output,) = found["qubits"], found["output"]
    postselect = found["postselect"][0] if "postselect" in found else None
    try:
        return Circuit(width, tuple(gates), output, postselect, tuple(ancillas))
    except BadArgument as exc:
        raise CircuitSyntaxError(str(exc)) from exc


def _gate_line(g: Gate) -> str:
    if not g.controls:  # h, x
        return f"{g.kind} {g.target}"
    ctls = [("!" if neg else "") + str(c) for c, neg in zip(g.controls, g.negated)]
    return " ".join([g.kind, *ctls, str(g.target)])


def serialize_circuit(circuit: Circuit) -> str:
    lines = [f"qubits {circuit.width}"]
    lines += [f"ancilla {q} {v}" for q, v in circuit.ancillas]
    lines += [_gate_line(g) for g in circuit.gates]
    lines.append(f"output {circuit.output}")
    if circuit.postselect is not None:
        lines.append(f"postselect {circuit.postselect}")
    return "\n".join(lines) + "\n"
