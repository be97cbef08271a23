"""The two text formats share one reader: only CircuitSyntaxError escapes,
and every statement-level error carries its line number."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import postsel
from postsel import (
    Circuit,
    CircuitSyntaxError,
    Gate,
    PredicateCircuit,
    h,
    mcx,
    parse_circuit,
    parse_machine,
    serialize_circuit,
)
from postsel.circuit import GATE_KINDS

PARSERS = {
    "circuit": parse_circuit,
    "machine": parse_machine,
}

KEYWORDS = [
    "qubits", "machine", "accept", "output", "postselect", "ancilla",
    "h", "x", "cx", "ccx", "mcx", "QUBITS", "Mcx", "01", "10",
]
NUMBERS = ["0", "1", "2", "3", "7", "011", "99999999999999999999"]
# str.isdigit() accepts these, int() takes some of them
NON_ASCII_DIGITS = ["¹", "²", "٣", "１", "!¹"]
JUNK = ["!", "!!1", "-1", "+1", "1.0", "1_0", "zz", "#", "0x1", "é"]
ARG = hst.one_of(
    hst.sampled_from(NUMBERS),
    hst.sampled_from(NUMBERS).map(lambda n: "!" + n),
    hst.sampled_from(NON_ASCII_DIGITS),
    hst.sampled_from(JUNK),
    hst.text(max_size=3),
)
LINE = hst.one_of(
    hst.tuples(hst.sampled_from(KEYWORDS), hst.lists(ARG, max_size=4)).map(
        lambda t: " ".join([t[0], *t[1]])
    ),
    hst.lists(ARG, max_size=4).map(" ".join),
)
HEADERS = ["", "qubits 4\n", "machine 1 2 1\n", "01 1\n"]


@settings(max_examples=300, deadline=None)
@given(header=hst.sampled_from(HEADERS), lines=hst.lists(LINE, max_size=6))
def test_only_syntax_errors_escape_any_parser(header, lines):
    text = header + "\n".join(lines)
    for parse in PARSERS.values():
        try:
            parse(text)
        except CircuitSyntaxError:
            pass


_LONG = "1" * (sys.get_int_max_str_digits() + 1)  # one digit past the runtime limit
BAD_FILES = [
    # str.isdigit() accepts superscript digits, which int() rejects
    ("circuit", "qubits ¹\noutput 0\n", 1),
    ("machine", "machine 0 ¹ 0\naccept 1\n", 1),
    ("machine", "machine 0 1 0\naccept ¹\n", 2),
    ("machine", "machine 0 1 1\n\nx ¹\naccept 2\n", 3),
    # only controls may be negated
    ("circuit", "qubits 2\nancilla !0 1\noutput 1\n", 2),
    # \v is whitespace, not a line break: both gates sit on line 2
    ("circuit", "qubits 2\nh 0\vh 1\nq 1\noutput 0\n", 2),
    # an index past int()'s digit limit, in a gate line and in a header
    pytest.param("circuit", f"qubits 2\nh 0\nx {_LONG}\noutput 0\n", 3, id="circuit-long-index"),
    pytest.param("machine", f"machine 0 {_LONG} 0\naccept 1\n", 1, id="machine-long-index"),
]


@pytest.mark.parametrize("fmt, text, line_no", BAD_FILES)
def test_bad_statement_names_its_line(fmt, text, line_no):
    with pytest.raises(CircuitSyntaxError, match=f"^line {line_no}: ") as e:
        PARSERS[fmt](text)
    assert e.value.line_no == line_no


def test_an_over_long_index_is_named_by_its_digit_count_not_echoed():
    with pytest.raises(CircuitSyntaxError) as e:
        parse_circuit(f"qubits 2\nx {_LONG}\noutput 0\n")
    assert str(e.value) == f"line 2: index of {len(_LONG)} digits is too long"


# only LF, CRLF and CR end a line; str.splitlines() also breaks at these
NOT_LINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]
LINE_BREAK_FILES = {
    "circuit": "qubits 2{sep}\nh 0 {sep}\nbad 1\noutput 0\n",
    "machine": "machine 0 1 1\n{sep}x 1\nbad 1\naccept 2\n",
}


@pytest.mark.parametrize("sep", NOT_LINE_BREAKS)
@pytest.mark.parametrize("fmt", LINE_BREAK_FILES)
def test_only_lf_crlf_and_cr_end_a_line(fmt, sep):
    text = LINE_BREAK_FILES[fmt].format(sep=sep)
    with pytest.raises(CircuitSyntaxError, match="^line 3: unknown statement 'bad'$"):
        PARSERS[fmt](text)
    for newline in ("\r\n", "\r"):
        with pytest.raises(CircuitSyntaxError, match="^line 3: unknown statement 'bad'$"):
            PARSERS[fmt](text.replace("\n", newline))


@pytest.mark.parametrize("gate", ["cx 0 1 2", "x 0 1", "ccx 0 1", "mcx 1"])
def test_circuits_and_machines_share_control_counts(gate):
    with pytest.raises(CircuitSyntaxError, match="^line 2: "):
        parse_circuit(f"qubits 3\n{gate}\noutput 0\n")
    with pytest.raises(CircuitSyntaxError, match="^line 2: "):
        parse_machine(f"machine 0 3 0\n{gate}\naccept 3\n")


# the last case is a non-ASCII byte, which the file reader must place on its line
@pytest.mark.parametrize("gate", ["x 0 1", "cx 0 1 2", "x \u00b9"])
def test_cli_compile_reports_machine_syntax_error(tmp_path, gate):
    bad = tmp_path / "bad.machine"
    bad.write_text(
        f"machine 0 3 0\n# a malformed gate line\n{gate}\naccept 3\n", encoding="utf-8"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(postsel.__file__).parents[1]))
    argv = ["compile", "--construction", "gapsq", "--machine1", str(bad), "-o", "out.circ"]
    proc = subprocess.run(
        [sys.executable, "-m", "postsel.cli", *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 2
    assert "error: line 3:" in proc.stderr
    assert "Traceback" not in proc.stderr


# --- the token loop against a per-token reference ------------------------------
# The parsers read every token of a gate line or a directive in one loop.  The
# reference below reads each token alone, through _parse_index; both parsers must
# give the same value or the same error text on digits, '!', signs and non-ASCII
# digits, in gate lines and in every directive of both formats.

READER_WIDTH = 12
READER_TOKENS = hst.one_of(
    hst.sampled_from(["0", "1", "2", "3", "5", "7", "11", "007", "12", "99"]),
    hst.sampled_from(["!0", "!1", "!4", "!11", "!12", "!"]),
    hst.sampled_from(["\u0662", "\u00b3", "\uff13", "1\u0662"]),  # isdigit(), not ASCII
    hst.sampled_from(["+1", "-1"]),
)


def _parse_index(token: str, line_no: int) -> tuple[int, bool]:
    """An ASCII-digit index with an optional ``!`` (negated) prefix."""
    neg = token.startswith("!")
    body = token[1:] if neg else token
    if not (body.isascii() and body.isdigit()):
        raise CircuitSyntaxError(f"expected a non-negative integer, got {token!r}", line_no)
    try:
        return int(body), neg
    except ValueError:  # past sys.get_int_max_str_digits(); the token is not echoed
        raise CircuitSyntaxError(f"index of {len(body)} digits is too long", line_no) from None


def _reference_gate(op: str, args: list[str], line_no: int) -> Gate:
    """A gate line read token by token, every token through ``_parse_index``."""
    ctls = [_parse_index(tok, line_no) for tok in args]
    if not ctls:
        raise CircuitSyntaxError(f"{op} needs a target", line_no)
    tgt, neg = ctls.pop()
    if neg:
        raise CircuitSyntaxError("targets cannot be negated", line_no)
    if op == "mcx" and not ctls:
        raise CircuitSyntaxError("mcx needs controls and a target", line_no)
    controls, negated = [c for c, _ in ctls], [n for _, n in ctls]
    try:
        if op == "mcx":
            return mcx(controls, tgt, negated)
        return Gate(op, tgt, controls, negated)
    except ValueError as exc:
        raise CircuitSyntaxError(str(exc), line_no) from exc


def _reference_circuit(op: str, args: list[str]) -> Circuit:
    gate = _reference_gate(op, args, 2)
    try:
        return Circuit(READER_WIDTH, (gate,), 0)
    except ValueError as exc:
        raise CircuitSyntaxError(str(exc)) from exc


@settings(max_examples=400, deadline=None)
@given(op=hst.sampled_from(GATE_KINDS), args=hst.lists(READER_TOKENS, max_size=5))
def test_gate_reader_matches_per_token_reference(op, args):
    text = f"qubits {READER_WIDTH}\n{' '.join([op, *args])}\noutput 0\n"
    try:
        expected = _reference_circuit(op, args)
    except CircuitSyntaxError as exc:
        with pytest.raises(CircuitSyntaxError) as got:
            parse_circuit(text)
        assert str(got.value) == str(exc)
    else:
        assert parse_circuit(text) == expected


def _reference_ints(args: list[str], usage: str, line_no: int) -> list[int]:
    """A directive's arguments: the count, then every token through ``_parse_index``,
    then no ``!`` on any of them."""
    if len(args) != len(usage.split()) - 1:
        raise CircuitSyntaxError(f"usage: {usage}", line_no)
    parsed = [_parse_index(tok, line_no) for tok in args]
    if any(neg for _, neg in parsed):
        raise CircuitSyntaxError(f"{usage.split()[0]} arguments cannot be negated", line_no)
    return [value for value, _ in parsed]


def _reference_ancilla(q: int, v: int) -> Circuit:
    if v not in (0, 1):
        raise CircuitSyntaxError("ancilla value must be 0 or 1", 2)
    return Circuit(READER_WIDTH, (), 0, None, ((q, v),))


# directive -> (parser, file with the directive's arguments at {args}, the line it
# sits on, its usage, and the object its parsed arguments make)
DIRECTIVES = {
    "qubits": (parse_circuit, "qubits {args}\noutput 0\n", 1, "qubits N",
               lambda n: Circuit(n, (), 0)),
    "output": (parse_circuit, f"qubits {READER_WIDTH}\noutput {{args}}\n", 2, "output Q",
               lambda q: Circuit(READER_WIDTH, (), q)),
    "postselect": (parse_circuit, f"qubits {READER_WIDTH}\npostselect {{args}}\noutput 0\n", 2,
                   "postselect Q", lambda q: Circuit(READER_WIDTH, (), 0, q)),
    "ancilla": (parse_circuit, f"qubits {READER_WIDTH}\nancilla {{args}}\noutput 0\n", 2,
                "ancilla Q V", _reference_ancilla),
    "machine": (parse_machine, "machine {args}\naccept 5\n", 1, "machine IN PATH ANC",
                lambda n, p, a: PredicateCircuit(n, p, a, (), 5)),
    "accept": (parse_machine, "machine 1 2 3\naccept {args}\n", 2, "accept BITINDEX",
               lambda a: PredicateCircuit(1, 2, 3, (), a)),
}


@settings(max_examples=400, deadline=None)
@given(name=hst.sampled_from(sorted(DIRECTIVES)), args=hst.lists(READER_TOKENS, max_size=4))
def test_directive_reader_matches_per_token_reference(name, args):
    parse, template, line_no, usage, build = DIRECTIVES[name]
    text = template.format(args=" ".join(args))
    try:
        values = _reference_ints(args, usage, line_no)
        try:
            expected = build(*values)
        except ValueError as exc:
            raise CircuitSyntaxError(str(exc)) from exc
    except CircuitSyntaxError as exc:
        with pytest.raises(CircuitSyntaxError) as got:
            parse(text)
        assert str(got.value) == str(exc)
    else:
        assert parse(text) == expected


@hst.composite
def _circuits(draw):
    width = draw(hst.integers(3, 9))
    gates = []
    for _ in range(draw(hst.integers(0, 12))):
        qs = draw(hst.permutations(range(width)))[: draw(hst.integers(1, min(5, width)))]
        if len(qs) == 1 and draw(hst.booleans()):
            gates.append(h(qs[0]))
        else:
            neg = draw(hst.lists(hst.booleans(), min_size=len(qs) - 1, max_size=len(qs) - 1))
            gates.append(mcx(qs[:-1], qs[-1], neg))
    out, post = draw(hst.permutations(range(width)))[:2]
    ancillas = draw(
        hst.lists(
            hst.tuples(hst.integers(0, width - 1), hst.integers(0, 1)),
            max_size=3,
            unique_by=lambda pair: pair[0],
        )
    )
    return Circuit(width, tuple(gates), out, draw(hst.sampled_from([None, post])), tuple(ancillas))


@settings(max_examples=100, deadline=None)
@given(_circuits())
def test_serialize_parse_roundtrip_with_negated_controls_and_mcx(circ):
    assert parse_circuit(serialize_circuit(circ)) == circ
