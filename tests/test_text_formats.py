"""The three text formats share one reader: only CircuitSyntaxError escapes,
and every statement-level error carries its line number."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import postsel
from postsel import CircuitSyntaxError, parse_circuit, parse_fp_table, parse_machine

PARSERS = {
    "circuit": parse_circuit,
    "machine": parse_machine,
    "fp-table": lambda text: parse_fp_table(text, 3),
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


BAD_FILES = [
    # str.isdigit() accepts superscript digits, which int() rejects
    ("circuit", "qubits ¹\noutput 0\n", 1),
    ("machine", "machine 0 ¹ 0\naccept 1\n", 1),
    ("machine", "machine 0 1 0\naccept ¹\n", 2),
    ("machine", "machine 0 1 1\n\nx ¹\naccept 2\n", 3),
    # only controls may be negated
    ("circuit", "qubits 2\nancilla !0 1\noutput 1\n", 2),
    # an instance listed twice; values outside (0, 2**3]
    ("fp-table", "01 3\n# again\n01 4\n", 3),
    ("fp-table", "01 3\n01 0\n", 2),
    ("fp-table", "01 9\n", 1),
    ("fp-table", "01 -1\n", 1),
]


@pytest.mark.parametrize("fmt, text, line_no", BAD_FILES)
def test_bad_statement_names_its_line(fmt, text, line_no):
    with pytest.raises(CircuitSyntaxError, match=f"^line {line_no}: ") as e:
        PARSERS[fmt](text)
    assert e.value.line_no == line_no


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
