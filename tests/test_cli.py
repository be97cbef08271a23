"""Command-line interface: outputs, exit codes, file round-trips."""

import hashlib
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import postsel
from postsel import (
    default_input,
    make_gap_machine,
    parse_circuit,
    path_sum,
    path_sum_slow,
    postselect_stats,
    run,
    serialize_machine,
)
from postsel import simulator
from postsel.cli import _COMPILE_READS, main

BELL = """\
qubits 2
h 0
cx 0 1
output 1
postselect 0
"""


@pytest.fixture
def bell_file(tmp_path):
    p = tmp_path / "bell.circ"
    p.write_text(BELL)
    return str(p)


@pytest.fixture
def machine_files(tmp_path):
    """Two instance-free machines with gaps 2 and -2 over 2 path bits."""
    p1 = tmp_path / "m1.machine"
    p1.write_text(serialize_machine(make_gap_machine(2, 2)))
    p2 = tmp_path / "m2.machine"
    p2.write_text(serialize_machine(make_gap_machine(-2, 2)))
    return str(p1), str(p2)


# ===================================================================
# simulate
# ===================================================================


def test_simulate_text_report(bell_file, capsys):
    assert main(["simulate", "--circuit", bell_file, "--input", "00"]) == 0
    out = capsys.readouterr().out
    assert "P(output=1) = 1/2^1" in out
    assert "P(postselect=1) = 1/2^1" in out
    assert "P(output=1, postselect=1) = 1/2^1" in out
    assert "P(output=1 | postselect=1) = 1" in out


def test_simulate_machine_report_with_oracle(bell_file, capsys):
    rc = main(
        [
            "simulate",
            "--circuit",
            bell_file,
            "--input",
            "00",
            "--oracle",
            "--report",
            "machine-readable",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "prob_output=1/2^1" in out
    assert "oracle=match" in out


def test_simulate_default_input_is_ancilla_canonical(tmp_path, capsys):
    p = tmp_path / "anc.circ"
    p.write_text("qubits 2\nancilla 1 1\ncx 1 0\noutput 0\n")
    assert main(["simulate", "--circuit", str(p)]) == 0
    assert "P(output=1) = 1/2^0" in capsys.readouterr().out


def test_simulate_missing_file_exits_2(capsys):
    assert main(["simulate", "--circuit", "/nonexistent.circ"]) == 2
    assert "error:" in capsys.readouterr().err


def test_an_unexpected_value_error_is_a_traceback(bell_file, monkeypatch):
    """Exit 2 is a PostselError or an unreadable file: a ValueError from an
    engine is a bug, and it leaves main as it was raised."""

    def boom(*args):
        raise ValueError("boom")

    monkeypatch.setattr(postsel.cli, "run", boom)
    with pytest.raises(ValueError, match="^boom$") as got:
        main(["simulate", "--circuit", bell_file])
    assert type(got.value) is ValueError


def test_simulate_syntax_error_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.circ"
    p.write_text("qubits 2\nzz 0\noutput 0\n")
    assert main(["simulate", "--circuit", str(p)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


@pytest.mark.parametrize(
    "directive", ["output", "postselect", "output !1", "output 0 2", "postselect 1 1"]
)
def test_simulate_malformed_output_or_postselect_exits_2(tmp_path, capsys, directive):
    tail = "postselect 2\n" if directive.startswith("output") else "output 2\n"
    p = tmp_path / "bad.circ"
    p.write_text(f"qubits 3\nh 0\n{directive}\n{tail}")
    assert main(["simulate", "--circuit", str(p)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_simulate_short_ancilla_pool_exits_2(tmp_path, capsys):
    p = tmp_path / "short.circ"
    p.write_text("qubits 6\nancilla 5 0\nmcx 0 1 2 3 4\noutput 4\n")
    assert main(["simulate", "--circuit", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: mcx with 4 controls needs 2 ancillas")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "oracle"])
def test_width_64_exits_2_with_cap_error(tmp_path, capsys, command):
    p = tmp_path / "wide.circ"
    p.write_text("qubits 64\nh 0\nx 63\noutput 0\n")
    assert main([command, "--circuit", str(p)]) == 2
    assert "63-qubit" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "oracle"])
def test_huge_width_exits_2_before_building_the_default_input(tmp_path, capsys, command):
    """The width cap is checked before the width-long default input is built."""
    p = tmp_path / "huge.circ"
    p.write_text("qubits 1000000000000\noutput 0\n")
    assert main([command, "--circuit", str(p)]) == 2
    err = capsys.readouterr().err
    assert err == "error: width 1000000000000 exceeds the 63-qubit index limit\n"


def test_simulate_non_ascii_digit_exits_2_naming_its_line(tmp_path, capsys):
    """A digit outside ASCII on a gate line: the file reader rejects its byte."""
    p = tmp_path / "digit.circ"
    p.write_text("qubits 3\nccx 0 1 \u0662\noutput 2\n", encoding="utf-8")
    assert main(["simulate", "--circuit", str(p)]) == 2
    assert capsys.readouterr().err == "error: line 2: non-ASCII byte 0xd9; files are 7-bit ASCII\n"


@pytest.mark.parametrize(
    "head", [b"qubits 3\n\x0b\x0c\n", b"qubits 3\r\n\x1c\r", b"qubits 3\r\r"]
)
def test_non_ascii_line_counts_only_lf_crlf_and_cr(tmp_path, capsys, head):
    """The file reader places a bad byte on the line the statement reader sees."""
    p = tmp_path / "digit.circ"
    p.write_bytes(head + "ccx 0 1 \u0662\noutput 2\n".encode("utf-8"))
    assert main(["simulate", "--circuit", str(p)]) == 2
    assert capsys.readouterr().err == "error: line 3: non-ASCII byte 0xd9; files are 7-bit ASCII\n"


_ORACLE_CIRCUITS = {
    # width 63, with gates in index bytes 1, 5 and 7
    "wide": "qubits 63\nh 9\nh 40\nccx 9 !40 62\nh 62\ncx 62 9\nccx !9 62 40\nh 9\n"
    "postselect 62\noutput 40\n",
    # an H layer branches on fresh wires; the last three Hadamards hit wires
    # that vary, so they merge (and cancel) through the sort
    "merge": "qubits 12\n" + "".join(f"h {q}\n" for q in range(10))
    + "ccx 0 1 10\ncx 10 2\nccx !3 4 11\ncx 11 5\nccx 6 !7 10\ncx 8 9\nh 10\nh 2\nh 9\n"
    "postselect 11\noutput 10\n",
    # every Hadamard hits a fresh wire, so no two paths meet and the oracle
    # counts kept paths; simulate lowers the mcx gates, the oracle does not
    "fresh": "qubits 10\n" + "".join(f"h {q}\n" for q in range(5))
    + "mcx 0 !1 2 5\nmcx !3 4 5 6\nmcx 0 1 !5 6 7\nccx !2 7 5\npostselect 5\noutput 6\n"
    "ancilla 8 0\nancilla 9 1\n",
    # entries that meet, then Hadamards on wires declared at 1: the one merge,
    # at the end, writes the coefficients out from a nonzero sign plane
    "signed": "qubits 7\nh 0\nh 1\nccx 0 1 2\nh 0\nh 3\nh 4\nh 6\ncx 3 5\nccx !4 2 5\n"
    "ccx 6 0 2\npostselect 5\noutput 2\nancilla 3 1\nancilla 4 1\nancilla 6 1\n",
}
# the pair machines of the console checks below: gaps (2, -4) on instance 0
# and (2, -2) on instance 1
_PAIR_MACHINES = (
    "machine 1 2 0\nccx 1 2 3\nx 3\nccx !0 1 3\naccept 3\n",
    "machine 1 2 1\nccx 0 1 3\ncx 3 4\nccx 2 3 4\nccx 0 1 3\naccept 4\n",
)


def _compile(tmp_path, machines, construction, path):
    """``compile --construction KIND FLAGS`` on machine files holding ``machines``."""
    flags = []
    for i, text in enumerate(machines, start=1):
        (tmp_path / f"m{i}.machine").write_text(text)
        flags += [f"--machine{i}", str(tmp_path / f"m{i}.machine")]
    assert main(["compile", "--construction", *construction, *flags, "-o", str(path)]) == 0


@pytest.mark.parametrize("name", ["wide", "merge", "pair", "fresh", "signed"])
def test_simulate_oracle_matches_on_edge_circuits(tmp_path, capsys, name):
    path = tmp_path / f"{name}.circ"
    if name == "pair":
        # compile writes mcx gates; simulate lowers them itself, the oracle does not
        _compile(tmp_path, _PAIR_MACHINES, ["pair", "--k", "1"], path)
        assert any(line.startswith("mcx ") for line in path.read_text().splitlines())
        # instance 1 on the instance wire, which comes first
        bits = ["--input", "1" + default_input(parse_circuit(path.read_text()))[1:]]
    else:
        path.write_text(_ORACLE_CIRCUITS[name])
        bits = []
    capsys.readouterr()
    argv = ["simulate", "--circuit", str(path), *bits, "--oracle", "--report", "machine-readable"]
    assert main(argv) == 0
    assert "oracle=match" in capsys.readouterr().out.splitlines()


# ===================================================================
# oracle
# ===================================================================


def test_oracle_default_constraint_is_output(bell_file, capsys):
    assert main(["oracle", "--circuit", bell_file, "--input", "00"]) == 0
    out = capsys.readouterr().out
    assert "g=1" in out and "m=1" in out and "prob=1/2^1" in out


def test_oracle_explicit_constraints(bell_file, capsys):
    rc = main(
        [
            "oracle",
            "--circuit",
            bell_file,
            "--input",
            "00",
            "--constrain",
            "0",
            "1",
            "--constrain",
            "1",
            "0",
        ]
    )
    assert rc == 0
    assert "prob=0/2^0" in capsys.readouterr().out


def test_oracle_non_integer_constraint_names_the_flag(bell_file, capsys):
    with pytest.raises(SystemExit) as e:
        main(["oracle", "--circuit", bell_file, "--constrain", "a", "1"])
    assert e.value.code == 2
    assert "argument --constrain: invalid int value: 'a'" in capsys.readouterr().err


def test_oracle_past_the_branch_cap_exits_2(tmp_path, capsys):
    p = tmp_path / "h21.circ"
    p.write_text("qubits 1\n" + "h 0\n" * 21 + "output 0\n")
    assert main(["oracle", "--circuit", str(p)]) == 2
    err = capsys.readouterr().err
    assert err == "error: 21 Hadamard branchings exceed oracle cap 20\n"


def test_input_contradicting_an_ancilla_is_refused_by_every_engine(tmp_path, capsys):
    """An input bit that contradicts a declared ancilla value is a ValueError
    for ``run`` and both oracles, and exit 2 for ``simulate`` and ``oracle``."""
    text = "qubits 3\nh 0\ncx 0 1\noutput 1\nancilla 2 1\n"
    circ = parse_circuit(text)
    for engine in (run, lambda c, bits: path_sum(c, bits, [(1, 1)]),
                   lambda c, bits: path_sum_slow(c, bits, [(1, 1)])):
        with pytest.raises(ValueError, match="ancilla qubit 2 requires input value 1"):
            engine(circ, "000")
    path = tmp_path / "anc.circ"
    path.write_text(text)
    for command in ("simulate", "oracle"):
        assert main([command, "--circuit", str(path), "--input", "000"]) == 2
        assert capsys.readouterr().err == "error: ancilla qubit 2 requires input value 1\n"
    assert main(["oracle", "--circuit", str(path), "--input", "001"]) == 0
    assert "prob=1/2^1" in capsys.readouterr().out


# ===================================================================
# compile
# ===================================================================


def test_compile_gapsq_roundtrip(machine_files, tmp_path, capsys):
    m1, _ = machine_files
    out_path = str(tmp_path / "gapsq.circ")
    rc = main(
        ["compile", "--construction", "gapsq", "--machine1", m1, "-o", out_path]
    )
    assert rc == 0
    assert f"wrote {out_path}" in capsys.readouterr().out
    circ = parse_circuit(Path(out_path).read_text())
    from postsel import measure_prob, run

    state = run(circ, default_input(circ))
    assert measure_prob(state, circ.output, 1).as_fraction() == Fraction(1, 4)


# The console checks, one row each: the machines compiled (or, with no
# construction, the circuit text), the construction and its flags, the
# simulate or oracle argv, and the lines its output must hold exactly.  The
# instance is simulate's and oracle's --input, instance bits first.
_SIM = ["simulate", "--oracle", "--report", "machine-readable"]
# gap -2 on two path bits, and its first gate reads the accept bit
_LOOP = "machine 0 2 1\nccx 0 3 2\nccx 0 1 3\naccept 3\n"
_AND = "machine 0 2 0\nccx 0 1 2\naccept 2\n"  # gap -2
# instance-free machines with gaps 2 and -2, read at the default input
_GAPS = (serialize_machine(make_gap_machine(2, 2)), serialize_machine(make_gap_machine(-2, 2)))
_CONSOLE = {
    # gaps (2, -2) on instance 1; instance 0's (2, -4) would give 1/5
    "pair": (_PAIR_MACHINES, ["pair", "--k", "1"], [*_SIM, "--input", "1" + "0" * 10],
             ["conditional=1/2", "oracle=match"]),
    "pair-oracle": (_PAIR_MACHINES, ["pair", "--k", "1"], ["oracle", "--input", "1" + "0" * 10],
                    ["prob=1/2^1"]),
    # instance 1, then the other 20 wires; instance 0 would give 7/2^8 and 3/7
    "pp": (_PAIR_MACHINES, ["pp"], [*_SIM, "--input", "1" + "0" * 20],
           ["prob_postselect=1/2^6", "conditional=3/4", "oracle=match"]),
    # instance 0: the pair alone gives P(p=1) = 5/2^4 and conditional 1/5, and
    # --t 2 keeps the conditional at 2^-2 of that P(p=1)
    "rescale": (_PAIR_MACHINES, ["rescale", "--t", "2"], _SIM,
                ["prob_postselect=5/2^6", "conditional=1/5", "oracle=match"]),
    # P(p=1) forced to 2^-4 on instance 0 (19 wires, 16 H)
    "fqp2exp": (_PAIR_MACHINES, ["fqp2exp", "--input", "0", "--h", "4"], _SIM,
                ["prob_postselect=1/2^4", "conditional=5/16", "oracle=match"]),
    # the two H(0)s meet only at run's last merge, after the branch on wire 1:
    # without that merge the popcount reads 1/2^1 and the oracle differs
    "pending": ("qubits 2\nh 0\nh 0\nh 1\noutput 0\n", None, _SIM,
                ["prob_output=0/2^0", "oracle=match"]),
    # gapsq gives 4/2^4 only if the machine is uncomputed in reverse; both
    # engines run the same circuit, so the oracle alone would not catch a wrong order
    "loop": ((_LOOP,), ["gapsq"], _SIM, ["prob_output=1/2^2", "oracle=match"]),
    # both machines run on every selector branch, so a forward-replayed
    # uncompute leaves the shared scratch dirty and reads 5/2^4
    "loop-pair": ((_LOOP, _AND), ["pair"], _SIM,
                  ["prob_postselect=1/2^3", "conditional=1/2", "oracle=match"]),
    "gaps-pair": (_GAPS, ["pair"], _SIM,
                  ["prob_postselect=1/2^3", "conditional=1/2", "oracle=match"]),
    # each padding pair divides P(p=1) by 4
    "gaps-pair-k1": (_GAPS, ["pair", "--k", "1"], _SIM, ["prob_postselect=1/2^5", "oracle=match"]),
    "gaps-rescale": (_GAPS, ["rescale", "--t", "2"], _SIM,
                     ["prob_postselect=1/2^5", "oracle=match"]),
    # the pair's own P(p=1) = 1/2^3, forced to 2^-3
    "gaps-fqp2exp": (_GAPS, ["fqp2exp"], _SIM, ["prob_postselect=1/2^3", "oracle=match"]),
    # Gg = Gf = 2, q_exp = q'_exp = 4: P(p=1) = (3*4+4)/2**10
    "gaps-pp": (_GAPS, ["pp"], _SIM,
                ["prob_postselect=1/2^6", "conditional=3/4", "oracle=match"]),
}


@pytest.mark.parametrize("name", _CONSOLE)
def test_console_prints_the_pinned_lines(tmp_path, capsys, name):
    source, construction, argv, lines = _CONSOLE[name]
    path = tmp_path / "x.circ"
    if construction is None:
        path.write_text(source)
    else:
        _compile(tmp_path, source, construction, path)
    # only LF, CRLF and CR end a line: a CRLF copy of the circuit reads the same
    crlf = tmp_path / "crlf.circ"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    outs = []
    for circuit in (path, crlf):
        capsys.readouterr()
        assert main([*argv, "--circuit", str(circuit)]) == 0
        outs.append(capsys.readouterr().out)
    assert [line for line in lines if line not in outs[0].splitlines()] == []
    assert outs[1] == outs[0]


_EDGE = hst.one_of(hst.none(), hst.sampled_from([-5, -1, 0, 1, 2, 64, 10**11]))


@settings(max_examples=150, deadline=None)
@given(
    kind=hst.sampled_from(sorted(_COMPILE_READS)),
    machines=hst.lists(hst.sampled_from([*_PAIR_MACHINES, *_GAPS, _LOOP, _AND]), min_size=2,
                       max_size=2),
    values=hst.fixed_dictionaries(
        {"k": _EDGE, "t": _EDGE, "h": _EDGE,
         "input": hst.one_of(hst.none(), hst.sampled_from(["", "0", "01", "2"]))}
    ),
)
def test_compile_at_edge_values_exits_0_or_2(tmp_path_factory, kind, machines, values):
    """Every construction, each option it reads absent or at an edge value:
    compile refuses with exit 2 or writes a circuit that simulate --oracle
    refuses or reads, matching; no exception leaves main."""
    tmp = tmp_path_factory.mktemp("edge")
    flags = []
    for i, text in enumerate(machines[: 1 if kind == "gapsq" else 2], start=1):
        (tmp / f"m{i}.machine").write_text(text)
        flags += [f"--machine{i}", str(tmp / f"m{i}.machine")]
    for opt in sorted(_COMPILE_READS[kind] - {"machine2"}):
        if values[opt] is not None:
            flags += [f"--{opt}", str(values[opt])]
    out = tmp / "x.circ"
    rc = main(["compile", "--construction", kind, *flags, "-o", str(out)])
    assert rc in (0, 2)
    if rc == 0:
        assert main(["simulate", "--circuit", str(out), "--oracle"]) in (0, 2)


def test_compile_pair_needs_second_machine(machine_files, tmp_path, capsys):
    m1, _ = machine_files
    rc = main(
        [
            "compile",
            "--construction",
            "pair",
            "--machine1",
            m1,
            "-o",
            str(tmp_path / "x.circ"),
        ]
    )
    assert rc == 2
    assert "machine2" in capsys.readouterr().err


def test_compile_zero_gap_pair_exits_2(tmp_path, capsys):
    """One circuit serves every instance, so an instance with both gaps zero
    is refused when it is simulated, not when the pair is compiled; fqp2exp
    forces P(p=1) on one instance, so it refuses such an instance when it
    compiles, with the same message."""
    z = tmp_path / "zero.machine"
    z.write_text(serialize_machine(make_gap_machine(0, 2)))
    out = str(tmp_path / "x.circ")
    pair = ["--machine1", str(z), "--machine2", str(z), "-o", out]
    assert main(["compile", "--construction", "pair", *pair]) == 0
    capsys.readouterr()
    assert main(["simulate", "--circuit", out, "--report", "machine-readable"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: P(postselect=1) is exactly zero\n"
    assert captured.out == ""
    assert main(["compile", "--construction", "fqp2exp", *pair]) == 2
    assert capsys.readouterr() == ("", "error: P(postselect=1) is exactly zero\n")


def test_compile_huge_machine_exits_2_before_allocating(tmp_path, capsys):
    """Widths are checked against the 63-qubit cap before any qubit list is built."""
    m = tmp_path / "huge.machine"
    m.write_text("machine 0 1000000000000 0\naccept 1000000000000\n")
    argv = ["compile", "--construction", "gapsq", "--machine1", str(m)]
    assert main([*argv, "-o", str(tmp_path / "x.circ")]) == 2
    err = capsys.readouterr().err
    assert err == "error: width 1000000000000 exceeds the 63-qubit index limit\n"
    assert not (tmp_path / "x.circ").exists()


def test_compile_fqp2exp_huge_exponent_exits_2_before_allocating(machine_files, tmp_path, capsys):
    """The mixed circuit's width (6 pair wires, 3 new ones and h coins) is
    checked against the 63-qubit cap before 2**h is built."""
    m1, m2 = machine_files
    argv = ["compile", "--construction", "fqp2exp", "--machine1", m1, "--machine2", m2]
    out = tmp_path / "x.circ"
    assert main([*argv, "--h", "1000000000000", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: width 1000000000009 exceeds the 63-qubit index limit\n"
    assert not out.exists()


def test_compile_fqp2exp_negative_exponent_exits_2_naming_h(machine_files, tmp_path, capsys):
    m1, m2 = machine_files
    argv = ["compile", "--construction", "fqp2exp", "--machine1", m1, "--machine2", m2]
    out = tmp_path / "x.circ"
    assert main([*argv, "--h", "-1", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: need h >= 0 and P(p=1) * 2**h an integer, got P(p=1) = 1/2^3, h = -1\n"
    assert not out.exists()


def test_compile_fqp2exp_exponent_below_p_post_exits_2_naming_h(machine_files, tmp_path, capsys):
    """P(p=1) is 1/2^3 here, so no integer f gives f / 2**2."""
    m1, m2 = machine_files
    argv = ["compile", "--construction", "fqp2exp", "--machine1", m1, "--machine2", m2]
    out = tmp_path / "x.circ"
    assert main([*argv, "--h", "2", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: need h >= 0 and P(p=1) * 2**h an integer, got P(p=1) = 1/2^3, h = 2\n"
    assert not out.exists()


def test_compile_fqp2exp_simulates_the_pair_once(tmp_path, monkeypatch):
    """P(p=1) of the pair is read off the machine gaps' closed form, so the
    one simulation is mix_with_constant's check of it.  The machines are
    the console checks' pair, and the circuit is the pinned one."""
    real_run = simulator.run
    calls = []
    monkeypatch.setattr(simulator, "run", lambda *a: calls.append(a) or real_run(*a))
    out = tmp_path / "x.circ"
    _compile(tmp_path, _PAIR_MACHINES, ["fqp2exp", "--input", "1", "--k", "1"], out)
    assert len(calls) == 1
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "2acc0a80597f50666d4c7e3075268feda572cc7bc2245289450d9e4a29f41aaa"


@pytest.mark.parametrize("h_exp", [3, 4, 6])
def test_compile_fqp2exp_h_sets_the_postselection_exponent(machine_files, tmp_path, h_exp):
    """--h alone picks the target: P(p=1) becomes exactly 2**-h, the
    conditional that of the pair (1/2) whatever h is."""
    m1, m2 = machine_files
    out = tmp_path / "x.circ"
    argv = ["compile", "--construction", "fqp2exp", "--machine1", m1, "--machine2", m2]
    assert main([*argv, "--h", str(h_exp), "-o", str(out)]) == 0
    circ = parse_circuit(out.read_text())
    st = postselect_stats(circ, default_input(circ))
    assert st.p_post.as_fraction() == Fraction(1, 1 << h_exp)
    assert st.p_cond == Fraction(1, 2)


@pytest.mark.parametrize(
    "kind, flags, unread",
    [
        ("gapsq", ["--k", "3", "--t", "9"], "--k, --t"),
        ("gapsq", ["--k", "0"], "--k"),
        ("gapsq", ["--machine2", "M2"], "--machine2"),
        ("gapsq", ["--h", "3"], "--h"),
        ("pair", ["--h", "3"], "--h"),
        ("pair", ["--t", "1"], "--t"),
        ("rescale", ["--h", "3"], "--h"),
        ("pp", ["--h", "3"], "--h"),
        ("pp", ["--k", "1", "--t", "2"], "--k, --t"),
        ("fqp2exp", ["--t", "2"], "--t"),
        # the instance is simulate's --input; only fqp2exp forces P(p=1) on one
        ("gapsq", ["--input", "1"], "--input"),
        ("pair", ["--input", "1"], "--input"),
        ("pp", ["--input", ""], "--input"),
        ("rescale", ["--input", "0", "--h", "3"], "--h, --input"),
    ],
)
def test_compile_refuses_options_the_construction_does_not_read(
    machine_files, tmp_path, capsys, kind, flags, unread
):
    m1, m2 = machine_files
    flags = [m2 if f == "M2" else f for f in flags]
    if kind != "gapsq":
        flags += ["--machine2", m2]
    out = tmp_path / "x.circ"
    assert main(["compile", "--construction", kind, "--machine1", m1, *flags, "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"error: construction {kind!r} does not read {unread}\n"
    assert not out.exists()


# ===================================================================
# verify
# ===================================================================


def test_verify_single_suite_text(capsys):
    rc = main(["verify", "--suite", "algebra", "--seed", "42"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "error-algebra: pass" in out
    assert "scenarios passed: 1/1" in out


def test_verify_machine_format_is_pure_rows(capsys):
    rc = main(["verify", "--suite", "algebra", "--format", "machine"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "scenarios passed" not in out
    for line in out.strip().splitlines():
        assert line.startswith("scenario=")
        assert line.endswith("result=pass")


def test_verify_unknown_suite_exits_2(capsys):
    assert main(["verify", "--suite", "nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown suite 'nope'" in err
    assert "known suites: all, " in err


def test_verify_seed_determinism(capsys):
    main(["verify", "--suite", "wpp", "--seed", "5", "--format", "machine"])
    first = capsys.readouterr().out
    main(["verify", "--suite", "wpp", "--seed", "5", "--format", "machine"])
    assert capsys.readouterr().out == first


# ===================================================================
# one parser per process: no state carries from one main call to the next
# ===================================================================


def test_oracle_constraints_do_not_carry_over(bell_file, capsys):
    argv = ["oracle", "--circuit", bell_file, "--input", "00"]
    assert main([*argv, "--constrain", "0", "1", "--constrain", "1", "0"]) == 0
    assert "prob=0/2^0" in capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == "g=1\nm=1\nprob=1/2^1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle"],
        ["simulate", "--report", "xml"],
        [],
        ["compile", "--construction", "fqp2exp", "--machine1", "m", "--f", "1", "-o", "x"],
        ["verify", "--r", "4"],
    ],
)
def test_bad_argv_exits_2_every_time(argv, capsys):
    errs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] and errs[0].startswith("usage: postsel")


def test_simulate_rows_unchanged_by_an_earlier_verify(bell_file, capsys):
    argv = ["simulate", "--circuit", bell_file, "--oracle", "--report", "machine-readable"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--suite", "algebra", "--format", "machine"]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == first
