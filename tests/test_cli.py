"""Command-line interface: outputs, exit codes, file round-trips."""

from fractions import Fraction

import pytest

from postsel import (
    default_input,
    expand_mcx,
    make_gap_machine,
    parse_circuit,
    path_sum,
    path_sum_slow,
    postselect_stats,
    run,
    serialize_machine,
)
from postsel.cli import main

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
    circ = parse_circuit(open(out_path).read())
    from postsel import measure_prob, run

    state = run(expand_mcx(circ), default_input(circ))
    assert measure_prob(state, circ.output, 1).as_fraction() == Fraction(1, 4)


def test_compile_pair_statistics(machine_files, tmp_path):
    m1, m2 = machine_files
    out_path = str(tmp_path / "pair.circ")
    rc = main(
        [
            "compile",
            "--construction",
            "pair",
            "--machine1",
            m1,
            "--machine2",
            m2,
            "-o",
            out_path,
        ]
    )
    assert rc == 0
    circ = parse_circuit(open(out_path).read())
    st = postselect_stats(expand_mcx(circ), default_input(circ))
    assert st.p_post.as_fraction() == Fraction(1, 8)
    assert st.p_cond == Fraction(1, 2)


def test_compile_pair_honors_k(machine_files, tmp_path):
    m1, m2 = machine_files
    out_path = str(tmp_path / "pair.circ")
    rc = main(
        [
            "compile",
            "--construction",
            "pair",
            "--machine1",
            m1,
            "--machine2",
            m2,
            "--k",
            "1",
            "-o",
            out_path,
        ]
    )
    assert rc == 0
    circ = parse_circuit(open(out_path).read())
    st = postselect_stats(expand_mcx(circ), default_input(circ))
    # each padding pair divides P(p=1) by 4: 1/8 at k = 0
    assert st.p_post.as_fraction() == Fraction(1, 32)


def test_compile_rescale_and_fqp2exp(machine_files, tmp_path):
    m1, m2 = machine_files
    for kind, flags, expect_post in (
        ("rescale", ["--t", "2"], Fraction(1, 32)),
        ("fqp2exp", [], Fraction(1, 8)),  # base P(p)=1/2^3 -> forced to 2**-3
    ):
        out_path = str(tmp_path / f"{kind}.circ")
        rc = main(
            [
                "compile",
                "--construction",
                kind,
                "--machine1",
                m1,
                "--machine2",
                m2,
                "-o",
                out_path,
                *flags,
            ]
        )
        assert rc == 0
        circ = parse_circuit(open(out_path).read())
        st = postselect_stats(expand_mcx(circ), default_input(circ))
        assert st.p_post.as_fraction() == expect_post


def test_compile_pp(machine_files, tmp_path):
    m1, m2 = machine_files
    out_path = str(tmp_path / "pp.circ")
    rc = main(
        [
            "compile",
            "--construction",
            "pp",
            "--machine1",
            m1,
            "--machine2",
            m2,
            "-o",
            out_path,
        ]
    )
    assert rc == 0
    circ = parse_circuit(open(out_path).read())
    st = postselect_stats(expand_mcx(circ), default_input(circ))
    # Gg = Gf = 2, q_exp = q'_exp = 4: P(p) = (3*4+4)/2**10 = 1/64
    assert st.p_post.as_fraction() == Fraction(1, 64)
    assert st.p_cond == Fraction(3, 4)


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
    z = tmp_path / "zero.machine"
    z.write_text(serialize_machine(make_gap_machine(0, 2)))
    rc = main(
        [
            "compile",
            "--construction",
            "pair",
            "--machine1",
            str(z),
            "--machine2",
            str(z),
            "-o",
            str(tmp_path / "x.circ"),
        ]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


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
    """The mixed circuit's width (7 pair wires, 3 new ones and h coins) is
    checked against the 63-qubit cap before 2**h is built."""
    m1, m2 = machine_files
    argv = ["compile", "--construction", "fqp2exp", "--machine1", m1, "--machine2", m2]
    out = tmp_path / "x.circ"
    assert main([*argv, "--f", "1", "--h", "1000000000000", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: width 1000000000010 exceeds the 63-qubit index limit\n"
    assert not out.exists()


def test_compile_fqp2exp_negative_exponent_exits_2_naming_h(machine_files, tmp_path, capsys):
    m1, m2 = machine_files
    argv = ["compile", "--construction", "fqp2exp", "--machine1", m1, "--machine2", m2]
    out = tmp_path / "x.circ"
    assert main([*argv, "--f", "1", "--h", "-1", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: need h >= 0 and 0 < f <= 2**h, got f = 1, h = -1\n"
    assert not out.exists()


@pytest.mark.parametrize("override", [["--f", "1"], ["--h", "3"]])
def test_compile_fqp2exp_needs_f_and_h_together(machine_files, tmp_path, capsys, override):
    m1, m2 = machine_files
    argv = ["compile", "--construction", "fqp2exp", "--machine1", m1, "--machine2", m2]
    out = tmp_path / "x.circ"
    assert main([*argv, *override, "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: --f and --h go together: give both or neither\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, flags, unread",
    [
        ("gapsq", ["--k", "3", "--t", "9"], "--k, --t"),
        ("gapsq", ["--k", "0"], "--k"),
        ("gapsq", ["--machine2", "M2"], "--machine2"),
        ("gapsq", ["--f", "1", "--h", "3"], "--f, --h"),
        ("pair", ["--f", "1", "--h", "3"], "--f, --h"),
        ("pair", ["--t", "1"], "--t"),
        ("rescale", ["--f", "1", "--h", "3"], "--f, --h"),
        ("pp", ["--h", "3"], "--h"),
        ("pp", ["--k", "1", "--t", "2"], "--k, --t"),
        ("fqp2exp", ["--t", "2"], "--t"),
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
    rc = main(["verify", "--suite", "algebra", "--seed", "42", "--r", "3"])
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


@pytest.mark.parametrize("argv", [["oracle"], ["simulate", "--report", "xml"], []])
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
