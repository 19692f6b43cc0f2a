"""Command-line interface."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import dkblite

from dkblite.cli import EXIT_LIMIT, EXIT_NO, EXIT_OK, EXIT_USAGE, main
from dkblite.normalize import normalize
from dkblite.parser import parse_dkb
from dkblite.program import export_asp_text
from dkblite.translate import translate

UNSAT_TEXT = "A [= -B. A(a). B(a).\n"

DEPT_NORMAL_TEXT = """\
concept DeptMember.
concept PhDStudent.
concept Professor.
concept _N0.
role hasCourse.
individual alice.
individual bob.
Professor [= DeptMember.
PhDStudent [= DeptMember.
PhDStudent [= -_N0.
Professor(alice).
PhDStudent(bob).
exists hasCourse [= _N0.
D(DeptMember [= exists hasCourse).
"""


@pytest.fixture
def unsat_path(tmp_path):
    p = tmp_path / "unsat.dkb"
    p.write_text(UNSAT_TEXT)
    return p


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


# --- check-sat ---


def test_check_sat_exit_codes(capsys, dept_path, unsat_path):
    assert run(capsys, "check-sat", dept_path) == (EXIT_OK, "satisfiable\n", "")
    code, out, err = run(capsys, "check-sat", unsat_path)
    assert (code, out, err) == (EXIT_NO, "unsatisfiable\n", "")


def test_check_sat_needs_a_justified_model(capsys, tmp_path):
    p = tmp_path / "no_model.dkb"
    p.write_text("Inv(S,R). Dis(R,S). D(R(a,a)).\n")
    assert run(capsys, "check-sat", p) == (EXIT_NO, "unsatisfiable\n", "")
    assert run(capsys, "models", p) == (EXIT_NO, "unsatisfiable\n", "")


def test_check_sat_honours_max_ovr(capsys, tmp_path):
    # Two exception candidates; assuming both is not a model, so the
    # search goes past its first guess and the cap trips.
    p = tmp_path / "nixon.dkb"
    p.write_text("Quaker(n). Republican(n).\n"
                 "D(Quaker [= Pacifist). D(Republican [= -Pacifist).\n")
    assert run(capsys, "check-sat", p, "--max-ovr", "2")[0] == EXIT_OK
    code, _, err = run(capsys, "check-sat", p, "--max-ovr", "1")
    assert code == EXIT_LIMIT
    assert err.startswith("resource limit:")


def test_check_sat_json(capsys, dept_path):
    code, out, _ = run(capsys, "check-sat", dept_path, "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out) == {"satisfiable": True}


# --- entail ---


def test_entail_positive_and_negative(capsys, dept_path):
    code, out, _ = run(capsys, "entail", dept_path,
                       "--query", "DeptMember(alice)")
    assert (code, out) == (EXIT_OK, "entailed\n")
    code, out, _ = run(capsys, "entail", dept_path,
                       "--query", "hasCourse(bob, aux_0)")
    assert (code, out) == (EXIT_NO, "not entailed\n")
    code, out, _ = run(capsys, "entail", dept_path,
                       "--query", "hasCourse(alice, aux_0)")
    assert code == EXIT_OK


def test_entail_json(capsys, dept_path):
    code, out, _ = run(capsys, "entail", dept_path, "--format", "json",
                       "--query", "DeptMember(bob)")
    assert code == EXIT_OK
    assert json.loads(out) == {"entailed": True, "unsat_flag": False}


def test_entail_vacuous_on_unsatisfiable_kb(capsys, unsat_path):
    code, out, _ = run(capsys, "entail", unsat_path, "--query", "B(a)")
    assert (code, out) == (EXIT_OK, "entailed (KB unsatisfiable: everything holds)\n")
    code, out, _ = run(capsys, "entail", unsat_path, "--format", "json",
                       "--query", "B(a)")
    assert json.loads(out) == {"entailed": True, "unsat_flag": True}


def test_entail_requires_a_query(capsys, dept_path):
    code, _, err = run(capsys, "entail", dept_path)
    assert code == EXIT_USAGE
    assert "--query" in err


def test_entail_rejects_undeclared_names(capsys, dept_path):
    code, _, err = run(capsys, "entail", dept_path, "--query", "Zebra(alice)")
    assert code == EXIT_USAGE
    assert err.startswith("--query:")


def test_malformed_query_reports_its_position(capsys, dept_path):
    assert run(capsys, "entail", dept_path, "--query", "A(a") == (
        EXIT_USAGE, "",
        "--query:1:4: syntax: expected ')', found 'end of input'\n")


def test_negated_queries_are_gated(capsys, dept_path):
    code, _, err = run(capsys, "entail", dept_path,
                       "--query=-hasCourse(bob,aux_0)")
    assert code == EXIT_USAGE
    assert "--extended-queries" in err
    code, out, _ = run(capsys, "entail", dept_path, "--extended-queries",
                       "--query=-hasCourse(bob,aux_0)")
    assert (code, out) == (EXIT_OK, "entailed\n")


# --- diagnostics and limits ---


def test_missing_input_file(capsys, tmp_path):
    missing = tmp_path / "nope.dkb"
    code, _, err = run(capsys, "check-sat", missing)
    assert code == EXIT_USAGE
    assert str(missing) in err


def test_parse_error_reports_position(capsys, tmp_path):
    p = tmp_path / "broken.dkb"
    p.write_text("A [= B.\nA [= .\n")
    code, _, err = run(capsys, "check-sat", p)
    assert code == EXIT_USAGE
    assert f"{p}:2:" in err
    assert "syntax" in err


def test_non_utf8_input_is_a_usage_error(capsys, tmp_path):
    p = tmp_path / "bad.dkb"
    p.write_bytes(b"A(a).\n\xff\n")
    code, out, err = run(capsys, "check-sat", p)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith(f"{p}: ")


def test_leading_byte_order_mark_is_accepted(capsys, dept_path, tmp_path):
    p = tmp_path / "bom.dkb"
    p.write_bytes(b"\xef\xbb\xbf" + dept_path.read_bytes())
    assert run(capsys, "check-sat", p) == run(capsys, "check-sat", dept_path)


def test_byte_order_mark_after_the_start_is_a_parse_error(capsys, tmp_path):
    p = tmp_path / "inner_bom.dkb"
    p.write_text("A\ufeff(a).\n", encoding="utf-8")
    code, out, err = run(capsys, "check-sat", p)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"{p}:1:2: syntax: unexpected character '\\ufeff'\n"


def test_exception_cap_exits_with_limit_code(capsys, dept_path):
    code, _, err = run(capsys, "models", dept_path, "--max-ovr", "1")
    assert code == EXIT_LIMIT
    assert err.startswith("resource limit:")


def test_usage_errors_from_argparse(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["bogus"]) == EXIT_USAGE
    capsys.readouterr()


FLAG_ARGS = {
    "--max-ovr": ("--max-ovr", "20"),
    "--depth-cap": ("--depth-cap", "3"),
    "--format": ("--format", "json"),
    "--query": ("--query", "DeptMember(bob)"),
    "--extended-queries": ("--extended-queries",),
    "--ovr-on-aux": ("--ovr-on-aux",),
}
FLAGS_READ = {
    "check-sat": ("--max-ovr", "--format"),
    "entail": ("--max-ovr", "--format", "--query", "--extended-queries"),
    "models": ("--max-ovr", "--format"),
    "translate": (),
    "normalize": ("--format",),
    "oracle-check": ("--depth-cap", "--max-ovr", "--format"),
}
FLAG_SCOPE_CASES = (
    [(cmd, flags, True) for cmd, flags in FLAGS_READ.items()]
    + [(cmd, (flag,), False) for cmd, read in FLAGS_READ.items()
       for flag in FLAG_ARGS if flag not in read])


@pytest.mark.parametrize(
    "command,flags,accepted", FLAG_SCOPE_CASES,
    ids=[f"{c}-{'+'.join(f) or 'bare'}-{'read' if a else 'unread'}"
         for c, f, a in FLAG_SCOPE_CASES])
def test_each_command_takes_only_the_flags_it_reads(
        capsys, dept_path, command, flags, accepted):
    argv = [command, dept_path, *(a for f in flags for a in FLAG_ARGS[f])]
    code, out, err = run(capsys, *argv)
    if accepted:
        assert (code, err) == (EXIT_OK, "")
        assert out
    else:
        assert (code, out) == (EXIT_USAGE, "")
        assert "unrecognized arguments" in err


CAP_CASES = [(cmd, flag) for cmd, read in FLAGS_READ.items()
             for flag in ("--max-ovr", "--depth-cap") if flag in read]


@pytest.mark.parametrize("command,flag", CAP_CASES,
                         ids=[f"{c}-{f}" for c, f in CAP_CASES])
def test_negative_caps_are_usage_errors(capsys, dept_path, command, flag):
    query = FLAG_ARGS["--query"] if "--query" in FLAGS_READ[command] else ()
    code, out, err = run(capsys, command, dept_path, flag, "-1", *query)
    assert (code, out) == (EXIT_USAGE, "")
    assert flag in err
    assert run(capsys, command, dept_path, flag, "0", *query)[0] != EXIT_USAGE


# --- models ---


def test_models_text_output(capsys, dept_path):
    code, out, _ = run(capsys, "models", dept_path)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "satisfiable (1 model)"
    assert lines[1] == "model 1: chi = <DeptMember [= exists hasCourse, bob>"
    assert "  + DeptMember(alice)" in lines
    assert "  + hasCourse(alice,aux_0)" in lines
    assert "  - hasCourse(bob,aux_0)" in lines


def test_models_text_without_exceptions(capsys, tmp_path):
    p = tmp_path / "plain.dkb"
    p.write_text("A [= B. A(a).\n")
    code, out, _ = run(capsys, "models", p)
    assert code == EXIT_OK
    assert "model 1: chi = (none)" in out.splitlines()


def test_models_text_names_an_assertion_exception(capsys, tmp_path):
    # An exception to a defeasible assertion has no individual tuple.
    p = tmp_path / "assertion.dkb"
    p.write_text("A [= -B. A(a). D(B(a)).\n")
    assert run(capsys, "models", p) == (
        EXIT_OK,
        "satisfiable (1 model)\nmodel 1: chi = <B(a)>\n"
        "  + A(a)\n  - B(a)\n", "")


def test_models_unsatisfiable(capsys, unsat_path):
    code, out, _ = run(capsys, "models", unsat_path)
    assert (code, out) == (EXIT_NO, "unsatisfiable\n")


def test_models_json(capsys, dept_path):
    code, out, _ = run(capsys, "models", dept_path, "--format", "json")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["satisfiable"] is True
    assert rep["models"][0]["chi"] == [
        {"axiom": "DeptMember [= exists hasCourse", "args": ["bob"]}]


# --- translate and normalize ---


def test_translate_matches_the_library(capsys, dept_path):
    code, out, _ = run(capsys, "translate", dept_path)
    assert code == EXIT_OK
    kb = normalize(parse_dkb(dept_path.read_text()))
    assert out == export_asp_text(translate(kb))
    assert out.startswith("% constants: alice bob aux_0\n")
    assert "dl_subc" in out


def test_normalize_text_output(capsys, dept_path):
    code, out, _ = run(capsys, "normalize", dept_path)
    assert (code, out) == (EXIT_OK, DEPT_NORMAL_TEXT)


def test_normalize_output_names_the_helpers(capsys, dept_path, tmp_path):
    # helper names are names of the surface grammar, so the normal form
    # loads back and reports what the original does
    _, out, _ = run(capsys, "normalize", dept_path)
    assert "concept _N0." in out.splitlines()
    normal = tmp_path / "normal.dkb"
    normal.write_text(out)
    for fmt in ("text", "json"):
        original = run(capsys, "models", dept_path, "--format", fmt)
        assert original[0] == EXIT_OK
        assert run(capsys, "models", normal, "--format", fmt) == original


def test_normalize_json(capsys, dept_path):
    code, out, _ = run(capsys, "normalize", dept_path, "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["concepts"] == ["DeptMember", "PhDStudent", "Professor", "_N0"]
    assert data["roles"] == ["hasCourse"]
    assert data["individuals"] == ["alice", "bob"]
    assert data["defeasible"] == ["DeptMember [= exists hasCourse"]


# --- oracle-check ---


def test_oracle_check_agrees_on_dept(capsys, dept_path):
    code, out, _ = run(capsys, "oracle-check", dept_path)
    assert (code, out) == (EXIT_OK, "agree: 1 model, 12 queries checked\n")


def test_oracle_check_json(capsys, dept_path):
    code, out, _ = run(capsys, "oracle-check", dept_path, "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data == {"agree": True, "models": 1, "queries_checked": 12,
                    "disagreements": []}


def test_oracle_check_reports_disagreements(capsys, dept_path, monkeypatch):
    # A pipeline that finds no model disagrees with the oracle on
    # satisfiability, on the chi sets and on every query the oracle
    # does not entail.
    monkeypatch.setattr("dkblite.cli.justified_models",
                        lambda kb, max_ovr: [])
    code, out, _ = run(capsys, "oracle-check", dept_path)
    lines = out.splitlines()
    assert code == EXIT_NO
    assert lines[0] == "disagree (9 findings):"
    assert lines[1] == "  satisfiability: pipeline=False oracle=True"
    assert "  query Professor(bob): pipeline=True oracle=False" in lines
    code, out, _ = run(capsys, "oracle-check", dept_path, "--format", "json")
    data = json.loads(out)
    assert code == EXIT_NO
    assert (data["agree"], data["models"], len(data["disagreements"])) == (
        False, 0, 9)


def test_oracle_check_depth_cap_is_a_resource_limit(capsys, tmp_path):
    # A cyclic existential TBox: the oracle's chase stops at its depth cap.
    p = tmp_path / "cyclic.dkb"
    p.write_text("A [= exists R.\nexists R^- [= A.\nA(a).\n")
    code, out, err = run(capsys, "oracle-check", p)
    assert (code, out) == (EXIT_LIMIT, "")
    assert err.startswith("resource limit: chase depth cap exceeded")


def test_oracle_is_imported_only_by_oracle_check(dept_path):
    # In a fresh interpreter: the package's public names still resolve,
    # but only on first use do they load the oracle and the reductions.
    src = pathlib.Path(dkblite.__file__).parent.parent
    script = (
        "import sys\n"
        "import dkblite\n"
        "from dkblite.cli import main\n"
        f"assert main(['check-sat', {str(dept_path)!r}]) == 0\n"
        "lazy = ('dkblite.oracle', 'dkblite.reductions')\n"
        "print([m for m in lazy if m in sys.modules])\n"
        "for name in dkblite.__all__:\n"
        "    getattr(dkblite, name)\n"
        "print([m for m in lazy if m in sys.modules])\n")
    done = subprocess.run([sys.executable, "-c", script], cwd=src,
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "satisfiable\n[]\n['dkblite.oracle', 'dkblite.reductions']\n",
        "")


# --- determinism ---


def test_repeated_runs_are_byte_identical(capsys, dept_path):
    for argv in (
        ("translate", dept_path),
        ("models", dept_path),
        ("models", dept_path, "--format", "json"),
        ("oracle-check", dept_path),
        ("normalize", dept_path),
    ):
        first = run(capsys, *argv)
        assert run(capsys, *argv) == first


def test_runs_under_different_hash_seeds_are_byte_identical(
        dept_path, tmp_path):
    # Set iteration order depends on PYTHONHASHSEED, so only separate
    # interpreters can show output that depends on it.  The clash
    # document uses four names as both a role and an individual.
    clash = tmp_path / "clash.dkb"
    clash.write_text("individual R. individual S. individual T. "
                     "individual U. R(a,b). S(a,b). T(a,b). U(a,b).\n")
    argvs = [[command, str(path), *extra]
             for path in (dept_path, clash)
             for command, extra in (
                 ("check-sat", ()), ("models", ()),
                 ("models", ("--format", "json")),
                 ("entail", ("--query", "DeptMember(bob)")),
                 ("translate", ()), ("normalize", ()),
                 ("oracle-check", ()))]
    script = (
        "import contextlib, io, sys\n"
        "from dkblite.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), "
        "contextlib.redirect_stderr(err):\n"
        "        code = main(argv)\n"
        "    print(repr((argv, code, out.getvalue(), err.getvalue())))\n")
    src = pathlib.Path(dkblite.__file__).parent.parent
    outputs = []
    for seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed),
            timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert "'R' is used as both a role and an individual" in outputs[0]
