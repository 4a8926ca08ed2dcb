import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cateff.conformance
from cateff import grading
from cateff.cli import main
from conftest import theory_path


def test_check_prints_judgements(capsys):
    assert main(["check", theory_path("session")]) == 0
    out = capsys.readouterr().out
    assert "⊢_{tau_1_int;send_int;recv_int_int} t : 1+1+1+1" in out
    assert "⊢_{recv_1_int;send_int} s : 1" in out


def test_check_fails_on_grade_error(tmp_path, capsys):
    bad = tmp_path / "bad.ceff"
    bad.write_text("""
    category C { objects a; gen f : a -> a; }
    signature S over C { op tick : 1 ~> 1 @ f; }
    program p over S : 1 @ id(a) { do tick(()) }
    """)
    assert main(["check", str(bad)]) == 1
    assert "grade" in capsys.readouterr().err.lower()


def test_check_rejects_a_default_clause_with_an_unbound_variable(tmp_path,
                                                                capsys):
    bad = tmp_path / "unbound.ceff"
    bad.write_text("""
    category C { objects z; gen p : z -> z; }
    category D { objects w; }
    functor F : C -> D { obj z => w; gen p => id; }
    signature S over C { op act : 1 ~> 1 @ p; }
    signature T over D { }
    handler h over S to T via F at z : 1 => 1 {
      return x => val w x;
      op act(u), r => let q <- val w nope in r ();
    }
    program hidden over T : 1 @ id(w) {
      handle (split ((fun^p (u : 1) => do act(u)), ()) as (f, v) in f ()) with h
    }
    """)
    assert main(["check", str(bad)]) == 1
    assert capsys.readouterr().err == (
        "type error: handler h: unbound variable 'nope' "
        "in the default clause for act\n")


@pytest.mark.parametrize("command", ["check", "run", "denote"])
def test_deeply_nested_program_is_an_error_line(command, tmp_path, capsys):
    deep = tmp_path / "deep.ceff"
    lets = "".join(f"let x{i} <- val a () in " for i in range(1200))
    deep.write_text(f"""
    category C {{ objects a; }}
    signature S over C {{ }}
    program p over S : 1 @ id(a) {{ {lets}val a () }}
    """)
    assert main([command, str(deep)]) == 1
    assert capsys.readouterr().err == (
        f"error: {deep}: program nests too deeply for cateff\n")


def test_conform_reports_a_checker_overflow_as_too_deep(tmp_path, capsys,
                                                        monkeypatch):
    # conform's typecheck line reports type errors only: a recursion
    # overflow in the checker is the same error line as in check
    def overflow(bundle):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cateff.conformance, "check_bundle", overflow)
    path = tmp_path / "p.ceff"
    path.write_text("""
    category C { objects a; }
    signature S over C { }
    program p over S : 1 @ id(a) { val a () }
    """)
    assert main(["conform", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {path}: program nests too deeply for cateff\n")


def test_unparsable_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "broken.ceff"
    bad.write_text("category ???")
    with pytest.raises(SystemExit) as exc:
        main(["check", str(bad)])
    assert exc.value.code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("category ???", "unexpected character '?' at 1:10"),
    ("category C { objects a; gen g : a -> a; } category D { objects b; }\n"
     "functor F : C -> D { obj a => zz; gen g => id; }",
     "no object 'zz' in category D"),
    ("category C { objects a; gen g : a -> a; }\n"
     "signature S over C { op t : 1 ~> 1 @ g; op t : 1 ~> 1 @ g; }",
     "invalid signature S: operation 't' declared twice at 2:1"),
    # no path of length <= 3 meets a rule, so only the probe of the
    # left-hand sides sees that they rewrite into each other
    ("category C { objects s; gen a : s -> s; gen b : s -> s;\n"
     "gen c : s -> s; gen d : s -> s;\n"
     "rule a.b.c.d = d.c.b.a; rule d.c.b.a = a.b.c.d; }",
     "invalid category C: rewriting of a.b.c.d exceeded 10000 steps at 1:1"),
    # the left-hand sides overlap only on a path of length 5
    ("category C { objects s; gen a : s -> s; gen b : s -> s; gen c : s -> s;\n"
     "gen d : s -> s; gen e : s -> s; gen f : s -> s;\n"
     "rule a.b.c = d; rule c.e.b = f; }",
     "invalid category C: path a.b.c.e.b rewrites to distinct normal forms "
     "['a.b.f', 'd.e.b'] at 1:1"),
    ("category Sub { objects lo; gen u : lo -> lo; gen e : lo -> lo; wide u;\n"
     "rule u.u = e; rule e.u = u.e; }",
     "invalid category Sub: wide path u.u equals e, which is not wide at 1:1"),
    ("category S { objects lo, hi; gen w : lo -> hi; wide w; }\n"
     "category T { objects x, y; gen q : x -> y; }\n"
     "functor G : S -> T { obj lo => x; obj hi => y; gen w => q; }",
     "invalid functor G: functor G sends wide generator w to q, "
     "which is not wide at 3:1"),
], ids=["token", "unknown_object", "duplicate_op", "nonterminating_lhs",
        "nonconfluent_overlap", "wide_not_closed", "functor_leaves_wide"])
def test_load_error_names_the_file(text, message, tmp_path, capsys):
    path = tmp_path / "bad.ceff"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["check", str(path)])
    assert exc.value.code == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("command", ["check", "run", "denote"])
def test_rewrite_overrun_after_loading_is_an_error_line(command, tmp_path,
                                                         capsys, monkeypatch):
    # a.b = b.a terminates, but moving the a of a.b.b.b.b past four b's takes
    # four rewrites; with a cap of 3 the probe passes and the checker overruns
    monkeypatch.setattr(grading, "STEP_CAP", 3)
    path = tmp_path / "comm.ceff"
    path.write_text("""
    category C { objects s; gen a : s -> s; gen b : s -> s; rule a.b = b.a; }
    signature S over C { op pa : 1 ~> 1 @ a; op pb : 1 ~> 1 @ b; }
    program p over S : 1 @ b.b.b.b.a {
      let x <- do pa(()) in let y <- do pb(()) in let z <- do pb(()) in
      let w <- do pb(()) in do pb(())
    }
    """, encoding="utf-8")
    assert main([command, str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: rewriting of a.b.b.b.b exceeded 3 steps\n")


def test_a_closed_stdout_ends_quietly(tmp_path):
    # 2^12 leaves print far more than a pipe buffer holds
    lets = "".join(f"let x{i} <- do flip(()) in " for i in range(12))
    path = tmp_path / "wide.ceff"
    path.write_text(f"""
    category C {{ objects a; }}
    signature S over C {{ op flip : 1 ~> 1+1 @ id(a); }}
    program p over S : 1+1 @ id(a) {{ {lets}val a x11 }}
    """)
    src = str(Path(cateff.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    with subprocess.Popen(
            [sys.executable, "-m", "cateff.cli", "denote", "--json", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    assert err == ""  # neither a traceback nor "Exception ignored"


UNREADABLE = {
    "missing": "No such file or directory",
    "directory": "Is a directory",
    "not_utf8": "not UTF-8 text",
}


@pytest.mark.parametrize("command", ["check", "run", "denote", "conform"])
@pytest.mark.parametrize("kind", sorted(UNREADABLE))
def test_unreadable_file_is_an_error_line(kind, command, tmp_path, capsys):
    path = tmp_path / "theory.ceff"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(b"category \xff {}")
    with pytest.raises(SystemExit) as exc:
        main([command, str(path)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {UNREADABLE[kind]}")
    assert err.count("\n") == 1


def test_run_prints_final_configurations(capsys):
    assert main(["run", theory_path("pair_handler")]) == 0
    out = capsys.readouterr().out
    assert "pair_main: val pt (inl () : 1+1, inr () : 1+1)" in out
    assert "about to perform op1" in out


def test_run_trace_prints_graded_configurations(capsys):
    assert main(["run", "--trace", theory_path("pair_handler")]) == 0
    out = capsys.readouterr().out
    assert "pair_main[0] @ id(pt): handle" in out
    # the first step exposes the graded resumption lambda of the handler
    assert "pair_main[1] @ id(pt): (fun^id(pt) (" in out
    assert "pair_main[7] @ id(pt): val pt" in out


def test_run_exceeding_step_budget_exits_two(capsys):
    assert main(["run", "--max-steps", "2", theory_path("pair_handler")]) == 2
    assert "error" in capsys.readouterr().err


def test_run_blocked_program_reports_an_error_and_exits_two(tmp_path, capsys):
    blocked = tmp_path / "blocked.ceff"
    blocked.write_text("""
    category C { objects a; gen u : a -> a; wide u; }
    signature S over C { }
    program stuck over S : 1 @ u {
      let x <- weaken u { val a () } id(a) in val a x
    }
    """)
    assert main(["run", str(blocked)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("stuck: error: ")
    assert "Traceback" not in err


def test_max_steps_env_override(monkeypatch, capsys):
    monkeypatch.setenv("CATEFF_MAX_STEPS", "2")
    assert main(["run", theory_path("pair_handler")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["check", "run", "denote", "conform"])
def test_bad_max_steps_env_is_a_usage_error_of_run_and_conform(
        command, monkeypatch, capsys):
    monkeypatch.setenv("CATEFF_MAX_STEPS", "abc")
    if command in ("check", "denote"):
        assert main([command, theory_path("pair_handler")]) == 0
        assert capsys.readouterr().err == ""
        return
    with pytest.raises(SystemExit) as exc:
        main([command, theory_path("pair_handler")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --max-steps: invalid int value: 'abc'" in err
    assert "Traceback" not in err


def test_denote_json_output(capsys):
    assert main(["denote", "--json", theory_path("widened")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    payloads = [json.loads(line) for line in lines]
    names = {name for p in payloads for name in p}
    assert names == {"widened", "widened_pure"}
    widened = next(p for p in payloads if "widened" in p)["widened"]
    assert "coerce" in widened


def test_denote_json_goes_on_after_an_unserializable_tree(tmp_path, capsys):
    path = tmp_path / "fun.ceff"
    path.write_text("""
    category C { objects a; }
    signature S over C { }
    program p over S : 1 -> 1 @ id(a) @ id(a) { val a (fun^id(a) (x : 1) => val a x) }
    program q over S : 1 @ id(a) { val a () }
    """)
    assert main(["denote", "--json", str(path)]) == 1
    out, err = capsys.readouterr()
    assert err == "p: tree carries function-space leaves; not serializable\n"
    assert [json.loads(line) for line in out.splitlines()] == [
        {"q": {"leaf": {"obj": "a", "val": "*"}}}]


def test_denote_plain_output(capsys):
    assert main(["denote", theory_path("session")]) == 0
    out = capsys.readouterr().out
    assert "t: do(updateint_1" in out


def test_conform_green_and_json(capsys):
    assert main(["conform", "--count", "40", theory_path("mutstore")]) == 0
    out = capsys.readouterr().out
    assert "PASS typecheck" in out
    assert main(["conform", "--count", "40", "--json-report",
                 theory_path("mutstore")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True


def test_conform_detects_violations_with_exit_three(tmp_path, capsys):
    # an adequacy-eligible program that suspends on an operation whose
    # denotation is nevertheless the star leaf cannot exist; instead break
    # metatheory by shipping a program that loops the step budget
    bad = tmp_path / "slow.ceff"
    bad.write_text("""
    category C { objects a; }
    signature S over C { }
    program p over S : 1 @ id(a) {
      let x1 <- val a () in let x2 <- val a () in let x3 <- val a () in
      let x4 <- val a () in let x5 <- val a () in val a ()
    }
    """)
    monkey_steps = ["conform", "--max-steps", "2", str(bad)]
    assert main(monkey_steps) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out


# the default clause is well graded at k = e, but the lambda hidden in the
# pair performs act at k = id(z); the checker checks the clause once for
# that dynamically graded call site, at a generic k, where it is ill graded
LATE_CLAUSE = """
category C { objects z; gen p : z -> z; gen e : z -> z; rule p.e = e; }
functor Id : C -> C { obj z => z; gen p => p; gen e => e; }
signature S over C { op act : 1 ~> 1 @ p; }
handler h over S to S via Id at z : 1 => 1 {
  return x => val z x;
  op act(q), r => r ();
}
program late over S : 1 @ p {
  handle (split ((fun^p (u : 1) => do act(u)), ()) as (f, w) in f ()) with h
}
"""

LATE_CLAUSE_ERROR = ("handler h: default clause for act at a dynamically "
                     "graded call site has grade <k>, expected p;<k>")


@pytest.fixture
def late_clause(tmp_path):
    path = tmp_path / "late.ceff"
    path.write_text(LATE_CLAUSE)
    return str(path)


@pytest.mark.parametrize("command", ["check", "run", "denote"])
def test_clause_failing_at_a_dynamic_site_is_a_type_error(command,
                                                         late_clause, capsys):
    assert main([command, late_clause]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"type error: {LATE_CLAUSE_ERROR}\n"


def test_conform_fails_typecheck_on_a_clause_failing_at_a_dynamic_site(
        late_clause, capsys):
    assert main(["conform", "--count", "20", late_clause]) == 3
    out = capsys.readouterr().out
    assert out == f"FAIL typecheck: {LATE_CLAUSE_ERROR}\n"


# h's default clause for act, reached only from the lambda hidden in the
# pair, performs note after its resumption returns: at every k, that note
# runs at id(z) from the end of h's handle, so o's explicit clause covers it
NOTE_AFTER_RESUME = """
category C { objects z; gen p : z -> z; }
category D { objects w; }
functor Id : C -> C { obj z => z; gen p => p; }
functor Drop : C -> D { obj z => w; gen p => id(w); }
signature S over C { op act : 1 ~> 1 @ p; op note : 1 ~> 1 @ id(z); }
signature T over D { }
handler h over S to S via Id at z : 1 => 1 {
  return x => val z x;
  op act(q), r => let y <- do act(()) in let x <- r () in do note(());
}
handler o over S to T via Drop at z : 1 => 1 {
  return x => val w x;
  op act(q), r => r ();
  op note(q), r @ id(z) => r ();
}
program prog over T : 1 @ id(w) {
  handle (handle (split ((fun^p (u : 1) => do act(u)), ()) as (f, v) in
    f ()) with h) with o
}
"""


def test_an_operation_after_a_dynamic_site_resumption_keeps_its_grade(
        tmp_path, capsys):
    path = tmp_path / "note.ceff"
    path.write_text(NOTE_AFTER_RESUME)
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out == "⊢_{id(w)} prog : 1\n"
    assert main(["run", str(path)]) == 0
    assert capsys.readouterr().out == "prog: val w ()\n"
    assert main(["conform", "--count", "20", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.startswith("PASS ") for line in lines)
    assert "PASS soundness[prog]: 12 steps invariant" in lines


# act runs at a k known only at run time, where h may pick its explicit
# clause at id(z); that clause's note, left to o, must be covered as well
EXPLICIT_AT_DYNAMIC_SITE = """
category C { objects z; gen p : z -> z; }
category D { objects w; }
functor Id : C -> C { obj z => z; gen p => p; }
functor Drop : C -> D { obj z => w; gen p => id(w); }
signature S over C { op act : 1 ~> 1 @ p; op note : 1 ~> 1 @ id(z); }
signature T over D { }
handler h over S to S via Id at z : 1 => 1 {
  return x => val z x;
  op act(q), r @ id(z) => let x <- r () in let y <- do note(()) in do act(());
  op act(q), r => let y <- do act(()) in r ();
}
handler o over S to T via Drop at z : 1 => 1 {
  return x => val w x;
  op act(q), r => r ();
}
program prog over T : 1 @ id(w) {
  handle (handle (split ((fun^p (u : 1) => do act(u)), ()) as (f, v) in
    f ()) with h) with o
}
"""


@pytest.mark.parametrize("command", ["check", "run"])
def test_explicit_clauses_cover_a_dynamic_site(command, tmp_path, capsys):
    path = tmp_path / "explicit.ceff"
    path.write_text(EXPLICIT_AT_DYNAMIC_SITE)
    assert main([command, str(path)]) == 1
    assert capsys.readouterr().err == (
        "type error: no clause for operation 'note' at continuation grade p\n")


HASH_SEED_SCRIPT = """
import sys
from cateff.cli import main
status = 0
for path in sys.argv[1:]:
    for command in (["run", "--trace"], ["denote", "--json"],
                    ["conform", "--count", "40", "--json-report"]):
        status |= main([*command, path])
sys.exit(status)
"""


def test_output_does_not_depend_on_the_hash_seed():
    # the checker and the walks over terms build sets of names and of
    # operations; none of their iteration orders may reach the output
    paths = [theory_path(name)
             for name in ("session", "pair_handler", "mutstore", "widened")]
    src = str(Path(cateff.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-c", HASH_SEED_SCRIPT, *paths],
                              capture_output=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0].count(b'"ok": true') == 4  # every report was printed
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("seed", ["0", "1"])
def test_unknown_wide_marking_error_does_not_depend_on_the_hash_seed(
        seed, tmp_path):
    # several unknown names: the first one declared is reported
    path = tmp_path / "wide.ceff"
    path.write_text(
        "category C { objects s; gen a : s -> s; wide x, y, z, w; }\n")
    src = str(Path(cateff.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
    proc = subprocess.run([sys.executable, "-m", "cateff.cli", "check",
                           str(path)], capture_output=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.decode() == (
        f"error: {path}: invalid category C: wide marking on unknown "
        f"generator 'x' at 1:1\n")
