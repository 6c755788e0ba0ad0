"""Command-line behavior: formats, exit codes, determinism."""

import json

import pytest

from indtopo import cli
from indtopo import graphs as gr
from indtopo import morse
from indtopo import verify
from indtopo.verify import (
    InstanceRecord,
    SuiteResult,
    VerificationReport,
    check_family_instance,
    check_suspension_shift,
    check_table1_row,
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- gen --------------------------------------------------------------------

def test_gen_json_stdout(capsys):
    code, out, _ = run(capsys, "gen", "mycielskian", "3", "4")
    assert code == 0
    d = json.loads(out)
    assert len(d["vertices"]) == 13 and len(d["edges"]) == 24


def test_gen_writes_files(tmp_path, capsys):
    for name in ("g.json", "g.edges"):
        dest = tmp_path / name
        code, out, _ = run(capsys, "gen", "product", "3", "4", "--output", str(dest))
        assert code == 0 and str(dest) in out
        assert gr.load_graph(str(dest)).vertex_count == 12


def test_gen_edgelist_stdout(capsys):
    code, out, _ = run(capsys, "gen", "cycle", "4", "--format", "table")
    assert code == 0
    assert out.splitlines()[0] == "4 4 0"


def test_gen_rejects_bad_spec(capsys):
    code, _, err = run(capsys, "gen", "product", "1", "4")
    assert code == 3 and "product" in err
    code, _, err = run(capsys, "gen", "no_such_family", "3")
    assert code == 3 and "unknown family" in err
    code, _, err = run(capsys, "gen")
    assert code == 3


# -- betti ------------------------------------------------------------------

def test_betti_product_full_range(capsys):
    code, out, _ = run(capsys, "betti", "product", "3", "3")
    assert code == 0
    d = json.loads(out)
    assert d["betti"] == {"-1": 0, "0": 0, "1": 4, "2": 0}
    assert d["coefficients"] == "z2" and d["window"] is None


def test_betti_path_table_format(capsys):
    code, out, _ = run(capsys, "betti", "path", "6", "--format", "table")
    assert code == 0 and "b1=1" in out


def test_betti_windowed(capsys):
    code, out, _ = run(capsys, "betti", "conjecture_k2k3kn", "4",
                       "--window", "2", "4")
    assert code == 0
    d = json.loads(out)
    assert d["betti"] == {"2": 0, "3": 30, "4": 0}
    assert d["window"] == [2, 4]


def test_betti_integer_coefficients(capsys):
    code, out, _ = run(capsys, "betti", "product", "2", "3", "--coeff", "int")
    assert code == 0
    assert json.loads(out)["betti"]["1"] == 2


def test_betti_window_is_mod2_only(capsys):
    code, _, err = run(capsys, "betti", "product", "3", "3",
                       "--window", "1", "2", "--coeff", "int")
    assert code == 3 and "mod-2" in err


def test_betti_from_file(tmp_path, capsys):
    dest = tmp_path / "c7.edges"
    gr.save_graph(gr.cycle(7), str(dest))
    code, out, _ = run(capsys, "betti", "--file", str(dest))
    assert code == 0 and json.loads(out)["betti"]["1"] == 1
    code, _, _ = run(capsys, "betti", "--file", str(dest), "cycle", "7")
    assert code == 3       # spec and file together is ambiguous


def test_betti_face_budget_exit_code(capsys):
    code, _, err = run(capsys, "betti", "product", "3", "3",
                       "--budget-faces", "5")
    assert code == 2 and "resource" in err


def test_env_var_budget(monkeypatch, capsys):
    monkeypatch.setenv("INDTOPO_FACE_BUDGET", "5")
    code, _, _ = run(capsys, "betti", "product", "3", "3")
    assert code == 2
    # the explicit flag wins over the environment
    code, _, _ = run(capsys, "betti", "product", "3", "3",
                     "--budget-faces", "100000")
    assert code == 0


# -- morse ------------------------------------------------------------------

def test_morse_product_report(capsys):
    code, out, _ = run(capsys, "morse", "product", "4", "5")
    assert code == 0
    d = json.loads(out)
    assert d["critical_by_dimension"] == {"1": 12}
    assert d["acyclic"] is True and d["empty_face_matched"] is True
    assert d["wedge"] == "wedge(12, S^1)"
    assert "matching" not in d


def test_morse_full_dump_and_custom_order(capsys):
    code, out, _ = run(capsys, "morse", "product", "2", "2", "--full",
                       "--order", "(1,1),(1,2),(2,1)")
    assert code == 0
    d = json.loads(out)
    assert d["order"] == ["(1,1)", "(1,2)", "(2,1)"]
    assert d["matching"]["critical"] == [["(2,1)", "(2,2)"]]


def test_morse_default_order_outside_products(capsys):
    code, out, _ = run(capsys, "morse", "path", "4", "--format", "table")
    assert code == 0 and "acyclic: True" in out


def test_morse_rejects_bad_order(capsys):
    code, _, err = run(capsys, "morse", "path", "4", "--order", "1,9")
    assert code == 3


def test_morse_checks_acyclicity_once(monkeypatch, capsys):
    calls = []
    real = morse.verify_acyclic

    def counted(matching, K):
        calls.append(K)
        return real(matching, K)

    monkeypatch.setattr(cli, "verify_acyclic", counted)
    monkeypatch.setattr(morse, "verify_acyclic", counted)
    code, out, _ = run(capsys, "morse", "product", "3", "3")
    assert code == 0 and json.loads(out)["wedge"] == "wedge(4, S^1)"
    assert len(calls) == 1


# -- reduce -----------------------------------------------------------------

def test_reduce_gadget_json(capsys):
    code, out, _ = run(capsys, "reduce", "gadget", "3", "3")
    assert code == 0
    d = json.loads(out)
    assert d["result"] == "point" and d["stuck"] is None
    assert d["steps"] == len(d["trace"]) > 0


def test_reduce_kn_lr_table(capsys):
    code, out, _ = run(capsys, "reduce", "kn_lr", "3", "1", "--format", "table")
    assert code == 0 and "point" in out


def test_reduce_stuck_is_reported_not_failed(capsys):
    code, out, _ = run(capsys, "reduce", "cycle", "5")
    assert code == 0
    d = json.loads(out)
    assert d["result"] is None
    assert d["stuck"]["reason"] == "no rule fired"
    assert len(d["stuck"]["vertices"]) == 5


def test_reduce_budget_exit_code(capsys):
    code, out, _ = run(capsys, "reduce", "path", "30", "--budget", "1")
    assert code == 2
    assert json.loads(out)["stuck"]["reason"] == "budget exhausted"


# -- verify -----------------------------------------------------------------

def test_verify_single_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "paths_cycles", "--format", "table")
    assert code == 0
    assert out.strip().endswith("result: PASS")


def test_verify_json_shape_and_overrides(capsys):
    code, out, _ = run(capsys, "verify", "paths_cycles", "--n", "1..4",
                       "--format", "json", "--deterministic")
    assert code == 0
    d = json.loads(out)
    (suite,) = d["suites"]
    # paths 1..4 plus cycles 3..4
    assert suite["summary"]["total"] == 6
    assert d["summary"]["ok"] is True and "generated_at" not in d
    assert all("seconds" not in r for r in suite["records"])


def test_verify_deterministic_bytes(capsys):
    args = ("verify", "suspension", "--count", "2", "--deterministic",
            "--seed", "11")
    code_a, out_a, _ = run(capsys, *args)
    code_b, out_b, _ = run(capsys, *args)
    assert code_a == code_b == 0 and out_a == out_b


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nope")
    assert code == 3 and "unknown suite" in err


def test_verify_unpublished_table1_row_is_a_usage_error(capsys):
    for argv in (("table1", "--n", "7"), ("conjecture", "--n", "9")):
        code, _, err = run(capsys, "verify", *argv)
        assert code == 3 and "n = 2..6" in err, (argv, err)


def test_verify_empty_suite_is_a_usage_error(capsys):
    for argv in (("product", "--m", "5..2"), ("suspension", "--count", "-3")):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 3 and "no instances" in err and out == "", (argv, err)


def test_verify_usage_errors_come_before_any_job(monkeypatch, capsys):
    """A usage error in a later suite, in a later n, or an override outside a
    family's domain stops the run before any instance is computed."""
    calls = []

    def run_job(job):
        calls.append(job)
        raise AssertionError(f"job {job[:2]} ran before the usage error")

    monkeypatch.setattr(verify, "_run_job", run_job)
    for argv in (("all", "--m", "5..2"), ("table1", "--n", "2..7"),
                 ("kn_lr", "product", "--m", "1")):
        code, out, _ = run(capsys, "verify", *argv)
        assert (code, calls, out) == (3, [], ""), argv


def _fake_report(**kw):
    rec = InstanceRecord(instance="fake 1", predicted="S^1",
                         predicted_betti={1: 1}, computed_betti={1: 2},
                         coefficients="z2", window=None, match=False, **kw)
    return VerificationReport([SuiteResult("fake", 2, [rec])], seed=7)


def test_verify_mismatch_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_suites", lambda *a, **k: _fake_report())
    code, out, _ = run(capsys, "verify", "fake", "--format", "table")
    assert code == 1 and "result: FAIL" in out


def test_verify_resource_exit_code(monkeypatch, capsys):
    report = _fake_report(note="face budget exceeded")
    monkeypatch.setattr(cli, "run_suites", lambda *a, **k: report)
    code, _, _ = run(capsys, "verify", "fake")
    assert code == 2


@pytest.mark.parametrize("check, args, suite, overrides, coefficients, window", [
    (check_table1_row, (3, "window"), "table1", ("--n", "3"), "z2", (2, 4)),
    (check_table1_row, (3, "int"), "table1", ("--n", "3"), "int", None),
    (check_family_instance, ("mycielskian", (3, 7)), "mycielskian",
     ("--n", "3", "--r", "7"), "z2", (3, 5)),
])
def test_face_budget_failure_records(capsys, check, args, suite, overrides,
                                     coefficients, window):
    rec = check(*args, face_budget=100)
    assert rec.match is False and not rec.conjectural
    assert rec.coefficients == coefficients and rec.window == window
    assert rec.note == "face budget exceeded: 101 > 100"
    code, _, _ = run(capsys, "verify", suite, *overrides, "--budget-faces", "100")
    assert code == 2


def test_paths_cycles_suite_honours_the_face_budget(capsys):
    report = verify.run_suites(["paths_cycles"], face_budget=10)
    records = {r.instance: r for r in report.suites[0].records}
    assert records["cycle 5"].match
    failed = [r for r in records.values() if not r.match]
    assert records["cycle 15"] in failed
    assert all(r.note == "face budget exceeded: 11 > 10" for r in failed)
    code, _, _ = run(capsys, "verify", "paths_cycles", "--budget-faces", "10")
    assert code == 2


@pytest.mark.parametrize("suite, passing, over, coefficients", [
    ("morse", "morse product 2 2", "morse product 6 6", "critical-cells"),
    ("morse_homology", "morse-homology n=3 (8 samples)",
     "morse-homology n=6 (3901 samples)", "z2"),
])
def test_morse_suites_honour_the_face_budget(capsys, suite, passing, over, coefficients):
    report = verify.run_suites([suite], face_budget=10)
    records = {r.instance: r for r in report.suites[0].records}
    assert records[passing].match
    failed = [r for r in records.values() if not r.match]
    assert records[over] in failed
    for r in failed:
        assert r.note == "face budget exceeded: 11 > 10"
        assert r.coefficients == coefficients and r.seconds > 0
    code, _, _ = run(capsys, "verify", suite, "--budget-faces", "10")
    assert code == 2


def test_suspension_shift_budget_record_is_timed():
    G = gr.Graph(range(12))        # 4096 faces
    rec = check_suspension_shift("suspension", "edgeless 12", G, G, face_budget=100)
    assert rec.match is False and rec.note == "face budget exceeded: 101 > 100"
    assert rec.seconds > 0
    assert rec.to_json_dict()["seconds"] == round(rec.seconds, 3)


def test_family_instance_integer_check_runs_full_range():
    # 21 vertices would get the mod-2 window (5, 7) under z2
    rec = check_family_instance("path", (21,), coefficients="int")
    assert rec.window is None and rec.coefficients == "int"
    assert rec.computed_betti == {6: 1} and rec.torsion == {} and rec.match


def test_windowed_checks_refuse_integer_coefficients():
    with pytest.raises(ValueError, match="windowed homology is mod-2 only"):
        check_family_instance("path", (21,), coefficients="int", window=(5, 7))


@pytest.mark.parametrize("n, row", [(4, 30), (5, 52)])
def test_table1_integer_rows_beyond_the_suite(n, row):
    rec = check_table1_row(n, kind="int")
    assert rec.computed_betti == {3: row} and rec.torsion == {}
    assert rec.match and rec.note == "published row reproduced"


def test_verify_jobs_capped_at_processor_count(monkeypatch):
    seen = []

    class FakePool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(verify, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    report = verify.run_suites(["paths_cycles"], jobs=64, overrides={"n": [3]})
    assert seen == [2] and report.ok
    monkeypatch.setattr(verify.os, "cpu_count", lambda: None)
    verify.run_suites(["paths_cycles"], jobs=64, overrides={"n": [3]})
    assert seen == [2]


def test_verify_conjectural_failure_gates_only_when_strict(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_suites",
                        lambda *a, **k: _fake_report(conjectural=True))
    code, _, _ = run(capsys, "verify", "fake")
    assert code == 0


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "verify", "paths_cycles", "--n", "3",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("suite,instance,")
    assert len(lines) == 3


# -- top-level plumbing -------------------------------------------------------

def test_usage_errors_exit_3(capsys):
    assert run(capsys, "betti", "--coeff", "garbage", "path", "3")[0] == 3
    assert run(capsys, "frobnicate")[0] == 3
    assert run(capsys)[0] == 3


def test_missing_file_is_a_usage_error(capsys):
    code, _, err = run(capsys, "betti", "--file", "/nonexistent/g.json")
    assert code == 3 and "error" in err


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
