"""Command-line behavior: formats, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from indtopo import cli
from indtopo import graphs as gr
from indtopo import morse
from indtopo import verify
from indtopo.verify import (
    InstanceRecord,
    SuiteResult,
    VerificationReport,
    check_family_instance,
    check_family_int,
    check_morse_homology_batch,
    check_morse_product,
    check_suspension_shift,
    check_table1_row,
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "indtopo", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: indtopo")


def test_import_and_gen_leave_the_process_pool_unloaded():
    """The worker pool's modules load only when verify runs with jobs > 1."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    script = ("import io, sys, contextlib, indtopo\n"
              "from indtopo import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    assert cli.main(['gen', 'product', '3', '3']) == 0\n"
              "pool = ('concurrent.futures.process', 'multiprocessing', '_multiprocessing')\n"
              "print(sorted(m for m in pool if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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
    # the bytes are the edge-list writer's, with no newline added
    buf = io.StringIO()
    gr.write_edgelist(gr.generalized_mycielskian(gr.complete(3), 2), buf)
    code, out, _ = run(capsys, "gen", "mycielskian", "3", "2", "--format", "csv")
    assert (code, out) == (0, buf.getvalue())


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
    assert json.loads(out)["instance"] == f"custom-file {dest}"
    code, _, _ = run(capsys, "betti", "--file", str(dest), "cycle", "7")
    assert code == 3       # spec and file together is ambiguous


def test_betti_prints_the_torsion_of_an_edge_file(tmp_path, capsys):
    # Ind of this graph is the barycentric subdivision of RP^2
    dest = tmp_path / "rp2.edges"
    gr.save_graph(oracles.incomparability_graph(oracles.RP2_FACETS), str(dest))
    code, out, _ = run(capsys, "betti", "--file", str(dest), "--coeff", "int")
    assert code == 0 and json.loads(out)["torsion"] == {"1": [2]}
    assert not any(json.loads(out)["betti"].values())


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
    # a negative budget is a usage error, from the environment or the flag
    monkeypatch.setenv("INDTOPO_FACE_BUDGET", "-2")
    code, out, err = run(capsys, "morse", "product", "3", "3")
    assert (code, out) == (3, "") and "face budget must be at least 0, got -2" in err
    code, out, err = run(capsys, "betti", "product", "3", "3", "--budget-faces", "-1")
    assert (code, out) == (3, "") and "face budget must be at least 0, got -1" in err


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


def test_morse_default_order_comes_from_the_family_table(monkeypatch, capsys):
    """The CLI sweeps in the order the family record names, vertex order by default."""
    from dataclasses import replace

    from indtopo.families import FAMILIES

    code, out, _ = run(capsys, "morse", "product", "3", "4")
    assert json.loads(out)["order"] == [gr.render_label(v)
                                        for v in morse.product_matching_order(3, 4)]
    reversed_path = replace(FAMILIES["path"], morse_order=lambda n: list(range(n, 0, -1)))
    monkeypatch.setitem(FAMILIES, "path", reversed_path)
    code, out, _ = run(capsys, "morse", "path", "4")
    assert code == 0 and json.loads(out)["order"] == ["4", "3", "2", "1"]


def test_morse_rejects_bad_order(capsys):
    code, _, err = run(capsys, "morse", "path", "4", "--order", "1,9")
    assert code == 3


def test_morse_order_goes_through_the_label_grammar(capsys):
    code, out, _ = run(capsys, "morse", "product", "2", "2",
                       "--order", " (2,2) ,, (1,1),")
    assert code == 0 and json.loads(out)["order"] == ["(2,2)", "(1,1)"]
    for bad in ("(1,1)x", "(1,1) (1,2)", "(1,1", "(1,1))"):
        code, out, err = run(capsys, "morse", "product", "2", "2", "--order", bad)
        assert (code, out) == (3, "") and "error" in err


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


def test_morse_reports_a_cycle_witness_and_exits_1(monkeypatch, capsys):
    """A matching the checker finds cyclic: the witness in labels, no wedge
    conclusion, and the mismatch exit code in both formats."""
    monkeypatch.setattr(cli, "verify_acyclic", lambda matching, K: (False, [(1,), (1, 3)]))
    code, out, _ = run(capsys, "morse", "path", "4")
    d = json.loads(out)
    assert code == 1 and d["acyclic"] is False and d["wedge"] is None
    assert d["cycle_witness"] == [["1"], ["1", "3"]]
    code, out, _ = run(capsys, "morse", "path", "4", "--format", "table")
    assert code == 1 and "acyclic: False" in out and "wedge conclusion" not in out


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
    code, out, _ = run(capsys, "reduce", "cycle", "5", "--format", "table")
    assert (code, out) == (0, "cycle 5: stuck (no rule fired) with 5 vertices left after 0 steps\n")


def test_reduce_budget_exit_code(capsys):
    code, out, _ = run(capsys, "reduce", "path", "30", "--budget", "1")
    assert code == 2
    assert json.loads(out)["stuck"]["reason"] == "budget exhausted"
    # a negative step budget is a usage error, as a negative face budget is
    code, out, err = run(capsys, "reduce", "cycle", "5", "--budget", "-1")
    assert (code, out) == (3, "")
    assert "step budget must be at least 0, got -1" in err
    code, _, _ = run(capsys, "reduce", "cycle", "5", "--budget", "0")
    assert code == 2


def test_reduce_trace_too_deep_for_json_exits_2(capsys):
    """path 1200 splits 400 levels deep: the table prints the sphere, and the
    JSON trace, too deep for the encoder, trips a resource guard instead of
    a traceback."""
    code, out, err = run(capsys, "reduce", "path", "1200", "--format", "table")
    assert (code, out, err) == (0, "path 1200: S^399 (401 steps)\n", "")
    code, out, err = run(capsys, "reduce", "path", "1200")
    assert (code, out) == (2, "")
    assert err.startswith("resource guard: ") and err.count("\n") == 1


@pytest.mark.parametrize("reason,exhausted,code", [
    ("no rule fired", True, 2),
    ("the budget word alone", False, 0),
])
def test_reduce_exit_code_reads_the_typed_kind(monkeypatch, capsys, reason, exhausted, code):
    """The exit code follows Stuck.budget_exhausted, never the reason text."""
    from indtopo.homotopy import Stuck

    monkeypatch.setattr(cli, "reduce_graph",
                        lambda G, budget: (Stuck(G, reason, budget_exhausted=exhausted), []))
    got, out, _ = run(capsys, "reduce", "path", "4")
    assert got == code
    assert json.loads(out)["stuck"]["reason"] == reason


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


def test_run_suites_takes_one_suite_name_as_a_string():
    want = verify.run_suites(["table1"], overrides={"n": [2]}).to_json_dict(deterministic=True)
    for names in ("table1", ("table1",)):
        report = verify.run_suites(names, overrides={"n": [2]})
        assert report.to_json_dict(deterministic=True) == want
    assert [s["suite"] for s in want["suites"]] == ["table1"]
    with pytest.raises(ValueError, match=r"unknown suite\(s\): table;"):
        verify.run_suites("table")


def test_conjecture_records_do_not_depend_on_the_suites_beside_them():
    overrides = {"n": [3, 2, 2]}
    seen = []
    for names in (["conjecture"], ["table1", "conjecture"], ["conjecture", "table1"]):
        report = verify.run_suites(names, overrides=overrides)
        suite = next(s for s in report.suites if s.name == "conjecture")
        seen.append(suite.to_json_dict(deterministic=True))
    assert seen[0] == seen[1] == seen[2]
    assert [r["instance"] for r in seen[0]["records"]] == [
        "conjecture_k2k3kn 3", "conjecture_k2k3kn 2", "conjecture_k2k3kn 2"]


@pytest.mark.parametrize("names", [["conjecture", "table1"], ["table1", "conjecture"]])
def test_each_table1_row_runs_once_per_call(monkeypatch, names):
    calls = []

    def counting(n, kind="window", face_budget=None):
        calls.append((n, kind))
        return check_table1_row(n, kind, face_budget)

    monkeypatch.setitem(verify._JOB_KINDS, "table1", counting)
    report = verify.run_suites(names, overrides={"n": [2, 3]})
    assert sorted(calls) == [(2, "int"), (2, "window"), (3, "int"), (3, "window")]
    assert [len(s.records) for s in report.suites] == [2 if s == "conjecture" else 4
                                                       for s in names]


def test_verify_unpublished_table1_row_is_a_usage_error(capsys):
    for argv in (("table1", "--n", "7"), ("conjecture", "--n", "9")):
        code, _, err = run(capsys, "verify", *argv)
        assert code == 3 and "n = 2..6" in err, (argv, err)


def test_verify_empty_suite_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "product", "--m", "5..2")
    assert code == 3 and "no instances" in err and out == "", err


def test_verify_usage_errors_come_before_any_job(monkeypatch, capsys):
    """A usage error in a later suite, in a later n, an override outside a
    family's domain, a count or job number below 1, or a negative face
    budget stops the run before any instance is computed."""
    calls = []

    def run_job(job):
        calls.append(job)
        raise AssertionError(f"job {job[:2]} ran before the usage error")

    monkeypatch.setattr(verify, "_run_job", run_job)
    for argv in (("all", "--m", "5..2"), ("table1", "--n", "2..7"),
                 ("kn_lr", "product", "--m", "1")):
        code, out, _ = run(capsys, "verify", *argv)
        assert (code, calls, out) == (3, [], ""), argv
    for argv, message in ((("suspension", "--count", "-3"), "count must be at least 1, got -3"),
                          (("morse_homology", "--count", "0"), "count must be at least 1"),
                          (("product", "--jobs", "0"), "jobs must be at least 1, got 0"),
                          (("product", "--jobs", "-2"), "jobs must be at least 1"),
                          (("product", "--budget-faces", "-1"), "face budget must be at least 0")):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, calls, out) == (3, [], "") and message in err, (argv, err)


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
    report = _fake_report(note="face budget exceeded", budget_exhausted=True)
    monkeypatch.setattr(cli, "run_suites", lambda *a, **k: report)
    code, _, _ = run(capsys, "verify", "fake")
    assert code == 2


def test_verify_exit_code_reads_the_typed_budget_flag(monkeypatch, capsys):
    """A gating failure whose note speaks of a budget, but whose flag is unset,
    is a mismatch; the flag stays out of every output format."""
    report = _fake_report(note="stuck: budget exhausted")
    assert not report.suites[0].records[0].budget_exhausted
    monkeypatch.setattr(cli, "run_suites", lambda *a, **k: report)
    code, _, _ = run(capsys, "verify", "fake")
    assert code == 1
    flagged = _fake_report(note="stuck: budget exhausted", budget_exhausted=True)
    assert flagged.to_json_dict() == report.to_json_dict()
    assert flagged.csv_rows() == report.csv_rows()
    assert flagged.render_table() == report.render_table()


@pytest.mark.parametrize("exhausted", [True, False])
def test_gadget_reduce_record_carries_the_stuck_kind(monkeypatch, exhausted):
    from indtopo.homotopy import Stuck

    monkeypatch.setattr(verify, "reduce_graph",
                        lambda G: (Stuck(G, "budget exhausted", budget_exhausted=exhausted), []))
    rec = verify.check_gadget_reduce(3, 3)
    assert not rec.match and rec.note == "stuck: budget exhausted"
    assert rec.budget_exhausted is exhausted


def _budget_json(instance, predicted, predicted_betti, coefficients, window, note):
    return {"instance": instance, "predicted": predicted, "predicted_betti": predicted_betti,
            "computed_betti": {}, "coefficients": coefficients, "window": window,
            "match": False, "conjectural": False, "faces": 0, "torsion": {}, "note": note}


# the deterministic JSON of each budget record below, keyed by instance; a
# record keeps only the fields its checker knew before the enumeration ran out
BUDGET_RECORDS = {j["instance"]: j for j in (
    _budget_json("table1 n=3 (window)", "wedge(14, S^3)", {"3": 14}, "z2", [2, 4],
                 "face budget exceeded: 101 > 100"),
    _budget_json("table1 n=3 (int)", "wedge(14, S^3)", {"3": 14}, "int", None,
                 "face budget exceeded: 101 > 100"),
    _budget_json("mycielskian 3 7", "wedge(12, S^4)", {"4": 12}, "z2", [3, 5],
                 "face budget exceeded: 101 > 100"),
    _budget_json("product 3 3", "wedge(4, S^1)", {"1": 4}, "int", None,
                 "face budget exceeded: 6 > 5"),
    _budget_json("morse product 3 3", None, None, "critical-cells", None,
                 "face budget exceeded: 6 > 5"),
    _budget_json("morse-homology n=3 (1 samples)", None, None, "z2", None,
                 "face budget exceeded: 6 > 5"),
    _budget_json("suspension edgeless 12", None, None, "z2", None,
                 "face budget exceeded: 101 > 100"),
)}

EDGELESS_12 = gr.Graph(range(12))        # 4096 faces


# args end with the face budget; a case with a suite also runs that suite
# through the CLI at the same budget
@pytest.mark.parametrize("check, args, suite, overrides, coefficients, window", [
    (check_table1_row, (3, "window", 100), "table1", ("--n", "3"), "z2", (2, 4)),
    (check_table1_row, (3, "int", 100), "table1", ("--n", "3"), "int", None),
    (check_family_instance, ("mycielskian", (3, 7), "z2", "auto", 100), "mycielskian",
     ("--n", "3", "--r", "7"), "z2", (3, 5)),
    (check_family_int, ("product", (3, 3), 5), None, (), "int", None),
    (check_morse_product, (3, 3, 5), None, (), "critical-cells", None),
    (check_morse_homology_batch, (3, [(gr.cycle(5), [1, 2, 3, 4, 5])], 5), None, (),
     "z2", None),
    (check_suspension_shift, ("suspension", "edgeless 12", EDGELESS_12, EDGELESS_12, 100),
     None, (), "z2", None),
])
def test_face_budget_failure_records(capsys, check, args, suite, overrides,
                                     coefficients, window):
    """A spent face budget gives a failing, timed record of the check."""
    budget = args[-1]
    rec = check(*args)
    assert rec.match is False and not rec.conjectural and rec.budget_exhausted
    assert rec.coefficients == coefficients and rec.window == window
    assert rec.note == f"face budget exceeded: {budget + 1} > {budget}"
    assert rec.seconds > 0 and rec.to_json_dict()["seconds"] == round(rec.seconds, 3)
    assert rec.to_json_dict(deterministic=True) == BUDGET_RECORDS[rec.instance]
    if suite is not None:
        code, _, _ = run(capsys, "verify", suite, *overrides, "--budget-faces", str(budget))
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


@pytest.mark.parametrize("argv", [("betti", "path", "1200"), ("betti", "path", "2000"),
                                  ("morse", "path", "2000"),
                                  ("verify", "paths_cycles", "--n", "2000")])
def test_long_paths_trip_the_default_face_budget(capsys, argv):
    """The count stops at the depth that proves more faces than the budget:
    each route exits 2 with the guard's message, and no recursion error."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    if argv[0] == "verify":
        records = json.loads(out)["suites"][0]["records"]
        assert [r["instance"] for r in records] == ["path 2000", "cycle 2000"]
        assert all(r["note"] == "face budget exceeded: 50000001 > 50000000" for r in records)
    else:
        assert (out, err) == ("", "resource guard: face budget exceeded: 50000001 > 50000000\n")


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


@pytest.mark.parametrize("suites", [("conjecture",), ("table1", "conjecture")])
def test_conjecture_records_keep_their_budget_status(capsys, suites):
    report = verify.run_suites(list(suites), face_budget=10)
    conjecture = report.suites[-1]
    assert conjecture.name == "conjecture" and conjecture.records
    for r in conjecture.records:
        assert r.conjectural and not r.match and r.budget_exhausted
        assert r.note == "face budget exceeded: 11 > 10"
    code, _, _ = run(capsys, "verify", *suites, "--budget-faces", "10",
                     "--strict-conjectures")
    assert code == 2
    # conjectures never gate; table1's own rows still do, and ran out of budget
    code, _, _ = run(capsys, "verify", *suites, "--budget-faces", "10")
    assert code == (2 if "table1" in suites else 0)


def test_family_instance_integer_check_runs_full_range():
    # 21 vertices would get the mod-2 window (5, 7) under z2
    rec = check_family_instance("path", (21,), coefficients="int")
    assert rec.window is None and rec.coefficients == "int"
    assert rec.computed_betti == {6: 1} and rec.torsion == {} and rec.match


def test_unexpected_torsion_fails_the_record(monkeypatch):
    """Betti numbers as predicted, but with torsion: the record fails, keeps
    the torsion and says why."""
    from indtopo.homology import BettiTable

    monkeypatch.setattr(verify, "graph_betti", lambda G, coefficients, face_budget:
                        BettiTable({1: 4}, coefficients, {0: [2]}, faces=16))
    rec = check_family_int("product", (3, 3))
    assert rec.computed_betti == {1: 4} and rec.torsion == {0: [2]}
    assert not rec.match and not rec.budget_exhausted and rec.note == "unexpected torsion"


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

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    report = verify.run_suites(["paths_cycles"], jobs=64, overrides={"n": [3]})
    assert seen == [2] and report.ok
    monkeypatch.setattr(verify.os, "cpu_count", lambda: None)
    verify.run_suites(["paths_cycles"], jobs=64, overrides={"n": [3]})
    assert seen == [2]


def test_verify_on_a_real_two_worker_pool_matches_one_process(monkeypatch):
    from concurrent.futures import ProcessPoolExecutor
    seen, started = [], []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            seen.append(max_workers)
            super().__init__(max_workers=max_workers)

        def __exit__(self, *exc):
            started.append(len(self._processes))
            return super().__exit__(*exc)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    # three suites, one pool
    names, overrides = ["table1", "paths_cycles", "conjecture"], {"n": [3, 4]}
    pooled = verify.run_suites(names, jobs=2, overrides=overrides)
    single = verify.run_suites(names, jobs=1, overrides=overrides)
    assert seen == [2] and 1 <= started[0] <= 2
    assert pooled.ok
    assert pooled.to_json_dict(deterministic=True) == single.to_json_dict(deterministic=True)


def test_verify_conjectural_failure_gates_only_when_strict(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_suites",
                        lambda *a, **k: _fake_report(conjectural=True))
    code, _, _ = run(capsys, "verify", "fake")
    assert code == 0
    code, out, _ = run(capsys, "verify", "fake", "--format", "table")
    assert code == 0
    assert "  [FAIL (conjectural)] fake 1: predicted S^1, computed b1=2\n" in out
    assert out.endswith("result: PASS\n")


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "verify", "paths_cycles", "--n", "3",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("suite,instance,")
    assert len(lines) == 3


# -- top-level plumbing -------------------------------------------------------

def test_face_budget_flag_only_where_a_face_guard_runs(capsys):
    for argv in (("gen", "cycle", "6"), ("reduce", "cycle", "6")):
        code, out, err = run(capsys, *argv, "--budget-faces", "1")
        assert (code, out) == (3, "") and "--budget-faces" in err
        assert run(capsys, *argv)[0] == 0
    for argv in (("betti", "cycle", "6"), ("morse", "cycle", "6"),
                 ("verify", "paths_cycles", "--n", "6")):
        assert run(capsys, *argv, "--budget-faces", "1")[0] == 2


def test_deterministic_and_csv_flags_only_where_they_act(capsys):
    """--deterministic is verify's; morse and reduce print json or table only."""
    for argv in (("gen", "cycle", "6"), ("betti", "cycle", "6"),
                 ("morse", "cycle", "6"), ("reduce", "cycle", "6")):
        code, out, err = run(capsys, *argv, "--deterministic")
        assert (code, out) == (3, "") and "--deterministic" in err
    for argv in (("morse", "cycle", "6"), ("reduce", "cycle", "6")):
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert (code, out) == (3, "") and "--format" in err
        assert run(capsys, *argv, "--format", "table")[0] == 0
    for argv in (("gen", "cycle", "6"), ("betti", "cycle", "6"),
                 ("verify", "paths_cycles", "--n", "6", "--deterministic")):
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0 and out

def test_usage_errors_exit_3(capsys):
    assert run(capsys, "betti", "--coeff", "garbage", "path", "3")[0] == 3
    for window in (("3", "1"), ("-1", "2")):
        code, out, err = run(capsys, "betti", "path", "5", "--window", *window)
        assert (code, out) == (3, "") and f"error: bad window ({', '.join(window)})" in err
    assert run(capsys, "frobnicate")[0] == 3
    assert run(capsys)[0] == 3


def test_missing_file_is_a_usage_error(capsys):
    code, _, err = run(capsys, "betti", "--file", "/nonexistent/g.json")
    assert code == 3 and "error" in err


MALFORMED_GRAPH_FILES = {
    "negative.edges": "2 -1 1\na\nb\n",
    "list.json": "[1, 2]",
    "no_vertices.json": '{"edges": []}',
    "short_edge.json": '{"vertices": [1, 2], "edges": [[1]]}',
}


@pytest.mark.parametrize("name", MALFORMED_GRAPH_FILES)
def test_malformed_graph_file_is_a_usage_error(tmp_path, capsys, name):
    path = tmp_path / name
    path.write_text(MALFORMED_GRAPH_FILES[name])
    code, out, err = run(capsys, "betti", "--file", str(path))
    assert (code, out) == (3, "") and err.startswith("error: "), err


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
