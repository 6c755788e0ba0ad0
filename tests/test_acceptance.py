"""Acceptance gate: one test per numbered criterion of the verification contract.

Each test drives the corresponding `indtopo verify` suite at its default
parameter ranges and seed, then pins the headline numbers as exact integers;
one more pins the bytes of the `indtopo verify all` JSON built from them.
Run with `pytest -v tests/test_acceptance.py` for a pass/fail line per
criterion, or `indtopo verify all` for the same checks outside pytest.
"""

import hashlib
import json
import re

from indtopo.verify import SUITES, TABLE1_ROWS, VerificationReport, run_suites

SEED = 7

_RESULTS = {}


def _suite(name):
    if name not in _RESULTS:
        # table1 and conjecture share their heavy windowed computations
        group = ["table1", "conjecture"] if name in ("table1", "conjecture") else [name]
        report = run_suites(group, seed=SEED)
        for s in report.suites:
            _RESULTS[s.name] = s
    return _RESULTS[name]


def _gate(suite, extra_ok=True, detail=""):
    ok = suite.gating_failures == 0 and extra_ok
    verdict = "PASS" if ok else "FAIL"
    line = (f"criterion {suite.criterion} [{suite.name}]: {verdict} "
            f"({suite.passed}/{len(suite.records)} instances)")
    print(line)
    if not ok:
        bad = [f"{r.instance}: {r.note or 'mismatch'}"
               for r in suite.records if not r.match]
        line += "\n" + "\n".join(bad[:10]) + ("\n" + detail if detail else "")
    assert ok, line


def _params(record):
    return [int(x) for x in re.findall(r"-?\d+", record.instance)]


def test_criterion_01_table_rows():
    suite = _suite("table1")
    windowed = [r for r in suite.records if "(window)" in r.instance]
    rows = {_params(r)[1]: r.computed_betti.get(3) for r in windowed}
    assert rows == TABLE1_ROWS == {2: 4, 3: 14, 4: 30, 5: 52, 6: 80}
    for r in windowed:
        assert r.window == (2, 4)
        assert r.computed_betti[2] == 0 and r.computed_betti[4] == 0
    integral = sorted((r for r in suite.records if "(int)" in r.instance),
                      key=lambda r: r.instance)
    assert [_params(r)[1] for r in integral] == [2, 3]
    for r in integral:
        assert r.computed_betti == {3: TABLE1_ROWS[_params(r)[1]]}
        assert r.torsion == {}
    _gate(suite)


def test_criterion_02_product_integer_homology():
    suite = _suite("product")
    assert len(suite.records) == 16
    for r in suite.records:
        m, n = _params(r)
        assert r.coefficients == "int" and r.window is None
        assert r.computed_betti == {1: (m - 1) * (n - 1)}
        assert r.torsion == {}
    _gate(suite)


def test_criterion_03_morse_certificate_on_products():
    suite = _suite("morse")
    assert len(suite.records) == 25
    for r in suite.records:
        m, n = _params(r)
        assert r.computed_betti == {1: (m - 1) * (n - 1)}
        assert "critical set exact" in r.note
    _gate(suite)


def test_criterion_04_mycielskian_case_split():
    suite = _suite("mycielskian")
    assert len(suite.records) == 12
    residues = {_params(r)[1] % 3 for r in suite.records}
    assert residues == {0, 1, 2}
    spot = {tuple(_params(r)): r.predicted for r in suite.records}
    assert spot[(4, 4)] == "wedge(12, S^2)"
    assert spot[(4, 5)] == "wedge(9, S^3)"
    _gate(suite)


def test_criterion_05_kn_lr_case_split():
    suite = _suite("kn_lr")
    assert len(suite.records) == 21
    contractible = [r for r in suite.records if r.predicted == "point"]
    assert len(contractible) == 6      # r = 1, 4 for each n
    for r in contractible:
        assert r.computed_betti == {} or not any(r.computed_betti.values())
    _gate(suite)


def test_criterion_06_gadget_case_split_and_reductions():
    suite = _suite("gadget")
    betti = [r for r in suite.records if r.instance.startswith("gadget")]
    reductions = [r for r in suite.records if r.instance.startswith("reduce")]
    assert len(betti) == 14 and len(reductions) == 4
    assert all(_params(r)[1] % 3 == 0 for r in reductions)
    assert all(r.predicted == "point" for r in reductions)
    _gate(suite)


def test_criterion_07_suspension_shifts():
    suite = _suite("suspension")
    kinds = {}
    for r in suite.records:
        kinds[r.instance.split()[0]] = kinds.get(r.instance.split()[0], 0) + 1
    assert kinds == {"mycielskian-2": 25, "ladder-crossing": 25, "ladder-triangle": 25}
    _gate(suite)


def test_criterion_08_cycle_ladder_case_split():
    suite = _suite("cycle_ladder")
    assert len(suite.records) == 36
    assert {tuple(_params(r)) for r in suite.records} == {
        (n, i) for n in range(3, 12) for i in range(1, 5)}
    _gate(suite)


def test_criterion_09_path_and_cycle_formulas():
    suite = _suite("paths_cycles")
    assert len(suite.records) == 28
    spot = {r.instance: r.predicted for r in suite.records}
    assert spot["path 7"] == "point"
    assert spot["cycle 9"] == "wedge(2, S^2)"
    _gate(suite)


def test_criterion_10_morse_homology_consistency():
    suite = _suite("morse_homology")
    sizes = [int(re.search(r"\((\d+) samples\)", r.instance).group(1))
             for r in suite.records]
    assert sum(sizes) == 5000
    assert max(_params(r)[0] for r in suite.records) == 6
    _gate(suite)


def test_criterion_11_conjectured_product_formula():
    suite = _suite("conjecture")
    assert all(r.conjectural for r in suite.records)
    # the family name contains digits, so take the trailing parameter
    rows = {_params(r)[-1]: r.computed_betti.get(3) for r in suite.records}
    assert rows == TABLE1_ROWS
    for r in suite.records:
        n = _params(r)[-1]
        assert r.predicted_betti == {3: (n - 1) * (3 * n - 2)}
    _gate(suite)


# `indtopo verify all --deterministic --format json` at the default ranges
VERIFY_ALL_SHA1 = "bf60e10d55dc40881d9007f32e7f01fa37bd58be"
VERIFY_ALL_BYTES = 106_492


def test_verify_all_json_bytes_are_pinned():
    report = VerificationReport([_suite(name) for name in SUITES], SEED)
    text = json.dumps(report.to_json_dict(deterministic=True), indent=2, sort_keys=True) + "\n"
    got = (hashlib.sha1(text.encode()).hexdigest(), len(text.encode()))
    assert got == (VERIFY_ALL_SHA1, VERIFY_ALL_BYTES), (
        f"verify all JSON is now {got}: diff `indtopo verify all --deterministic "
        f"--format json` against the parent commit's output; if a record changed on "
        f"purpose, update the hash and length here and say so in CHANGES.md")
