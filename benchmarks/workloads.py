"""The benchmark's workloads: each builds a fixed list of checked operations.

A workload's ``build(pkg, seed)`` is its set-up: it makes every input
(graphs, sweep orders, suite job lists) for the package ``pkg`` (indtopo,
or the frozen reference copy) and returns a list of ``Op``.  Running an op
calls the package's public API once and checks the result against an
independent expectation; it returns None when the output is right and a
short description of the fault otherwise.

Every call into the package looks its function up on the module at call
time, so a tracer that rebinds module attributes sees the call.
"""

from dataclasses import dataclass
from typing import Callable

# The published third Betti numbers of Ind(K_2 x K_3 x K_n), n = 2..6.
PUBLISHED_B3 = {2: 4, 3: 14, 4: 30, 5: 52, 6: 80}

TABLE1_MAX_N = 5
INTEGER_MAX_N = 7        # largest K_n of the integer workload's products

# The nine small gating suites that make up the verify_mix workload.
MIX_SUITES = ("product", "morse", "mycielskian", "kn_lr", "gadget", "suspension",
              "cycle_ladder", "paths_cycles", "morse_homology")
# Overrides of the suites' default ranges in verify_mix.  They drop the few
# instances of 1-2.4 s each (Mycielskian r = 6, 7; gadget t = 7; kn_lr r = 6;
# three quarters of the random n = 6 batch), over two thirds of the batch's
# seconds, so that the batch repeats several times in a run and no single call
# outweighs the thousands of small ones.
MIX_OPTIONS = {
    "mycielskian": {"r": range(2, 6)},
    "gadget": {"t": range(1, 7)},
    "kn_lr": {"r": range(0, 6)},
    "morse_homology": {"count": 2000},
}

# certify: wedge conclusions on K_2 x K_3 x K_n up to CERTIFY_WEDGE_MAX_N and
# matchings on K_m x K_n for 2 <= m <= n <= CERTIFY_PRODUCT_MAX_N.  The n = 5
# wedge (71,408 faces) is one 3 s call and was left out for the same reason as
# the n = 6 row of table1.
CERTIFY_WEDGE_MAX_N = 4
CERTIFY_PRODUCT_MAX_N = 9

# suite job kind -> public checker in indtopo.verify
_CHECKERS = {
    "family": "check_family_instance",
    "family_int": "check_family_int",
    "table1": "check_table1_row",
    "morse_product": "check_morse_product",
    "gadget_reduce": "check_gadget_reduce",
    "suspension": "check_suspension_shift",
    "morse_homology": "check_morse_homology_batch",
}


@dataclass
class Op:
    """One attempted operation: ``run()`` returns None, or what went wrong."""

    label: str
    run: Callable[[], "str | None"]


def _nonzero(betti: dict) -> dict:
    return {d: v for d, v in sorted(betti.items()) if v}


def _expected_betti(pkg, family: str, params: tuple) -> dict:
    spec = pkg.families.FamilySpec(family, params)
    return pkg.homotopy.predict(spec).homotopy.betti()


def _check_record(pkg, kind: str, args: tuple, rec) -> "str | None":
    """Compare one suite record with an expectation computed here."""
    if not rec.match:
        return f"record reports a mismatch: {rec.note}"
    if kind in ("family", "family_int"):
        expected = _expected_betti(pkg, *args)
        if rec.torsion:
            return f"unexpected torsion {rec.torsion}"
        if rec.window is None:
            if _nonzero(rec.computed_betti) != _nonzero(expected):
                return f"betti {rec.computed_betti} != predicted {expected}"
        else:
            lo, hi = rec.window
            if any(rec.computed_betti.get(d, 0) != expected.get(d, 0)
                   for d in range(lo, hi + 1)):
                return f"betti {rec.computed_betti} != predicted {expected} in {rec.window}"
    elif kind == "table1":
        (n,) = args
        row = PUBLISHED_B3[n]
        want = {2: 0, 3: row, 4: 0} if rec.window is not None else {3: row}
        if rec.computed_betti != want or rec.torsion:
            return f"table1 n={n}: {rec.computed_betti} torsion {rec.torsion}, want {want}"
    elif kind == "morse_product":
        m, n = args
        want = _expected_betti(pkg, "product", (m, n))
        if rec.computed_betti != want:
            return f"critical counts {rec.computed_betti} != {want}"
    return None


def _job_op(pkg, kind: str, args: tuple, kwargs: dict) -> Op:
    name = _CHECKERS[kind]

    def run():
        rec = getattr(pkg.verify, name)(*args, **kwargs)
        return _check_record(pkg, kind, args, rec)

    label = " ".join([kind] + [str(a) for a in args if isinstance(a, (int, str, tuple))])
    return Op(label, run)


def _suite_jobs(pkg, name: str, seed: int, **overrides) -> list:
    _, builder, _ = pkg.verify.SUITES[name]
    return builder({"seed": seed, "face_budget": None, **overrides})


def _wedge_op(pkg, n: int, G, order) -> Op:
    want = pkg.homotopy.HomotopyType.sphere(3, (n - 1) * (3 * n - 2))
    spec = pkg.families.FamilySpec("conjecture_k2k3kn", (n,))
    predicted = pkg.homotopy.predict(spec).homotopy

    def run():
        K = pkg.complexes.independence_complex(G)
        matching = pkg.morse.element_matching(K, order)
        got = pkg.morse.wedge_conclusion(matching, K)
        if got != want or got != predicted:
            return f"wedge conclusion {got} != {want}"
        return None

    return Op(f"wedge K2xK3xK{n}", run)


def _reduce_op(pkg, spec, G) -> Op:
    predicted = pkg.homotopy.predict(spec).homotopy

    def run():
        result, _trace = pkg.homotopy.reduce(G)
        if isinstance(result, pkg.homotopy.Stuck):
            return None  # an honest give-up is not a wrong answer
        if result != predicted:
            return f"reduce gave {result.render()}, predicted {predicted.render()}"
        return None

    return Op("reduce " + spec.describe(), run)


# -- workloads -------------------------------------------------------------------

def build_table1(pkg, seed: int) -> list:
    # Rows n <= 5 only: the n = 6 window is one 17-30 s gf2_rank call, and a
    # single call that long cannot be timed steadily beside its reference on a
    # shared machine (its ratio spread was 0.31 over ten runs).
    return [_job_op(pkg, kind, args, kwargs)
            for kind, args, kwargs in _suite_jobs(pkg, "table1", seed)
            if args[0] <= TABLE1_MAX_N]


def build_integer(pkg, seed: int) -> list:
    # Ind(K_2 x K_3 x K_3) rather than K_4: the K_4 complex is one 7-8 s
    # elimination, too long a single call to time steadily beside its
    # reference (its ratio spread reached 0.26 over ten runs).  Products up to
    # K_7 x K_7 make up the work instead, in calls of at most 0.3 s.
    ops = [_job_op(pkg, "table1", (3,), {"kind": "int", "face_budget": None})]
    ops += [_job_op(pkg, *job) for job in _suite_jobs(pkg, "product", seed)]
    ops += [_job_op(pkg, "family_int", ("product", (m, n)), {"face_budget": None})
            for n in range(6, INTEGER_MAX_N + 1) for m in range(2, n + 1)]
    return ops


def build_certify(pkg, seed: int) -> list:
    ops = []
    for n in range(2, CERTIFY_WEDGE_MAX_N + 1):
        G = pkg.families.build_graph(pkg.families.FamilySpec("conjecture_k2k3kn", (n,)))
        ops.append(_wedge_op(pkg, n, G, list(G.vertices)))
    ops += [_job_op(pkg, "morse_product", (m, n), {})
            for m in range(2, CERTIFY_PRODUCT_MAX_N + 1)
            for n in range(m, CERTIFY_PRODUCT_MAX_N + 1)]
    return ops


def build_verify_mix(pkg, seed: int) -> list:
    ops = []
    family_specs = []
    for name in MIX_SUITES:
        for kind, args, kwargs in _suite_jobs(pkg, name, seed, **MIX_OPTIONS.get(name, {})):
            ops.append(_job_op(pkg, kind, args, kwargs))
            if kind in ("family", "family_int"):
                family_specs.append(pkg.families.FamilySpec(*args))
    for spec in family_specs:
        ops.append(_reduce_op(pkg, spec, pkg.families.build_graph(spec)))
    return ops


WORKLOADS = {
    "table1": build_table1,
    "integer": build_integer,
    "certify": build_certify,
    "verify_mix": build_verify_mix,
}
