"""Acceptance gate: one test per criterion, each run by named ``verify`` checks.

Each test prints one ``ACCEPTANCE criterion-N: PASS/FAIL`` line (visible
with ``pytest -s``); tolerances are exact unless a runtime bound is part
of the criterion, in which case the wall-clock time of its checks is
asserted too.
"""

import time

from poslog.verify import SUITES, iso_representatives, small_posets

CHECKS = {name: fn for checks in SUITES.values() for name, fn in checks}

# criterion -> (checks, runtime bound in seconds or None, summary).  The
# summary may use %(pairs)s (the count the first check reports), %(posets)d
# (posets <= 3), %(types)d (isomorphism types <= 4) and %(elapsed).1f.
CRITERIA = {
    1: (("lifting-oracle-equivalence",), 60.0,
        "%(pairs)s generic/closed pairs isomorphic (projection-compatible) "
        "in %(elapsed).1fs (< 60s)"),
    2: (("convex-powerset-form",), None,
        "7 convex subsets of the 3-chain under the lifted order; convex "
        "closure idempotent and class-preserving on chains <= 4"),
    3: (("analytic-antisymmetry",), None,
        "multiset lifting antisymmetric with identity quotient on %(posets)d "
        "posets <= 3"),
    4: (("family-order",), None,
        "{{p,q}} < {{q},{p,q}} strictly; family comparison equals "
        "the closure of the generic lifting on all posets <= 3"),
    5: (("neighbourhood-collapse",), None,
        "families collapse to 2^2^components, discretely, on %(types)d posets "
        "<= 4 (every isomorphism type)"),
    6: (("normal-modal-closed-form", "positive-modal-axioms",
         "positivication-dual-to-posetification"), 30.0,
        "inserter matches upsets-of-convex-lifting and all positive modal "
        "axioms hold on %(posets)d spectra <= 3; lifting of the 3-element "
        "chain has 8 elements (%(elapsed).1fs < 30s)"),
    7: (("free-modality-closed-form", "free-modality-side-condition"), 300.0,
        "16-element lifting = free algebra over the 2-element Boolean "
        "kernel; box of the middle element rejected; sweep %(elapsed).1fs "
        "(< 300s)"),
    8: (("boolean-agreement",), None,
        "lifting at Boolean algebras <= 2 atoms agrees with the included "
        "image, for both syntax functors"),
    9: (("component-injective", "lifted-component-injective"), None,
        "semantic component injective at all sets <= 3; lifted component "
        "injective at all posets <= 3 with saturation asserted throughout"),
    10: (("semantics-coherence", "discrete-agreement"), 60.0,
         "direct and lifted-component semantics agree (exhaustive modal "
         "predicates <= 3, exhaustive models <= 2 at depth 3); positive "
         "satisfaction sets are upsets; boolean agreement on discrete "
         "carriers (%(elapsed).1fs < 60s)"),
}


def accept(n: int) -> None:
    checks, bound, summary = CRITERIA[n]
    t0 = time.time()
    outcomes = [(name, *CHECKS[name]()) for name in checks]
    elapsed = time.time() - t0
    failed = [f"{name}: {detail}" for name, ok, detail in outcomes if not ok]
    ok = not failed and (bound is None or elapsed < bound)
    line = summary % {"pairs": outcomes[0][2].split()[0], "elapsed": elapsed,
                      "posets": len(small_posets(3)),
                      "types": len(iso_representatives(4))}
    print(f"\nACCEPTANCE criterion-{n}: {'PASS' if ok else 'FAIL'} - {line}")
    assert ok, failed or line


def test_criterion_1_posetification_oracle_equivalence():
    accept(1)


def test_criterion_2_powerset_closed_form():
    accept(2)


def test_criterion_3_analytic_antisymmetry():
    accept(3)


def test_criterion_4_mnb_order():
    accept(4)


def test_criterion_5_neighbourhood_collapse():
    accept(5)


def test_criterion_6_normal_modal_positivication():
    accept(6)


def test_criterion_7_free_modality_positivication():
    accept(7)


def test_criterion_8_boolean_agreement():
    accept(8)


def test_criterion_9_completeness_transfer():
    accept(9)


def test_criterion_10_semantics_coherence():
    accept(10)
