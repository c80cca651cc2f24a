"""Acceptance gate: every criterion at its stated tolerance.

Each test runs the relevant verification suites, prints one pass/fail line
(run pytest with ``-s`` to see them all), and asserts zero disagreements
within the stated wall-clock budget.
"""

from kings.reductions import verify_suite


def _run(num, limit_s, suites, **kw):
    reports = [verify_suite(s, **kw) for s in suites]
    total = sum(r.total for r in reports)
    disagree = sum(r.disagreements for r in reports)
    elapsed = sum(r.elapsed for r in reports)
    status = "PASS" if disagree == 0 and elapsed < limit_s else "FAIL"
    print(f"ACCEPTANCE {num:2d} {status}: {total - disagree}/{total} agree, "
          f"{elapsed:.1f}s (limit {limit_s}s) [{', '.join(suites)}]")
    for r in reports:
        if not r.passed:
            print(r.to_text())
    assert elapsed < limit_s, f"criterion {num} runtime {elapsed:.1f}s over {limit_s}s"
    assert disagree == 0, (f"criterion {num}: {disagree} disagreements; "
                           f"see printed suite reports")
    return reports


def test_criterion_01_forall_exists_oracle_equivalence():
    _run(1, 60, ["claim2.2:n=1", "claim2.2:n=2"])


def test_criterion_02_full_forall_exists_weave():
    _run(2, 300, ["weave-pi2:m=12"])


def test_criterion_03_tautology_side_facts_and_weave():
    _run(3, 60, ["claim2.8", "weave-conp:m=8"])


def test_criterion_04_satisfiability_side_facts_and_weave():
    _run(4, 60, ["claim2.11", "weave-np:m=9"])


def test_criterion_05_three_king_weave_over_catalog():
    _run(5, 600, ["weave-kkings:k=3:m=13"])


def test_criterion_06_antenna_instances():
    _run(6, 30, ["antenna:k=2", "antenna:k=3", "antenna:k=4", "antenna:k=5"])


def test_criterion_07_every_small_tournament_has_a_king():
    _run(7, 10, ["landau:n<=5"])


def test_criterion_08_multipartite_recognizer_equivalence():
    _run(8, 60, ["patterns-eq"])


def test_criterion_09_fast_multipartite_1king():
    _run(9, 30, ["lemma4.2"])


def test_criterion_10_two_part_instances_and_lifts():
    _run(10, 180, ["lemma4.3:n=1", "lemma4.3:n=2", "lemma4.4", "lemma4.5"])


def test_criterion_11_multipartite_fourking_dichotomy():
    _run(11, 30, ["fourking-mpt"])


def test_criterion_12_max_family_associativity():
    _run(12, 10, ["assoc-max"])


def test_tautology_weave_at_length_13():
    # beyond the acceptance gate: the same weave checks on 8192 nodes
    _run(0, 900, ["weave-conp:m=13"])
