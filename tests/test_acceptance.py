"""Acceptance gate: every criterion at its stated tolerance.

Each test runs the relevant verification suites, prints one pass/fail line
(run pytest with ``-s`` to see them all), and asserts zero disagreements
within the stated wall-clock budget and records equal to the pinned ones.
"""

import hashlib
import re

from kings.reductions import verify_suite

# sha256 of each suite's records (``kings verify --records``) with the
# elapsed time taken out, one record a line: every verdict and count pinned
_RECORD_DIGESTS = {
    "antenna:k=2":
        "81b0d971b0e90074aef624f7117a85e3998f36b4d14ed9e18ce47a203b446580",
    "antenna:k=3":
        "2b349b917b152b4e0b63f5d44898c3ac4b930c02035335ac05db78f87bb85d32",
    "antenna:k=4":
        "5b3551284d5f1f8f05db530fc577b6479d2063a3c57ec9769d67c322e57b1c27",
    "antenna:k=5":
        "e74348e55f45a15e36f7075c0bf1266291b4903c34de47cd0acfe92f96bc76fd",
    "assoc-max":
        "9cc9ddebc65fc88ea4e7a30929b4bbd89d4a6a29b8f0b027192b02e637fb4a4a",
    "claim2.11":
        "dc52f856dff15b6c5466266f6e9e7a83d59332517aa4dba588093a86c66cdadd",
    "claim2.2:n=1":
        "bf38138ab4325ac2011a33c0efdf3480c9ce0fa7868e96185068f512ad5dfc69",
    "claim2.2:n=2":
        "955484bb546d18e34a80946d15a4bc1ec95f43026ee2cae97fdab7a510e09547",
    "claim2.8":
        "dd523757420cd032463dffd6fba839d2eda2485de1dbbfb09a25df1b21fa5275",
    "fourking-mpt":
        "2545e838aae393427961f14aed44ce610b0f59b09aa1ddead9af28459a56523d",
    "landau:n<=5":
        "8a5d706d4fb269a14286dc359d6a41b31a12cca036d753911bf9ed4cdfb6fa3f",
    "lemma4.2":
        "49f6b3567b12b391c4cab15354140ee51b775fd18c2aa679d11deb188ff2a8d1",
    "lemma4.3:n=1":
        "26973dd5cb83b6e31e31cfba3367e47653e155b6be3505aa4e753290f0561e7b",
    "lemma4.3:n=2":
        "a49800345c900a554a0659ccf816c77003611f8770e69047ba7ca664832b3773",
    "lemma4.4":
        "282c1e6690b3fcb1da5428caa651cf7baa28de6ef8d29c36035e13c4276041f5",
    "lemma4.5":
        "f3bbee89a49c51a89d96c3c4fb569ab402c2357c908bd512579292f2fba0c14f",
    "patterns-eq":
        "d4b2f7de98dce3d52b3499d413dc7204280ada5acabf4e9bd6417aed9907acdd",
    "weave-conp:m=13":
        "894546181848f676e10ac04127d5159ee2119fc9e0f4975cb98a53b21e6c5452",
    "weave-conp:m=8":
        "54b3d96bfe88830bfe6868130d2a8e603862393b816b850333bed6b13e4dd94c",
    "weave-kkings:k=3:m=13":
        "2d3adbc7e362380c86ce6e7d981a775b1f31068cc1974c063c3bdcf43bed392f",
    "weave-np:m=9":
        "3f3a6adf332fb26fd902ca710b21c0cf17c7d4686c9a96bc680f55f6311264ca",
    "weave-pi2:m=12":
        "76477a4cff9d6dc08bf3ecc229a0785833e800fbe3bc9848aa2467e3c69bdd05",
}


def _records_digest(report):
    records = (re.sub(r" elapsed=\S+", "", rec) for rec in report.to_records())
    return hashlib.sha256("\n".join(records).encode()).hexdigest()


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
    for r in reports:
        assert _records_digest(r) == _RECORD_DIGESTS[r.suite], f"{r.suite} records changed"
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
