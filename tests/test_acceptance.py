"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (to the real stderr, so the
lines survive pytest's capture) and asserts both the checked facts and
the stated runtime budget.  All comparisons are exact.
"""

import io
import time
from contextlib import redirect_stdout

from _acceptance_report import record

from nanocob.algebra import InvolutiveAlphabet
from nanocob.cli import main as cli_main
from nanocob.explorer import (
    SLICE,
    classify,
    length_norm_bounds,
    suite_bridge_inequality,
    suite_genus_rank,
    suite_inequalities,
    suite_move_invariance,
    suite_sandwich,
    suite_surgery_filling,
)
from nanocob.moves import Caps, Factor
from nanocob.pairings import (
    filling_is_annihilating,
    format_vector,
    is_hyperbolic,
    pairing_of_nanoword,
    u_degree,
    u_polynomial_of_nanoword,
)
from nanocob.words import Nanoword

GENERIC3 = "alphabet: a x b y c z;tau: a<->x b<->y c<->z"


def _report(number: int, ok: bool, label: str, elapsed: float) -> None:
    line = record(number, ok, label, elapsed)
    assert ok, line


def three_free():
    return InvolutiveAlphabet.fixed_point_free(("a", "b", "c"), ("A", "B", "C"))


def two_orbit():
    return InvolutiveAlphabet.fixed_point_free(("a", "b"), ("A", "B"))


def ac_ground():
    return InvolutiveAlphabet.fixed_point_free(("a", "c"), ("A", "C"))


def test_criterion_1_reference_matrix_via_cli():
    start = time.monotonic()
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli_main(
            [
                "pairing",
                "--alphabet",
                GENERIC3,
                "--word",
                "ABCBAC",
                "--proj",
                "A=a B=b C=c",
            ]
        )
    rows = [line.split("\t") for line in buffer.getvalue().splitlines() if line.strip()]
    table = {r[0]: r[1:] for r in rows[1:]}
    ok = (
        code == 0
        and rows[0][1:] == ["s", "A", "B", "C"]
        and table["s"] == ["0", "-c", "-c", "a+b"]
        and table["A"] == ["c", "0", "0", "a+2b+c"]
        and table["B"] == ["c", "0", "0", "b+c"]
        and table["C"] == ["-a-b", "-a-2b-c", "-b-c", "0"]
    )
    elapsed = time.monotonic() - start
    _report(1, ok and elapsed < 1.0, "pairing matrix of ABCBAC emitted exactly", elapsed)


def test_criterion_2_hyperbolicity_witnesses():
    start = time.monotonic()
    ground = ac_ground()
    w = Nanoword.from_names(ground, "ABCADCBD", {"A": "a", "B": "A", "C": "c", "D": "c"})
    p = pairing_of_nanoword(w)
    witness = is_hyperbolic(p)
    named = tuple(format_vector(p, v) for v in witness) if witness else ()
    specific = (
        ((0, 1),),
        ((1, 1), (2, -1)),
        ((3, 1), (4, 1)),
    )  # s, A-B, C+D
    first_ok = (
        witness is not None
        and named == ("s", "A-B", "C+D")
        and filling_is_annihilating(p, specific)
    )
    elapsed_first = time.monotonic() - start

    start2 = time.monotonic()
    w2 = Nanoword.from_names(
        three_free(), "ABCBAC", {"A": "a", "B": "b", "C": "c"}
    )
    second_ok = is_hyperbolic(pairing_of_nanoword(w2)) is None
    elapsed_second = time.monotonic() - start2
    ok = first_ok and second_ok and elapsed_first < 1.0 and elapsed_second < 1.0
    _report(
        2,
        ok,
        "hyperbolic witness {s, A-B, C+D} and complete non-hyperbolicity",
        elapsed_first + elapsed_second,
    )


def test_criterion_3_surgery_cobordance():
    start = time.monotonic()
    result = suite_surgery_filling(seed=0, count=500, max_length=14)
    elapsed = time.monotonic() - start
    _report(
        3,
        result.passed and result.checked >= 500 and elapsed < 60.0,
        f"surgery filling relations on {result.checked} random instances",
        elapsed,
    )


def test_criterion_4_move_invariance():
    start = time.monotonic()
    result = suite_move_invariance(seed=0, count=1250)  # 1000 moves + 250 shifts
    elapsed = time.monotonic() - start
    _report(
        4,
        result.passed and result.checked >= 1250 and elapsed < 120.0,
        f"invariants constant across {result.checked} random moves and shifts",
        elapsed,
    )


def test_criterion_5_genus_rank_identity():
    start = time.monotonic()
    result = suite_genus_rank(max_half_length=5)
    elapsed = time.monotonic() - start
    _report(
        5,
        result.passed and result.checked == 32055 and elapsed < 120.0,
        f"rank equals doubled genus on all {result.checked} sign words",
        elapsed,
    )


def test_criterion_6_inequality_suites():
    start = time.monotonic()
    triangle = suite_inequalities(seed=0, triples=100, pairs=100)
    sandwich = suite_sandwich(seed=0, pairs=100, s_bound=2)
    bridges = suite_bridge_inequality(seed=0, words=200)
    elapsed = time.monotonic() - start
    ok = (
        triangle.passed
        and sandwich.passed
        and bridges.passed
        and triangle.checked >= 200
        and sandwich.checked >= 100
        and bridges.checked >= 200
        and elapsed < 300.0
    )
    _report(
        6,
        ok,
        "triangle, subadditivity, sandwich, and bridge inequalities clean",
        elapsed,
    )


def test_criterion_7_classification():
    start = time.monotonic()
    ground = two_orbit()
    table = classify(2, ground, allow_large=True)
    linked = {
        tuple(r.record.word.proj): r
        for r in table.rows
        if r.record.word.canonical_form().letter_seq() == ("L1", "L2", "L1", "L2")
    }
    ok = len(linked) == 16
    for (pa, pb), row in linked.items():
        if ground.orbit_rep(pa) == ground.orbit_rep(pb):
            ok = ok and row.verdict.status == SLICE
        else:
            ok = ok and row.verdict.status != SLICE
    non_slice = [r for r in linked.values() if r.verdict.status != SLICE]
    ok = ok and len(non_slice) == 8
    for r1 in non_slice:
        for r2 in non_slice:
            expected = "cobordant" if r1.index == r2.index else "distinct"
            ok = ok and table.pair_status(r1.index, r2.index) == expected

    ground2 = ac_ground()
    w = Nanoword.from_names(
        ground2, "ABACDCDB", {"A": "a", "B": "a", "C": "c", "D": "c"}
    )
    from nanocob.explorer import slice_status

    verdict = slice_status(w)
    ok = (
        ok
        and verdict.status == SLICE
        and [m.kind for m in verdict.witness.moves] == ["SURG", "SURG"]
        and verdict.witness.replay(w).length == 0
    )
    elapsed = time.monotonic() - start
    _report(
        7,
        ok and elapsed < 60.0,
        "length-4 classification and the replayable 2-surgery witness",
        elapsed,
    )


def test_criterion_8_length_norm_bounds():
    start = time.monotonic()
    w = Nanoword.from_names(
        three_free(), "ABCBAC", {"A": "a", "B": "b", "C": "c"}
    )
    u = u_polynomial_of_nanoword(w)
    degree_bound = u_degree(u, "c") + 1
    bounds6 = length_norm_bounds(w, Caps(bfs_nodes=500, bfs_length=8))
    linked = Nanoword.from_names(two_orbit(), "ABAB", {"A": "a", "B": "b"})
    bounds4 = length_norm_bounds(linked, Caps(bfs_nodes=500, bfs_length=6))
    ok = degree_bound == 3 and bounds6 == (3, 3) and bounds4 == (2, 2)
    elapsed = time.monotonic() - start
    _report(8, ok, "length norms 3 and 2 recovered exactly", elapsed)
