"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is exact (integer equality) except the stated wall-clock
bounds.  Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import itertools
import random
import re
import time
from pathlib import Path

import numpy as np

from qcab import torus
from qcab.braid import (
    IndexSequence,
    alternating,
    build_seed,
    detect_move,
    g2_exhaustive_certify,
    min_window,
    swap_block,
    unfold,
    verify_move_on_seed,
)
from qcab.cartan import build_cartan
from qcab.gvectors import cone_contains, cone_generator, gmap_apply, p_sum, psum_delta
from qcab.lusztig import cmap_apply, cmap_by_degrees
from qcab.qgroth import (
    TCartan,
    XTorus,
    check_kappa,
    substitute_b2,
    verify_fq_fixture,
    verify_truncated_fixture,
    xelement_from_text,
)
from qcab.seeds import mutate_pair, permute_pair, transpositions
from qcab.torus import ClusterState, degree_of_pointed, mutate_state, predicted_degree, q_structure_witness

FIXTURES = Path(__file__).parent / "fixtures"


def _report(n: int, ok: bool, detail: str = "") -> None:
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {n}: {detail}"


# -- criterion 1: the G2 window-8 mutation chain, every intermediate ---------

G2_CHAIN = [
    np.array(
        [
            [0, -3, -1, -3, 0, 0, 2, 3],
            [3, 0, 0, -3, 0, 0, 3, 6],
            [1, 0, 0, -3, 0, 0, 3, 6],
            [3, 3, 3, 0, 0, 0, 3, 9],
            [0, 0, 0, 0, 0, 0, 2, 6],
            [0, 0, 0, 0, 0, 0, 0, 6],
            [-2, -3, -3, -3, -2, 0, 0, 3],
            [-3, -6, -6, -9, -6, -6, -3, 0],
        ]
    ),
    np.array(
        [
            [0, -3, -2, -3, 0, 0, 2, 3],
            [3, 0, 0, -3, 0, 0, 3, 6],
            [2, 0, 0, 0, 0, 0, 2, 6],
            [3, 3, 0, 0, 0, 0, 3, 9],
            [0, 0, 0, 0, 0, 0, 2, 6],
            [0, 0, 0, 0, 0, 0, 0, 6],
            [-2, -3, -2, -3, -2, 0, 0, 3],
            [-3, -6, -6, -9, -6, -6, -3, 0],
        ]
    ),
    np.array(
        [
            [0, -3, -1, -3, 0, 0, 2, 3],
            [3, 0, 3, 3, 3, 0, 3, 6],
            [1, -3, 0, 0, 1, 0, 1, 3],
            [3, -3, 0, 0, 3, 0, 3, 9],
            [0, -3, -1, -3, 0, 0, 0, 3],
            [0, 0, 0, 0, 0, 0, 0, 6],
            [-2, -3, -1, -3, 0, 0, 0, 3],
            [-3, -6, -3, -9, -3, -6, -3, 0],
        ]
    ),
    np.array(
        [
            [0, -3, 1, 0, 0, 0, 2, 3],
            [3, 0, 6, 6, 3, 9, 3, 6],
            [-1, -6, 0, 0, -1, -3, -1, 0],
            [0, -6, 0, 0, 0, 0, 0, 0],
            [0, -3, 1, 0, 0, 0, 0, 3],
            [0, -9, 3, 0, 0, 0, 0, 3],
            [-2, -3, 1, 0, 0, 0, 0, 3],
            [-3, -6, 0, 0, -3, -3, -3, 0],
        ]
    ),
    np.array(
        [
            [0, -3, 2, 0, 3, 3, 2, 3],
            [3, 0, 6, 6, 6, 9, 3, 6],
            [-2, -6, 0, 0, 0, 0, 0, 0],
            [0, -6, 0, 0, 0, 0, 0, 0],
            [-3, -6, 0, 0, 0, 3, -1, 0],
            [-3, -9, 0, 0, -3, 0, -3, -3],
            [-2, -3, 0, 0, 1, 3, 0, 3],
            [-3, -6, 0, 0, 0, 3, -3, 0],
        ]
    ),
    np.array(
        [
            [0, -3, 0, 2, 3, 3, 3, 2],
            [3, 0, 6, 6, 9, 6, 6, 3],
            [0, -6, 0, 0, 0, 0, 0, 0],
            [-2, -6, 0, 0, 0, 0, 0, 0],
            [-3, -9, 0, 0, 0, -3, -3, -3],
            [-3, -6, 0, 0, 3, 0, 0, -1],
            [-3, -6, 0, 0, 3, 0, 0, -3],
            [-2, -3, 0, 0, 3, 1, 3, 0],
        ]
    ),
]


def test_criterion_1_g2_lambda_chain():
    start = time.monotonic()
    d = build_cartan("G", 2)
    pair = build_seed(alternating(d), 8)
    steps = [(), (3,), (4, 5, 3), (6, 4, 3), (5, 6, 3)]
    matrices = []
    for muts in steps:
        for k in muts:
            pair = mutate_pair(pair, k)
        matrices.append(pair.lam)
    matrices.append(permute_pair(pair, transpositions(3, 5, 7)).lam)
    ok = all(np.array_equal(a, b) for a, b in zip(matrices, G2_CHAIN))
    elapsed = time.monotonic() - start
    _report(1, ok and elapsed < 1.0, f"(6 matrices exact, {elapsed:.3f}s < 1s)")


# -- criterion 2: 4-move seed identities on B2, B3, C3, F4 -------------------


def test_criterion_2_eta_moves_four_types():
    checks = 0
    b2 = build_cartan("B", 2)
    cases = [(unfold(alternating(b2), 26), (1, 2, 3))]
    b3 = build_cartan("B", 3)
    cases.append(
        (IndexSequence(b3, (2, 3, 2, 3, 1, 2, 3, 2, 3, 1, 2, 3, 2, 3, 1, 2, 3, 2, 3, 1, 2, 3, 2, 3, 1, 2)), (1, 6, 11))
    )
    c3 = build_cartan("C", 3)
    cases.append(
        (IndexSequence(c3, (1, 2, 3, 2, 3, 2, 3, 1, 2, 3, 2, 3, 2, 1, 3, 2, 3, 2, 3, 1, 2, 3, 1, 2, 3, 2, 3, 2, 1, 3)), (2, 4, 10))
    )
    f4 = build_cartan("F", 4)
    cases.append((IndexSequence(f4, tuple([1, 2, 3, 2, 3, 2, 3, 4, 1, 2, 3, 2, 3, 2, 3, 4] * 6)), (2, 4, 11)))
    ok = True
    for seq, ks in cases:
        two_ell = 2 * seq.datum.longest_length
        for k in ks:
            mv = detect_move(seq, k)
            ok = ok and mv.kind == "four"
            window = max(two_ell, min_window(mv, seq))
            ok = ok and verify_move_on_seed(seq, mv, window)
            checks += 1
    _report(2, ok and checks == 12, f"(4-moves at 3 positions x 4 types, windows >= 2*l, {checks} checks)")


# -- criterion 3: exhaustive 6-move certification ------------------------------


def test_criterion_3_g2_exhaustive():
    report = g2_exhaustive_certify(jobs=1)
    ok = report.total == 62208 and report.mismatches == 0 and report.elapsed_ms <= 720_000
    _report(
        3,
        ok,
        f"(total={report.total}, mismatches={report.mismatches}, {report.elapsed_ms / 1000:.1f}s single-threaded <= 720s)",
    )


# -- criterion 4: the 32 alternative mutation orders --------------------------

APPENDIX_ORDERS = [
    (0, 1, 2, 0, 3, 1, 0, 2, 3, 0), (0, 1, 2, 0, 3, 1, 0, 3, 2, 0),
    (0, 1, 2, 3, 0, 1, 0, 2, 3, 0), (0, 1, 2, 3, 0, 1, 0, 3, 2, 0),
    (0, 2, 1, 0, 3, 1, 0, 2, 3, 0), (0, 2, 1, 0, 3, 1, 0, 3, 2, 0),
    (0, 2, 1, 3, 0, 1, 0, 2, 3, 0), (0, 2, 1, 3, 0, 1, 0, 3, 2, 0),
    (1, 2, 3, 1, 0, 1, 2, 0, 3, 1), (1, 2, 3, 1, 0, 1, 2, 3, 0, 1),
    (1, 2, 3, 1, 0, 2, 1, 0, 3, 1), (1, 2, 3, 1, 0, 2, 1, 3, 0, 1),
    (1, 3, 2, 1, 0, 1, 2, 0, 3, 1), (1, 3, 2, 1, 0, 1, 2, 3, 0, 1),
    (1, 3, 2, 1, 0, 2, 1, 0, 3, 1), (1, 3, 2, 1, 0, 2, 1, 3, 0, 1),
    (2, 0, 1, 2, 3, 1, 2, 0, 3, 2), (2, 0, 1, 2, 3, 1, 2, 3, 0, 2),
    (2, 0, 1, 2, 3, 2, 1, 0, 3, 2), (2, 0, 1, 2, 3, 2, 1, 3, 0, 2),
    (2, 1, 0, 2, 3, 1, 2, 0, 3, 2), (2, 1, 0, 2, 3, 1, 2, 3, 0, 2),
    (2, 1, 0, 2, 3, 2, 1, 0, 3, 2), (2, 1, 0, 2, 3, 2, 1, 3, 0, 2),
    (3, 1, 2, 0, 3, 2, 3, 0, 1, 3), (3, 1, 2, 0, 3, 2, 3, 1, 0, 3),
    (3, 1, 2, 3, 0, 2, 3, 0, 1, 3), (3, 1, 2, 3, 0, 2, 3, 1, 0, 3),
    (3, 2, 1, 0, 3, 2, 3, 0, 1, 3), (3, 2, 1, 0, 3, 2, 3, 1, 0, 3),
    (3, 2, 1, 3, 0, 2, 3, 0, 1, 3), (3, 2, 1, 3, 0, 2, 3, 1, 0, 3),
]


def test_criterion_4_appendix_orders():
    d = build_cartan("G", 2)
    seq = unfold(alternating(d), 22)
    k, window = 2, 14
    base = build_seed(seq, window)
    results = []
    for order in APPENDIX_ORDERS:
        p = base
        for off in order:
            p = mutate_pair(p, k + off)
        results.append(permute_pair(p, transpositions(k, k + 2, k + 4)))
    target = build_seed(IndexSequence(d, swap_block(seq.letters, "six", k)), window)
    ok = len(APPENDIX_ORDERS) == 32 and all(p == results[0] for p in results) and results[0] == target
    _report(4, ok, "(32 orders, identical final pairs on a window of 14)")


# -- criterion 5: degree-map reference assignments ----------------------------


def test_criterion_5_gmap_fixtures():
    d = build_cartan("G", 2)
    src1 = IndexSequence(d, tuple(2 if t % 2 == 0 else 1 for t in range(12)))
    src2 = IndexSequence(d, tuple(1 if t % 2 == 0 else 2 for t in range(12)))
    mv1, mv2 = detect_move(src1, 1), detect_move(src2, 1)
    part1 = {
        (1,): {6: 1, 4: -1},
        (2,): {6: 1, 4: -1, 1: 1},  # weight-corrected entry; oracle-confirmed
        (3, 1): {6: 2, 4: -2, 1: 3},
        (4, 2): {6: 1, 4: -1, 1: 2},
        (5, 3): {6: 1, 4: -1, 1: 3},
        (6, 4): {1: 1},
    }
    part2 = {
        (1,): {6: 1, 4: -1},
        (2,): {6: 3, 4: -3, 1: 1},
        (3, 1): {6: 2, 4: -2, 1: 1},
        (4, 2): {6: 3, 4: -3, 1: 2},
        (5, 3): {6: 1, 4: -1, 1: 1},
        (6, 4): {1: 1},
    }
    ok = True
    for table, mv, src in ((part1, mv1, src1), (part2, mv2, src2)):
        for inp, want in table.items():
            g = {inp[0]: 1}
            if len(inp) > 1:
                g[inp[1]] = -1
            ok = ok and gmap_apply(mv, src, g) == want

    # the four local unit cases of the 4-move, in both letter orders
    checks = 0
    for letters, k in (((1, 2, 3, 2, 3, 2, 3, 1, 2, 3, 2, 3), 2), ((1, 3, 2, 3, 2, 3, 2, 1, 2, 3, 2, 3), 2)):
        b3 = build_cartan("B", 3) if letters[1] == 2 else build_cartan("C", 3)
        tgt = IndexSequence(b3, letters)
        src = IndexSequence(b3, swap_block(letters, "four", k))
        mv = detect_move(src, k)
        i, j = tgt.letter(k), tgt.letter(k + 1)
        cij, cji = b3.c(i, j), b3.c(j, i)
        km = tgt.uminus(k)
        base_k = {k: 1, km: -1} if km else {k: 1}
        expected = {
            (k + 3, k + 1): {k: 1, km: -1} if km else {k: 1},
            (k, tgt.uminus(k + 1) or None): {k + 3: 1, k + 1: -1},
        }
        got = gmap_apply(mv, src, {k + 3: 1, k + 1: -1})
        ok = ok and got == ({k: 1, km: -1} if km else {k: 1})
        checks += 1
        src_k1m = src.uminus(k + 1)
        g_in = {k: 1}
        if src.uminus(k):
            g_in[src.uminus(k)] = -1
        ok = ok and gmap_apply(mv, src, g_in) == {k + 3: 1, k + 1: -1}
        checks += 1
        g_in = {k + 2: 1, k: -1}
        want = {k + 3: 1, k + 1: -1, k: -cij}
        if km:
            want[km] = cij
        ok = ok and gmap_apply(mv, src, g_in) == want
        checks += 1
        g_in = {k + 1: 1}
        if km:
            g_in[km] = -1
        want = {k: 1, k + 3: -cji, k + 1: cji}
        if km:
            want[km] = -1
        ok = ok and gmap_apply(mv, src, g_in) == want
        checks += 1
    _report(5, ok and checks == 8, "(12 rank-2 assignments + 4-move unit cases both orders)")


# -- criterion 6: cone preservation and p-sum consistency ----------------------


def _random_cone_point(rng, seq, top, n_gens=6):
    g = {}
    for _ in range(n_gens):
        u = rng.randrange(1, top + 1)
        c = rng.randrange(0, 3)
        for key, v in cone_generator(seq, u).items():
            g[key] = g.get(key, 0) + c * v
    return {key: v for key, v in g.items() if v}


def test_criterion_6_cone_and_psums():
    rng = random.Random(101)
    a3 = build_cartan("A", 3)
    b3 = build_cartan("B", 3)
    g2 = build_cartan("G", 2)
    kind_cases = {
        "two": [(IndexSequence(a3, (1, 3, 2, 1, 2, 3, 1, 3, 2, 1, 2, 3)), 1)],
        "three": [
            (IndexSequence(a3, (1, 2, 1, 3, 2, 1, 2, 3, 1, 2, 1, 3)), 1),
            (IndexSequence(a3, (1, 2, 1, 3, 2, 3, 2, 1, 2, 3, 1, 2)), 4),
        ],
        "four": [
            (IndexSequence(b3, (1, 2, 3, 2, 3, 2, 3, 1, 2, 3, 2, 3)), 2),
            (IndexSequence(b3, (2, 3, 2, 3, 1, 2, 3, 2, 3, 1, 2, 3)), 1),
        ],
        "six": [
            (IndexSequence(g2, tuple(1 if t % 2 == 0 else 2 for t in range(14))), 3),
            (IndexSequence(g2, tuple(2 if t % 2 == 0 else 1 for t in range(14))), 3),
        ],
    }
    failures = 0
    per_kind = 10_000
    for kind, cases in kind_cases.items():
        done = 0
        while done < per_kind:
            seq, k = cases[done % len(cases)]
            mv = detect_move(seq, k)
            tgt = IndexSequence(seq.datum, swap_block(seq.letters, mv.kind, k))
            g_src = _random_cone_point(rng, seq, min(len(seq.letters), k + 7))
            g_tgt = gmap_apply(mv, seq, g_src)
            if not cone_contains(g_tgt, tgt):
                failures += 1
            deltas = psum_delta(mv, seq, g_src)
            for node in range(1, seq.datum.rank + 1):
                if p_sum(g_tgt, tgt, node) - p_sum(g_src, seq, node) != deltas[node]:
                    failures += 1
            done += 1
    _report(6, failures == 0, f"(4 kinds x 10^4 cone points, {failures} failures)")


# -- criterion 7: parameter-map consistency ------------------------------------


def test_criterion_7_lusztig_consistency():
    rng = random.Random(201)
    kind_cases = {
        "two": (IndexSequence(build_cartan("A", 3), (1, 3, 2, 1, 2, 3)), 1),
        "three": (IndexSequence(build_cartan("A", 3), (1, 2, 1, 3, 2, 1)), 1),
        "four": (IndexSequence(build_cartan("B", 2), (1, 2, 1, 2)), 1),
    }
    bad = 0
    for kind, (w, k) in kind_cases.items():
        mv = detect_move(w, k)
        assert mv.kind == kind
        for _ in range(10_000):
            c = tuple(rng.randrange(0, 6) for _ in w.letters)
            if cmap_apply(mv, w, c) != cmap_by_degrees(mv, w, c):
                bad += 1
    d = build_cartan("G", 2)
    wi = IndexSequence(d, (1, 2, 1, 2, 1, 2))
    wip = IndexSequence(d, (2, 1, 2, 1, 2, 1))
    part1 = {1: (0, 0, 0, 0, 0, 1), 2: (1, 0, 0, 0, 0, 1), 3: (3, 0, 0, 0, 0, 2),
             4: (2, 0, 0, 0, 0, 1), 5: (3, 0, 0, 0, 0, 1), 6: (1, 0, 0, 0, 0, 0)}
    part2 = {1: (0, 0, 0, 0, 0, 1), 2: (1, 0, 0, 0, 0, 3), 3: (1, 0, 0, 0, 0, 2),
             4: (2, 0, 0, 0, 0, 3), 5: (1, 0, 0, 0, 0, 1), 6: (1, 0, 0, 0, 0, 0)}
    for table, w in ((part1, wip), (part2, wi)):
        mv = detect_move(w, 1)
        for u, want in table.items():
            c = tuple(1 if t == u - 1 else 0 for t in range(6))
            if cmap_apply(mv, w, c) != want:
                bad += 1
    _report(7, bad == 0, f"(3 kinds x 10^4 + 12 rank-2 basis fixtures, {bad} failures)")


# -- criterion 8: the Laurent property along random mutation paths --------------


def _exchange_walks(rng, configs):
    """Random exchange walks on alternating rank-2 seeds, checking every step.

    ``configs`` lists (type, window, walks).  Each step checks the degree of
    every position and the q-structure (bar-invariance and positivity) of
    the new variable.  Yields a witness naming the walk, the step and the
    position for each failure, and None after each walk.
    """
    for code, window, n_walks in configs:
        pair = build_seed(alternating(build_cartan(code[0], 2)), window)
        for walk in range(1, n_walks + 1):
            state = ClusterState.from_pair(pair)
            for step in range(1, rng.randrange(3, 11) + 1):
                k = rng.choice(sorted(state.current.exchangeable))
                state = mutate_state(state, k)  # raises on inexact division
                where = f"{code} walk {walk} {','.join(map(str, state.history))} step {step}"
                if witness := q_structure_witness(state.variables[k - 1]):
                    yield f"{where} position {k}: {witness}"
                for u in range(1, pair.size + 1):
                    got, want = degree_of_pointed(state.variables[u - 1], pair), predicted_degree(state, u)
                    if got != want:
                        yield f"{where} position {u}: degree {got}, predicted {want}"
            yield None


def test_criterion_8_laurent_phenomenon():
    events = list(_exchange_walks(random.Random(301), (("B2", 4, 50), ("G2", 6, 50))))
    walks, failures = events.count(None), [e for e in events if e]
    _report(
        8,
        not failures and walks == 100,
        f"(100 walks of length <= 10, each new variable bar-invariant and positive, {len(failures)} failures)"
        + "".join(f"\n  {f}" for f in failures[:5]),
    )


def test_criterion_8_catches_a_twist_sign_fault(monkeypatch):
    """Rows -Lambda b in the product and the division: the first new variable is not bar-invariant."""
    row = torus.WindowTorus.row
    monkeypatch.setattr(torus.WindowTorus, "row", lambda self, b: tuple(-v for v in row(self, b)))
    first = next(e for e in _exchange_walks(random.Random(301), (("B2", 4, 1),)) if e)
    assert re.fullmatch(r"B2 walk 1 \d step 1 position \d: not bar-invariant: coefficient \(.+\) of Z\[.+", first)


def test_criterion_8_catches_a_negated_coefficient(monkeypatch):
    """A division that negates the coefficient of its largest monomial in text order fails positivity."""
    divide = torus.divide_right_exact

    def faulty(x, d, **kwargs):
        y = divide(x, d, **kwargs)
        a = max(y.terms)
        return torus.QLaurent(y.torus, {**y.terms, a: -y.terms[a]})

    monkeypatch.setattr(torus, "divide_right_exact", faulty)
    first = next(e for e in _exchange_walks(random.Random(301), (("G2", 6, 1),)) if e)
    assert re.fullmatch(r"G2 walk 1 \d step 1 position \d: not positive: coefficient \(-.+\) of Z\[.+", first)


# -- criterion 9: vanishing pattern of the inverse-matrix coefficients ----------


def test_criterion_9_coefficient_vanishing():
    types = (
        [("A", n) for n in range(1, 9)]
        + [("B", n) for n in range(2, 9)]
        + [("C", n) for n in range(2, 9)]
        + [("D", n) for n in range(4, 9)]
        + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
    )
    ok = True
    for fam, n in types:
        tc = TCartan(build_cartan(fam, n), umax=52)
        ok = ok and tc.check_vanishing(50)
    _report(9, ok, f"({len(types)} types, all i,j, u <= 50)")


# -- criterion 10: the torus comparison on reading windows ----------------------


def test_criterion_10_kappa():
    ok = True
    for code, xi in (("B2", {1: 0, 2: 1}), ("B3", {1: 0, 2: -1, 3: 0}), ("G2", {1: 0, 2: 1})):
        d = build_cartan(code[0], int(code[1]))
        ok = ok and check_kappa(d, xi, 2 * d.longest_length)
    _report(10, ok, "(B2/B3/G2 windows of 2*l, exact)")


# -- criterion 11: positivity fixtures ------------------------------------------


def test_criterion_11_fixtures():
    amb4 = XTorus(TCartan(build_cartan("B", 4)))
    x4 = xelement_from_text(amb4, (FIXTURES / "b4_fundamental_x10.txt").read_text().strip())
    rep4 = verify_fq_fixture(x4, 1, 0, 0)
    ok = all(rep4.values())

    amb3 = XTorus(TCartan(build_cartan("B", 3)))
    x3 = xelement_from_text(amb3, (FIXTURES / "b3_truncated_simple.txt").read_text().strip())
    rep3 = verify_truncated_fixture(x3, {(2, -5): 1, (1, 0): 1}, {1: 0, 2: -1, 3: 0})
    # the truncated fixture has no anti-dominant monomial, and its printed
    # q-powers sit outside the bar-invariant normalization (see ledger); the
    # checks the source asserts for it are dominance, support and positivity
    ok = ok and rep3["dominant"] and rep3["support"] and rep3["positive"]

    perturbed = xelement_from_text(
        amb4,
        (FIXTURES / "b4_fundamental_x10.txt").read_text().strip().replace("(q^-1 + q)", "(q^-1 - q)", 1),
    )
    ok = ok and not verify_fq_fixture(perturbed, 1, 0, 0)["positive"]
    _report(11, ok, "(B4: all five checks; B3 truncated: dominance/support/positivity; perturbation fails)")


# -- criterion 12: the q = 1 substitution pipeline -------------------------------


def test_criterion_12_substitution():
    start = time.monotonic()
    report = substitute_b2(1)
    elapsed = time.monotonic() - start
    bad = sorted(k for k, v in report.items() if not v)
    ok = not bad and len(report) == 22 and elapsed < 30.0
    _report(12, ok, f"(22 identities for m in {{0,1}}, {elapsed:.1f}s < 30s){' failed: ' + str(bad) if bad else ''}")
