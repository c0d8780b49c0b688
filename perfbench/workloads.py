"""The three benchmark workloads and the independent answers they check.

Each workload is driven as a closed loop from one thread: the harness runs the
items of a pass one after another.  ``prepare(seed)`` does the library set-up
(timed as ``setup_s``) and derives the inputs from the seed (not timed).
``items()`` yields the items of one pass; every pass repeats the same inputs
from the same starting state, so the work and the exact counts of a pass do not
depend on how many passes a run makes.  An item returns ``None`` when the
library's answer agrees with the independent one, and otherwise a witness
naming the first difference.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

from qcab import braid, cartan, gvectors, lusztig, qgroth, torus

FIXTURES = Path(__file__).resolve().parents[1] / "tests" / "fixtures"


@dataclass
class Failure:
    """A failed item that stands for ``n`` certified items."""

    n: int
    text: str


@dataclass
class Item:
    label: str
    run: Callable[[], "str | Failure | None"]
    count: int = 1  # certified items the item stands for
    timed: bool = True  # enters the item latency percentiles


class Stopwatch:
    """Accumulates the library set-up time of ``prepare``."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def __enter__(self) -> "Stopwatch":
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds += perf_counter() - self._t0


def first_diff(got, want) -> str:
    """The first differing entry of two sequences or two dicts."""
    if isinstance(got, dict) or isinstance(want, dict):
        keys = sorted(set(got) | set(want), key=repr)
        for key in keys:
            if got.get(key, 0) != want.get(key, 0):
                return f"entry {key!r}: got {got.get(key, 0)!r}, want {want.get(key, 0)!r}"
    else:
        for i, (a, b) in enumerate(zip(got, want), start=1):
            if a != b:
                return f"entry {i}: got {a!r}, want {b!r}"
        if len(got) != len(want):
            return f"length: got {len(got)}, want {len(want)}"
    return "no differing entry"


def random_height_function(datum, rng: random.Random) -> dict[int, int]:
    """A seeded height function: node 1 even, adjacent nodes differ by one."""
    xi = {1: 2 * rng.randint(-2, 2)}
    todo = [1]
    while todo:
        i = todo.pop()
        for j in range(1, datum.rank + 1):
            if j not in xi and datum.c(i, j) < 0:
                xi[j] = xi[i] + rng.choice((-1, 1))
                todo.append(j)
    return xi


# ----------------------------------------------------------------------
# exchange_walks: the quantum torus under seeded exchange walks


def walk_tree(positions: list[int], depth: int, rng: random.Random) -> list[tuple[int, ...]]:
    """Every walk of length <= depth with no immediate repeat, in a seeded DFS order.

    Each walk follows the walk one step shorter, so a pass computes every
    exchange step once, from its parent's state.
    """
    order: list[tuple[int, ...]] = []

    def visit(path: tuple[int, ...]) -> None:
        if len(path) == depth:
            return
        children = [k for k in positions if not path or k != path[-1]]
        rng.shuffle(children)
        for k in children:
            order.append(path + (k,))
            visit(path + (k,))

    visit(())
    return order


class ExchangeWalks:
    """Exchange walks with ``mutate_state``, each step checked by degree.

    Every walk up to the given depth is run, so the work of a pass is the same
    for every seed; the seed sets the order.  Walks one step longer than these
    depths are left out: their cost is heavy-tailed (one walk in a hundred
    costs as much as the rest together), so a seeded sample of them makes the
    work differ by most of a pass between seeds.
    """

    name = "exchange_walks"
    # (type, window, depth)
    CONFIGS = (("B2", 4, 10), ("G2", 6, 5), ("G2", 8, 4))
    HEAVY = ("G2", 6, (2, 1, 3, 4, 1, 2, 3))  # criterion 8's heavy walk, first seven steps

    def __init__(self, configs=CONFIGS, heavy=HEAVY) -> None:
        self.configs = configs
        self.heavy = heavy

    def prepare(self, seed: int) -> float:
        clock = Stopwatch()
        with clock:
            self.pairs = {}
            for code, window, _ in self.configs + ((self.heavy[0], self.heavy[1], 0),):
                datum = cartan.parse_type(code)
                self.pairs[(code, window)] = braid.build_seed(braid.alternating(datum), window)
        rng = random.Random(seed)
        self.trees = []
        for code, window, depth in self.configs:
            pair = self.pairs[(code, window)]
            paths = walk_tree(sorted(pair.exchangeable), depth, rng)
            self.trees.append((f"{code} w{window}", pair, depth, paths))
        code, window, walk = self.heavy
        self.trees.append(
            (f"{code} w{window} heavy", self.pairs[(code, window)], len(walk),
             [walk[:t] for t in range(1, len(walk) + 1)])
        )
        return clock.seconds

    def items(self) -> Iterator[Item]:
        for label, pair, depth, paths in self.trees:
            states = {(): torus.ClusterState.from_pair(pair)}
            for path in paths:
                yield Item(f"{label} walk {path}",
                           lambda a=pair, s=states, d=depth, p=path: self._step(a, s, d, p))

    @staticmethod
    def _step(pair, states, depth, path) -> str | None:
        state = torus.mutate_state(states[path[:-1]], path[-1])
        if len(path) < depth:
            states[path] = state
        for u in range(1, pair.size + 1):
            got = torus.degree_of_pointed(state.variables[u - 1], pair)
            want = torus.predicted_degree(state, u)
            if got != want:
                return f"position {u}: degree_of_pointed vs predicted_degree, {first_diff(got, want)}"
        return None


# ----------------------------------------------------------------------
# move_certify: braid moves on seeds, degree maps and parameter maps

KIND = {0: "two", 1: "three", 2: "four", 3: "six"}
SPAN = {"two": 2, "three": 3, "four": 4, "six": 6}


def unfold_letters(datum, word: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The first n letters of the periodic extension i_{k+l} = (i_k)*."""
    out: list[int] = []
    cur = list(word)
    while len(out) < n:
        out += cur
        cur = [datum.star_of(a) for a in cur]
    return tuple(out[:n])


def braid_moves(datum, letters: tuple[int, ...], last: int) -> list[tuple[str, int]]:
    """(kind, k) of every braid move at k <= last whose letters fit in the word."""
    out = []
    for k in range(1, min(last, len(letters) - 1) + 1):
        a, b = letters[k - 1], letters[k]
        if a == b:
            continue
        kind = KIND[datum.c(a, b) * datum.c(b, a)]
        span = SPAN[kind]
        if letters[k - 1 : k - 1 + span] == tuple(a if t % 2 == 0 else b for t in range(span)):
            out.append((kind, k))
    return out


def swap_letters(letters: tuple[int, ...], kind: str, k: int) -> tuple[int, ...]:
    span = SPAN[kind]
    a, b = letters[k - 1], letters[k]
    return letters[: k - 1] + tuple(b if t % 2 == 0 else a for t in range(span)) + letters[k - 1 + span :]


def previous_same(letters: tuple[int, ...], u: int) -> int:
    """The last position before u carrying the letter of u, or 0."""
    for v in range(u - 1, 0, -1):
        if letters[v - 1] == letters[u - 1]:
            return v
    return 0


def p_sums(g: dict[int, int], letters: tuple[int, ...], rank: int) -> list[int]:
    out = [0] * (rank + 1)
    for u, v in g.items():
        out[letters[u - 1]] += v
    return out


@dataclass
class MoveCase:
    label: str
    rank: int
    seq: "braid.IndexSequence"  # the word unfolded past the verification window
    target: "braid.IndexSequence"  # seq with the move's letters swapped
    kind: str
    k: int
    cone_points: list[dict[int, int]]
    word: "braid.IndexSequence"  # the longest word itself
    kind_c: str  # the move inside the word, for the parameter maps
    k_c: int
    params: list[tuple[int, ...]]


class MoveCertify:
    """Seeded single-move items around one exhaustive G2 certification batch.

    Single moves start on height-adapted longest words.  Each item certifies a
    move on the unfolded word and a move inside the word, and the word then
    takes that second move, so the items of a type walk through its reduced
    words.  A move kind is drawn first and then its position, so the rare
    3-, 4- and 6-moves are not drowned by commutations.  6-moves at the word
    boundary have no closed-form p-sum table and are not sampled.
    """

    name = "move_certify"
    TYPES = tuple(
        [f"A{n}" for n in range(3, 9)] + [f"B{n}" for n in range(3, 7)] + [f"C{n}" for n in range(3, 7)]
        + [f"D{n}" for n in range(4, 7)] + ["E6", "E7", "F4", "G2"]
    )
    G2_TOTAL = 62208
    CONE_POINTS = 4
    PARAMS = 4

    def __init__(self, types=TYPES, moves: int = 2000, g2_total: int = G2_TOTAL) -> None:
        self.types = types
        self.moves = moves
        self.g2_total = g2_total

    def prepare(self, seed: int) -> float:
        clock = Stopwatch()
        with clock:
            data = {code: cartan.parse_type(code) for code in self.types}
        rng = random.Random(seed)
        heights = {code: random_height_function(d, rng) for code, d in data.items()}
        with clock:
            words = {code: cartan.longest_word(d, adapted_to=heights[code]) for code, d in data.items()}
        self.cases = []
        for t in range(self.moves):
            code = self.types[t % len(self.types)]
            self.cases.append(self._case(f"{code} #{t // len(self.types)}", data[code], words[code], rng))
            words[code] = swap_letters(words[code], self.cases[-1].kind_c, self.cases[-1].k_c)
        return clock.seconds

    def _case(self, label, datum, word, rng) -> MoveCase:
        ell = len(word)
        letters = unfold_letters(datum, word, 3 * ell + 10)
        moves = [
            (kind, k) for kind, k in braid_moves(datum, letters, ell + 1)
            if kind != "six" or {letters[k - 1], letters[k]} <= set(letters[: k - 1])
        ]
        kind, k = _pick(moves, rng)
        top = min(len(letters), k + 7)
        cone_points = []
        for _ in range(self.CONE_POINTS):
            g: dict[int, int] = {}
            for _ in range(6):
                u, c = rng.randrange(1, top + 1), rng.randrange(0, 3)
                g[u] = g.get(u, 0) + c
                um = previous_same(letters, u)
                if um:
                    g[um] = g.get(um, 0) - c
            cone_points.append({u: v for u, v in g.items() if v})
        kind_c, k_c = _pick(braid_moves(datum, word, ell), rng)
        return MoveCase(
            f"{label} {kind}-move at {k}", datum.rank,
            braid.IndexSequence(datum, letters), braid.IndexSequence(datum, swap_letters(letters, kind, k)),
            kind, k, cone_points, braid.IndexSequence(datum, word), kind_c, k_c,
            [tuple(rng.randrange(0, 6) for _ in word) for _ in range(self.PARAMS)],
        )

    def items(self) -> Iterator[Item]:
        # half the single moves run before the batch and half after it, so the
        # item percentiles sample the host at two times half a minute apart
        half = len(self.cases) // 2
        for case in self.cases[:half]:
            yield Item(case.label, lambda c=case: self._certify_move(c))
        yield Item("g2_exhaustive_certify(jobs=1)", self._certify_g2, count=self.g2_total, timed=False)
        for case in self.cases[half:]:
            yield Item(case.label, lambda c=case: self._certify_move(c))

    def _certify_g2(self) -> Failure | None:
        report = braid.g2_exhaustive_certify(jobs=1)
        if report.total != self.g2_total:
            return Failure(self.g2_total, f"total {report.total}, want {self.g2_total}")
        if report.mismatches:
            return Failure(report.mismatches, f"{report.mismatches} of {report.total} configurations mismatch")
        return None

    @staticmethod
    def _certify_move(case: MoveCase) -> str | None:
        seq = case.seq
        move = braid.detect_move(seq, case.k)
        if move.kind != case.kind:
            return f"detect_move: kind {move.kind}, want {case.kind}"
        # 2l + 8 bounds min_window for every sampled position (k <= l + 1), so
        # an item's cost depends on its type and not on where the seed put it
        window = 2 * seq.datum.longest_length + 8
        if window < braid.min_window(move, seq):
            return f"window {window} is below min_window {braid.min_window(move, seq)}"
        if not braid.verify_move_on_seed(seq, move, window):
            return "verify_move_on_seed: the mutated seed differs from the target seed"
        for g in case.cone_points:
            g_t = gvectors.gmap_apply(move, seq, g)
            if not gvectors.cone_contains(g_t, case.target):
                return f"gmap_apply({g}) = {g_t} leaves the target cone"
            deltas = gvectors.psum_delta(move, seq, g)
            before = p_sums(g, seq.letters, case.rank)
            after = p_sums(g_t, case.target.letters, case.rank)
            want = {node: after[node] - before[node] for node in range(1, case.rank + 1)}
            if deltas != want:
                return f"psum_delta({g}) vs p-sums of gmap_apply, {first_diff(deltas, want)}"
        move_c = braid.detect_move(case.word, case.k_c)
        if move_c.kind != case.kind_c:
            return f"detect_move in the word: kind {move_c.kind}, want {case.kind_c}"
        for c in case.params:
            got = lusztig.cmap_apply(move_c, case.word, c)
            want = lusztig.cmap_by_degrees(move_c, case.word, c)
            if got != want:
                return f"cmap_apply({c}) vs cmap_by_degrees at {case.kind_c}-move {case.k_c}, {first_diff(got, want)}"
        return None


def _pick(moves: list[tuple[str, int]], rng: random.Random) -> tuple[str, int]:
    kind = rng.choice(sorted({kind for kind, _ in moves}))
    return kind, rng.choice([k for kd, k in moves if kd == kind])


# ----------------------------------------------------------------------
# ip_torus: the (i,p) torus, its pairing and the q = 1 layer

ALL_TYPES = tuple(
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)] + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8", "F4", "G2"]
)


class IpTorus:
    """Window comparisons, coefficient vanishing, fixtures, products and q = 1.

    The pairing depends only on level differences, so the seed shifts levels
    and the work is the same for every seed.  The window checks use the
    bipartite height function raised by a seeded even level: the cost of
    ``check_kappa`` depends on the shape of the height function (3.1 to 4.9 s
    for E8 over three seeded shapes), which would make the pass time differ by
    a fifth between seeds.  The product factors are copies of the B4 fixture
    shifted up from a seeded base level.  Each pass multiplies in a fresh
    ambient torus, so its pairing cache starts empty every time.
    """

    name = "ip_torus"
    VANISHING_DEPTH = 50
    B3_DOMINANT = {(2, -5): 1, (1, 0): 1}
    B3_HEIGHTS = {1: 0, 2: -1, 3: 0}

    def __init__(self, types=ALL_TYPES, max_factors: int = 5, oracle_factors: int = 4, substitutions=(1, 2)) -> None:
        self.types = types
        self.max_factors = max_factors
        self.oracle_factors = oracle_factors
        self.substitutions = substitutions

    def prepare(self, seed: int) -> float:
        clock = Stopwatch()
        with clock:
            data = {code: cartan.parse_type(code) for code in self.types}
            self.b4 = qgroth.TCartan(cartan.parse_type("B4"))
            amb4 = qgroth.XTorus(self.b4)
            text4 = (FIXTURES / "b4_fundamental_x10.txt").read_text().strip()
            self.x4 = qgroth.xelement_from_text(amb4, text4)
            self.x4_perturbed = qgroth.xelement_from_text(amb4, text4.replace("(q^-1 + q)", "(q^-1 - q)", 1))
            amb3 = qgroth.XTorus(qgroth.TCartan(cartan.parse_type("B3")))
            self.x3 = qgroth.xelement_from_text(amb3, (FIXTURES / "b3_truncated_simple.txt").read_text().strip())
        rng = random.Random(seed)
        self.kappa = []
        for code, d in data.items():
            # the bipartite height function, raised by a seeded even level
            shift = 2 * rng.randint(-4, 4)
            xi = {i: eps + shift for i, eps in cartan.parity_function(d).items()}
            window = 2 * d.longest_length
            with clock:
                # deep enough that no pass extends the series cache
                reading = qgroth.compatible_reading(d, xi, window + 2 * d.rank + 2)
                levels = [p for _, p in reading]
                depth = max(self.VANISHING_DEPTH + 2, max(levels) - min(levels) + 2)
                self.kappa.append((code, d, xi, window, qgroth.TCartan(d, umax=depth)))
        self.base_level = 2 * rng.randint(-8, 8)
        self.factors = [self.x4.tr_shift(self.base_level + 2 * t) for t in range(self.max_factors)]
        return clock.seconds

    def items(self) -> Iterator[Item]:
        for code, d, xi, window, tc in self.kappa:
            yield Item(f"check_kappa {code} window {window} xi {xi}",
                       lambda d=d, xi=xi, w=window, tc=tc: None if qgroth.check_kappa(d, xi, w, tc=tc)
                       else "the window pairing or an exchange image differs from the KR monomials")
        for code, _, _, _, tc in self.kappa:
            yield Item(f"check_vanishing {code}",
                       lambda tc=tc: None if tc.check_vanishing(self.VANISHING_DEPTH)
                       else "a coefficient that must vanish is nonzero")
        yield Item("B4 fixture", lambda: self._fixture(qgroth.verify_fq_fixture(self.x4, 1, 0, 0), True))
        yield Item("B3 truncated fixture", lambda: self._fixture(
            qgroth.verify_truncated_fixture(self.x3, self.B3_DOMINANT, self.B3_HEIGHTS), True,
            ("dominant", "support", "positive")))
        yield Item("B4 perturbed fixture", lambda: self._fixture(
            qgroth.verify_fq_fixture(self.x4_perturbed, 1, 0, 0), False, ("positive",)))
        ambient = qgroth.XTorus(self.b4)
        factors = [qgroth.XElement(ambient, f.terms) for f in self.factors]
        acc = {"x": factors[0], "q1": factors[0].at_q1()}
        for r in range(2, self.max_factors + 1):
            yield Item(f"{r}-fold product of B4 fixtures from level {self.base_level}",
                       lambda r=r: self._product(acc, factors[r - 1], r))
        for m in self.substitutions:
            yield Item(f"substitute_b2({m})", lambda m=m: self._substitute(m))

    @staticmethod
    def _fixture(report: dict[str, bool], want: bool, keys=None) -> str | None:
        for key in keys or sorted(report):
            if report[key] != want:
                return f"check {key!r}: got {report[key]}, want {want}"
        return None

    def _product(self, acc, factor, r) -> str | None:
        acc["x"] = acc["x"] * factor
        x = acc["x"]
        negative = next((a for a, c in x.terms.items() if not c.is_nonnegative()), None)
        if negative is not None:
            return f"coefficient of {negative} is not nonnegative"
        if r <= self.oracle_factors:
            acc["q1"] = acc["q1"] * factor.at_q1()
            got = x.at_q1()
            if got != acc["q1"]:
                return f"at_q1 vs LaurentPoly product, {first_diff(got.terms, acc['q1'].terms)}"
        return None

    @staticmethod
    def _substitute(m: int) -> str | None:
        report = qgroth.substitute_b2(m)
        bad = sorted(k for k, ok in report.items() if not ok)
        if bad:
            return f"identity {bad[0]} fails ({len(bad)} of {len(report)})"
        if len(report) != 10 * (m + 1) + 2:
            return f"{len(report)} identities, want {10 * (m + 1) + 2}"
        return None


WORKLOADS = {w.name: w for w in (ExchangeWalks, MoveCertify, IpTorus)}
