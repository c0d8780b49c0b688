"""Per-module spans and exact operation counts, installed from outside qcab.

The tracer replaces public functions and methods of the library modules with
timing wrappers for the length of a traced run and puts the originals back
afterwards.  Nothing under ``src/`` is edited.  A wrapped function also
replaces every module-level binding of the same function object, so a call
through ``torus.mutate_pair`` or ``qgroth.parity_function`` is counted under
the name of the function's home module.

Spans are aggregated in memory by name: calls, total duration, and self time
(duration minus the part covered by child spans).  Counts are taken at the same
boundaries from the arguments and results, so they are exact and repeat for a
given seed.  ``QCoeff`` methods and ``XTorus.pairing`` are not wrapped: they run
millions of times, and their work follows from the counts recorded here.
"""

from __future__ import annotations

import sys
from time import perf_counter

from qcab import braid, cartan, commutative, gvectors, lusztig, qgroth, seeds, torus


def _coeff_span(x) -> int:
    return sum(len(c.terms) for c in x.terms.values())


def _count_qlaurent_mul(tr, args, result):
    a, b = args
    tr.counts["torus.QLaurent.mul.term_pairs"] += len(a.terms) * len(b.terms)
    tr.counts["torus.QLaurent.mul.coeff_madds"] += _coeff_span(a) * _coeff_span(b)
    if tr.parent() == "torus.divide_right_exact":
        tr.counts["torus.divide_right_exact.steps"] += 1


def _count_division(tr, args, result):
    tr.counts["torus.divide_right_exact.dividend_terms"] += len(args[0].terms)


def _gauge_mutate_state(tr, args, result):
    new_var = result.variables[args[1] - 1]
    tr.gauge("torus.max_terms", len(new_var.terms))
    tr.gauge("torus.max_coeff_len", max(len(c.terms) for c in new_var.terms.values()))


def _count_build_seed(tr, args, result):
    tr.counts["braid.build_seed.window_sum"] += args[1]


def _count_certify(tr, args, result):
    tr.counts["braid.g2_exhaustive_certify.configs"] += result.total


def _count_pairing_vec(tr, args, result):
    tr.counts["qgroth.XTorus.pairing_vec.pair_lookups"] += len(args[1]) * len(args[2])


def _count_xelement_mul(tr, args, result):
    tr.counts["qgroth.XElement.mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)


def _count_laurent_mul(tr, args, result):
    tr.counts["commutative.LaurentPoly.mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)


# (module, attribute path, span name, count hook); a method is "Class.attr".
SPANS = (
    (torus, "mutate_state", "torus.mutate_state", _gauge_mutate_state),
    (torus, "degree_of_pointed", "torus.degree_of_pointed", None),
    (torus, "predicted_degree", "torus.predicted_degree", None),
    (torus, "QLaurent.__mul__", "torus.QLaurent.mul", _count_qlaurent_mul),
    (torus, "QLaurent.__add__", "torus.QLaurent.add", None),
    (torus, "divide_right_exact", "torus.divide_right_exact", _count_division),
    (seeds, "mutate_pair", "seeds.mutate_pair", None),
    (seeds, "permute_pair", "seeds.permute_pair", None),
    (seeds, "make_pair", "seeds.make_pair", None),
    (braid, "build_seed", "braid.build_seed", _count_build_seed),
    (braid, "detect_move", "braid.detect_move", None),
    (braid, "verify_move_on_seed", "braid.verify_move_on_seed", None),
    (braid, "g2_exhaustive_certify", "braid.g2_exhaustive_certify", _count_certify),
    (gvectors, "gmap_apply", "gvectors.gmap_apply", None),
    (gvectors, "cone_contains", "gvectors.cone_contains", None),
    (gvectors, "psum_delta", "gvectors.psum_delta", None),
    (lusztig, "cmap_apply", "lusztig.cmap_apply", None),
    (lusztig, "cmap_by_degrees", "lusztig.cmap_by_degrees", None),
    (qgroth, "check_kappa", "qgroth.check_kappa", None),
    (qgroth, "XTorus.pairing_vec", "qgroth.XTorus.pairing_vec", _count_pairing_vec),
    (qgroth, "npairing", "qgroth.npairing", None),
    (qgroth, "XElement.__mul__", "qgroth.XElement.mul", _count_xelement_mul),
    (qgroth, "XElement.at_q1", "qgroth.XElement.at_q1", None),
    (qgroth, "TCartan.check_vanishing", "qgroth.TCartan.check_vanishing", None),
    (qgroth, "substitute_b2", "qgroth.substitute_b2", None),
    (commutative, "LaurentPoly.__mul__", "commutative.LaurentPoly.mul", _count_laurent_mul),
    (commutative, "LaurentPoly.divexact", "commutative.LaurentPoly.divexact", None),
    (commutative, "RationalX.make", "commutative.RationalX.make", None),
    (cartan, "parity_function", "cartan.parity_function", None),
)

COUNTS = (
    "torus.QLaurent.mul.term_pairs",
    "torus.QLaurent.mul.coeff_madds",
    "torus.divide_right_exact.steps",
    "torus.divide_right_exact.dividend_terms",
    "braid.build_seed.window_sum",
    "braid.g2_exhaustive_certify.configs",
    "qgroth.XTorus.pairing_vec.pair_lookups",
    "qgroth.XElement.mul.term_pairs",
    "commutative.LaurentPoly.mul.term_pairs",
)

GAUGES = ("torus.max_terms", "torus.max_coeff_len")


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for _, _, name, _ in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.total_s"] = "s"
    for name in COUNTS + GAUGES:
        units[name] = "count"
    units["braid.g2_configs_per_s"] = "1/s"
    units["qgroth.pairing_hit_ratio"] = "ratio"
    units["bench.wall_s"] = "s"
    units["bench.self_s"] = "s"
    return units


class Tracer:
    """Aggregated spans and counts for one traced run, split into passes."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # [span name, time covered by children]
        self._saved: list[tuple[object, str, object]] = []
        self.times: dict[str, list[float]] = {}  # name -> [self_s, total_s]
        self.counts: dict[str, int] = {}
        self.gauges: dict[str, int] = {}
        self.root_s = 0.0
        self.begin_pass()

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "qcab" or n.startswith("qcab.")]
        for module, path, name, hook in SPANS:
            owner = module
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(module, cls[0])
            raw = owner.__dict__[attr]
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapper = self._wrap(name, fn, hook)
            self._replace(owner, attr, staticmethod(wrapper) if is_static else wrapper)
            if not cls:
                for other in modules:
                    if other is not owner and other.__dict__.get(attr) is fn:
                        self._replace(other, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn, hook):
        stack = self._stack
        calls = f"{name}.calls"
        acc = self.times.setdefault(name, [0.0, 0.0])

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                acc[0] += dur - frame[1]
                acc[1] += dur
                if stack:
                    stack[-1][1] += dur
                else:
                    self.root_s += dur
                self.counts[calls] = self.counts.get(calls, 0) + 1
            if hook is not None:
                hook(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks ------------------------------------------------------------

    def parent(self) -> str | None:
        """The span that called the one whose hook is running."""
        return self._stack[-1][0] if self._stack else None

    def gauge(self, name: str, value: int) -> None:
        if value > self.gauges.get(name, 0):
            self.gauges[name] = value

    # -- passes -----------------------------------------------------------

    def begin_pass(self) -> None:
        """Start a fresh per-pass tally of counts; times keep accumulating."""
        self.counts = {name: 0 for name in COUNTS}
        self.counts.update({f"{name}.calls": 0 for _, _, name, _ in SPANS})

    def pass_counts(self) -> dict[str, int]:
        return {**self.counts, **{g: self.gauges.get(g, 0) for g in GAUGES}}

    def metrics(self, counts: dict[str, int], wall_s: float, passes: int) -> dict[str, float]:
        """Per-layer metrics: times are means per pass, counts are per pass."""
        out: dict[str, float] = dict(counts)
        for name, (self_s, total_s) in self.times.items():
            out[f"{name}.self_s"] = self_s / passes
            out[f"{name}.total_s"] = total_s / passes
        cert_s = out["braid.g2_exhaustive_certify.total_s"]
        configs = counts["braid.g2_exhaustive_certify.configs"]
        out["braid.g2_configs_per_s"] = configs / cert_s if cert_s else 0.0
        lookups = counts["qgroth.XTorus.pairing_vec.pair_lookups"]
        misses = counts["qgroth.npairing.calls"]
        out["qgroth.pairing_hit_ratio"] = (lookups - misses) / lookups if lookups else 0.0
        out["bench.wall_s"] = wall_s
        out["bench.self_s"] = wall_s - self.root_s / passes
        return out
