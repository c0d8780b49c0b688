"""Command-line front end for seed I/O, move verification and batch checks.

Exit codes: 0 on success/verified, 1 on verification failure, 2 on usage
errors.  All numeric I/O is exact integers or half-integers in decimal.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import braid, gvectors, lusztig, qgroth, seeds
from .cartan import parity_function, parse_type


def _read_list(text: str, flag: str, grammar: str) -> list[tuple[int, ...]]:
    """The entries of a list argument as int tuples, read by ``grammar``.

    ``grammar`` is one entry as the help prints it (n, u:val, i:h or i,p:e),
    separators in order.  Entries are split at ';' if it holds a comma, else
    at ','.  The fields before a ':' are a key, and a key may not repeat.
    """
    seps = re.sub("[^:,]", "", grammar)
    entries: list[tuple[int, ...]] = []
    keys: set[tuple[int, ...]] = set()
    for chunk in text.split(";" if "," in grammar else ",") if text else ():
        try:
            if re.sub("[^:,]", "", chunk) != seps:
                raise ValueError
            entry = tuple(int(t) for t in re.split("[:,]", chunk))
        except ValueError:
            raise ValueError(f"malformed {flag} entry {chunk!r}; expected {grammar}") from None
        if ":" in seps and entry[:-1] in keys:
            raise ValueError(f"{flag} entry {chunk!r} repeats key {chunk.partition(':')[0]}")
        keys.add(entry[:-1])
        entries.append(entry)
    return entries


def _parse_seq(datum, text: str) -> braid.IndexSequence:
    if text == "alt":
        return braid.alternating(datum)
    if not text:
        raise ValueError("--seq is empty; expected \"alt\" or letters n,n,...")
    return braid.IndexSequence(datum, tuple(n for (n,) in _read_list(text, "--seq", "n")))


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _move_from_args(seq, kind: str, k: int) -> braid.BraidMove:
    move = braid.detect_move(seq, k)
    if str(move.span) != kind:
        raise braid.BraidError(f"position {k} carries a {move.kind}-move, not a {kind}-move")
    return move


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="qcab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seed", help="emit a seed file for a type and sequence")
    p.add_argument("--type", required=True)
    p.add_argument("--seq", required=True, help='"alt" or letters "n,n,..."')
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("mutate", help="apply mutations to a seed file")
    p.add_argument("seedfile")
    p.add_argument("--at", type=int, action="append", required=True)
    p.add_argument("--out")

    p = sub.add_parser("verify-move", help="verify a braid move on a window")
    p.add_argument("--type", required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--window", type=int, required=True)

    p = sub.add_parser("g2-cert", help="exhaustive 6-move certification")
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--out")

    p = sub.add_parser("g-map", help="transport a degree vector along a move")
    p.add_argument("--move", required=True, choices=["2", "3", "4", "6", "shift"])
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--type", required=True)
    p.add_argument("--seq", required=True, help="source sequence of the degrees")
    p.add_argument("--g", required=True, help='sparse vector "u:val,u:val,..."')

    p = sub.add_parser("c-map", help="transport a parameter vector along a move")
    p.add_argument("--move", required=True, choices=["2", "3", "4", "6"])
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--type", required=True)
    p.add_argument("--seq", required=True, help="source word for the parameters")
    p.add_argument("--c", required=True, help='parameters "n,n,..."')

    p = sub.add_parser("npair", help="commutation exponent of two torus generators")
    p.add_argument("--type", required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--s", type=int, required=True)

    p = sub.add_parser("check-fq", help="verify a torus fixture file")
    p.add_argument("fixture")
    p.add_argument("--type", required=True)
    p.add_argument("--i", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--xi", help='height function of truncated fixtures, "i:h,i:h,..."')
    p.add_argument("--dominant", help='dominant exponents "i,p:e;j,s:e"')

    p = sub.add_parser("substitute-b2", help="run the q=1 substitution checks")
    p.add_argument("--m", type=int, default=1)

    p = sub.add_parser("check-kappa", help="compare pairings on a reading window")
    p.add_argument("--type", required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--xi", help='height function "i:h,i:h,..."')

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


def _verdict(witness: tuple | None) -> str:
    """The verdict of a check: ok, or its witness's first mismatch (matrix, u, v, got, want)."""
    return "ok" if witness is None else "MISMATCH at {}[{},{}]: got {}, want {}".format(*witness)


def _dispatch(args) -> int:
    if args.command == "seed":
        datum = parse_type(args.type)
        seq = _parse_seq(datum, args.seq)
        pair = braid.build_seed(seq, args.window)
        _emit(seeds.pair_to_json(pair, args.type, list(seq.prefix(args.window))), args.out)
        return 0

    if args.command == "mutate":
        with open(args.seedfile, encoding="utf-8") as fh:
            pair, doc = seeds.pair_from_json(fh.read())
        for k in args.at:
            pair = seeds.mutate_pair(pair, k)
        _emit(seeds.pair_to_json(pair, doc.get("type", ""), doc.get("sequence")), args.out)
        return 0

    if args.command == "verify-move":
        datum = parse_type(args.type)
        seq = _parse_seq(datum, args.seq)
        move = braid.detect_move(seq, args.k)
        witness = braid.move_witness(seq, move, args.window)
        print(f"{move.kind}-move at {args.k} on window {args.window}: {_verdict(witness)}")
        return 0 if witness is None else 1

    if args.command == "g2-cert":
        report = braid.g2_exhaustive_certify(jobs=args.jobs)
        _emit(report.to_json(), args.out)
        return 0 if report.mismatches == 0 and report.total == 62208 else 1

    if args.command == "g-map":
        datum = parse_type(args.type)
        seq = _parse_seq(datum, args.seq)
        g = dict(_read_list(args.g, "--g", "u:val"))
        if args.move == "shift":
            # --seq names the unshifted sequence; the input degrees live on
            # its forward shift and transport back onto it
            g = gvectors.gmap_shift(seq, g)
        else:
            g = gvectors.gmap_apply(_move_from_args(seq, args.move, args.k), seq, g)
        print(",".join(f"{u}:{v}" for u, v in sorted(g.items())) or "0")
        return 0

    if args.command == "c-map":
        datum = parse_type(args.type)
        seq = _parse_seq(datum, args.seq)
        move = _move_from_args(seq, args.move, args.k)
        c = tuple(n for (n,) in _read_list(args.c, "--c", "n"))
        print(",".join(str(v) for v in lusztig.cmap_apply(move, seq, c)))
        return 0

    if args.command == "npair":
        datum = parse_type(args.type)
        tc = qgroth.TCartan(datum)
        print(qgroth.npairing(tc, (args.i, args.p), (args.j, args.s)))
        return 0

    if args.command == "check-fq":
        if args.xi is not None:
            if args.dominant is None:
                raise ValueError("check-fq: --xi needs --dominant")
            dom = {(i, p): e for i, p, e in _read_list(args.dominant, "--dominant", "i,p:e")}
            xi = dict(_read_list(args.xi, "--xi", "i:h"))
        elif None in (args.i, args.p, args.s):
            raise ValueError("check-fq: give --i, --p and --s, or --xi with --dominant")
        datum = parse_type(args.type)
        tc = qgroth.TCartan(datum)
        ambient = qgroth.XTorus(tc)
        with open(args.fixture, encoding="utf-8") as fh:
            x = qgroth.xelement_from_text(ambient, fh.read().strip())
        if args.xi is not None:
            report = qgroth.verify_truncated_fixture(x, dom, xi)
        else:
            report = qgroth.verify_fq_fixture(x, args.i, args.p, args.s)
        for name, ok in report.items():
            print(f"{name}: {'ok' if ok else 'FAIL'}")
        return 0 if all(report.values()) else 1

    if args.command == "substitute-b2":
        report = qgroth.substitute_b2(args.m)
        bad = [name for name, ok in report.items() if not ok]
        for name, ok in sorted(report.items()):
            print(f"{name}: {'ok' if ok else 'FAIL'}")
        return 0 if not bad else 1

    if args.command == "check-kappa":
        datum = parse_type(args.type)
        xi = dict(_read_list(args.xi, "--xi", "i:h")) if args.xi is not None else dict(parity_function(datum))
        witness = qgroth.kappa_witness(datum, xi, args.window)
        print(f"kappa comparison: {_verdict(witness)}")
        return 0 if witness is None else 1

    raise ValueError(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
