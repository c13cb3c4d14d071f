"""Command-line front end.

Exit codes: 0 success, 1 file parse/validation problems (an unreadable or
non-UTF-8 file included) and a closed stdout, 2 precondition violations
(order too large, missing zero, mismatched orders, missing orientation),
3 internal invariant breaches.

Only ``axioms`` imports :mod:`binsys.axioms`, and only ``enumerate`` and
``verify`` import :mod:`binsys.enumeration`; the other commands never
compile them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import is_locally_zero
from .errors import EXHAUSTIVE_ORDER_LIMIT, PreconditionError, ValidationError
from .factorization import METHODS, classify, factorize
from .fileformat import (
    digraph_to_dot,
    graph_to_dot,
    parse_dot,
    parse_groupoid,
    serialize_groupoid,
)
from .graphs import from_graph, to_digraph, to_graph
from .semigroup import find_inverse, product

SCHEMA = 1


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None


def _load(path: str):
    return parse_groupoid(_read(path))


def _meta(g) -> dict:
    return {
        "schema": SCHEMA,
        "order": g.order,
        "labels": list(g.labels) if g.labels else None,
        "zero": g.zero,
    }


def _emit_json(obj):
    print(json.dumps(obj, indent=2))


def _cmd_product(args):
    g, h = _load(args.left), _load(args.right)
    sys.stdout.write(serialize_groupoid(product(g, h)))
    return 0


def _cmd_derive(args):
    g = _load(args.file)
    pair = factorize(g, args.method)
    sys.stdout.write(serialize_groupoid(pair.left))
    sys.stdout.write("\n")
    sys.stdout.write(serialize_groupoid(pair.right))
    sys.stdout.write("\n")
    print(f"reproduces_target: {'true' if pair.reproduces else 'false'}")
    return 0


def _cmd_classify(args):
    g = _load(args.file)
    report = classify(g)
    out = _meta(g)
    out["predicates"] = report.predicates
    out["classification"] = {
        k: v for k, v in report.to_dict().items()
        if k not in ("order", "predicates")
    }
    _emit_json(out)
    return 0


def _cmd_axioms(args):
    from .axioms import algebra_classes, axiom_vector

    g = _load(args.file)
    out = _meta(g)
    out["axioms"] = axiom_vector(g)
    out["classes"] = algebra_classes(g)
    _emit_json(out)
    return 0


def _cmd_graph(args):
    if args.direction == "from-dot":
        graph, names = parse_dot(_read(args.file))
        sys.stdout.write(serialize_groupoid(from_graph(graph).with_metadata(labels=names)))
        return 0
    g = _load(args.file)
    if args.direction == "to-dot":
        if not is_locally_zero(g):
            print(
                "warning: table is not locally zero; the graph view drops information",
                file=sys.stderr,
            )
        sys.stdout.write(graph_to_dot(to_graph(g), labels=g.labels))
        return 0
    sys.stdout.write(digraph_to_dot(to_digraph(g), labels=g.labels))
    return 0


def _cmd_enumerate(args):
    from .enumeration import all_groupoids, census

    if args.census:
        report = census(args.order)
        out = {
            "schema": SCHEMA,
            "order": report.order,
            "total": report.total,
            "counts": report.counts,
        }
        # from order 51 the exact counts pass CPython's cap on int-to-str
        # digits (4300 by default; before 3.10.7 there is no cap and no
        # getter); lift it for this output alone
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            _emit_json(out)
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        return 0
    for g in all_groupoids(args.order):
        print(" ".join(str(v) for row in g.table for v in row))
    return 0


def _cmd_verify(args):
    from .enumeration import verify_claims

    reports = verify_claims(args.order, sample=args.sample, seed=args.seed)
    out = {
        "schema": SCHEMA,
        "order": args.order,
        "mode": "sampled" if args.sample else "exhaustive",
        "sample": (
            {"count": args.sample, "seed": 0 if args.seed is None else args.seed}
            if args.sample else None
        ),
        "claims": [r.to_dict() for r in reports],
    }
    _emit_json(out)
    return 0


def _cmd_inverse(args):
    g = _load(args.file)
    inv = find_inverse(g)
    if inv is None:
        print("none")
    else:
        sys.stdout.write(serialize_groupoid(inv))
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="binsys",
        description="Finite binary systems: products, factorizations, axioms, graphs.",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="show the binsys logger's DEBUG records (phase and per-claim timings) on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="compose two tables")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=_cmd_product)

    p = sub.add_parser("derive", help="derive a factor pair")
    p.add_argument("--method", choices=sorted(METHODS), required=True)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_derive)

    p = sub.add_parser("classify", help="predicates and factorization flags")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("axioms", help="axiom vector and algebra classes")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_axioms)

    p = sub.add_parser("graph", help="graph translations")
    p.add_argument("direction", choices=["to-dot", "from-dot", "to-digraph"])
    p.add_argument("file")
    p.set_defaults(fn=_cmd_graph)

    p = sub.add_parser(
        "enumerate",
        help=f"list all tables of an order (at most {EXHAUSTIVE_ORDER_LIMIT}), "
        "or count them by flag",
    )
    p.add_argument("--order", type=int, required=True)
    p.add_argument(
        "--census", action="store_true",
        help="print exact per-flag counts over all tables as JSON (any order)",
    )
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("verify", help="check registered claims")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--sample", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("inverse", help="find a compositional inverse")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_inverse)

    return parser


def _run(args) -> int:
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout must fail here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away: send what is left to devnull so the flush
        # at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - invariant breach => exit 3
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if not args.verbose:
        return _run(args)
    import logging

    logger = logging.getLogger("binsys")
    handler, level = logging.StreamHandler(), logger.level  # stderr
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        return _run(args)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
