"""vlab: decide and certify epimorphic embeddings in product varieties.

Subcommands: order, verbal, wreath, kk-embed, epi, bounds, magnus, escape,
pipeline, scenario.  Reports go to stdout as JSON (default) or aligned text;
exit code 0 on success, 2 when the outcome is unknown, 1 on error.  Each
--max-* option overrides the resource budget of the same name (vlab.config).

Each subcommand builds one report and one exit code, which run_command
emits in one place; flat reports share one envelope (schema, command, the
fields, then the budgets).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .catalog import (bundled_catalog, bundled_fixtures, load_catalog,
                      load_fixtures, resolve_group_name, resolve_subgroup)
from .config import Budgets
from .engine import (EngineContext, UNKNOWN, EscapeExhausted,
                     dominion_bounds, epi_decide, find_wreath_escape,
                     simpletimes_pipeline, verify_certificate)
from .errors import GroupError, ParseError
from .constructions import kaloujnine_krasner, regular_wreath
from .power_series import law_failure_witness
from .scenarios import SCENARIOS, find_scenario
from .varieties import parse_descriptor, q_verbal
from .words import parse_word

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNKNOWN = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--format", choices=("json", "text"), default="json",
                        help="report format (default json)")
    parser.add_argument("--catalog", help="catalog file (default: bundled)")
    parser.add_argument("--fixtures", help="fixture file (default: bundled)")
    for budget in fields(Budgets):
        parser.add_argument("--" + budget.name.replace("_", "-"), type=int,
                            default=budget.default,
                            help="default %(default)s")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("order", help="order of a named group")
    p.add_argument("group", help="group name, e.g. A5, S4, D6, Q8, C2wrC3")

    p = sub.add_parser("verbal", help="verbal subgroup of a group")
    p.add_argument("--group", required=True)
    p.add_argument("--descriptor", required=True,
                   help="A | Nc:c | Sl:n | var:NAME | laws:{...} | prod(,)")

    p = sub.add_parser("wreath", help="regular wreath product A wr B")
    p.add_argument("--bottom", required=True)
    p.add_argument("--top", required=True)

    p = sub.add_parser("kk-embed",
                       help="embed an extension into (normal) wr (quotient)")
    p.add_argument("--group", required=True)
    p.add_argument("--normal", required=True,
                   help="normal subgroup: generators in cycle notation "
                        "separated by ';', or a group name")

    p = sub.add_parser("epi", help="decide epimorphic embedding")
    p.add_argument("--variety", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--sub", required=True,
                   help="subgroup: a name (embedded on the first points) or "
                        "';'-separated generators in cycle notation")
    p.add_argument("--verify", action="store_true",
                   help="re-verify the certificate before reporting")

    p = sub.add_parser("bounds", help="dominion bounds for a subgroup")
    p.add_argument("--variety", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--sub", required=True)

    p = sub.add_parser("magnus",
                       help="defeat a reduced word in a finite p-group of "
                            "truncated unit series")
    p.add_argument("--word", required=True)
    p.add_argument("-p", type=int, required=True, dest="prime")

    p = sub.add_parser("escape",
                       help="find G in the variety with base wr G outside it")
    p.add_argument("--base", required=True)
    p.add_argument("--variety", required=True)

    p = sub.add_parser("pipeline",
                       help="lift a fixture epi through a wreath escape")
    p.add_argument("--simple", required=True, help="simple nonabelian group")
    p.add_argument("--sub", required=True)
    p.add_argument("--left", required=True, help="descriptor for N")
    p.add_argument("--right", required=True, help="descriptor for Q")

    p = sub.add_parser("scenario", help="run bundled scenarios")
    p.add_argument("name", nargs="?", help="scenario name")
    p.add_argument("--all", action="store_true")
    p.add_argument("--list", action="store_true")

    return parser


def make_context(args) -> EngineContext:
    budgets = Budgets(**{budget.name: getattr(args, budget.name)
                         for budget in fields(Budgets)})
    catalog = (load_catalog(args.catalog) if args.catalog
               else bundled_catalog())
    fixtures = (load_fixtures(args.fixtures) if args.fixtures
                else bundled_fixtures())
    return EngineContext(fixtures=fixtures, catalog=catalog, budgets=budgets)


def emit(report: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(*_text_lines(report, indent=0), sep="\n")


def _text_lines(value: dict | list, indent: int):
    pad = "  " * indent
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list)):
                yield f"{pad}{key}:"
                yield from _text_lines(item, indent + 1)
            else:
                yield f"{pad}{key}: {item}"
    else:
        for item in value:
            if isinstance(item, (dict, list)):
                yield from _text_lines(item, indent + 1)
            else:
                yield f"{pad}- {item}"


def _envelope(args, ctx: EngineContext, **fields) -> dict:
    """The envelope of a flat report: schema, command, fields, budgets."""
    return {"schema": 1, "command": args.command, **fields,
            "budgets": ctx.budgets.as_dict()}


def run_command(args) -> int:
    """Build the command's report and exit code, then emit the report."""
    ctx = make_context(args)
    code = EXIT_OK
    if args.command == "order":
        G = resolve_group_name(args.group, ctx.catalog)
        report = _envelope(args, ctx, group=args.group, order=G.order())
    elif args.command == "verbal":
        G = resolve_group_name(args.group, ctx.catalog)
        desc = parse_descriptor(args.descriptor)
        V = q_verbal(G, desc, ctx.budgets)
        report = _envelope(args, ctx, group=args.group, descriptor=str(desc),
                           order=V.order(),
                           generators=[str(g) for g in V.generators])
    elif args.command == "wreath":
        A = resolve_group_name(args.bottom, ctx.catalog)
        B = resolve_group_name(args.top, ctx.catalog)
        w = regular_wreath(A, B, ctx.budgets)
        report = _envelope(args, ctx, bottom=args.bottom, top=args.top,
                           degree=w.product.degree, order=w.product.order(),
                           base_order=w.base_subgroup().order(),
                           blocks=w.block_count)
    elif args.command == "kk-embed":
        E = resolve_group_name(args.group, ctx.catalog)
        A = resolve_subgroup(args.normal, E)
        hom, wreath, q = kaloujnine_krasner(E, A, ctx.budgets)
        report = _envelope(
            args, ctx, group=args.group, normal_order=A.order(),
            quotient_order=q.group.order(),
            wreath_degree=wreath.product.degree,
            wreath_order=wreath.product.order(),
            image_order=hom.image().order(), injective=hom.is_injective(),
            generator_images=[str(p) for p in hom.generator_images])
    elif args.command == "epi":
        G = resolve_group_name(args.group, ctx.catalog)
        H = resolve_subgroup(args.sub, G)
        desc = parse_descriptor(args.variety)
        verdict = epi_decide(G, H, desc, ctx)
        report = {**verdict.to_json(), "command": "epi", "group": args.group,
                  "sub": args.sub, "variety": str(desc)}
        if args.verify and verdict.outcome != UNKNOWN:
            report["certificate_reverified"] = verify_certificate(
                G, H, desc, verdict, ctx)
        code = EXIT_UNKNOWN if verdict.outcome == UNKNOWN else EXIT_OK
    elif args.command == "bounds":
        G = resolve_group_name(args.group, ctx.catalog)
        H = resolve_subgroup(args.sub, G)
        desc = parse_descriptor(args.variety)
        bounds = dominion_bounds(G, H, desc, ctx)
        report = _envelope(args, ctx, group=args.group, sub=args.sub,
                           variety=str(desc), lower_order=bounds.lower.order(),
                           upper_order=bounds.upper.order(),
                           exact=bounds.exact, derivation=bounds.derivation)
    elif args.command == "magnus":
        word = parse_word(args.word)
        witness = law_failure_witness(word, args.prime)
        report = _envelope(
            args, ctx, word=str(word), p=args.prime,
            truncation_degree=witness.truncation,
            witness_monomial="".join(f"y{v}" for v in witness.monomial),
            predicted_coefficient=witness.predicted_coefficient,
            extracted_coefficient=witness.extracted_coefficient,
            image_is_one=witness.image_is_one, consistent=witness.consistent,
            assignment="each variable x_i maps to 1 + y_i in the unit "
                       "group of the truncated series ring")
        code = EXIT_OK if witness.consistent else EXIT_ERROR
    elif args.command == "escape":
        A = resolve_group_name(args.base, ctx.catalog)
        desc = parse_descriptor(args.variety)
        try:
            result = find_wreath_escape(A, desc, ctx)
        except EscapeExhausted as exc:
            report = _envelope(args, ctx, base=args.base, variety=str(desc),
                               outcome=UNKNOWN, reason=str(exc),
                               skipped=list(exc.skipped))
            code = EXIT_UNKNOWN
        else:
            report = {**result.to_json(), "command": "escape",
                      "base": args.base, "variety": str(desc),
                      "outcome": "found", "budgets": ctx.budgets.as_dict()}
    elif args.command == "pipeline":
        S = resolve_group_name(args.simple, ctx.catalog)
        H = resolve_subgroup(args.sub, S)
        left = parse_descriptor(args.left)
        right = parse_descriptor(args.right)
        result = simpletimes_pipeline(S, H, left, right, ctx)
        report = {**result.to_json(), "command": "pipeline"}
        code = EXIT_UNKNOWN if result.verdict.outcome == UNKNOWN else EXIT_OK
    else:  # scenario, the last of the subparsers' choices
        if args.list or (not args.name and not args.all):
            report = {"schema": 1, "command": "scenario", "scenarios": [
                {"name": s.name, "description": s.description}
                for s in SCENARIOS]}
        else:
            chosen = SCENARIOS if args.all else [find_scenario(args.name)]
            outcomes = [(s.name, s.run(ctx)) for s in chosen]
            results = [{"name": name, "ok": out.get("ok", False),
                        "report": out} for name, out in outcomes]
            all_ok = all(r["ok"] for r in results)
            report = _envelope(args, ctx, ok=all_ok, results=results)
            code = EXIT_OK if all_ok else EXIT_ERROR
    emit(report, args.format)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        return run_command(args)
    except GroupError as exc:
        label = "parse error" if isinstance(exc, ParseError) else "error"
        print(f"{label}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
