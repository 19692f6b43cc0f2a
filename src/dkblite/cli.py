"""Command-line binding for batch use.

Exit codes: 0 = entailed / satisfiable / success, 1 = not entailed /
unsatisfiable / disagreement, 2 = usage or parse error, 3 = resource
limit.  Diagnostics go to standard error with line and column; all
output is deterministic for equal inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import kb as K
from .engine import MAX_OVR, ResourceLimitError
from .normalize import normalize
from .parser import ParseError, parse_dkb, parse_query, render_dkb
from .program import export_asp_text
from .reasoner import entails, json_report, justified_models, satisfiable
from .translate import translate

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


class _CliError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _load(path: str) -> K.DKB:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as e:
        raise _CliError(EXIT_USAGE, f"{path}: {e.strerror or e}")
    except UnicodeDecodeError as e:
        raise _CliError(EXIT_USAGE, f"{path}: {e}")
    try:
        return normalize(parse_dkb(text))
    except ParseError as e:
        raise _CliError(
            EXIT_USAGE, f"{path}:{e.line}:{e.column}: {e.kind}: {e.message}")


def _parse_query_arg(args) -> K.Axiom:
    if not args.query:
        raise _CliError(EXIT_USAGE, "entail requires --query")
    try:
        q = parse_query(args.query)
    except ParseError as e:
        raise _CliError(
            EXIT_USAGE,
            f"--query:{e.line}:{e.column}: {e.kind}: {e.message}")
    if (q.shape in (K.NEG_CONCEPT_ASSERTION, K.NEG_ROLE_ASSERTION)
            and not args.extended_queries):
        raise _CliError(
            EXIT_USAGE, "negated queries require --extended-queries")
    return q


def _cmd_check_sat(kb: K.DKB, args) -> int:
    sat = satisfiable(kb, max_ovr=args.max_ovr)
    if args.format == "json":
        print(json.dumps({"satisfiable": sat}))
    else:
        print("satisfiable" if sat else "unsatisfiable")
    return EXIT_OK if sat else EXIT_NO


def _cmd_entail(kb: K.DKB, args) -> int:
    q = _parse_query_arg(args)
    try:
        res = entails(kb, q, max_ovr=args.max_ovr)
    except K.UnknownNameError as e:
        raise _CliError(EXIT_USAGE, f"--query: {e}")
    if args.format == "json":
        print(json.dumps({"entailed": res.entailed,
                          "unsat_flag": res.unsat}))
    else:
        note = " (KB unsatisfiable: everything holds)" if res.unsat else ""
        print(("entailed" if res.entailed else "not entailed") + note)
    return EXIT_OK if res.entailed else EXIT_NO


def _cmd_models(kb: K.DKB, args) -> int:
    if args.format == "json":
        rep = json_report(kb, max_ovr=args.max_ovr)
        print(json.dumps(rep, indent=2))
        return EXIT_OK if rep["satisfiable"] else EXIT_NO
    reports = justified_models(kb, max_ovr=args.max_ovr)
    if not reports:
        print("unsatisfiable")
        return EXIT_NO
    print(f"satisfiable ({len(reports)} model"
          + ("s" if len(reports) != 1 else "") + ")")
    for i, r in enumerate(reports, 1):
        chi = ", ".join(ca.text() for ca in r.chi) or "(none)"
        print(f"model {i}: chi = {chi}")
        for ax in sorted(r.derived_positive):
            print(f"  + {ax.text()}")
        for ax in sorted(r.derived_negative):
            # negated shapes render with their own sign; the marker carries it
            print(f"  - {ax.text()[1:]}")
    return EXIT_OK


def _cmd_translate(kb: K.DKB, args) -> int:
    sys.stdout.write(export_asp_text(translate(kb)))
    return EXIT_OK


def _cmd_normalize(kb: K.DKB, args) -> int:
    if args.format == "json":
        v = kb.vocabulary
        print(json.dumps({
            "concepts": list(v.concepts),
            "roles": list(v.roles),
            "individuals": list(v.individuals),
            "strict": [ax.text() for ax in kb.strict],
            "defeasible": [ax.text() for ax in kb.defeasible],
        }, indent=2))
    else:
        sys.stdout.write(render_dkb(kb))
    return EXIT_OK


def _cmd_oracle_check(kb: K.DKB, args) -> int:
    # Imported here: no other command needs the oracle's code.
    from .oracle import DepthExceeded, oracle_models

    reports = justified_models(kb, max_ovr=args.max_ovr)
    try:
        omodels = oracle_models(kb, depth_cap=args.depth_cap)
    except DepthExceeded as e:
        raise _CliError(EXIT_LIMIT, f"resource limit: {e}")

    disagreements: list[str] = []
    if bool(reports) != bool(omodels):
        disagreements.append(
            f"satisfiability: pipeline={bool(reports)}"
            f" oracle={bool(omodels)}")
    pipe_chis = sorted(sorted(ca.text() for ca in r.chi) for r in reports)
    oracle_chis = sorted(sorted(ca.text() for ca in chi)
                         for chi, _ in omodels)
    if pipe_chis != oracle_chis:
        disagreements.append(
            f"chi sets: pipeline={pipe_chis} oracle={oracle_chis}")

    def oracle_holds(q: K.Axiom) -> bool:
        atom = (q.args[0], tuple(q.args[1:]))
        return all(m.holds(atom) for _, m in omodels)

    checked = 0
    for q in K.named_queries(kb):
        checked += 1
        pipe = all(q in r.derived_positive for r in reports)
        orac = oracle_holds(q) if omodels else True
        if pipe != orac:
            disagreements.append(
                f"query {q.text()}: pipeline={pipe} oracle={orac}")

    if args.format == "json":
        print(json.dumps({
            "agree": not disagreements,
            "models": len(reports),
            "queries_checked": checked,
            "disagreements": disagreements,
        }, indent=2))
    elif disagreements:
        print(f"disagree ({len(disagreements)} finding"
              + ("s" if len(disagreements) != 1 else "") + "):")
        for d in disagreements:
            print(f"  {d}")
    else:
        print(f"agree: {len(reports)} model"
              + ("s" if len(reports) != 1 else "")
              + f", {checked} queries checked")
    return EXIT_OK if not disagreements else EXIT_NO


def _cap(text: str) -> int:
    """argparse type of the cap flags: an integer, 0 or more."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {n}")
    return n


_FLAGS = {
    "--max-ovr": dict(type=_cap, default=MAX_OVR,
                      help=f"cap on exception candidates (default {MAX_OVR})"),
    "--depth-cap": dict(type=_cap, default=3,
                        help="oracle chase depth cap (default 3)"),
    "--extended-queries": dict(action="store_true",
                               help="allow negated assertion queries"),
    "--format": dict(choices=("text", "json"), default="text"),
    "--query": dict(help="assertion text, e.g. 'A(a)'"),
}

# Each command with its help line and exactly the flags it reads.
_COMMANDS = {
    "check-sat": (_cmd_check_sat, "decide satisfiability",
                  ("--max-ovr", "--format")),
    "entail": (_cmd_entail, "decide a ground instance query",
               ("--max-ovr", "--extended-queries", "--format", "--query")),
    "models": (_cmd_models, "report every justified model",
               ("--max-ovr", "--format")),
    "translate": (_cmd_translate, "emit the compiled program as ASP text",
                  ()),
    "normalize": (_cmd_normalize,
                  "emit the normal-form KB in the surface syntax",
                  ("--format",)),
    "oracle-check": (_cmd_oracle_check,
                     "cross-validate the pipeline against the oracle",
                     ("--max-ovr", "--depth-cap", "--format")),
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="dkblite",
        description="Defeasible DL-Lite reasoning over answer sets.")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (_, help_, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("input", help="DKB file in the surface syntax")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return top


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        kb = _load(args.input)
        return _COMMANDS[args.command][0](kb, args)
    except _CliError as e:
        print(str(e), file=sys.stderr)
        return e.code
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_LIMIT


if __name__ == "__main__":
    sys.exit(main())
