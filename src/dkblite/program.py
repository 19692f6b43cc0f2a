"""Logic-program representation and its textual ASP form.

Literals are positive or strongly negated atoms over a fixed predicate
vocabulary.  Rules have a positive body and a default-negated body part.
Terms are plain strings; a term starting with '?' is a variable, anything
else is a constant.  The exported text uses the common conventions: strong
negation as a '-' prefix, default negation as 'not ', ':-' between head and
body, and '.' as terminator.  Constants that do not look like lowercase
identifiers are double-quoted so concept names keep their case.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


def is_var(term: str) -> bool:
    return term.startswith("?")


@dataclass(frozen=True, order=True)
class Literal:
    neg: bool
    pred: str
    args: tuple[str, ...]

    def complement(self) -> "Literal":
        return Literal(not self.neg, self.pred, self.args)

    def text(self) -> str:
        sign = "-" if self.neg else ""
        if not self.args:
            return f"{sign}{self.pred}"
        inner = ",".join(_term_text(a) for a in self.args)
        return f"{sign}{self.pred}({inner})"


def lit(pred: str, *args: str) -> Literal:
    return Literal(False, pred, tuple(args))


def neg(pred: str, *args: str) -> Literal:
    return Literal(True, pred, tuple(args))


@dataclass(frozen=True)
class Rule:
    """head <- body, not naf[0], ..., not naf[-1].

    A plain record: safety (every head and negated variable occurs in
    the positive body) is checked by engine.ground, once per rule."""
    head: Literal
    body: tuple[Literal, ...] = ()
    naf: tuple[Literal, ...] = ()
    name: str = field(default="", compare=False)


@dataclass(frozen=True)
class Program:
    """Rules plus ground facts plus the ordered constant pool.

    `constants` lists named individuals first, then auxiliary constants;
    the successor-chain facts follow this order.  `candidates` are atoms
    a model search may assume even where no rule negates them.
    """
    rules: tuple[Rule, ...] = ()
    facts: tuple[Literal, ...] = ()
    constants: tuple[str, ...] = ()
    candidates: tuple[Literal, ...] = ()


_PLAIN = re.compile(r"[a-z][A-Za-z0-9_]*\Z")


def _term_text(term: str) -> str:
    if is_var(term):
        # ?x -> X, ?x1 -> X1; variables are lowercase internally.
        return term[1].upper() + term[2:]
    if _PLAIN.match(term):
        return term
    return '"' + term.replace('"', '\\"') + '"'


def _rule_text(r: Rule) -> str:
    parts = [l.text() for l in r.body]
    parts += ["not " + l.text() for l in r.naf]
    if parts:
        return f"{r.head.text()} :- {', '.join(parts)}."
    return f"{r.head.text()}."


def export_asp_text(p: Program) -> str:
    """Deterministic text form: constants header, sorted facts, rules in
    program order.  Reparsing the output reproduces the Program, but
    for its candidates."""
    lines: list[str] = []
    if p.constants:
        lines.append("% constants: " + " ".join(p.constants))
    for f in sorted(p.facts, key=lambda l: (l.pred, l.neg, l.args)):
        lines.append(f.text() + ".")
    last_group = None
    for r in p.rules:
        group = r.name.split("_", 1)[0] if r.name else ""
        if r.name and group != last_group:
            lines.append("")
            last_group = group
        lines.append(_rule_text(r) + (f"  % {r.name}" if r.name else ""))
    return "\n".join(lines) + "\n"


class AspSyntaxError(ValueError):
    pass


_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<arrow>:-)
  | (?P<punct>[(),.])
  | (?P<minus>-)
  | (?P<quoted>"(?:[^"\\]|\\.)*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
""", re.VERBOSE)


def _tokenize(text: str):
    pos = 0
    header = None
    m_header = re.match(r"%\s*constants:\s*([^\n]*)\n?", text)
    if m_header:
        header = tuple(m_header.group(1).split())
        pos = m_header.end()
    tokens: list[str] = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise AspSyntaxError(f"bad token at offset {pos}: {text[pos:pos+20]!r}")
        pos = m.end()
        if m.lastgroup in ("ws", "comment"):
            continue
        tokens.append(m.group())
    return header, tokens


def parse_asp_text(text: str) -> Program:
    """Inverse of export_asp_text, except that rule names (trailing
    comments) are dropped.  Loads the rule schema; also used for
    round-trip checks and fixtures.

    Uppercase-initial identifiers become variables, quoted strings and
    lowercase identifiers become constants.
    """
    header, toks = _tokenize(text)
    i = 0

    def peek():
        return toks[i] if i < len(toks) else None

    def take(expect=None):
        nonlocal i
        if i >= len(toks):
            raise AspSyntaxError("unexpected end of input")
        t = toks[i]
        if expect is not None and t != expect:
            raise AspSyntaxError(f"expected {expect!r}, got {t!r}")
        i += 1
        return t

    def term():
        t = take()
        if t.startswith('"'):
            return t[1:-1].replace('\\"', '"')
        if not re.match(r"[A-Za-z_][A-Za-z0-9_]*\Z", t):
            raise AspSyntaxError(f"expected term, got {t!r}")
        if t[0].isupper():
            return "?" + t[0].lower() + t[1:]
        return t

    def literal():
        negd = False
        if peek() == "-":
            take()
            negd = True
        pred = take()
        if not re.match(r"[a-z_][A-Za-z0-9_]*\Z", pred):
            raise AspSyntaxError(f"expected predicate, got {pred!r}")
        args: list[str] = []
        if peek() == "(":
            take("(")
            args.append(term())
            while peek() == ",":
                take(",")
                args.append(term())
            take(")")
        return Literal(negd, pred, tuple(args))

    rules: list[Rule] = []
    facts: list[Literal] = []
    while i < len(toks):
        head = literal()
        body: list[Literal] = []
        naf: list[Literal] = []
        if peek() == ":-":
            take(":-")
            while True:
                if peek() == "not":
                    take()
                    naf.append(literal())
                else:
                    body.append(literal())
                if peek() == ",":
                    take(",")
                    continue
                break
        take(".")
        if not body and not naf and not any(is_var(a) for a in head.args):
            facts.append(head)
        else:
            rules.append(Rule(head, tuple(body), tuple(naf)))
    return Program(tuple(rules), tuple(facts), header or ())
