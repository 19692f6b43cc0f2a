"""Textual knowledge-base format.

One axiom per statement, '.'-terminated; '%' starts a comment; whitespace
is otherwise insignificant.  Statement forms:

    concept A.   role R.   individual a.        (optional declarations)
    A(a).  -A(a).  R(a,b).  -R(a,b).
    exists R(a).  -exists R(a).
    A [= B.   A [= -B.   A [= exists R.   A [= -exists R.
    exists R [= B.   R [= S.
    Dis(R,S).  Inv(R,S).  Irr(R).
    D( <any axiom above> ).                      (defeasible)

`R^-` may stand in any role position and denotes the inverse of R.
Names are auto-registered by use: an uppercase-initial name in a concept
position is a concept, any name in a role position is a role, and a
lowercase-initial argument is an individual; declarations override the
case convention.  A bare inclusion `X [= Y` reads as a role inclusion
when both names are known roles, otherwise as a concept inclusion.
Names starting with '_' are reserved for the normalizer.  `Ref(R)` is
recognized and rejected: the semantics excludes reflexivity axioms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import kb as K

# Surface-only shapes, on top of the normal-form ones in kb.
NEG_SUPEX = "neg_supex"                    # A [= -exists R
EXISTS_ASSERTION = "exists_assertion"      # exists R(a)
NEG_EXISTS_ASSERTION = "neg_exists_assertion"  # -exists R(a)

_DECL_KEYWORDS = ("concept", "role", "individual")
_ROLE_AXIOMS = {"Dis": K.DIS, "Inv": K.INV, "Irr": K.IRR}


@dataclass(frozen=True)
class SurfaceAxiom:
    """Axiom as written: normal shapes plus the three surface-only ones.

    Role arguments may carry a trailing '^-' inverse marker; the
    normalizer strips or rewrites them.
    """

    shape: str
    args: tuple[str, ...]
    defeasible: bool = False

    def text(self) -> str:
        d = lambda s: f"D({s})" if self.defeasible else s
        a = self.args
        if self.shape == NEG_SUPEX:
            return d(f"{a[0]} [= -exists {a[1]}")
        if self.shape == EXISTS_ASSERTION:
            return d(f"exists {a[0]}({a[1]})")
        if self.shape == NEG_EXISTS_ASSERTION:
            return d(f"-exists {a[0]}({a[1]})")
        return d(K.Axiom(self.shape, a).text())


@dataclass(frozen=True)
class SurfaceKB:
    axioms: tuple[SurfaceAxiom, ...]
    concepts: tuple[str, ...] = ()
    roles: tuple[str, ...] = ()
    individuals: tuple[str, ...] = ()


class ParseError(Exception):
    def __init__(self, line: int, column: int, message: str,
                 kind: str = "syntax"):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message
        self.kind = kind  # syntax | unknown-construct | reflexivity-rejected


@dataclass(frozen=True)
class _Tok:
    kind: str  # name, incl, inv, lp, rp, comma, dot, minus, eof
    value: str
    line: int
    column: int


_TOKEN = re.compile(
    r"(?P<ws>[ \t\r]+)|(?P<nl>\n)|(?P<comment>%[^\n]*)"
    r"|(?P<incl>\[=)|(?P<inv>\^-)|(?P<lp>\()|(?P<rp>\))"
    r"|(?P<comma>,)|(?P<dot>\.)|(?P<minus>-)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<bad>.)")


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col = 1, 1
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        value = m.group()
        if kind == "nl":
            line += 1
            col = 1
            continue
        if kind in ("ws", "comment"):
            col += len(value)
            continue
        if kind == "bad":
            raise ParseError(line, col, f"unexpected character {value!r}")
        if kind == "name" and value.startswith("_"):
            raise ParseError(line, col,
                             f"{value!r}: names starting with '_' are reserved")
        toks.append(_Tok(kind, value, line, col))
        col += len(value)
    toks.append(_Tok("eof", "", line, col))
    return toks


# Untyped statement forms produced by the grammar pass; name resolution
# into SurfaceAxioms happens once the whole document has been read.
@dataclass
class _Assertion:
    neg: bool
    exists: bool
    pred: _Tok            # concept or role name (exists: always role)
    role_inv: bool
    args: list[_Tok]
    defeasible: bool = False


@dataclass
class _Inclusion:
    lhs: tuple            # ("name", tok) | ("ex", tok, inv)
    rhs: tuple            # ("name", tok) | ("negname", tok) | ("ex", tok, inv) | ("negex", tok, inv)
    defeasible: bool = False


@dataclass
class _RoleAxiom:
    shape: str
    roles: list[tuple[_Tok, bool]]
    defeasible: bool = False


@dataclass
class _Decl:
    sort: str
    name: _Tok


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Tok:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def take(self, kind: str, what: str | None = None) -> _Tok:
        t = self.toks[self.pos]
        if t.kind != kind:
            shown = t.value if t.kind != "eof" else "end of input"
            raise ParseError(t.line, t.column,
                             f"expected {what or kind}, found {shown!r}")
        self.pos += 1
        return t

    def statements(self) -> list:
        out = []
        while self.peek().kind != "eof":
            out.append(self.statement())
        return out

    def statement(self):
        t = self.peek()
        if t.kind == "name" and t.value in _DECL_KEYWORDS \
                and self.peek(1).kind == "name":
            self.pos += 1
            name = self.take("name", "a name")
            self.take("dot", "'.'")
            return _Decl(t.value, name)
        ax = self.axiom(allow_defeasible=True)
        self.take("dot", "'.'")
        return ax

    def _role(self) -> tuple[_Tok, bool]:
        name = self.take("name", "a role name")
        inv = False
        if self.peek().kind == "inv":
            self.pos += 1
            inv = True
        return name, inv

    def axiom(self, allow_defeasible: bool):
        t = self.peek()
        if t.kind == "name" and t.value == "D" and self.peek(1).kind == "lp" \
                and self._wraps_axiom():
            if not allow_defeasible:
                raise ParseError(t.line, t.column, "nested D(...) wrapper",
                                 kind="unknown-construct")
            self.pos += 2
            inner = self.axiom(allow_defeasible=False)
            self.take("rp", "')'")
            inner.defeasible = True
            return inner
        if t.kind == "name" and t.value == "Ref" and self.peek(1).kind == "lp":
            raise ParseError(t.line, t.column,
                             "reflexivity axioms are not supported",
                             kind="reflexivity-rejected")
        if t.kind == "name" and t.value in _ROLE_AXIOMS \
                and self.peek(1).kind == "lp":
            return self._role_axiom(t.value)
        if t.kind == "minus" or (t.kind == "name" and t.value == "exists"):
            return self._neg_or_exists_start()
        if t.kind == "name":
            if self.peek(1).kind == "lp":
                return self._plain_assertion(neg=False)
            if self.peek(1).kind in ("incl", "inv"):
                return self._inclusion_from_name()
        shown = t.value if t.kind != "eof" else "end of input"
        raise ParseError(t.line, t.column, f"expected an axiom, found {shown!r}")

    def _wraps_axiom(self) -> bool:
        """D( ... ) is a defeasible wrapper unless the parentheses hold a
        bare argument list, in which case D is an ordinary predicate."""
        depth = 0
        i = self.pos + 1
        while i < len(self.toks):
            t = self.toks[i]
            if t.kind == "lp":
                depth += 1
            elif t.kind == "rp":
                depth -= 1
                if depth == 0:
                    break
            elif depth == 1 and t.kind not in ("name", "comma"):
                return True
            elif depth == 1 and t.kind == "name" and t.value == "exists":
                return True
            i += 1
        inner = self.toks[self.pos + 2:i]
        return not all(t.kind in ("name", "comma") for t in inner)

    def _role_axiom(self, head: str):
        shape = _ROLE_AXIOMS[head]
        self.pos += 1
        self.take("lp", "'('")
        roles = [self._role()]
        if shape != K.IRR:
            self.take("comma", "','")
            roles.append(self._role())
        self.take("rp", "')'")
        return _RoleAxiom(shape, roles)

    def _neg_or_exists_start(self):
        neg = False
        if self.peek().kind == "minus":
            self.pos += 1
            neg = True
        t = self.peek()
        if t.kind == "name" and t.value == "exists":
            self.pos += 1
            role, inv = self._role()
            if self.peek().kind == "lp":
                self.pos += 1
                arg = self.take("name", "an individual")
                self.take("rp", "')'")
                return _Assertion(neg, True, role, inv, [arg])
            if neg:
                raise ParseError(t.line, t.column,
                                 "negated existential cannot start an inclusion",
                                 kind="unknown-construct")
            self.take("incl", "'[='")
            rhs = self._rhs()
            if rhs[0] != "name":
                raise ParseError(t.line, t.column,
                                 "an existential left side takes an atomic "
                                 "right side only", kind="unknown-construct")
            return _Inclusion(("ex", role, inv), rhs)
        if not neg:
            raise ParseError(t.line, t.column, "expected an axiom")
        return self._plain_assertion(neg=True)

    def _plain_assertion(self, neg: bool):
        pred = self.take("name", "a name")
        self.take("lp", "'('")
        args = [self.take("name", "an individual")]
        if self.peek().kind == "comma":
            self.pos += 1
            args.append(self.take("name", "an individual"))
        self.take("rp", "')'")
        return _Assertion(neg, False, pred, False, args)

    def _inclusion_from_name(self):
        name = self.take("name", "a name")
        inv = False
        if self.peek().kind == "inv":
            self.pos += 1
            inv = True
        self.take("incl", "'[='")
        rhs = self._rhs()
        return _Inclusion(("name", name) if not inv else ("rname", name, True),
                          rhs)

    def _rhs(self) -> tuple:
        neg = False
        if self.peek().kind == "minus":
            self.pos += 1
            neg = True
        t = self.peek()
        if t.kind == "name" and t.value == "exists":
            self.pos += 1
            role, inv = self._role()
            return ("negex", role, inv) if neg else ("ex", role, inv)
        name = self.take("name", "a name")
        inv = False
        if self.peek().kind == "inv":
            self.pos += 1
            inv = True
        if inv:
            if neg:
                raise ParseError(t.line, t.column,
                                 "a negated right side must be atomic",
                                 kind="unknown-construct")
            return ("rname", name, True)
        return ("negname", name) if neg else ("name", name)


@dataclass
class _Registry:
    concepts: dict[str, _Tok] = field(default_factory=dict)
    roles: dict[str, _Tok] = field(default_factory=dict)
    individuals: dict[str, _Tok] = field(default_factory=dict)

    def add(self, sort: str, tok: _Tok) -> None:
        table = getattr(self, sort)
        table.setdefault(tok.value, tok)

    def check_disjoint(self) -> None:
        """Report the name used in two sorts whose token comes first in
        the document, so the diagnostic does not depend on set order."""
        clashes = []
        for a, b, what in (("concepts", "roles", "a concept and a role"),
                           ("concepts", "individuals",
                            "a concept and an individual"),
                           ("roles", "individuals",
                            "a role and an individual")):
            table = getattr(self, b)
            for name in getattr(self, a).keys() & table.keys():
                tok = table[name]
                clashes.append((tok.line, tok.column, name, what))
        if clashes:
            line, column, name, what = min(clashes)
            raise ParseError(line, column, f"{name!r} is used as both {what}",
                             kind="unknown-construct")


def _register_statement(st, reg: _Registry) -> None:
    if isinstance(st, _Decl):
        reg.add(st.sort + "s", st.name)
    elif isinstance(st, _RoleAxiom):
        for tok, _ in st.roles:
            reg.add("roles", tok)
    elif isinstance(st, _Assertion):
        if st.exists or len(st.args) == 2:
            reg.add("roles", st.pred)
        for arg in st.args:
            _register_individual(arg, reg)
    elif isinstance(st, _Inclusion):
        for side in (st.lhs, st.rhs):
            if side[0] in ("ex", "negex", "rname"):
                reg.add("roles", side[1])


def _register_individual(tok: _Tok, reg: _Registry) -> None:
    if tok.value in reg.individuals:
        return
    if tok.value[0].isupper() and tok.value not in reg.individuals:
        raise ParseError(tok.line, tok.column,
                         f"{tok.value!r}: individuals are lowercase-initial "
                         "(or declare it with 'individual')",
                         kind="unknown-construct")
    reg.add("individuals", tok)


def _concept_name(tok: _Tok, reg: _Registry) -> str:
    if tok.value in reg.concepts:
        return tok.value
    if tok.value in reg.roles:
        raise ParseError(tok.line, tok.column,
                         f"{tok.value!r} is used as both a concept and a role",
                         kind="unknown-construct")
    if not tok.value[0].isupper():
        raise ParseError(tok.line, tok.column,
                         f"{tok.value!r}: concepts are uppercase-initial "
                         "(or declare it with 'concept')",
                         kind="unknown-construct")
    reg.add("concepts", tok)
    return tok.value


def _role_term(tok: _Tok, inverted: bool, reg: _Registry) -> str:
    reg.add("roles", tok)
    return tok.value + "^-" if inverted else tok.value


def _resolve(st, reg: _Registry) -> SurfaceAxiom:
    if isinstance(st, _Assertion):
        if st.exists:
            role = _role_term(st.pred, st.role_inv, reg)
            shape = NEG_EXISTS_ASSERTION if st.neg else EXISTS_ASSERTION
            return SurfaceAxiom(shape, (role, st.args[0].value), st.defeasible)
        if len(st.args) == 2:
            role = _role_term(st.pred, False, reg)
            shape = K.NEG_ROLE_ASSERTION if st.neg else K.ROLE_ASSERTION
            return SurfaceAxiom(
                shape, (role, st.args[0].value, st.args[1].value),
                st.defeasible)
        concept = _concept_name(st.pred, reg)
        shape = K.NEG_CONCEPT_ASSERTION if st.neg else K.CONCEPT_ASSERTION
        return SurfaceAxiom(shape, (concept, st.args[0].value), st.defeasible)
    if isinstance(st, _RoleAxiom):
        roles = tuple(_role_term(t, i, reg) for t, i in st.roles)
        return SurfaceAxiom(st.shape, roles, st.defeasible)
    return _resolve_inclusion(st, reg)


def _resolve_inclusion(st: _Inclusion, reg: _Registry) -> SurfaceAxiom:
    lhs, rhs = st.lhs, st.rhs
    # A bare name [= bare name statement is a role inclusion only when
    # both names are known as roles.
    if lhs[0] == "name" and rhs[0] == "name":
        ln, rn = lhs[1], rhs[1]
        l_role, r_role = ln.value in reg.roles, rn.value in reg.roles
        if l_role and r_role:
            return SurfaceAxiom(K.SUBROLE, (ln.value, rn.value), st.defeasible)
        if l_role or r_role:
            tok = rn if l_role else ln
            raise ParseError(tok.line, tok.column,
                             f"{tok.value!r}: inclusion mixes a role with a "
                             f"concept (declare 'role {tok.value}.' if a role "
                             "inclusion was intended)",
                             kind="unknown-construct")
        return SurfaceAxiom(K.SUBCLASS,
                            (_concept_name(ln, reg), _concept_name(rn, reg)),
                            st.defeasible)
    if lhs[0] == "rname" or (lhs[0] == "name" and rhs[0] == "rname"):
        # An inverse marker forces the role reading on both sides.
        l_tok, l_inv = (lhs[1], True) if lhs[0] == "rname" else (lhs[1], False)
        if rhs[0] == "rname":
            r_tok, r_inv = rhs[1], True
        elif rhs[0] == "name":
            r_tok, r_inv = rhs[1], False
        else:
            raise ParseError(lhs[1].line, lhs[1].column,
                             "a role inclusion takes a role right side",
                             kind="unknown-construct")
        return SurfaceAxiom(K.SUBROLE,
                            (_role_term(l_tok, l_inv, reg),
                             _role_term(r_tok, r_inv, reg)), st.defeasible)
    if lhs[0] == "ex":
        role = _role_term(lhs[1], lhs[2], reg)
        return SurfaceAxiom(K.SUBEX, (role, _concept_name(rhs[1], reg)),
                            st.defeasible)
    concept = _concept_name(lhs[1], reg)
    if rhs[0] == "name":
        return SurfaceAxiom(K.SUBCLASS, (concept, _concept_name(rhs[1], reg)),
                            st.defeasible)
    if rhs[0] == "negname":
        return SurfaceAxiom(K.SUPNOT, (concept, _concept_name(rhs[1], reg)),
                            st.defeasible)
    role = _role_term(rhs[1], rhs[2], reg)
    shape = K.SUPEX if rhs[0] == "ex" else NEG_SUPEX
    return SurfaceAxiom(shape, (concept, role), st.defeasible)


def parse_dkb(text: str) -> SurfaceKB:
    """Parse a document into a surface knowledge base.

    Raises ParseError with 1-based position, message, and kind."""
    statements = _Parser(_tokenize(text)).statements()
    reg = _Registry()
    for st in statements:
        if isinstance(st, _Decl):
            _register_statement(st, reg)
    for st in statements:
        if not isinstance(st, _Decl):
            _register_statement(st, reg)
    axioms = tuple(_resolve(st, reg) for st in statements
                   if not isinstance(st, _Decl))
    reg.check_disjoint()
    return SurfaceKB(axioms,
                     tuple(sorted(reg.concepts)),
                     tuple(sorted(reg.roles)),
                     tuple(sorted(reg.individuals)))


def render_dkb(kb: K.DKB) -> str:
    """The surface text of a normal-form KB: declarations, then strict
    axioms, then D(...)-wrapped defeasible ones."""
    v = kb.vocabulary
    lines = [f"concept {n}." for n in v.concepts]
    lines += [f"role {n}." for n in v.roles]
    lines += [f"individual {n}." for n in v.individuals]
    lines += [f"{ax.text()}." for ax in kb.strict]
    lines += [f"D({ax.text()})." for ax in kb.defeasible]
    return "\n".join(lines) + "\n"


def parse_query(text: str) -> K.Axiom:
    """Parse a ground assertion query: A(a), R(a,b), or their negations."""
    toks = _tokenize(text)
    p = _Parser(toks)
    neg = False
    if p.peek().kind == "minus":
        p.pos += 1
        neg = True
    pred = p.take("name", "a concept or role name")
    p.take("lp", "'('")
    args = [p.take("name", "an individual")]
    if p.peek().kind == "comma":
        p.pos += 1
        args.append(p.take("name", "an individual"))
    p.take("rp", "')'")
    if p.peek().kind == "dot":
        p.pos += 1
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(t.line, t.column, f"trailing input {t.value!r}")
    if len(args) == 2:
        shape = K.NEG_ROLE_ASSERTION if neg else K.ROLE_ASSERTION
        return K.Axiom(shape, (pred.value, args[0].value, args[1].value))
    shape = K.NEG_CONCEPT_ASSERTION if neg else K.CONCEPT_ASSERTION
    return K.Axiom(shape, (pred.value, args[0].value))
