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

`R^-`, the inverse of R, may follow the role of an existential, either
side of a role inclusion and each role of Dis, Inv and Irr; a role
assertion takes none (`R^-(a,b)` is rejected).  D(...) wraps only an
axiom: `D(a)` and `D(a,b)` assert a predicate named D.
Names follow kb.NAME; `exists` (kb.KEYWORDS) is a keyword, never a name,
and Dis, Inv, Irr and Ref (kb.RESERVED) name no concept or role.
Names are auto-registered by use: an uppercase-initial name in a concept
position is a concept, any name in a role position is a role, and a
lowercase-initial argument is an individual (case past any leading '_');
declarations override the case convention.  A bare inclusion `X [= Y`
reads as a role inclusion when both names are known roles, otherwise as
a concept inclusion.  `Ref(R)` is recognized and rejected: the semantics
excludes reflexivity axioms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

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


class _Tok(NamedTuple):
    kind: str  # name, exists, incl, inv, lp, rp, comma, dot, minus, eof
    value: str
    line: int
    column: int


_TOKEN = re.compile(
    r"(?P<ws>[ \t\r]+)|(?P<nl>\n)|(?P<comment>%[^\n]*)"
    r"|(?P<incl>\[=)|(?P<inv>\^-)|(?P<lp>\()|(?P<rp>\))"
    r"|(?P<comma>,)|(?P<dot>\.)|(?P<minus>-)"
    r"|(?P<name>" + K.NAME + r")|(?P<bad>.)")


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
        if value in K.KEYWORDS:
            kind = value  # a keyword, never a name
        toks.append(_Tok(kind, value, line, col))
        col += len(value)
    toks.append(_Tok("eof", "", line, col))
    return toks


def _expected(what: str, t: _Tok) -> ParseError:
    shown = t.value if t.kind != "eof" else "end of input"
    return ParseError(t.line, t.column, f"expected {what}, found {shown!r}")


# Untyped statement forms produced by the grammar pass; name resolution
# into SurfaceAxioms happens once the whole document has been read.
class _Term(NamedTuple):
    """`[-] [exists] name [^-]`: an inclusion side, predicate or role."""

    neg: bool
    exists: bool
    name: _Tok
    inv: bool = False


class _Assertion(NamedTuple):
    pred: _Term           # exists: a role; otherwise the arity decides
    args: list[_Tok]
    defeasible: bool = False


class _Inclusion(NamedTuple):
    lhs: _Term
    rhs: _Term
    defeasible: bool = False


class _RoleAxiom(NamedTuple):
    shape: str
    roles: list[_Term]
    defeasible: bool = False


class _Decl(NamedTuple):
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
            raise _expected(what or kind, t)
        self.pos += 1
        return t

    def accept(self, kind: str) -> bool:
        """Consume the next token if it is of this kind."""
        if self.toks[self.pos].kind != kind:
            return False
        self.pos += 1
        return True

    def statements(self) -> list:
        out = []
        while self.peek().kind != "eof":
            out.append(self.statement())
        return out

    def statement(self):
        t = self.peek()
        if t.kind == "name" and t.value in _DECL_KEYWORDS \
                and self.peek(1).kind in ("name", "exists"):
            self.pos += 1
            st = _Decl(t.value, self.take("name", "a name"))
        else:
            st = self.axiom(allow_defeasible=True)
        self.take("dot", "'.'")
        return st

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
            return inner._replace(defeasible=True)
        if t.kind == "name" and t.value == "Ref" and self.peek(1).kind == "lp":
            raise ParseError(t.line, t.column,
                             "reflexivity axioms are not supported",
                             kind="reflexivity-rejected")
        if t.kind == "name" and t.value in _ROLE_AXIOMS \
                and self.peek(1).kind == "lp":
            return self._role_axiom(t.value)
        # Any other axiom opens with a term: '-', `exists`, or a name
        # before '(', '[=' or '^-'.
        if t.kind not in ("minus", "exists") and not (
                t.kind == "name"
                and self.peek(1).kind in ("lp", "incl", "inv")):
            raise _expected("an axiom", t)
        keyword = self.peek(1) if t.kind == "minus" else t  # of `exists`
        lhs = self._term()
        if not lhs.exists and (lhs.neg or self.peek().kind == "lp"):
            return _Assertion(lhs, self._args(pair=True))
        lhs = lhs._replace(inv=self.accept("inv"))
        if lhs.exists and self.peek().kind == "lp":
            return _Assertion(lhs, self._args(pair=False))
        if lhs.neg:
            raise ParseError(keyword.line, keyword.column,
                             "negated existential cannot start an inclusion",
                             kind="unknown-construct")
        self.take("incl", "'[='")
        rhs = self._rhs()
        if lhs.exists and (rhs.neg or rhs.exists or rhs.inv):
            raise ParseError(keyword.line, keyword.column,
                             "an existential left side takes an atomic "
                             "right side only", kind="unknown-construct")
        return _Inclusion(lhs, rhs)

    def _wraps_axiom(self) -> bool:
        """D( ... ) is a defeasible wrapper unless the parentheses hold a
        bare argument list, in which case D is an ordinary predicate.  The
        first token that is neither a comma nor a name decides: only ')'
        closes an argument list."""
        i = self.pos + 2
        while self.toks[i].kind in ("name", "comma"):
            i += 1
        return self.toks[i].kind != "rp"

    def _term(self) -> _Term:
        """`[-] [exists] name`; the caller reads any `^-` after it."""
        neg = self.accept("minus")
        exists = self.accept("exists")
        name = self.take("name", "a role name" if exists else "a name")
        return _Term(neg, exists, name)

    def _rhs(self) -> _Term:
        rhs = self._term()
        rhs = rhs._replace(inv=self.accept("inv"))
        if rhs.neg and rhs.inv and not rhs.exists:
            raise ParseError(rhs.name.line, rhs.name.column,
                             "a negated right side must be atomic",
                             kind="unknown-construct")
        return rhs

    def _args(self, pair: bool) -> list[_Tok]:
        """`( a )`, or also `( a, b )` when `pair` is set."""
        self.take("lp", "'('")
        args = [self.take("name", "an individual")]
        if pair and self.accept("comma"):
            args.append(self.take("name", "an individual"))
        self.take("rp", "')'")
        return args

    def _role(self) -> _Term:
        return _Term(False, False, self.take("name", "a role name"),
                     self.accept("inv"))

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


@dataclass
class _Registry:
    concepts: dict[str, _Tok] = field(default_factory=dict)
    roles: dict[str, _Tok] = field(default_factory=dict)
    individuals: dict[str, _Tok] = field(default_factory=dict)

    def add(self, sort: str, tok: _Tok) -> None:
        if sort != "individuals" and tok.value in K.RESERVED:
            raise ParseError(tok.line, tok.column,
                             f"{tok.value!r} is a reserved predicate name",
                             kind="unknown-construct")
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
        for role in st.roles:
            reg.add("roles", role.name)
    elif isinstance(st, _Assertion):
        if st.pred.exists or len(st.args) == 2:
            reg.add("roles", st.pred.name)
        for arg in st.args:
            _register_individual(arg, reg)
    elif isinstance(st, _Inclusion):
        for side in (st.lhs, st.rhs):
            if side.exists or side.inv:
                reg.add("roles", side.name)


def _upper_initial(name: str) -> bool:
    """The case convention reads the first letter after any leading '_'."""
    return name.lstrip("_")[:1].isupper()


def _register_individual(tok: _Tok, reg: _Registry) -> None:
    if tok.value in reg.individuals:
        return
    if _upper_initial(tok.value):
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
    if not _upper_initial(tok.value):
        raise ParseError(tok.line, tok.column,
                         f"{tok.value!r}: concepts are uppercase-initial "
                         "(or declare it with 'concept')",
                         kind="unknown-construct")
    reg.add("concepts", tok)
    return tok.value


def _role_term(term: _Term, reg: _Registry) -> str:
    reg.add("roles", term.name)
    return term.name.value + "^-" if term.inv else term.name.value


def _assertion_shape(neg: bool, arity: int) -> str:
    if arity == 2:
        return K.NEG_ROLE_ASSERTION if neg else K.ROLE_ASSERTION
    return K.NEG_CONCEPT_ASSERTION if neg else K.CONCEPT_ASSERTION


def _resolve(st, reg: _Registry) -> SurfaceAxiom:
    if isinstance(st, _Assertion):
        pred = st.pred
        args = tuple(a.value for a in st.args)
        if pred.exists:
            shape = NEG_EXISTS_ASSERTION if pred.neg else EXISTS_ASSERTION
            name = _role_term(pred, reg)
        else:
            shape = _assertion_shape(pred.neg, len(args))
            if len(args) == 2:
                name = _role_term(pred, reg)
            else:
                name = _concept_name(pred.name, reg)
        return SurfaceAxiom(shape, (name,) + args, st.defeasible)
    if isinstance(st, _RoleAxiom):
        roles = tuple(_role_term(role, reg) for role in st.roles)
        return SurfaceAxiom(st.shape, roles, st.defeasible)
    return _resolve_inclusion(st, reg)


def _resolve_inclusion(st: _Inclusion, reg: _Registry) -> SurfaceAxiom:
    lhs, rhs = st.lhs, st.rhs
    if lhs.exists:
        return SurfaceAxiom(K.SUBEX, (_role_term(lhs, reg),
                                      _concept_name(rhs.name, reg)),
                            st.defeasible)
    if lhs.inv or (rhs.inv and not rhs.exists):
        # An inverse marker forces the role reading on both sides.
        if rhs.neg or rhs.exists:
            raise ParseError(lhs.name.line, lhs.name.column,
                             "a role inclusion takes a role right side",
                             kind="unknown-construct")
        return SurfaceAxiom(K.SUBROLE, (_role_term(lhs, reg),
                                        _role_term(rhs, reg)), st.defeasible)
    if rhs.exists:
        shape = NEG_SUPEX if rhs.neg else K.SUPEX
        return SurfaceAxiom(shape, (_concept_name(lhs.name, reg),
                                    _role_term(rhs, reg)), st.defeasible)
    if rhs.neg:
        return SurfaceAxiom(K.SUPNOT, (_concept_name(lhs.name, reg),
                                       _concept_name(rhs.name, reg)),
                            st.defeasible)
    # A bare name [= bare name statement is a role inclusion only when
    # both names are known as roles.
    ln, rn = lhs.name, rhs.name
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
    p = _Parser(_tokenize(text))
    neg = p.accept("minus")
    pred = p.take("name", "a concept or role name")
    args = tuple(a.value for a in p._args(pair=True))
    p.accept("dot")
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(t.line, t.column, f"trailing input {t.value!r}")
    return K.Axiom(_assertion_shape(neg, len(args)), (pred.value,) + args)
