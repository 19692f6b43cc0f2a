"""Domain model: vocabularies, normal-form axioms, defeasible knowledge bases.

A knowledge base is a pair of axiom lists, strict and defeasible, over a
vocabulary of concept names, role names and an ordered set of individual
names.  Axioms are kept in a fixed normal form of twelve shapes; anything
richer (inverse roles, negated existentials, existential assertions) is
rewritten into these shapes by the frontend before it reaches this model.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from typing import Collection, NamedTuple

# The twelve normal-form axiom shapes.
CONCEPT_ASSERTION = "concept_assertion"
ROLE_ASSERTION = "role_assertion"
NEG_CONCEPT_ASSERTION = "neg_concept_assertion"
NEG_ROLE_ASSERTION = "neg_role_assertion"
SUBCLASS = "subclass"
SUPNOT = "supnot"
SUBEX = "subex"
SUPEX = "supex"
SUBROLE = "subrole"
DIS = "dis"
INV = "inv"
IRR = "irr"


class _Shape(NamedTuple):
    """What the model knows about one normal-form shape."""
    text: str                # surface syntax; {i} is the i-th argument
    sorts: tuple[str, ...]   # sort of each argument
    # How many named individuals a clashing assumption on an axiom of
    # this shape carries.  Assertions name their own individuals, so their
    # exception tuple is empty; concept-level axioms take one subject;
    # role-pair axioms take the pair of edge endpoints.
    ca_arity: int


_C, _R, _I = "concept", "role", "individual"
_SHAPES = {
    CONCEPT_ASSERTION: _Shape("{0}({1})", (_C, _I), 0),
    ROLE_ASSERTION: _Shape("{0}({1},{2})", (_R, _I, _I), 0),
    NEG_CONCEPT_ASSERTION: _Shape("-{0}({1})", (_C, _I), 0),
    NEG_ROLE_ASSERTION: _Shape("-{0}({1},{2})", (_R, _I, _I), 0),
    SUBCLASS: _Shape("{0} [= {1}", (_C, _C), 1),
    SUPNOT: _Shape("{0} [= -{1}", (_C, _C), 1),
    SUBEX: _Shape("exists {0} [= {1}", (_R, _C), 1),
    SUPEX: _Shape("{0} [= exists {1}", (_C, _R), 1),
    SUBROLE: _Shape("{0} [= {1}", (_R, _R), 2),
    DIS: _Shape("Dis({0},{1})", (_R, _R), 2),
    INV: _Shape("Inv({0},{1})", (_R, _R), 2),
    IRR: _Shape("Irr({0})", (_R,), 1),
}
SORTS = {shape: row.sorts for shape, row in _SHAPES.items()}
CA_ARITY = {shape: row.ca_arity for shape, row in _SHAPES.items()}
# Assertions are the shapes that name individuals.
ASSERTION_SHAPES = frozenset(
    shape for shape, row in _SHAPES.items() if _I in row.sorts)


# The name grammar, stated once: the parser reads names by it, and Axiom
# and Vocabulary check every name against it ('?', which marks a variable
# in the compiled program, is outside it).  Generated names cannot collide
# with declared ones:
#   _N<i>, _R<i>  normalize helpers: _Fresh skips indices the input takes
#   aux_<i>       DKB.aux_constants: the prefix lengthens past declared names
#   sk_<i>(t)     oracle Skolem terms: '(' is outside the grammar
NAME = r"[A-Za-z_][A-Za-z0-9_]*"
KEYWORDS = frozenset({"exists"})
# Names the surface syntax keeps for role axioms (Dis, Inv, Irr) and for
# the rejected reflexivity axiom (Ref): `Irr(a).` reads as an axiom, so
# no concept or role takes one, and every KB renders as text that reads
# back.  Individuals may.
RESERVED = frozenset({"Dis", "Inv", "Irr", "Ref"})
_NAME = re.compile(NAME)


def _check_name(name: str) -> None:
    if not _NAME.fullmatch(name) or name in KEYWORDS:
        raise ValueError(f"bad identifier: {name!r}")


@dataclass(frozen=True, order=True)
class Axiom:
    """One normal-form axiom: a shape tag plus its identifier arguments.

    Argument order per shape: assertions carry the predicate name first,
    then the individual(s); inclusions carry left side then right side;
    supex carries (concept, role); irr carries (role,).
    """
    shape: str
    args: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.shape not in SORTS:
            raise ValueError(f"unknown axiom shape: {self.shape}")
        if len(self.args) != len(SORTS[self.shape]):
            raise ValueError(
                f"{self.shape} takes {len(SORTS[self.shape])} arguments, "
                f"got {self.args!r}")
        for a in self.args:
            _check_name(a)

    @property
    def is_assertion(self) -> bool:
        return self.shape in ASSERTION_SHAPES

    def text(self) -> str:
        """Surface-syntax rendering, without any defeasible wrapper."""
        return _SHAPES[self.shape].text.format(*self.args)


# Constructor helpers; argument names follow the surface reading.

def concept_assertion(concept: str, ind: str) -> Axiom:
    return Axiom(CONCEPT_ASSERTION, (concept, ind))


def role_assertion(role: str, subj: str, obj: str) -> Axiom:
    return Axiom(ROLE_ASSERTION, (role, subj, obj))


def neg_concept_assertion(concept: str, ind: str) -> Axiom:
    return Axiom(NEG_CONCEPT_ASSERTION, (concept, ind))


def neg_role_assertion(role: str, subj: str, obj: str) -> Axiom:
    return Axiom(NEG_ROLE_ASSERTION, (role, subj, obj))


def subclass(sub: str, sup: str) -> Axiom:
    return Axiom(SUBCLASS, (sub, sup))


def supnot(sub: str, negated_sup: str) -> Axiom:
    return Axiom(SUPNOT, (sub, negated_sup))


def subex(role: str, sup: str) -> Axiom:
    return Axiom(SUBEX, (role, sup))


def supex(sub: str, role: str) -> Axiom:
    return Axiom(SUPEX, (sub, role))


def subrole(sub: str, sup: str) -> Axiom:
    return Axiom(SUBROLE, (sub, sup))


def dis(r: str, s: str) -> Axiom:
    return Axiom(DIS, (r, s))


def inv(r: str, s: str) -> Axiom:
    return Axiom(INV, (r, s))


def irr(r: str) -> Axiom:
    return Axiom(IRR, (r,))


@dataclass(frozen=True)
class Vocabulary:
    """Concept, role and individual names; individuals keep their order."""
    concepts: tuple[str, ...] = ()
    roles: tuple[str, ...] = ()
    individuals: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for group in (self.concepts, self.roles, self.individuals):
            for name in group:
                _check_name(name)
            if len(set(group)) != len(group):
                raise ValueError("duplicate name within a sort")
        for name in self.concepts + self.roles:
            if name in RESERVED:
                raise ValueError(f"reserved predicate name: {name!r}")
        cs, rs, inds = set(self.concepts), set(self.roles), set(self.individuals)
        if cs & rs or cs & inds or rs & inds:
            clash = (cs & rs) | (cs & inds) | (rs & inds)
            raise ValueError(f"name used in two sorts: {sorted(clash)}")


@dataclass(frozen=True)
class DKB:
    """A defeasible knowledge base: strict axioms plus overridable ones.

    Axiom order is stable; it fixes the numbering of the auxiliary
    constants that right-existential axioms introduce downstream.
    """
    vocabulary: Vocabulary
    strict: tuple[Axiom, ...] = ()
    defeasible: tuple[Axiom, ...] = ()

    def __post_init__(self) -> None:
        known = {
            "concept": set(self.vocabulary.concepts),
            "role": set(self.vocabulary.roles),
            "individual": set(self.vocabulary.individuals),
        }
        for ax in self.strict + self.defeasible:
            for name, sort in zip(ax.args, SORTS[ax.shape]):
                if name not in known[sort]:
                    raise ValueError(
                        f"{sort} {name!r} not declared (axiom {ax.text()})")

    @staticmethod
    def from_axioms(strict=(), defeasible=(), individuals=(),
                    concepts=(), roles=()) -> "DKB":
        """Build a DKB, collecting the vocabulary from the axioms.

        Extra names can be declared through the keyword tuples; individual
        order is declaration order, then first occurrence.
        """
        cs: list[str] = list(concepts)
        rs: list[str] = list(roles)
        inds: list[str] = list(individuals)
        for ax in tuple(strict) + tuple(defeasible):
            for name, sort in zip(ax.args, SORTS[ax.shape]):
                bucket = {"concept": cs, "role": rs, "individual": inds}[sort]
                if name not in bucket:
                    bucket.append(name)
        return DKB(Vocabulary(tuple(cs), tuple(rs), tuple(inds)),
                   tuple(strict), tuple(defeasible))

    def supex_axioms(self) -> tuple[Axiom, ...]:
        """Right-existential axioms in aux-numbering order.

        Strict axioms first, then defeasible, input order within each; the
        i-th axiom of this list owns the constant aux_i.
        """
        return tuple(ax for ax in self.strict + self.defeasible
                     if ax.shape == SUPEX)

    def aux_constants(self) -> tuple[str, ...]:
        """aux_<i> for the i-th of supex_axioms(); the prefix gains a '_'
        while a declared name starts with it."""
        v = self.vocabulary
        prefix = "aux_"
        while any(n.startswith(prefix)
                  for n in v.concepts + v.roles + v.individuals):
            prefix += "_"
        return tuple(f"{prefix}{i}" for i in range(len(self.supex_axioms())))

    def dedup(self) -> "DKB":
        """Drop duplicate axioms, keeping first occurrences and order."""
        return DKB(self.vocabulary, tuple(dict.fromkeys(self.strict)),
                   tuple(dict.fromkeys(self.defeasible)))


@dataclass(frozen=True, order=True)
class ClashingAssumption:
    """An exception: the axiom is not required to hold at this tuple."""
    axiom: Axiom
    args: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.args) != CA_ARITY[self.axiom.shape]:
            raise ValueError(
                f"exception tuple for {self.axiom.shape} has arity "
                f"{CA_ARITY[self.axiom.shape]}, got {self.args!r}")

    def text(self) -> str:
        if not self.args:
            return f"<{self.axiom.text()}>"
        return f"<{self.axiom.text()}, {','.join(self.args)}>"


def ca_candidates(kb: DKB) -> tuple[ClashingAssumption, ...]:
    """Every candidate exception: each defeasible axiom at each tuple of
    named individuals of the matching arity.  Deterministic order: axiom
    order, then lexicographic tuples in individual declaration order."""
    inds = kb.vocabulary.individuals
    return tuple(ClashingAssumption(ax, tup) for ax in kb.defeasible
                 for tup in product(inds, repeat=CA_ARITY[ax.shape]))


class UnknownNameError(ValueError):
    """A query names a concept, role or individual its KB lacks."""


def check_query(query: Axiom, concepts: Collection[str],
                roles: Collection[str], individuals: Collection[str]) -> None:
    """Raise ValueError unless the query is an assertion, and
    UnknownNameError unless each of its names is among the given names
    of its sort; the individuals of a KB's queries include its aux
    constants."""
    if not query.is_assertion:
        raise ValueError(f"not a ground assertion query: {query.text()}")
    known = {_C: concepts, _R: roles, _I: individuals}
    for name, sort in zip(query.args, SORTS[query.shape]):
        if name not in known[sort]:
            raise UnknownNameError(f"unknown {sort} {name!r}")


def named_queries(kb: DKB) -> tuple[Axiom, ...]:
    """Every positive ground assertion over the named individuals:
    concept assertions, then role assertions, in vocabulary order."""
    v = kb.vocabulary
    out = [concept_assertion(c, a) for c in v.concepts
           for a in v.individuals]
    out += [role_assertion(r, a, b) for r in v.roles
            for a, b in product(v.individuals, repeat=2)]
    return tuple(out)
