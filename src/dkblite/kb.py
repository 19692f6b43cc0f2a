"""Domain model: vocabularies, normal-form axioms, defeasible knowledge bases.

A knowledge base is a pair of axiom lists, strict and defeasible, over a
vocabulary of concept names, role names and an ordered set of individual
names.  Axioms are kept in a fixed normal form of twelve shapes; anything
richer (inverse roles, negated existentials, existential assertions) is
rewritten into these shapes by the frontend before it reaches this model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

# The twelve normal-form axiom shapes.
CONCEPT_ASSERTION = "concept_assertion"        # A(a)
ROLE_ASSERTION = "role_assertion"              # R(a,b)
NEG_CONCEPT_ASSERTION = "neg_concept_assertion"  # -A(a)
NEG_ROLE_ASSERTION = "neg_role_assertion"      # -R(a,b)
SUBCLASS = "subclass"                          # A [= B
SUPNOT = "supnot"                              # A [= -B
SUBEX = "subex"                                # exists R [= B
SUPEX = "supex"                                # A [= exists R
SUBROLE = "subrole"                            # R [= S
DIS = "dis"                                    # Dis(R,S)
INV = "inv"                                    # Inv(R,S)
IRR = "irr"                                    # Irr(R)

_ARITY = {
    CONCEPT_ASSERTION: 2,        # (concept, individual)
    ROLE_ASSERTION: 3,           # (role, individual, individual)
    NEG_CONCEPT_ASSERTION: 2,
    NEG_ROLE_ASSERTION: 3,
    SUBCLASS: 2,                 # (concept, concept)
    SUPNOT: 2,
    SUBEX: 2,                    # (role, concept)
    SUPEX: 2,                    # (concept, role)
    SUBROLE: 2,                  # (role, role)
    DIS: 2,
    INV: 2,
    IRR: 1,
}

# Exception-tuple arity: how many named individuals a clashing assumption on
# an axiom of this shape carries.  Assertions name their own individuals, so
# their exception tuple is empty; concept-level axioms take one subject;
# role-pair axioms take the pair of edge endpoints.
CA_ARITY = {
    CONCEPT_ASSERTION: 0,
    ROLE_ASSERTION: 0,
    NEG_CONCEPT_ASSERTION: 0,
    NEG_ROLE_ASSERTION: 0,
    SUBCLASS: 1,
    SUPNOT: 1,
    SUBEX: 1,
    SUPEX: 1,
    SUBROLE: 2,
    DIS: 2,
    INV: 2,
    IRR: 1,
}

_ASSERTION_SHAPES = frozenset(
    (CONCEPT_ASSERTION, ROLE_ASSERTION, NEG_CONCEPT_ASSERTION,
     NEG_ROLE_ASSERTION))


def _check_name(name: str) -> None:
    # '?' marks a variable in the compiled program (program.is_var).
    if not name or name.startswith("?") or any(ch.isspace() for ch in name):
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
        if self.shape not in _ARITY:
            raise ValueError(f"unknown axiom shape: {self.shape}")
        if len(self.args) != _ARITY[self.shape]:
            raise ValueError(
                f"{self.shape} takes {_ARITY[self.shape]} arguments, "
                f"got {self.args!r}")
        for a in self.args:
            _check_name(a)

    @property
    def is_assertion(self) -> bool:
        return self.shape in _ASSERTION_SHAPES

    def text(self) -> str:
        """Surface-syntax rendering, without any defeasible wrapper."""
        s, a = self.shape, self.args
        if s == CONCEPT_ASSERTION:
            return f"{a[0]}({a[1]})"
        if s == NEG_CONCEPT_ASSERTION:
            return f"-{a[0]}({a[1]})"
        if s == ROLE_ASSERTION:
            return f"{a[0]}({a[1]},{a[2]})"
        if s == NEG_ROLE_ASSERTION:
            return f"-{a[0]}({a[1]},{a[2]})"
        if s == SUBCLASS:
            return f"{a[0]} [= {a[1]}"
        if s == SUPNOT:
            return f"{a[0]} [= -{a[1]}"
        if s == SUBEX:
            return f"exists {a[0]} [= {a[1]}"
        if s == SUPEX:
            return f"{a[0]} [= exists {a[1]}"
        if s == SUBROLE:
            return f"{a[0]} [= {a[1]}"
        if s == DIS:
            return f"Dis({a[0]},{a[1]})"
        if s == INV:
            return f"Inv({a[0]},{a[1]})"
        return f"Irr({a[0]})"


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
        cs, rs, inds = set(self.concepts), set(self.roles), set(self.individuals)
        if cs & rs or cs & inds or rs & inds:
            clash = (cs & rs) | (cs & inds) | (rs & inds)
            raise ValueError(f"name used in two sorts: {sorted(clash)}")


def _axiom_sorts(ax: Axiom) -> tuple[tuple[str, str], ...]:
    """(name, sort) pairs for every identifier the axiom uses."""
    s, a = ax.shape, ax.args
    if s in (CONCEPT_ASSERTION, NEG_CONCEPT_ASSERTION):
        return ((a[0], "concept"), (a[1], "individual"))
    if s in (ROLE_ASSERTION, NEG_ROLE_ASSERTION):
        return ((a[0], "role"), (a[1], "individual"), (a[2], "individual"))
    if s in (SUBCLASS, SUPNOT):
        return ((a[0], "concept"), (a[1], "concept"))
    if s == SUBEX:
        return ((a[0], "role"), (a[1], "concept"))
    if s == SUPEX:
        return ((a[0], "concept"), (a[1], "role"))
    if s in (SUBROLE, DIS, INV):
        return ((a[0], "role"), (a[1], "role"))
    return ((a[0], "role"),)


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
            for name, sort in _axiom_sorts(ax):
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
            for name, sort in _axiom_sorts(ax):
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
    out: list[ClashingAssumption] = []
    for ax in kb.defeasible:
        arity = CA_ARITY[ax.shape]
        if arity == 0:
            out.append(ClashingAssumption(ax, ()))
        else:
            for tup in product(inds, repeat=arity):
                out.append(ClashingAssumption(ax, tup))
    return tuple(out)


def named_queries(kb: DKB) -> tuple[Axiom, ...]:
    """Every positive ground assertion over the named individuals:
    concept assertions, then role assertions, in vocabulary order."""
    v = kb.vocabulary
    out = [concept_assertion(c, a) for c in v.concepts
           for a in v.individuals]
    out += [role_assertion(r, a, b) for r in v.roles
            for a, b in product(v.individuals, repeat=2)]
    return tuple(out)
