"""Brute-force baselines built from two classical constructions.

Repair semantics: a flat (possibly inconsistent) KB becomes a DKB by
wrapping every data assertion as defeasible; entailment over the DKB is
cross-checked against direct enumeration of maximal consistent ABox
subsets.  Circumscription: a positive 2CNF with a distinguished target
variable becomes a DKB over one individual whose justified models track
the formula's minimal models; the target query is cross-checked against
direct enumeration of truth assignments.

Both checkers are deliberately naive full enumerations.  The repair
checker leans on the chase for the classical subroutines (consistency
of a repair, entailment from a repair); the circumscription checker is
pure propositional arithmetic and shares nothing with the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import kb as K
from .engine import ResourceLimitError
from .oracle import HerbrandModel, chase

__all__ = [
    "FlatKB",
    "Positive2CNF",
    "from_inconsistent_kb",
    "ar_entails_bruteforce",
    "from_2cnf",
    "circ_entails_bruteforce",
]

@dataclass(frozen=True)
class FlatKB:
    """A classical KB split into terminology and data; the data may
    contradict the terminology."""

    tbox: tuple[K.Axiom, ...]
    abox: tuple[K.Axiom, ...]

    def __post_init__(self) -> None:
        for ax in self.tbox:
            if ax.is_assertion:
                raise ValueError(f"assertion in tbox: {ax.text()}")
        for ax in self.abox:
            if not ax.is_assertion:
                raise ValueError(f"non-assertion in abox: {ax.text()}")


# Caps of the brute-force checkers: 2^12 repairs, chase depth 8, 2^20
# truth assignments.
MAX_ABOX = 12
REPAIR_DEPTH_CAP = 8
MAX_VARS = 20


def _fresh_name(base: str, taken: set[str]) -> str:
    name = base
    while name in taken:
        name += "_"
    taken.add(name)
    return name


def from_inconsistent_kb(k: FlatKB, emulate: bool = False) -> K.DKB:
    """Keep the terminology strict and make every data assertion
    defeasible.  With `emulate`, assertions stay strict and the default
    moves into an inclusion: A(a) becomes A'(a) with defeasible A' [= A
    for a fresh A' (likewise R'(a,b) with R' [= R), so that overriding
    the inclusion at a has the same effect as dropping the assertion."""
    if not emulate:
        return K.DKB.from_axioms(strict=k.tbox, defeasible=k.abox)
    taken = {n for ax in k.tbox + k.abox for n in ax.args}
    primed: dict[tuple[str, str], str] = {}
    strict: list[K.Axiom] = list(k.tbox)
    defeasible: list[K.Axiom] = []
    for ax in k.abox:
        if ax.shape == K.CONCEPT_ASSERTION:
            kind, name = "c", ax.args[0]
        elif ax.shape == K.ROLE_ASSERTION:
            kind, name = "r", ax.args[0]
        else:
            raise ValueError(
                f"no emulation for negated assertion {ax.text()}")
        key = (kind, name)
        if key not in primed:
            primed[key] = _fresh_name(name + "_d", taken)
            if kind == "c":
                defeasible.append(K.subclass(primed[key], name))
            else:
                defeasible.append(K.subrole(primed[key], name))
        if kind == "c":
            strict.append(K.concept_assertion(primed[key], ax.args[1]))
        else:
            strict.append(K.role_assertion(primed[key], ax.args[1],
                                           ax.args[2]))
    return K.DKB.from_axioms(strict=strict, defeasible=defeasible)


def _query_atom(query: K.Axiom):
    if query.shape == K.CONCEPT_ASSERTION:
        return (query.args[0], (query.args[1],))
    if query.shape == K.ROLE_ASSERTION:
        return (query.args[0], (query.args[1], query.args[2]))
    raise ValueError(f"not a positive assertion query: {query.text()}")


def _signature_kwargs(k: FlatKB) -> tuple:
    full = K.DKB.from_axioms(strict=k.tbox + k.abox)
    v = full.vocabulary
    return (v.individuals, v.concepts, v.roles)


# Pure function of hashable arguments; memoized because repair
# enumeration chases the same (terminology, subset) pair once per query.
@lru_cache(maxsize=65536)
def _chase_strict(tbox, abox, sig):
    individuals, concepts, roles = sig
    kb = K.DKB.from_axioms(strict=tbox + abox, individuals=individuals,
                           concepts=concepts, roles=roles)
    return chase(kb, frozenset(), depth_cap=REPAIR_DEPTH_CAP)


def ar_entails_bruteforce(k: FlatKB, query: K.Axiom) -> bool:
    """Repair-based entailment by full enumeration: keep the maximal
    ABox subsets that are consistent with the terminology, and require
    the query in the chase of every one of them."""
    if len(k.abox) > MAX_ABOX:
        raise ResourceLimitError(
            f"abox has {len(k.abox)} assertions, cap is {MAX_ABOX}")
    atom = _query_atom(query)
    sig = _signature_kwargs(k)
    consistent: list[frozenset[int]] = []
    models: dict[frozenset[int], HerbrandModel] = {}
    n = len(k.abox)
    for mask in range(1 << n):
        subset = frozenset(i for i in range(n) if mask >> i & 1)
        result = _chase_strict(
            k.tbox, tuple(k.abox[i] for i in sorted(subset)), sig)
        if isinstance(result, HerbrandModel):
            consistent.append(subset)
            models[subset] = result
    repairs = [s for s in consistent
               if not any(s < t for t in consistent)]
    return all(models[s].holds(atom) for s in repairs)


@dataclass(frozen=True)
class Positive2CNF:
    """Conjunction of two-variable positive clauses, with one variable
    singled out as the query target."""

    variables: tuple[str, ...]
    clauses: tuple[tuple[str, str], ...]
    target: str

    def __post_init__(self) -> None:
        if self.target not in self.variables:
            raise ValueError(f"target {self.target!r} not a variable")
        for x, y in self.clauses:
            if x == y:
                raise ValueError(f"clause over a single variable: {x}")
            if x not in self.variables or y not in self.variables:
                raise ValueError(f"clause over undeclared variable: {x},{y}")


def from_2cnf(f: Positive2CNF) -> K.DKB:
    """One concept per variable over the single individual `a`: each
    clause x|y becomes x [= -y (or x [= z when y is the target z), and
    every non-target variable holds by default."""
    c = {x: "v_" + x for x in f.variables}
    strict: list[K.Axiom] = []
    for x, y in f.clauses:
        if f.target == y:
            strict.append(K.subclass(c[x], c[y]))
        elif f.target == x:
            strict.append(K.subclass(c[y], c[x]))
        else:
            strict.append(K.supnot(c[x], c[y]))
    defeasible = [K.concept_assertion(c[x], "a")
                  for x in f.variables if x != f.target]
    return K.DKB.from_axioms(
        strict=strict, defeasible=defeasible,
        individuals=("a",), concepts=tuple(c[x] for x in f.variables))


def circ_entails_bruteforce(f: Positive2CNF) -> bool:
    """Does the target hold in every model of the formula that is
    minimal in the non-target variables?  Full assignment enumeration."""
    n = len(f.variables)
    if n > MAX_VARS:
        raise ResourceLimitError(f"{n} variables, cap is {MAX_VARS}")
    index = {x: i for i, x in enumerate(f.variables)}
    sats: list[frozenset[str]] = []
    for mask in range(1 << n):
        if all(mask >> index[x] & 1 or mask >> index[y] & 1
               for x, y in f.clauses):
            sats.append(frozenset(x for x in f.variables
                                  if mask >> index[x] & 1))
    minimal = [s for s in sats
               if not any(t - {f.target} < s - {f.target} for t in sats)]
    return all(f.target in s for s in minimal)
