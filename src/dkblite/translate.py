"""Compilation of a normal-form DKB into a logic program.

The program has three layers: input facts describing the knowledge base
(one fact per axiom, plus signature facts nom/cls/rol), a fixed rule
schema read from rules/pk_schema.lp (strict inference rules, overriding
rules that recognize exceptional instances, application rules that apply
defeasible axioms unless overridden), and supporting facts enumerating the constant pool as
a chain (const/first/next/last) so that "x has no r-successor among all
constants" is computable by recursion along the chain.

Every right-existential axiom, strict or defeasible, owns one auxiliary
constant aux_<i> that stands for the class of successors it introduces;
numbering follows axiom order, strict before defeasible.

Default negation appears exclusively on the ovr predicate, and only in
application rules.  Overriding rules carry a nom(x) guard on their
exception-subject variables so that exceptions range over named
individuals only.
"""

from __future__ import annotations

import functools
import importlib.resources
import re
from dataclasses import replace

from . import kb as K
from .program import Literal, Program, Rule, lit, neg, parse_asp_text

AUX_PREFIX = "aux_"

# Tag constants used as the first argument of ovr atoms.
OVR_TAG = {
    K.CONCEPT_ASSERTION: "insta",
    K.ROLE_ASSERTION: "triplea",
    K.NEG_CONCEPT_ASSERTION: "ninsta",
    K.NEG_ROLE_ASSERTION: "ntriplea",
    K.SUBCLASS: "subClass",
    K.SUPNOT: "supNot",
    K.SUBEX: "subEx",
    K.SUPEX: "supEx",
    K.SUBROLE: "subRole",
    K.DIS: "dis",
    K.INV: "inv",
    K.IRR: "irr",
}
_TAG_SHAPE = {v: k for k, v in OVR_TAG.items()}


@functools.cache
def schema_rules() -> tuple[Rule, ...]:
    """The fixed rule schema: deduction rules (dl_*), overriding rules
    (ovr_*) and application rules (app_*), named by each line's trailing
    comment in rules/pk_schema.lp.

    Read from the packaged file on first use and shared afterwards; rules
    are immutable."""
    text = (importlib.resources.files(__package__) / "rules"
            / "pk_schema.lp").read_text(encoding="utf-8")
    names = re.findall(r"%\s*(\w+)$", text, re.MULTILINE)
    rules = parse_asp_text(text).rules
    return tuple(replace(r, name=n) for r, n in zip(rules, names, strict=True))


def aux_prefix(kb: K.DKB) -> str:
    """Normally "aux_"; lengthened when a declared name would collide."""
    names = (set(kb.vocabulary.individuals) | set(kb.vocabulary.concepts)
             | set(kb.vocabulary.roles))
    prefix = AUX_PREFIX
    while any(n.startswith(prefix) for n in names):
        prefix += "_"
    return prefix


def aux_constants(kb: K.DKB) -> list[str]:
    """One constant per right-existential axiom, in aux-numbering order
    (kb.supex_axioms order: strict first, then defeasible)."""
    prefix = aux_prefix(kb)
    return [f"{prefix}{i}" for i in range(len(kb.supex_axioms()))]


def _axiom_fact(ax: K.Axiom, defeasible: bool, aux: str | None) -> Literal:
    s, a = ax.shape, ax.args
    if s == K.CONCEPT_ASSERTION:
        return lit("def_insta", a[1], a[0]) if defeasible else lit("insta", a[1], a[0])
    if s == K.NEG_CONCEPT_ASSERTION:
        return lit("def_ninsta", a[1], a[0]) if defeasible else neg("insta", a[1], a[0])
    if s == K.ROLE_ASSERTION:
        return lit("def_triplea", a[1], a[0], a[2]) if defeasible else lit("triplea", a[1], a[0], a[2])
    if s == K.NEG_ROLE_ASSERTION:
        return lit("def_ntriplea", a[1], a[0], a[2]) if defeasible else neg("triplea", a[1], a[0], a[2])
    pred = {
        K.SUBCLASS: "subclass", K.SUPNOT: "supnot", K.SUBEX: "subex",
        K.SUPEX: "supex", K.SUBROLE: "subr", K.DIS: "dis", K.INV: "inv",
        K.IRR: "irr",
    }[s]
    if defeasible:
        pred = "def_" + pred
    else:
        pred = {"subclass": "subClass", "supnot": "supNot", "subex": "subEx",
                "supex": "supEx", "subr": "subRole", "dis": "dis",
                "inv": "inv", "irr": "irr"}[pred]
    if s == K.SUPEX:
        return lit(pred, a[0], a[1], aux)
    return lit(pred, *a)


def supporting_facts(constants: tuple[str, ...]) -> tuple[Literal, ...]:
    """const per constant plus the first/next/last chain over them."""
    if not constants:
        return ()
    facts = [lit("const", c) for c in constants]
    facts.append(lit("first", constants[0]))
    for a, b in zip(constants, constants[1:]):
        facts.append(lit("next", a, b))
    facts.append(lit("last", constants[-1]))
    return tuple(facts)


def translate(kb: K.DKB) -> Program:
    """Compile the knowledge base: schema rules, one input fact per axiom,
    signature facts, and the supporting constant chain."""
    kb = kb.dedup()
    aux = aux_constants(kb)
    constants = kb.vocabulary.individuals + tuple(aux)
    facts: list[Literal] = []
    facts += [lit("nom", i) for i in kb.vocabulary.individuals]
    facts += [lit("cls", c) for c in kb.vocabulary.concepts]
    facts += [lit("rol", r) for r in kb.vocabulary.roles]
    next_aux = iter(aux)
    for defeasible, axioms in ((False, kb.strict), (True, kb.defeasible)):
        for ax in axioms:
            facts.append(_axiom_fact(
                ax, defeasible,
                next(next_aux) if ax.shape == K.SUPEX else None))
    facts += supporting_facts(constants)
    facts = sorted(dict.fromkeys(facts), key=lambda l: (l.pred, l.neg, l.args))
    return Program(schema_rules(), tuple(facts), constants)


class UnknownNameError(ValueError):
    pass


def _signature(p: Program) -> tuple[set[str], set[str], set[str]]:
    concepts = {f.args[0] for f in p.facts if f.pred == "cls"}
    roles = {f.args[0] for f in p.facts if f.pred == "rol"}
    return concepts, roles, set(p.constants)


def output_atom(p: Program, query: K.Axiom) -> Literal:
    """The derived literal whose membership in every answer set decides
    the query.  Positive queries map onto instd/tripled; the negated
    assertion shapes map onto the strongly negated literals (extension)."""
    concepts, roles, constants = _signature(p)
    s, a = query.shape, query.args
    if s in (K.CONCEPT_ASSERTION, K.NEG_CONCEPT_ASSERTION):
        if a[0] not in concepts:
            raise UnknownNameError(f"unknown concept {a[0]!r}")
        if a[1] not in constants:
            raise UnknownNameError(f"unknown individual {a[1]!r}")
        atom = lit("instd", a[1], a[0])
        return atom.complement() if s == K.NEG_CONCEPT_ASSERTION else atom
    if s in (K.ROLE_ASSERTION, K.NEG_ROLE_ASSERTION):
        if a[0] not in roles:
            raise UnknownNameError(f"unknown role {a[0]!r}")
        for ind in (a[1], a[2]):
            if ind not in constants:
                raise UnknownNameError(f"unknown individual {ind!r}")
        atom = lit("tripled", a[1], a[0], a[2])
        return atom.complement() if s == K.NEG_ROLE_ASSERTION else atom
    raise ValueError(f"not a ground assertion query: {query.text()}")


def decode_ovr(atom: Literal) -> K.ClashingAssumption:
    """Map a ground ovr atom back to the exception it records."""
    if atom.pred != "ovr" or atom.neg:
        raise ValueError(f"not an ovr atom: {atom.text()}")
    tag, rest = atom.args[0], atom.args[1:]
    shape = _TAG_SHAPE[tag]
    if shape == K.CONCEPT_ASSERTION:
        return K.ClashingAssumption(K.concept_assertion(rest[1], rest[0]), ())
    if shape == K.NEG_CONCEPT_ASSERTION:
        return K.ClashingAssumption(K.neg_concept_assertion(rest[1], rest[0]), ())
    if shape == K.ROLE_ASSERTION:
        return K.ClashingAssumption(K.role_assertion(rest[1], rest[0], rest[2]), ())
    if shape == K.NEG_ROLE_ASSERTION:
        return K.ClashingAssumption(K.neg_role_assertion(rest[1], rest[0], rest[2]), ())
    if shape in (K.SUBCLASS, K.SUPNOT):
        return K.ClashingAssumption(K.Axiom(shape, (rest[1], rest[2])), (rest[0],))
    if shape == K.SUBEX:
        return K.ClashingAssumption(K.subex(rest[1], rest[2]), (rest[0],))
    if shape == K.SUPEX:
        return K.ClashingAssumption(K.supex(rest[1], rest[2]), (rest[0],))
    if shape in (K.SUBROLE, K.DIS, K.INV):
        return K.ClashingAssumption(K.Axiom(shape, (rest[2], rest[3])),
                                    (rest[0], rest[1]))
    return K.ClashingAssumption(K.irr(rest[1]), (rest[0],))
