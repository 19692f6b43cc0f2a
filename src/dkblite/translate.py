"""Compilation of a normal-form DKB into a logic program.

The program has three layers: input facts describing the knowledge base
(one fact per axiom, plus signature facts nom/cls/rol), a fixed rule
schema read from rules/pk_schema.lp (strict inference rules, overriding
rules that recognize exceptional instances, application rules that apply
defeasible axioms unless overridden), and supporting facts enumerating the constant pool as
a chain (const/first/next/last) so that "x has no r-successor among all
constants" is computable by recursion along the chain.

Every right-existential axiom, strict or defeasible, owns one auxiliary
constant aux_<i> of kb.aux_constants, standing for the successors it
introduces; numbering follows axiom order, strict before defeasible.

Default negation appears exclusively on the ovr predicate, and only in
application rules.  Overriding rules carry a nom(x) guard on their
exception-subject variables so that exceptions range over named
individuals only.  The program declares one ovr atom per exception
candidate, the atoms the model search may assume.
"""

from __future__ import annotations

import functools
import importlib.resources
import re
from dataclasses import replace
from typing import NamedTuple

from . import kb as K
from .kb import UnknownNameError  # noqa: F401  (output_atom raises it)
from .program import Literal, Program, Rule, lit, parse_asp_text


class _Encoding(NamedTuple):
    """How axioms of one shape appear in the program.  A leading '-'
    marks a strongly negated literal, as in rules/pk_schema.lp."""
    strict: str        # input fact of a strict axiom
    defeasible: str    # input fact of a defeasible axiom
    tag: str           # first argument of the ovr atoms of its exceptions
    output: str = ""   # derived literal that decides an assertion query


_ENCODING = {
    K.CONCEPT_ASSERTION: _Encoding("insta", "def_insta", "insta", "instd"),
    K.ROLE_ASSERTION: _Encoding("triplea", "def_triplea", "triplea",
                                "tripled"),
    K.NEG_CONCEPT_ASSERTION: _Encoding("-insta", "def_ninsta", "ninsta",
                                       "-instd"),
    K.NEG_ROLE_ASSERTION: _Encoding("-triplea", "def_ntriplea", "ntriplea",
                                    "-tripled"),
    K.SUBCLASS: _Encoding("subClass", "def_subclass", "subClass"),
    K.SUPNOT: _Encoding("supNot", "def_supnot", "supNot"),
    K.SUBEX: _Encoding("subEx", "def_subex", "subEx"),
    K.SUPEX: _Encoding("supEx", "def_supex", "supEx"),
    K.SUBROLE: _Encoding("subRole", "def_subr", "subRole"),
    K.DIS: _Encoding("dis", "def_dis", "dis"),
    K.INV: _Encoding("inv", "def_inv", "inv"),
    K.IRR: _Encoding("irr", "def_irr", "irr"),
}


def _signed(pred: str) -> tuple[bool, str]:
    """(strongly negated, predicate) of a possibly '-'-prefixed name."""
    return pred.startswith("-"), pred.lstrip("-")


_TAG_SHAPE = {e.tag: shape for shape, e in _ENCODING.items()}
_OUTPUT_SHAPE = {_signed(e.output): shape
                 for shape, e in _ENCODING.items() if e.output}


def _swap(shape: str, args: tuple[str, ...]) -> tuple[str, ...]:
    """An axiom's arguments in atom order, and back: assertion atoms put
    the individual first (insta(a,A) for A(a), triplea(a,R,b) for
    R(a,b)); other shapes keep their order.  Its own inverse."""
    if shape not in K.ASSERTION_SHAPES:
        return args
    return args[1::-1] + args[2:]


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
    signature facts, and the supporting constant chain; its candidates
    are the ovr atoms of kb.ca_candidates, in order (see decode_ovr)."""
    kb = kb.dedup()
    aux = kb.aux_constants()
    constants = kb.vocabulary.individuals + aux
    facts: list[Literal] = []
    facts += [lit("nom", i) for i in kb.vocabulary.individuals]
    facts += [lit("cls", c) for c in kb.vocabulary.concepts]
    facts += [lit("rol", r) for r in kb.vocabulary.roles]
    next_aux = iter(aux)
    fact_args: dict[K.Axiom, tuple[str, ...]] = {}  # of defeasible axioms
    for defeasible, axioms in ((False, kb.strict), (True, kb.defeasible)):
        for ax in axioms:
            e = _ENCODING[ax.shape]
            args = _swap(ax.shape, ax.args)
            if ax.shape == K.SUPEX:
                args += (next(next_aux),)
            if defeasible:
                fact_args[ax] = args
            pred = e.defeasible if defeasible else e.strict
            facts.append(Literal(*_signed(pred), args))
    facts += supporting_facts(constants)
    facts = sorted(dict.fromkeys(facts), key=lambda l: (l.pred, l.neg, l.args))
    candidates = tuple(
        lit("ovr", _ENCODING[ca.axiom.shape].tag, *ca.args,
            *fact_args[ca.axiom])
        for ca in K.ca_candidates(kb))
    return Program(schema_rules(), tuple(facts), constants, candidates)


def _signature(p: Program) -> tuple[set[str], set[str], set[str]]:
    concepts = {f.args[0] for f in p.facts if f.pred == "cls"}
    roles = {f.args[0] for f in p.facts if f.pred == "rol"}
    return concepts, roles, set(p.constants)


def output_atom(p: Program, query: K.Axiom) -> Literal:
    """The derived literal whose membership in every answer set decides
    the query.  Positive queries map onto instd/tripled; the negated
    assertion shapes map onto the strongly negated literals (extension)."""
    K.check_query(query, *_signature(p))
    return Literal(*_signed(_ENCODING[query.shape].output),
                   _swap(query.shape, query.args))


def decode_output(atom: Literal) -> K.Axiom | None:
    """The assertion an instd/tripled literal states, positive or
    strongly negated: the inverse of output_atom.  None for any other
    literal."""
    shape = _OUTPUT_SHAPE.get((atom.neg, atom.pred))
    return None if shape is None else K.Axiom(shape, _swap(shape, atom.args))


def decode_ovr(atom: Literal) -> K.ClashingAssumption:
    """Map a ground ovr atom back to the exception it records: ovr(tag,
    exception tuple, input-fact arguments).  Raises ValueError for any
    other literal."""
    shape = (_TAG_SHAPE.get(atom.args[0])
             if atom.pred == "ovr" and not atom.neg and atom.args else None)
    if shape is None:
        raise ValueError(f"not an ovr atom: {atom.text()}")
    n = 1 + K.CA_ARITY[shape]
    # The slice drops the aux constant that supEx facts carry last.
    args = atom.args[n:n + len(K.SORTS[shape])]
    return K.ClashingAssumption(K.Axiom(shape, _swap(shape, args)),
                                atom.args[1:n])
