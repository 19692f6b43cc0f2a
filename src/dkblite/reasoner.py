"""Satisfiability, instance entailment, and model reporting for a DKB.

Everything funnels through the same pipeline: compile the KB to a
program, ground it, and inspect answer sets.  Satisfiability stops at
the first answer set the search finds, and entailment at the first one
that settles the query; reporting enumerates them all and decodes the
exception atoms back to clashing assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kb as K
from .engine import MAX_OVR, AnswerSet, ModelSearch, answer_sets, ground
from .translate import decode_output, decode_ovr, output_atom, translate

__all__ = [
    "EntailmentResult",
    "JustifiedModelReport",
    "satisfiable",
    "entails",
    "decode_model",
    "justified_models",
    "json_report",
]


@dataclass(frozen=True)
class EntailmentResult:
    """Truth value of a query, with a marker for the degenerate case.

    An unsatisfiable KB has no answer sets, so every query holds in all
    of them vacuously; `unsat` keeps that outcome distinguishable."""
    entailed: bool
    unsat: bool

    def __bool__(self) -> bool:
        return self.entailed


@dataclass(frozen=True)
class JustifiedModelReport:
    """One answer set, decoded: the exceptions assumed and the ground
    assertions (positive and strongly negated) derived under them."""
    chi: tuple[K.ClashingAssumption, ...]
    derived_positive: frozenset[K.Axiom]
    derived_negative: frozenset[K.Axiom]


def satisfiable(kb: K.DKB, max_ovr: int = MAX_OVR) -> bool:
    """True iff the KB has a justified model; the search stops at the
    first one it finds."""
    search = ModelSearch(ground(translate(kb)), max_ovr)
    return next(iter(search), None) is not None


def entails(kb: K.DKB, query: K.Axiom,
            max_ovr: int = MAX_OVR) -> EntailmentResult:
    """True iff the query's output atom holds in every answer set.

    The query must be a ground assertion over declared names; aux
    constants are permitted as role arguments.  Negated assertion
    shapes test strong-negative membership (an extension: the output
    mapping defines them, but callers should surface them only behind
    an explicit opt-in).

    The search stops at the first answer set that settles the query:
    one that lacks the atom, or the first one when the atom is in the
    search's certain part, which every answer set contains.  The result,
    and when ResourceLimitError is raised, are those of checking the
    atom in every answer set."""
    p = translate(kb)
    atom = output_atom(p, query)
    search = ModelSearch(ground(p), max_ovr)
    target = search.solver.index.get(atom)
    models = iter(search)
    first = next(models, None)
    if first is None:
        return EntailmentResult(entailed=True, unsat=True)
    entailed = target in first and (
        target in search.certain or all(target in m for m in models))
    # Stopping early skips the search's own cap check after its first
    # guess, which a consistent first guess always reaches.
    search.check_cap()
    return EntailmentResult(entailed=entailed, unsat=False)


def _ca_key(ca: K.ClashingAssumption) -> tuple:
    return (ca.axiom.shape, ca.axiom.args, ca.args)


def decode_model(kb: K.DKB, m: AnswerSet) -> JustifiedModelReport:
    """The report of one answer set of the KB's compiled program."""
    chi = sorted((decode_ovr(a) for a in m.ovr_atoms), key=_ca_key)
    assert len(set(chi)) == len(chi)
    pos: list[K.Axiom] = []
    neg: list[K.Axiom] = []
    for l in m.literals:
        ax = decode_output(l)
        if ax is not None:
            (neg if l.neg else pos).append(ax)
    if __debug__:
        candidates = set(K.ca_candidates(kb))
        assert all(ca in candidates for ca in chi)
    return JustifiedModelReport(tuple(chi), frozenset(pos), frozenset(neg))


def justified_models(kb: K.DKB,
                     max_ovr: int = MAX_OVR) -> list[JustifiedModelReport]:
    """One report per answer set; empty list iff the KB is unsatisfiable."""
    models = answer_sets(ground(translate(kb)), max_ovr=max_ovr)
    return [decode_model(kb, m) for m in models]


def json_report(kb: K.DKB, max_ovr: int = MAX_OVR) -> dict:
    """The report as plain data, ready for JSON serialization."""
    reports = justified_models(kb, max_ovr=max_ovr)
    return {
        "satisfiable": bool(reports),
        "unsat_flag": not reports,
        "models": [
            {
                "chi": [{"axiom": ca.axiom.text(), "args": list(ca.args)}
                        for ca in r.chi],
                "positives": sorted(ax.text() for ax in r.derived_positive),
                "negatives": sorted(ax.text() for ax in r.derived_negative),
            }
            for r in reports
        ],
    }
