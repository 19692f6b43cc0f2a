"""Defeasible DL-Lite reasoning via translation to answer set programs."""

import importlib

from .kb import (
    Axiom,
    ClashingAssumption,
    DKB,
    Vocabulary,
    ca_candidates,
    concept_assertion,
    dis,
    inv,
    irr,
    neg_concept_assertion,
    neg_role_assertion,
    role_assertion,
    subclass,
    subex,
    subrole,
    supex,
    supnot,
)
from .program import Literal, Program, Rule, export_asp_text, parse_asp_text
from .translate import translate, output_atom
from .parser import ParseError, SurfaceAxiom, SurfaceKB, parse_dkb, parse_query
from .normalize import normalize
from .reasoner import (
    EntailmentResult,
    JustifiedModelReport,
    entails,
    json_report,
    justified_models,
    satisfiable,
)
from .engine import (
    INCONSISTENT,
    AnswerSet,
    GroundProgram,
    ResourceLimitError,
    answer_sets,
    ground,
    least_model,
    reduct,
)

__all__ = [
    "Axiom", "ClashingAssumption", "DKB", "Vocabulary", "ca_candidates",
    "concept_assertion", "dis", "inv", "irr", "neg_concept_assertion",
    "neg_role_assertion", "role_assertion", "subclass", "subex", "subrole",
    "supex", "supnot",
    "Literal", "Program", "Rule", "export_asp_text", "parse_asp_text",
    "translate", "output_atom",
    "INCONSISTENT", "AnswerSet", "GroundProgram", "ResourceLimitError",
    "answer_sets", "ground", "least_model", "reduct",
    "ParseError", "SurfaceAxiom", "SurfaceKB", "parse_dkb", "parse_query",
    "normalize",
    "ClashingSet", "DepthExceeded", "HerbrandModel", "chase",
    "check_justified", "oracle_answer", "oracle_models",
    "EntailmentResult", "JustifiedModelReport", "entails", "json_report",
    "justified_models", "satisfiable",
    "FlatKB", "Positive2CNF", "ar_entails_bruteforce",
    "circ_entails_bruteforce", "from_2cnf", "from_inconsistent_kb",
]

# The oracle and the reductions serve cross-checks only (oracle-check and
# the tests); their names are imported on first use, so that importing the
# package does not load them.
_LAZY = {
    **dict.fromkeys(
        ("ClashingSet", "DepthExceeded", "HerbrandModel", "chase",
         "check_justified", "oracle_answer", "oracle_models"),
        "oracle"),
    **dict.fromkeys(
        ("FlatKB", "Positive2CNF", "ar_entails_bruteforce",
         "circ_entails_bruteforce", "from_2cnf", "from_inconsistent_kb"),
        "reductions"),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
