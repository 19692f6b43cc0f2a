"""Shared fixtures: the department staffing KB in normal form.

k_dept is the running example used across the test suite: department
members generally teach a course, PhD students are department members
but hold no course, alice is a professor and bob is a PhD student.  The
defeasible existential must survive for alice and be overridden for bob.
"""

from __future__ import annotations

import pathlib

import pytest

from dkblite.kb import (
    DKB,
    concept_assertion,
    dis,
    neg_role_assertion,
    role_assertion,
    subclass,
    subex,
    subrole,
    supex,
    supnot,
)
from dkblite.reasoner import EntailmentResult

DATA = pathlib.Path(__file__).parent / "data"

DEPT_DEFAULT = supex("DeptMember", "hasCourse")


def entailment(models, atom) -> EntailmentResult:
    """Reference for entails(): enumerate every answer set, then check
    that the atom holds in each; vacuously true, and marked unsat, when
    there are none."""
    if not models:
        return EntailmentResult(entailed=True, unsat=True)
    return EntailmentResult(
        entailed=all(atom in m.literals for m in models), unsat=False)


def build_k_dept() -> DKB:
    # Normal form of tests/data/dept.dkb: the negated-existential axiom
    # PhDStudent [= -exists hasCourse splits into a supnot against the
    # fresh concept _N0 plus the helper exists hasCourse [= _N0.  The
    # declared name order matches the parser's (sorted), so this equals
    # normalize(parse_dkb(...)) structurally.
    return DKB.from_axioms(
        concepts=("DeptMember", "PhDStudent", "Professor", "_N0"),
        strict=(
            subclass("Professor", "DeptMember"),
            subclass("PhDStudent", "DeptMember"),
            supnot("PhDStudent", "_N0"),
            concept_assertion("Professor", "alice"),
            concept_assertion("PhDStudent", "bob"),
            subex("hasCourse", "_N0"),
        ),
        defeasible=(DEPT_DEFAULT,),
    )


def nixon_kb() -> DKB:
    # Two defaults pulling one individual toward disjoint concepts; both
    # single-exception sets are justified, so two models exist.
    return DKB.from_axioms(
        strict=(
            supnot("Pacifist", "Hawk"),
            concept_assertion("Quaker", "nixon"),
            concept_assertion("Republican", "nixon"),
        ),
        defeasible=(
            subclass("Quaker", "Pacifist"),
            subclass("Republican", "Hawk"),
        ),
    )


def dis_kb() -> DKB:
    # A defeasible role edge contradicted through role disjointness.
    return DKB.from_axioms(
        strict=(dis("R", "S"), role_assertion("S", "a", "b")),
        defeasible=(role_assertion("R", "a", "b"),),
    )


def subrole_kb() -> DKB:
    # A defeasible role edge contradicted through a strict superrole.
    return DKB.from_axioms(
        strict=(subrole("R", "S"), neg_role_assertion("S", "a", "b")),
        defeasible=(role_assertion("R", "a", "b"),),
    )


@pytest.fixture
def k_dept() -> DKB:
    return build_k_dept()


@pytest.fixture
def dept_path() -> pathlib.Path:
    return DATA / "dept.dkb"
