"""Surface-syntax tests: grammar productions, name registration, errors."""

from __future__ import annotations

import hashlib
import json

import pytest

from corpus import surface_fuzz_docs
from dkblite import kb as K
from dkblite.normalize import normalize
from dkblite.parser import (
    EXISTS_ASSERTION,
    NEG_EXISTS_ASSERTION,
    NEG_SUPEX,
    ParseError,
    SurfaceAxiom,
    parse_dkb,
    parse_query,
)


def one(text: str) -> SurfaceAxiom:
    axioms = parse_dkb(text).axioms
    assert len(axioms) == 1
    return axioms[0]


def err(text: str) -> ParseError:
    with pytest.raises(ParseError) as ei:
        parse_dkb(text)
    return ei.value


def test_subclass_statement():
    ax = one("Professor [= DeptMember.")
    assert ax == SurfaceAxiom(K.SUBCLASS, ("Professor", "DeptMember"))
    assert not ax.defeasible


def test_defeasible_supex():
    ax = one("D(DeptMember [= exists hasCourse).")
    assert ax.shape == K.SUPEX
    assert ax.args == ("DeptMember", "hasCourse")
    assert ax.defeasible


def test_reflexivity_rejected():
    e = err("Ref(R).")
    assert e.kind == "reflexivity-rejected"
    assert (e.line, e.column) == (1, 1)


def test_incomplete_inclusion_is_syntax_error():
    e = err("A [= .")
    assert e.kind == "syntax"
    assert e.line == 1


def test_every_statement_form():
    kb = parse_dkb("""
        % all statement forms in one document
        A(a).  -A(a).  R(a,b).  -R(a,b).
        exists R(a).  -exists R(a).
        A [= B.  A [= -B.  A [= exists R.  A [= -exists R.
        exists R [= B.
        Dis(R,S).  Inv(R,S).  Irr(R).
        D(A [= B).
    """)
    shapes = [ax.shape for ax in kb.axioms]
    assert shapes == [
        K.CONCEPT_ASSERTION, K.NEG_CONCEPT_ASSERTION,
        K.ROLE_ASSERTION, K.NEG_ROLE_ASSERTION,
        EXISTS_ASSERTION, NEG_EXISTS_ASSERTION,
        K.SUBCLASS, K.SUPNOT, K.SUPEX, NEG_SUPEX,
        K.SUBEX, K.DIS, K.INV, K.IRR, K.SUBCLASS,
    ]
    assert kb.axioms[-1].defeasible
    assert kb.concepts == ("A", "B")
    assert kb.roles == ("R", "S")
    assert kb.individuals == ("a", "b")


def test_auto_registration_by_position():
    kb = parse_dkb("worksFor(alice, acme). Employer(acme).")
    assert kb.roles == ("worksFor",)
    assert kb.concepts == ("Employer",)
    assert kb.individuals == ("acme", "alice")


def test_declarations_override_case_convention():
    kb = parse_dkb("concept lower. individual Big. lower(Big).")
    assert kb.axioms == (SurfaceAxiom(K.CONCEPT_ASSERTION, ("lower", "Big")),)


def test_declarations_apply_regardless_of_position():
    # Bare X [= Y reads as a role inclusion once both are known roles,
    # even when the declarations come later in the document.
    kb = parse_dkb("R [= S. role R. role S.")
    assert kb.axioms == (SurfaceAxiom(K.SUBROLE, ("R", "S")),)
    # Without declarations the same statement is a concept inclusion.
    kb2 = parse_dkb("R [= S.")
    assert kb2.axioms == (SurfaceAxiom(K.SUBCLASS, ("R", "S")),)


def test_mixed_role_concept_inclusion_rejected():
    e = err("R(a,b). R [= S.")
    assert e.kind == "unknown-construct"


def test_inverse_role_positions():
    kb = parse_dkb("A [= exists R^-. exists S^- [= B. R^- [= S. Inv(R,S^-).")
    assert [ax.args for ax in kb.axioms] == [
        ("A", "R^-"), ("S^-", "B"), ("R^-", "S"), ("R", "S^-")]
    assert kb.roles == ("R", "S")


def test_d_as_ordinary_predicate():
    # D(...) only wraps when the parentheses hold an axiom, not a bare
    # argument list.
    assert one("D(a).") == SurfaceAxiom(K.CONCEPT_ASSERTION, ("D", "a"))
    assert one("D(a,b).") == SurfaceAxiom(K.ROLE_ASSERTION, ("D", "a", "b"))


def test_nested_defeasible_wrapper_rejected():
    e = err("D(D(A [= B)).")
    assert e.kind == "unknown-construct"


def test_negated_existential_left_side_rejected():
    e = err("-exists R [= B.")
    assert e.kind == "unknown-construct"


def test_underscore_names_parse():
    # Normalizer helpers read back; the case convention looks past the
    # leading '_'.
    kb = parse_dkb("_N0(a). R(_x,a).")
    assert kb.axioms == (SurfaceAxiom(K.CONCEPT_ASSERTION, ("_N0", "a")),
                         SurfaceAxiom(K.ROLE_ASSERTION, ("R", "_x", "a")))
    assert (kb.concepts, kb.roles, kb.individuals) == \
        (("_N0",), ("R",), ("_x", "a"))


def test_error_positions_are_one_based():
    e = err("A(a).\nB(b) C.\n")
    assert e.line == 2
    assert e.column == 6


def test_uppercase_individual_needs_declaration():
    e = err("A(Bob).")
    assert e.kind == "unknown-construct"
    parse_dkb("individual Bob. A(Bob).")


def test_sort_clash_detected():
    e = err("individual R. S(a,b). R(a,b).")
    assert e.kind == "unknown-construct"
    assert "both" in e.message


def test_comments_and_whitespace():
    kb = parse_dkb("% leading comment\n  A(a). % trailing\n\n%! pragma line\n")
    assert len(kb.axioms) == 1


def test_parse_query_forms():
    assert parse_query("DeptMember(alice)") == \
        K.Axiom(K.CONCEPT_ASSERTION, ("DeptMember", "alice"))
    assert parse_query("hasCourse(bob, aux_0).") == \
        K.Axiom(K.ROLE_ASSERTION, ("hasCourse", "bob", "aux_0"))
    assert parse_query("-A(a)") == \
        K.Axiom(K.NEG_CONCEPT_ASSERTION, ("A", "a"))
    assert parse_query("-R(a,b)") == \
        K.Axiom(K.NEG_ROLE_ASSERTION, ("R", "a", "b"))
    with pytest.raises(ParseError):
        parse_query("A [= B")
    with pytest.raises(ParseError):
        parse_query("A(a) junk")


# Every diagnostic the parser emits, pinned byte for byte: the input and
# its (line, column, kind, message).
_U = "unknown-construct"
_DIAGNOSTICS = [
    # tokens
    ("$", (1, 1, "syntax", "unexpected character '$'")),
    ("A(a).\n  _x(a).", (2, 3, _U, "'_x': concepts are uppercase-initial "
                                   "(or declare it with 'concept')")),
    # statement starts
    ("A B.", (1, 1, "syntax", "expected an axiom, found 'A'")),
    ("concept.", (1, 1, "syntax", "expected an axiom, found 'concept'")),
    ("A(a). ).", (1, 7, "syntax", "expected an axiom, found ')'")),
    ("A(a). -", (1, 8, "syntax", "expected a name, found 'end of input'")),
    ("exists", (1, 7, "syntax",
                "expected a role name, found 'end of input'")),
    ("Ref(R).", (1, 1, "reflexivity-rejected",
                 "reflexivity axioms are not supported")),
    ("D(D(A [= B)).", (1, 3, _U, "nested D(...) wrapper")),
    ("D(exists).", (1, 9, "syntax", "expected a role name, found ')'")),
    ("D(a, exists).", (1, 3, "syntax", "expected an axiom, found 'a'")),
    ("D(D(a)", (1, 7, "syntax", "expected ')', found 'end of input'")),
    # terminators and argument lists
    ("A(a) B.", (1, 6, "syntax", "expected '.', found 'B'")),
    ("concept A", (1, 10, "syntax", "expected '.', found 'end of input'")),
    ("-A.", (1, 3, "syntax", "expected '(', found '.'")),
    ("A(a,b,c).", (1, 6, "syntax", "expected ')', found ','")),
    ("A(,a).", (1, 3, "syntax", "expected an individual, found ','")),
    ("exists R(a,b).", (1, 11, "syntax", "expected ')', found ','")),
    ("-R^-(a,b).", (1, 3, "syntax", "expected '(', found '^-'")),
    ("R^-(a,b).", (1, 4, "syntax", "expected '[=', found '('")),
    ("exists R.", (1, 9, "syntax", "expected '[=', found '.'")),
    ("Dis(R).", (1, 6, "syntax", "expected ',', found ')'")),
    ("Irr(R S).", (1, 7, "syntax", "expected ')', found 'S'")),
    ("Inv(R,).", (1, 7, "syntax", "expected a role name, found ')'")),
    # inclusion sides
    ("A [= .", (1, 6, "syntax", "expected a name, found '.'")),
    ("A [= exists .", (1, 13, "syntax", "expected a role name, found '.'")),
    ("-exists R [= B.", (1, 2, _U,
                         "negated existential cannot start an inclusion")),
    ("-exists R.", (1, 2, _U,
                    "negated existential cannot start an inclusion")),
    ("exists R [= -B.", (1, 1, _U, "an existential left side takes an "
                                   "atomic right side only")),
    ("exists R [= B^-.", (1, 1, _U, "an existential left side takes an "
                                    "atomic right side only")),
    ("exists R [= exists S.", (1, 1, _U, "an existential left side takes "
                                         "an atomic right side only")),
    ("A [= -B^-.", (1, 7, _U, "a negated right side must be atomic")),
    ("exists R [= -B^-.", (1, 14, _U,
                           "a negated right side must be atomic")),
    ("R^- [= -B.", (1, 1, _U, "a role inclusion takes a role right side")),
    ("A. R^- [= exists S.", (1, 1, "syntax", "expected an axiom, found 'A'")),
    ("A(a). R^- [= exists S.", (1, 7, _U,
                                "a role inclusion takes a role right side")),
    # sorts
    ("a [= B.", (1, 1, _U, "'a': concepts are uppercase-initial "
                           "(or declare it with 'concept')")),
    ("A(Bob).", (1, 3, _U, "'Bob': individuals are lowercase-initial "
                           "(or declare it with 'individual')")),
    ("R(a,b). R [= S.", (1, 14, _U, "'S': inclusion mixes a role with a "
                                    "concept (declare 'role S.' if a role "
                                    "inclusion was intended)")),
    ("R(a,b). A [= R.", (1, 9, _U, "'A': inclusion mixes a role with a "
                                   "concept (declare 'role A.' if a role "
                                   "inclusion was intended)")),
    ("R(a,b). R(a).", (1, 9, _U,
                       "'R' is used as both a concept and a role")),
    ("concept R. R(a,b).", (1, 12, _U,
                            "'R' is used as both a concept and a role")),
    ("concept a. A(a).", (1, 14, _U,
                          "'a' is used as both a concept and an individual")),
    ("role a. A(a).", (1, 11, _U,
                       "'a' is used as both a role and an individual")),
    ("A(a). R(A,b). individual A.", (1, 26, _U, "'A' is used as both a "
                                                "concept and an individual")),
    # `exists` is a keyword in every name position
    ("A(exists).", (1, 3, "syntax", "expected an individual, found 'exists'")),
    ("R(a, exists).", (1, 6, "syntax",
                       "expected an individual, found 'exists'")),
    ("D(A(exists)).", (1, 5, "syntax",
                       "expected an individual, found 'exists'")),
    ("exists R(exists).", (1, 10, "syntax",
                           "expected an individual, found 'exists'")),
    ("individual exists.", (1, 12, "syntax",
                            "expected a name, found 'exists'")),
    ("concept exists.", (1, 9, "syntax", "expected a name, found 'exists'")),
    ("Dis(exists,R).", (1, 5, "syntax",
                        "expected a role name, found 'exists'")),
    ("A [= exists exists.", (1, 13, "syntax",
                             "expected a role name, found 'exists'")),
    # Dis, Inv, Irr and Ref name no concept or role
    ("A [= Irr.", (1, 6, _U, "'Irr' is a reserved predicate name")),
    ("concept Ref. A(a).", (1, 9, _U, "'Ref' is a reserved predicate name")),
    ("role Dis. R(a,b).", (1, 6, _U, "'Dis' is a reserved predicate name")),
    ("A [= exists Inv^-.", (1, 13, _U,
                            "'Inv' is a reserved predicate name")),
]


@pytest.mark.parametrize("text, expected", _DIAGNOSTICS)
def test_every_diagnostic_is_pinned(text, expected):
    e = err(text)
    assert (e.line, e.column, e.kind, e.message) == expected


@pytest.mark.parametrize("text, expected", [
    ("", (1, 1, "syntax",
          "expected a concept or role name, found 'end of input'")),
    ("A", (1, 2, "syntax", "expected '(', found 'end of input'")),
    ("exists R(a)", (1, 1, "syntax",
                     "expected a concept or role name, found 'exists'")),
    ("A(a) x", (1, 6, "syntax", "trailing input 'x'")),
    ("A(a", (1, 4, "syntax", "expected ')', found 'end of input'")),
    ("-R(a,b,c)", (1, 7, "syntax", "expected ')', found ','")),
    ("A(a).\n.", (2, 1, "syntax", "trailing input '.'")),
    ("A(#)", (1, 3, "syntax", "unexpected character '#'")),
    ("exists(a)", (1, 1, "syntax",
                   "expected a concept or role name, found 'exists'")),
    ("A(exists)", (1, 3, "syntax", "expected an individual, found 'exists'")),
    ("-R(a,exists)", (1, 6, "syntax",
                      "expected an individual, found 'exists'")),
])
def test_every_query_diagnostic_is_pinned(text, expected):
    with pytest.raises(ParseError) as ei:
        parse_query(text)
    e = ei.value
    assert (e.line, e.column, e.kind, e.message) == expected


def test_accepted_corner_forms():
    # `exists` is always the existential keyword; D(...) wraps only an
    # axiom; an inverse marker makes a bare inclusion a role inclusion.
    kb = parse_dkb("D(D(a)). exists R^-(a). -exists S^-(a). "
                   "A [= B^-. R^- [= S. E [= -exists R^-. exists S^- [= C.")
    assert kb.axioms == (
        SurfaceAxiom(K.CONCEPT_ASSERTION, ("D", "a"), True),
        SurfaceAxiom(EXISTS_ASSERTION, ("R^-", "a")),
        SurfaceAxiom(NEG_EXISTS_ASSERTION, ("S^-", "a")),
        SurfaceAxiom(K.SUBROLE, ("A", "B^-")),
        SurfaceAxiom(K.SUBROLE, ("R^-", "S")),
        SurfaceAxiom(NEG_SUPEX, ("E", "R^-")),
        SurfaceAxiom(K.SUBEX, ("S^-", "C")),
    )
    assert kb.concepts == ("C", "D", "E")
    assert kb.roles == ("A", "B", "R", "S")


def _diagnostic(e: ParseError) -> list:
    return [e.line, e.column, e.kind, e.message]


def test_fuzzed_documents_parse_or_raise_parse_error_only():
    # Any other exception fails the test; the digest pins every accepted
    # KB, every parsed query and every diagnostic.
    outcomes = []
    accepted = queries = 0
    for text in surface_fuzz_docs(5000, 17):
        try:
            kb = parse_dkb(text)
        except ParseError as e:
            outcomes.append(_diagnostic(e))
        else:
            normalize(kb)
            accepted += 1
            outcomes.append([[ax.shape, ax.args, ax.defeasible]
                             for ax in kb.axioms]
                            + [kb.concepts, kb.roles, kb.individuals])
        try:
            q = parse_query(text)
        except ParseError as e:
            outcomes.append(_diagnostic(e))
        else:
            queries += 1
            outcomes.append([q.shape, q.args])
    # Two documents, `concept Ref .` and `A [= exists Inv .`, were
    # accepted until kb.RESERVED kept those names from concepts and roles.
    assert (accepted, queries) == (853, 187)
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == (
        "e8f65b4224d4693b10bb2c120b02a9b0e86a9168f6294e7b078df1890ff5933f")
