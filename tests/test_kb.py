"""Domain-model tests: axioms, vocabularies, KBs, exception candidates."""

from __future__ import annotations

import random

import pytest

from corpus import EVERY_SHAPE
from dkblite.kb import (
    CA_ARITY,
    DKB,
    RESERVED,
    Axiom,
    ClashingAssumption,
    Vocabulary,
    ca_candidates,
    concept_assertion,
    dis,
    inv,
    irr,
    neg_role_assertion,
    role_assertion,
    subclass,
    subex,
    subrole,
    supex,
    supnot,
)


def test_candidates_dept(k_dept):
    alpha = supex("DeptMember", "hasCourse")
    got = ca_candidates(k_dept)
    assert set(got) == {
        ClashingAssumption(alpha, ("alice",)),
        ClashingAssumption(alpha, ("bob",)),
    }


def test_candidates_empty_without_defeasible(k_dept):
    strict_only = DKB(k_dept.vocabulary, k_dept.strict + k_dept.defeasible, ())
    assert ca_candidates(DKB(k_dept.vocabulary, k_dept.strict, ())) == ()
    assert ca_candidates(strict_only) == ()


def test_candidates_role_pair_axiom():
    kb = DKB.from_axioms(defeasible=(dis("R", "S"),), individuals=("a", "b"))
    got = ca_candidates(kb)
    assert [c.args for c in got] == [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
    assert all(c.axiom == dis("R", "S") for c in got)


def test_candidate_count_formula():
    rng = random.Random(7)
    shapes = [
        subclass("A", "B"), supnot("A", "B"), subex("R", "A"),
        supex("A", "R"), subrole("R", "S"), dis("R", "S"), inv("R", "S"),
        irr("R"), concept_assertion("A", "a"), role_assertion("R", "a", "a"),
    ]
    for _ in range(25):
        n_ind = rng.randint(1, 5)
        inds = tuple(f"i{k}" for k in range(n_ind))
        chosen = tuple(rng.sample(shapes, rng.randint(0, len(shapes))))
        kb = DKB.from_axioms(defeasible=chosen, individuals=inds)
        expected = sum(len(kb.vocabulary.individuals) ** CA_ARITY[ax.shape]
                       for ax in chosen)
        assert len(ca_candidates(kb)) == expected


def test_candidates_deterministic_and_named_only(k_dept):
    first = ca_candidates(k_dept)
    assert first == ca_candidates(k_dept)
    for ca in first:
        for a in ca.args:
            assert a in k_dept.vocabulary.individuals


def test_assertion_candidates_have_empty_tuple():
    kb = DKB.from_axioms(
        defeasible=(concept_assertion("A", "a"), role_assertion("R", "a", "b")),
        individuals=("a", "b", "c"))
    got = ca_candidates(kb)
    assert [c.args for c in got] == [(), ()]


def test_axiom_validation():
    with pytest.raises(ValueError):
        Axiom("subclass", ("A",))
    with pytest.raises(ValueError):
        Axiom("no_such_shape", ("A", "B"))
    with pytest.raises(ValueError):
        Axiom("subclass", ("A", "has space"))
    with pytest.raises(ValueError):
        ClashingAssumption(subclass("A", "B"), ("a", "b"))  # arity 1


def test_axiom_text():
    assert subclass("A", "B").text() == "A [= B"
    assert supnot("A", "B").text() == "A [= -B"
    assert subex("R", "B").text() == "exists R [= B"
    assert supex("A", "R").text() == "A [= exists R"
    assert neg_role_assertion("R", "a", "b").text() == "-R(a,b)"
    assert irr("R").text() == "Irr(R)"
    ca = ClashingAssumption(supex("A", "R"), ("a",))
    assert ca.text() == "<A [= exists R, a>"


def test_axiom_text_every_shape():
    assert {ax.shape for ax, _ in EVERY_SHAPE} == set(CA_ARITY)
    for ax, text in EVERY_SHAPE:
        assert ax.text() == text


def test_vocabulary_validation():
    with pytest.raises(ValueError):
        Vocabulary(concepts=("A", "A"))
    with pytest.raises(ValueError):
        Vocabulary(concepts=("A",), roles=("A",))
    with pytest.raises(ValueError):
        Vocabulary(individuals=("",))


@pytest.mark.parametrize("name", [
    "exists", "sk_0(a)", "~aux0", "1a", "a-b", "é", "a b", "?x", ""])
def test_names_outside_the_grammar_are_rejected(name):
    # The parser's grammar is the library's: a keyword, a Skolem term, a
    # leading digit, punctuation, a non-ASCII letter, white space or a
    # variable marker never make a name.
    with pytest.raises(ValueError):
        Vocabulary(individuals=(name,))
    with pytest.raises(ValueError):
        concept_assertion("A", name)


@pytest.mark.parametrize("name", ["Dis", "Inv", "Irr", "Ref"])
def test_reserved_predicate_names_name_no_concept_or_role(name):
    # The surface syntax opens an axiom with these names, so `Irr(a).`
    # could never state a concept assertion; an individual may take one.
    assert name in RESERVED
    with pytest.raises(ValueError, match="reserved predicate name"):
        Vocabulary(concepts=(name,))
    with pytest.raises(ValueError, match="reserved predicate name"):
        Vocabulary(roles=(name,))
    assert Vocabulary(individuals=(name,)).individuals == (name,)


def test_dkb_rejects_undeclared_names():
    voc = Vocabulary(concepts=("A",), individuals=("a",))
    with pytest.raises(ValueError):
        DKB(voc, (concept_assertion("B", "a"),), ())


def test_from_axioms_autoregisters_in_order():
    kb = DKB.from_axioms(
        strict=(role_assertion("R", "b", "a"), concept_assertion("A", "c")),
        individuals=("z",))
    assert kb.vocabulary.individuals == ("z", "b", "a", "c")
    assert kb.vocabulary.roles == ("R",)
    assert kb.vocabulary.concepts == ("A",)


def test_supex_numbering_strict_first():
    kb = DKB.from_axioms(
        strict=(subclass("A", "B"), supex("B", "R")),
        defeasible=(supex("A", "R"), subclass("B", "A")),
    )
    assert kb.supex_axioms() == (supex("B", "R"), supex("A", "R"))


def test_dedup_keeps_first_occurrence_order():
    kb = DKB.from_axioms(
        strict=(subclass("A", "B"), subclass("B", "C"), subclass("A", "B")),
        defeasible=(supex("A", "R"), supex("A", "R")),
    )
    d = kb.dedup()
    assert d.strict == (subclass("A", "B"), subclass("B", "C"))
    assert d.defeasible == (supex("A", "R"),)
    # A strict axiom repeated in the defeasible list is a different thing
    # and must survive.
    kb2 = DKB.from_axioms(strict=(subclass("A", "B"),),
                          defeasible=(subclass("A", "B"),))
    assert kb2.dedup() == kb2
