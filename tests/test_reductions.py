"""Repair and circumscription baselines."""

import pytest

from dkblite import kb as K
from dkblite.engine import ResourceLimitError
from dkblite.reasoner import entails
from dkblite.reductions import (
    FlatKB,
    Positive2CNF,
    ar_entails_bruteforce,
    circ_entails_bruteforce,
    from_2cnf,
    from_inconsistent_kb,
)

DIAMOND = FlatKB(
    tbox=(K.supnot("A", "B"), K.subclass("A", "C"), K.subclass("B", "C")),
    abox=(K.concept_assertion("A", "a"), K.concept_assertion("B", "a")),
)


# --- FlatKB and the defeasible embedding ---


def test_flatkb_separates_terminology_from_data():
    with pytest.raises(ValueError, match="assertion in tbox"):
        FlatKB(tbox=(K.concept_assertion("A", "a"),), abox=())
    with pytest.raises(ValueError, match="non-assertion in abox"):
        FlatKB(tbox=(), abox=(K.subclass("A", "B"),))


def test_embedding_wraps_every_assertion_as_defeasible():
    kb = from_inconsistent_kb(DIAMOND)
    assert kb.strict == DIAMOND.tbox
    assert kb.defeasible == DIAMOND.abox


def test_embedding_of_empty_abox():
    kb = from_inconsistent_kb(FlatKB(tbox=(K.subclass("A", "B"),), abox=()))
    assert kb.defeasible == ()


def test_emulating_embedding_moves_the_default_into_an_inclusion():
    k = FlatKB(
        tbox=(K.supnot("A", "B"),),
        abox=(
            K.concept_assertion("A", "a"),
            K.concept_assertion("A", "b"),
            K.role_assertion("R", "a", "b"),
        ),
    )
    kb = from_inconsistent_kb(k, emulate=True)
    assert kb.strict == (
        K.supnot("A", "B"),
        K.concept_assertion("A_d", "a"),
        K.concept_assertion("A_d", "b"),
        K.role_assertion("R_d", "a", "b"),
    )
    assert kb.defeasible == (
        K.subclass("A_d", "A"),
        K.subrole("R_d", "R"),
    )


def test_emulating_embedding_avoids_taken_names():
    k = FlatKB(
        tbox=(K.subclass("A_d", "X"),),
        abox=(K.concept_assertion("A", "a"),),
    )
    kb = from_inconsistent_kb(k, emulate=True)
    assert K.concept_assertion("A_d_", "a") in kb.strict
    assert kb.defeasible == (K.subclass("A_d_", "A"),)


def test_emulating_embedding_rejects_negated_assertions():
    k = FlatKB(tbox=(), abox=(K.neg_concept_assertion("A", "a"),))
    with pytest.raises(ValueError, match="emulation"):
        from_inconsistent_kb(k, emulate=True)


# --- repair entailment baseline ---


def test_repair_entailment_on_the_diamond():
    assert ar_entails_bruteforce(DIAMOND, K.concept_assertion("C", "a"))
    assert not ar_entails_bruteforce(DIAMOND, K.concept_assertion("A", "a"))
    assert not ar_entails_bruteforce(DIAMOND, K.concept_assertion("B", "a"))


def test_repair_entailment_consistent_kb_keeps_everything():
    k = FlatKB(
        tbox=(K.subclass("A", "B"),),
        abox=(K.concept_assertion("A", "a"), K.concept_assertion("B", "b")),
    )
    for q in (K.concept_assertion("A", "a"), K.concept_assertion("B", "a"),
              K.concept_assertion("B", "b")):
        assert ar_entails_bruteforce(k, q)
    assert not ar_entails_bruteforce(k, K.concept_assertion("A", "b"))


def test_repair_entailment_caps_the_abox():
    k = FlatKB(
        tbox=(),
        abox=tuple(K.concept_assertion("A", f"e{i}") for i in range(13)),
    )
    with pytest.raises(ResourceLimitError):
        ar_entails_bruteforce(k, K.concept_assertion("A", "e0"))


def test_repair_entailment_takes_positive_queries_only():
    with pytest.raises(ValueError, match="positive assertion"):
        ar_entails_bruteforce(DIAMOND, K.neg_concept_assertion("A", "a"))


def test_pipeline_agrees_with_repairs_on_the_diamond():
    queries = [K.concept_assertion(c, "a") for c in ("A", "B", "C")]
    plain = from_inconsistent_kb(DIAMOND)
    primed = from_inconsistent_kb(DIAMOND, emulate=True)
    for q in queries:
        want = ar_entails_bruteforce(DIAMOND, q)
        assert bool(entails(plain, q)) == want, q.text()
        assert bool(entails(primed, q)) == want, q.text()


# --- circumscription baseline ---


def test_minimal_models_of_a_clause_through_the_target():
    f = Positive2CNF(("x", "z"), (("x", "z"),), "z")
    assert circ_entails_bruteforce(f)
    kb = from_2cnf(f)
    assert kb.strict == (K.subclass("v_x", "v_z"),)
    assert kb.defeasible == (K.concept_assertion("v_x", "a"),)
    assert bool(entails(kb, K.concept_assertion("v_z", "a")))


def test_clause_not_involving_the_target_gives_false():
    f = Positive2CNF(("x", "y", "z"), (("x", "y"),), "z")
    assert not circ_entails_bruteforce(f)
    kb = from_2cnf(f)
    assert kb.strict == (K.supnot("v_x", "v_y"),)
    assert kb.defeasible == (
        K.concept_assertion("v_x", "a"),
        K.concept_assertion("v_y", "a"),
    )
    assert not entails(kb, K.concept_assertion("v_z", "a"))


def test_no_clauses_leave_the_target_unsupported():
    f = Positive2CNF(("x", "z"), (), "z")
    assert not circ_entails_bruteforce(f)
    assert not entails(from_2cnf(f), K.concept_assertion("v_z", "a"))


def test_2cnf_validation():
    with pytest.raises(ValueError, match="not a variable"):
        Positive2CNF(("x",), (), "z")
    with pytest.raises(ValueError, match="single variable"):
        Positive2CNF(("x", "z"), (("x", "x"),), "z")
    with pytest.raises(ValueError, match="undeclared"):
        Positive2CNF(("x", "z"), (("x", "y"),), "z")


def test_circ_variable_cap():
    names = tuple(f"x{i}" for i in range(21))
    f = Positive2CNF(names, (), "x0")
    with pytest.raises(ResourceLimitError):
        circ_entails_bruteforce(f)


def test_emulation_is_entailment_invisible():
    cases = [
        DIAMOND,
        FlatKB(tbox=(K.subclass("A", "B"), K.supnot("B", "C")),
               abox=(K.concept_assertion("A", "a"),
                     K.concept_assertion("C", "a"))),
        FlatKB(tbox=(K.dis("R", "S"),),
               abox=(K.role_assertion("R", "a", "b"),
                     K.role_assertion("S", "a", "b"),
                     K.concept_assertion("A", "a"))),
    ]
    for k in cases:
        plain = from_inconsistent_kb(k)
        primed = from_inconsistent_kb(k, emulate=True)
        voc = plain.vocabulary
        queries = [K.concept_assertion(c, e)
                   for c in voc.concepts for e in voc.individuals]
        queries += [K.role_assertion(r, e, f) for r in voc.roles
                    for e in voc.individuals for f in voc.individuals]
        for q in queries:
            assert bool(entails(plain, q)) == bool(entails(primed, q)), q.text()
