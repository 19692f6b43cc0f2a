"""Translator tests: schema rules, input facts, aux constants, output atoms."""

from __future__ import annotations

import importlib.resources

import pytest

from corpus import (
    EVERY_SHAPE,
    corpus_kbs,
    dept_kb,
    every_shape_kb,
    flat_sample,
)
from dkblite import kb as K
from dkblite.engine import answer_sets, ground
from dkblite.kb import ClashingAssumption, DKB, ca_candidates
from dkblite.program import Program, export_asp_text, lit, neg, parse_asp_text
from dkblite.translate import (
    UnknownNameError,
    decode_output,
    decode_ovr,
    output_atom,
    schema_rules,
    supporting_facts,
    translate,
)


def rules_named(prefix: str):
    return tuple(r for r in schema_rules() if r.name.startswith(prefix))


def test_schema_matches_golden_file():
    golden = (importlib.resources.files("dkblite") / "rules" / "pk_schema.lp") \
        .read_text()
    assert export_asp_text(Program(rules=schema_rules())) == golden


def test_schema_rule_counts():
    # 24 deduction rules (including the 3 chain rules), 13 overriding
    # rules, 21 application rules.
    assert len(rules_named("dl_")) == 24
    assert len(rules_named("ovr_")) == 13
    assert len(rules_named("app_")) == 21
    names = [r.name for r in schema_rules()]
    assert len(set(names)) == 58


def test_naf_only_on_ovr_in_application_rules():
    for r in rules_named("dl_") + rules_named("ovr_"):
        assert r.naf == ()
    for r in rules_named("app_"):
        for l in r.naf:
            assert l.pred == "ovr"
            assert not l.neg
    assert any(r.naf for r in rules_named("app_"))


def test_schema_round_trips_through_text():
    p = Program(rules=schema_rules())
    back = parse_asp_text(export_asp_text(p))
    assert [(r.head, r.body, r.naf) for r in back.rules] == \
        [(r.head, r.body, r.naf) for r in p.rules]


def test_input_fact_per_axiom(k_dept):
    p = translate(k_dept)
    assert lit("subClass", "Professor", "DeptMember") in p.facts
    assert lit("def_supex", "DeptMember", "hasCourse", "aux_0") in p.facts
    assert lit("const", "aux_0") in p.facts
    assert lit("insta", "alice", "Professor") in p.facts
    assert lit("subEx", "hasCourse", "_N0") in p.facts
    assert lit("supNot", "PhDStudent", "_N0") in p.facts


def test_negative_assertion_fact():
    kb = DKB.from_axioms(strict=(K.neg_concept_assertion("A", "a"),))
    p = translate(kb)
    assert neg("insta", "a", "A") in p.facts


def test_empty_kb():
    p = translate(DKB.from_axioms())
    assert p.rules == schema_rules()
    assert p.facts == ()
    assert p.constants == ()


def test_dept_fact_inventory(k_dept):
    # 7 axiom facts + 2 nom + 4 cls + 1 rol + 3 const + 1 first + 2 next
    # + 1 last.
    p = translate(k_dept)
    assert len(p.facts) == 21
    assert p.constants == ("alice", "bob", "aux_0")


def test_supporting_facts_chain():
    got = set(supporting_facts(("alice", "bob", "aux_0")))
    assert got == {
        lit("const", "alice"), lit("const", "bob"), lit("const", "aux_0"),
        lit("first", "alice"), lit("next", "alice", "bob"),
        lit("next", "bob", "aux_0"), lit("last", "aux_0"),
    }
    assert set(supporting_facts(("a",))) == {
        lit("const", "a"), lit("first", "a"), lit("last", "a")}
    assert supporting_facts(()) == ()


def test_aux_constant_per_supex_axiom():
    kb = DKB.from_axioms(
        strict=(K.supex("A", "R"), K.subclass("A", "B"), K.supex("B", "R")),
        defeasible=(K.supex("A", "S"),),
    )
    assert kb.aux_constants() == ("aux_0", "aux_1", "aux_2")
    p = translate(kb)
    assert lit("supEx", "A", "R", "aux_0") in p.facts
    assert lit("supEx", "B", "R", "aux_1") in p.facts
    assert lit("def_supex", "A", "S", "aux_2") in p.facts


def test_aux_prefix_avoids_user_names():
    kb = DKB.from_axioms(
        strict=(K.supex("A", "R"),),
        individuals=("aux_0",),
    )
    assert kb.aux_constants() == ("aux__0",)
    assert DKB.from_axioms(strict=(K.supex("aux__", "R"),)).aux_constants() \
        == ("aux___0",)
    p = translate(kb)
    assert p.constants == ("aux_0", "aux__0")


def test_duplicate_axioms_deduplicated():
    kb = DKB.from_axioms(
        strict=(K.subclass("A", "B"), K.subclass("A", "B")),
        defeasible=(K.supex("A", "R"), K.supex("A", "R")),
    )
    p = translate(kb)
    assert p.facts.count(lit("subClass", "A", "B")) == 1
    assert len([f for f in p.facts if f.pred == "def_supex"]) == 1
    assert p.constants[-1] == "aux_0"


def test_output_atom(k_dept):
    p = translate(k_dept)
    assert output_atom(p, K.concept_assertion("DeptMember", "alice")) == \
        lit("instd", "alice", "DeptMember")
    assert output_atom(p, K.role_assertion("hasCourse", "alice", "aux_0")) == \
        lit("tripled", "alice", "hasCourse", "aux_0")
    assert output_atom(p, K.neg_concept_assertion("_N0", "bob")) == \
        neg("instd", "bob", "_N0")
    with pytest.raises(UnknownNameError):
        output_atom(p, K.concept_assertion("Nope", "alice"))
    with pytest.raises(UnknownNameError):
        output_atom(p, K.concept_assertion("DeptMember", "nope"))
    with pytest.raises(UnknownNameError):
        output_atom(p, K.role_assertion("nope", "alice", "bob"))


def test_decode_ovr_round_trip():
    assert decode_ovr(lit("ovr", "supEx", "bob", "DeptMember", "hasCourse",
                          "aux_0")) == \
        ClashingAssumption(K.supex("DeptMember", "hasCourse"), ("bob",))
    assert decode_ovr(lit("ovr", "subClass", "a", "A", "B")) == \
        ClashingAssumption(K.subclass("A", "B"), ("a",))
    assert decode_ovr(lit("ovr", "dis", "a", "b", "R", "S")) == \
        ClashingAssumption(K.dis("R", "S"), ("a", "b"))
    assert decode_ovr(lit("ovr", "insta", "a", "A")) == \
        ClashingAssumption(K.concept_assertion("A", "a"), ())
    with pytest.raises(ValueError):
        decode_ovr(lit("instd", "a", "A"))
    with pytest.raises(ValueError):
        decode_ovr(lit("ovr", "bogus", "a"))


def test_ovr_universe_decodes_to_the_candidates_of_every_shape():
    # translate declares one ovr atom per exception candidate, in
    # ca_candidates order, and ground() takes exactly those as the
    # assumption universe: every app_* NAF atom is one of them.
    assert len(ca_candidates(every_shape_kb(False, True))) == 26
    kbs = corpus_kbs(240, 1806) + flat_sample()
    kbs += [dept_kb(2 * s, s) for s in range(1, 9)]
    kbs += [every_shape_kb(strict, defeasible)
            for strict, defeasible in ((True, False), (False, True),
                                       (True, True))]
    for kb in kbs:
        p = translate(kb)
        assert [decode_ovr(a) for a in p.candidates] == \
            list(ca_candidates(kb))
        assert ground(p).ovr_universe == tuple(sorted(set(p.candidates)))
    assert len(kbs) == 240 + 510 + 8 + 3


def test_candidates_include_exceptions_no_rule_derives():
    # Irr(r) is defeasible at every named individual, whether or not an
    # r-loop there could clash with it: only a and b have one.
    kb = DKB.from_axioms(
        strict=(K.role_assertion("r", "a", "a"),
                K.role_assertion("r", "a", "b"),
                K.role_assertion("r", "b", "b"),
                K.role_assertion("r", "c", "a")),
        defeasible=(K.irr("r"),))
    gp = ground(translate(kb))
    assert [r.head for r in gp.rules if r.name == "ovr_irr"] == [
        lit("ovr", "irr", "a", "r"), lit("ovr", "irr", "b", "r")]
    assert gp.ovr_universe == tuple(
        lit("ovr", "irr", x, "r") for x in ("a", "b", "c"))


def test_output_atom_round_trip_every_shape(k_dept):
    for strict in (True, False):
        p = translate(every_shape_kb(strict, not strict))
        for ax, _ in EVERY_SHAPE:
            if ax.is_assertion:
                assert decode_output(output_atom(p, ax)) == ax
            else:
                with pytest.raises(ValueError):
                    output_atom(p, ax)
        assert all(decode_output(f) is None for f in p.facts)
    polarities = set()
    p = translate(k_dept)
    for m in answer_sets(ground(p)):
        for l in m.literals:
            ax = decode_output(l)
            if ax is not None:
                assert output_atom(p, ax) == l
                polarities.add(l.neg)
    assert polarities == {False, True}


def test_translate_deterministic(k_dept):
    assert export_asp_text(translate(k_dept)) == \
        export_asp_text(translate(k_dept))
    assert export_asp_text(translate(DKB.from_axioms())) == \
        export_asp_text(translate(DKB.from_axioms()))
