"""End-to-end reasoning interface."""

import itertools
import json

import pytest

from dkblite import engine
from dkblite import kb as K
from dkblite.engine import MAX_OVR, ResourceLimitError, answer_sets, ground
from dkblite.normalize import normalize
from dkblite.oracle import oracle_answer, oracle_models
from dkblite.parser import parse_dkb
from dkblite.reasoner import (
    EntailmentResult,
    entails,
    json_report,
    justified_models,
    satisfiable,
)
from dkblite.translate import output_atom, translate

from conftest import DEPT_DEFAULT, dis_kb, entailment, nixon_kb, subrole_kb
from corpus import (
    corpus_kbs,
    dept_kb,
    flat_queries,
    flat_sample,
    nixon_text,
)

CA_BOB = K.ClashingAssumption(DEPT_DEFAULT, ("bob",))


def unsat_kb() -> K.DKB:
    return K.DKB.from_axioms(strict=(
        K.supnot("A", "B"),
        K.concept_assertion("A", "a"),
        K.concept_assertion("B", "a"),
    ))


def family(k_dept):
    return (k_dept, nixon_kb(), dis_kb(), subrole_kb())


# --- satisfiable ---


def test_satisfiable_dept(k_dept):
    assert satisfiable(k_dept)


def test_satisfiable_strict_clash_is_false():
    assert not satisfiable(unsat_kb())


def test_satisfiable_empty_kb():
    assert satisfiable(K.DKB.from_axioms())


def test_satisfiable_needs_a_justified_model():
    # Overriding the only defeasible axiom removes every clash, but the
    # exception is not justified: without R(a,a) nothing clashes with it.
    kb = normalize(parse_dkb("Inv(S,R). Dis(R,S). D(R(a,a))."))
    assert not satisfiable(kb)
    assert justified_models(kb) == []
    assert oracle_models(kb) == []


# --- entails ---


def test_entails_dept_examples(k_dept):
    r = entails(k_dept, K.concept_assertion("DeptMember", "alice"))
    assert r == EntailmentResult(entailed=True, unsat=False)
    assert bool(r)
    assert entails(k_dept, K.concept_assertion("DeptMember", "bob"))
    assert entails(k_dept, K.role_assertion("hasCourse", "alice", "aux_0"))
    r = entails(k_dept, K.role_assertion("hasCourse", "bob", "aux_0"))
    assert not r and not r.unsat


def test_entails_negated_query_extension(k_dept):
    assert entails(k_dept, K.neg_role_assertion("hasCourse", "bob", "aux_0"))
    assert not entails(k_dept, K.neg_concept_assertion("DeptMember", "alice"))


def test_entails_flags_the_vacuous_case():
    kb = unsat_kb()
    r = entails(kb, K.concept_assertion("A", "a"))
    assert r == EntailmentResult(entailed=True, unsat=True)
    assert bool(r)


def _limited(f):
    """f(), or "limit" when it raises ResourceLimitError."""
    try:
        return f()
    except ResourceLimitError:
        return "limit"


def _differential_cases():
    """(kb, queries, caps) for the early-exit differential test."""
    caps = (MAX_OVR, 0, 1, 2)
    for kb in corpus_kbs(240, 1806):
        yield kb, K.named_queries(kb), caps
    for kb in flat_sample():
        v = kb.vocabulary
        names = set(v.concepts) | set(v.individuals)
        yield kb, [q for q in flat_queries() if set(q.args) <= names], \
            (MAX_OVR,)
    for s in range(1, 9):
        kb = dept_kb(2 * s, s)
        yield kb, [K.role_assertion("hasCourse", x, "aux_0")
                   for x in kb.vocabulary.individuals], (MAX_OVR, 1)
    for k in range(1, 6):
        kb = normalize(parse_dkb(nixon_text(k)))
        yield kb, [f(c, f"p{i}") for i in range(k)
                   for f, c in ((K.concept_assertion, "Quaker"),
                                (K.concept_assertion, "Pacifist"),
                                (K.neg_concept_assertion, "Pacifist"))], \
            (MAX_OVR,)


def test_entails_equals_enumerate_then_check():
    # entails stops at the first answer set that settles the query; it
    # must answer, and hit the cap, exactly as checking every answer set.
    checked = limited = 0
    for kb, queries, caps in _differential_cases():
        p = translate(kb)
        gp = ground(p)
        for c in caps:
            models = _limited(lambda: answer_sets(gp, max_ovr=c))
            for q in queries:
                want = models if models == "limit" else entailment(
                    models, output_atom(p, q))
                got = _limited(lambda: entails(kb, q, max_ovr=c))
                assert got == want, (q.text(), c)
                checked += 1
                limited += want == "limit"
    assert checked > 10_000 and limited > 1_000


def test_entails_stops_at_the_first_settling_model(monkeypatch):
    # dept(20, 10) has one model among 2^10 guesses.  A student's course
    # is missing from the first answer set; a professor's course and
    # membership lie in the least model under the first guess.  Either
    # way the search stops after the over-approximation and that guess.
    calls = 0
    least_ids = engine._Solver.least_ids

    def counted(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return least_ids(self, *args, **kwargs)

    monkeypatch.setattr(engine._Solver, "least_ids", counted)
    kb = dept_kb(20, 10)
    for q, want in ((K.role_assertion("hasCourse", "p000", "aux_0"), False),
                    (K.role_assertion("hasCourse", "p001", "aux_0"), True),
                    (K.concept_assertion("DeptMember", "p001"), True)):
        calls = 0
        assert entails(kb, q, max_ovr=40) == EntailmentResult(want, False)
        assert calls <= 3, q.text()


# --- justified_models ---


def test_justified_models_dept(k_dept):
    reports = justified_models(k_dept)
    assert len(reports) == 1
    (r,) = reports
    assert r.chi == (CA_BOB,)
    assert K.concept_assertion("DeptMember", "alice") in r.derived_positive
    assert K.role_assertion("hasCourse", "alice", "aux_0") in r.derived_positive
    assert K.role_assertion("hasCourse", "bob", "aux_0") not in r.derived_positive
    assert K.neg_role_assertion("hasCourse", "bob", "aux_0") in r.derived_negative


def test_justified_models_two_incomparable_exception_sets():
    reports = justified_models(nixon_kb())
    assert len(reports) == 2
    chis = [set(r.chi) for r in reports]
    assert chis[0] != chis[1]
    assert not (chis[0] <= chis[1]) and not (chis[1] <= chis[0])
    assert {frozenset(c) for c in chis} == {
        frozenset({K.ClashingAssumption(K.subclass("Quaker", "Pacifist"),
                                        ("nixon",))}),
        frozenset({K.ClashingAssumption(K.subclass("Republican", "Hawk"),
                                        ("nixon",))}),
    }


def test_justified_models_strict_only_kb():
    kb = K.DKB.from_axioms(
        strict=(K.subclass("A", "B"), K.concept_assertion("A", "a")))
    reports = justified_models(kb)
    assert len(reports) == 1
    assert reports[0].chi == ()
    assert K.concept_assertion("B", "a") in reports[0].derived_positive


def test_justified_models_empty_iff_unsatisfiable(k_dept):
    assert justified_models(unsat_kb()) == []
    for kb in family(k_dept):
        assert bool(justified_models(kb)) == satisfiable(kb)


# --- agreement with the chase-based reference ---


def named_queries(kb: K.DKB):
    voc = kb.vocabulary
    names = [c for c in voc.concepts if not c.startswith("_")]
    for c in names:
        for e in voc.individuals:
            yield K.concept_assertion(c, e)
            yield K.neg_concept_assertion(c, e)
    for r in voc.roles:
        for e in voc.individuals:
            for f in voc.individuals:
                yield K.role_assertion(r, e, f)
                yield K.neg_role_assertion(r, e, f)


def test_exception_sets_match_the_reference(k_dept):
    for kb in family(k_dept):
        got = {frozenset(r.chi) for r in justified_models(kb)}
        want = {chi for chi, _model in oracle_models(kb)}
        assert got == want


def test_query_answers_match_the_reference(k_dept):
    checked = 0
    for kb in family(k_dept):
        for q in named_queries(kb):
            assert bool(entails(kb, q)) == oracle_answer(kb, q), q.text()
            checked += 1
    assert checked >= 40


def test_entails_and_the_oracle_refuse_the_same_queries(k_dept):
    # A name the KB lacks is an error on both sides, not a verdict: the
    # oracle read hasCourse(bob,aux__0) as False, and any query as True
    # on a KB without models.  `twice` repeats its existential, which
    # both sides count once, so it owns aux_0 only.
    twice = K.DKB.from_axioms(strict=(K.concept_assertion("A", "a"),
                                      K.supex("A", "R"), K.supex("A", "R")))
    cases = [
        (k_dept, K.concept_assertion("DeptMember", "zed")),
        (k_dept, K.concept_assertion("Nope", "bob")),
        (k_dept, K.role_assertion("nope", "bob", "alice")),
        (k_dept, K.role_assertion("hasCourse", "bob", "aux__0")),
        (k_dept, K.role_assertion("hasCourse", "bob", "aux_1")),
        (k_dept, K.neg_concept_assertion("DeptMember", "aux_1")),
        (unsat_kb(), K.concept_assertion("A", "aux_0")),
        (twice, K.role_assertion("R", "a", "aux_1")),
    ]
    for ask in (entails, oracle_answer):
        for kb, q in cases:
            with pytest.raises(K.UnknownNameError) as e:
                ask(kb, q)
            assert e.type is K.UnknownNameError, q.text()
        with pytest.raises(ValueError, match="not a ground assertion"):
            ask(k_dept, K.subclass("Professor", "DeptMember"))
    q = K.role_assertion("R", "a", "aux_0")
    assert entails(twice, q) and oracle_answer(twice, q)


# --- structural properties of the enumerated models ---


def test_no_exception_is_redundant(k_dept):
    for kb in family(k_dept):
        models = answer_sets(ground(translate(kb)))
        for a in models:
            non_ovr = {l for l in a.literals if l.pred != "ovr"}
            for o in a.ovr_atoms:
                smaller = a.ovr_atoms - {o}
                for b in models:
                    if b.ovr_atoms == smaller:
                        assert {l for l in b.literals if l.pred != "ovr"} \
                            != non_ovr, f"dropping {o.text()} changed nothing"


def test_strict_subclass_consequences_are_closed(k_dept):
    # whenever A [= B is strict, every entailed A(e) forces B(e)
    for kb in family(k_dept):
        for ax in kb.strict:
            if ax.shape != K.SUBCLASS:
                continue
            sub, sup = ax.args
            for e in kb.vocabulary.individuals:
                if entails(kb, K.concept_assertion(sub, e)):
                    assert entails(kb, K.concept_assertion(sup, e))


# --- json_report ---


def test_json_report_dept(k_dept):
    report = json_report(k_dept)
    assert report["satisfiable"] is True
    assert report["unsat_flag"] is False
    assert len(report["models"]) == 1
    (m,) = report["models"]
    assert m["chi"] == [
        {"axiom": "DeptMember [= exists hasCourse", "args": ["bob"]}]
    assert "DeptMember(alice)" in m["positives"]
    assert "hasCourse(alice,aux_0)" in m["positives"]
    assert "-hasCourse(bob,aux_0)" in m["negatives"]
    assert m["positives"] == sorted(m["positives"])
    json.dumps(report)


def test_json_report_unsatisfiable():
    report = json_report(unsat_kb())
    assert report == {"satisfiable": False, "unsat_flag": True, "models": []}


# --- closed forms beyond the oracle's reach ---


def _universe_size(kb: K.DKB) -> int:
    return len(engine.ModelSearch(ground(translate(kb))).universe)


@pytest.mark.parametrize("n, s", [(2 * s, s) for s in range(1, 10)]
                         + [(320, 2)])
def test_dept_has_one_model_overriding_each_student(n, s):
    # dept(n, s) has exactly one justified model: the hasCourse default
    # is overridden at each student, and a course is entailed exactly at
    # the professors.  The oracle cannot check s > 8 in reasonable time.
    kb = dept_kb(n, s)
    inds = kb.vocabulary.individuals
    students = {e for e in inds
                if K.concept_assertion("PhDStudent", e) in kb.strict}
    assert len(students) == s
    assert _universe_size(kb) == len(K.ca_candidates(kb)) == n
    (r,) = justified_models(kb, max_ovr=n)
    assert r.chi == tuple(K.ClashingAssumption(DEPT_DEFAULT, (e,))
                          for e in inds if e in students)
    for e in inds:
        course = K.role_assertion("hasCourse", e, "aux_0")
        assert (course in r.derived_positive) == (e not in students)


@pytest.mark.parametrize("k", range(1, 7))
def test_nixon_has_a_model_per_choice_of_default(k):
    # Nixon(k): each individual overrides exactly one of its two
    # defaults, independently, so the 2^k models are the product of
    # those choices.  Quaker(p_i) holds in all; Pacifist(p_i) and
    # -Pacifist(p_i) in only some.
    kb = normalize(parse_dkb(nixon_text(k)))
    pacifist = K.subclass("Quaker", "Pacifist")
    hawk = K.supnot("Republican", "Pacifist")
    inds = [f"p{i}" for i in range(k)]
    assert _universe_size(kb) == len(K.ca_candidates(kb)) == 2 * k
    reports = justified_models(kb)
    assert {frozenset(r.chi) for r in reports} == {
        frozenset(K.ClashingAssumption(ax, (e,))
                  for ax, e in zip(choice, inds))
        for choice in itertools.product((pacifist, hawk), repeat=k)}
    assert len(reports) == 2 ** k
    for e in inds:
        assert all(K.concept_assertion("Quaker", e) in r.derived_positive
                   for r in reports)
        assert not all(K.concept_assertion("Pacifist", e)
                       in r.derived_positive for r in reports)
        assert not all(K.neg_concept_assertion("Pacifist", e)
                       in r.derived_negative for r in reports)
