"""Grounding and answer-set enumeration."""

import itertools
import random

import pytest

from dkblite.engine import (
    INCONSISTENT,
    GroundProgram,
    ResourceLimitError,
    answer_sets,
    ground,
    is_answer_set,
    iter_answer_sets,
    least_model,
    make_ground_program,
    reduct,
)
from dkblite.program import Literal, Program, Rule, lit, neg
from dkblite.translate import translate

SUBC_RULE = Rule(
    lit("instd", "?x", "?z2"),
    (lit("subClass", "?z1", "?z2"), lit("instd", "?x", "?z1")),
    (),
    name="dl_subc",
)


def rules_named(gp: GroundProgram, name: str) -> list[Rule]:
    return [r for r in gp.rules if r.name == name]


# --- ground ---


def test_ground_joins_edb_fact_once_per_constant():
    p = Program(
        rules=(SUBC_RULE,),
        facts=(lit("subClass", "A", "B"),),
        constants=("a", "b", "c"),
    )
    gp = ground(p)
    instances = rules_named(gp, "dl_subc")
    assert len(instances) == 3
    assert {r.head for r in instances} == {
        lit("instd", "a", "B"),
        lit("instd", "b", "B"),
        lit("instd", "c", "B"),
    }
    # the concept pair comes from the fact, never from the constant pool
    for r in instances:
        assert lit("subClass", "A", "B") in r.body


def test_ground_keeps_facts_as_empty_body_rules():
    p = Program(
        rules=(SUBC_RULE,),
        facts=(lit("subClass", "A", "B"),),
        constants=(),
    )
    gp = ground(p)
    assert gp.rules == (Rule(lit("subClass", "A", "B"), (), ()),)


def test_ground_dept_ovr_universe_is_exactly_the_named_subjects(k_dept):
    gp = ground(translate(k_dept))
    assert set(gp.ovr_universe) == {
        lit("ovr", "supEx", "alice", "DeptMember", "hasCourse", "aux_0"),
        lit("ovr", "supEx", "bob", "DeptMember", "hasCourse", "aux_0"),
    }


def test_ground_rejects_unsubstituted_variables():
    with pytest.raises(ValueError):
        make_ground_program([Rule(lit("p", "?x"), (), ())])


# --- reduct ---


def test_reduct_drops_rules_blocked_by_the_interpretation():
    gp = make_ground_program([Rule(lit("p"), (), (lit("q"),))])
    assert reduct(gp, {lit("q")}).rules == ()
    assert reduct(gp, {lit("p")}).rules == (Rule(lit("p"), (), ()),)


def test_reduct_is_idempotent():
    gp = make_ground_program([
        Rule(lit("p"), (), (lit("q"),)),
        Rule(lit("q"), (lit("r"),), (lit("p"),)),
        Rule(lit("r"), (), ()),
    ])
    for i in ({lit("p")}, {lit("q")}, set(), {lit("p"), lit("q")}):
        once = reduct(gp, i)
        assert reduct(once, i) == once


# --- least_model ---


def test_least_model_forward_chains():
    gp = make_ground_program([
        Rule(lit("p"), (), ()),
        Rule(lit("q"), (lit("p"),), ()),
        Rule(lit("r"), (lit("s"),), ()),
    ])
    assert least_model(gp) == {lit("p"), lit("q")}


def test_least_model_complementary_pair_is_inconsistent():
    gp = make_ground_program([Rule(lit("p"), (), ()), Rule(neg("p"), (), ())])
    assert least_model(gp) is INCONSISTENT


def test_least_model_refuses_naf():
    gp = make_ground_program([Rule(lit("p"), (), (lit("q"),))])
    with pytest.raises(ValueError):
        least_model(gp)


def test_least_model_dept_strict_fragment_closes_negatives(k_dept):
    # dropping the def_* facts leaves a NAF-free ground program: every
    # overriding and application rule mentions one, so none survive
    p = translate(k_dept)
    strict = Program(
        rules=p.rules,
        facts=tuple(f for f in p.facts if not f.pred.startswith("def_")),
        constants=p.constants,
    )
    m = least_model(ground(strict))
    assert m is not INCONSISTENT
    assert lit("instd", "bob", "DeptMember") in m
    for c in ("alice", "bob", "aux_0"):
        assert neg("tripled", "bob", "hasCourse", c) in m
    assert lit("all_nrel", "bob", "hasCourse") in m
    assert lit("all_nrel", "alice", "hasCourse") not in m


# --- answer_sets ---


def test_answer_sets_even_loop_has_two():
    gp = make_ground_program([
        Rule(lit("p"), (), (lit("q"),)),
        Rule(lit("q"), (), (lit("p"),)),
    ])
    result = answer_sets(gp)
    assert [a.literals for a in result] == [
        frozenset({lit("p")}),
        frozenset({lit("q")}),
    ]
    assert all(a.ovr_atoms == frozenset() for a in result)


def test_answer_sets_odd_loop_has_none():
    gp = make_ground_program([Rule(lit("p"), (), (lit("p"),))])
    assert answer_sets(gp) == []


def test_answer_sets_forced_contradiction_has_none():
    gp = make_ground_program([
        Rule(lit("p"), (), ()),
        Rule(neg("p"), (lit("p"),), ()),
    ])
    assert answer_sets(gp) == []


def test_answer_sets_dept_single_bob_override(k_dept):
    gp = ground(translate(k_dept))
    result = answer_sets(gp)
    assert len(result) == 1
    (m,) = result
    assert m.ovr_atoms == {
        lit("ovr", "supEx", "bob", "DeptMember", "hasCourse", "aux_0"),
    }
    assert lit("tripled", "alice", "hasCourse", "aux_0") in m.literals
    assert lit("tripled", "bob", "hasCourse", "aux_0") not in m.literals


def test_answer_sets_resource_cap():
    gp = make_ground_program([
        Rule(lit(f"p{i}"), (), (lit(f"q{i}"),)) for i in range(21)
    ])
    with pytest.raises(ResourceLimitError):
        answer_sets(gp)
    gp3 = make_ground_program([
        Rule(lit(f"p{i}"), (), (lit(f"q{i}"),)) for i in range(3)
    ])
    with pytest.raises(ResourceLimitError):
        answer_sets(gp3, max_ovr=2)


def test_answer_sets_cap_trips_after_the_largest_guess():
    # 21 default-negated atoms, above the default cap of 20.
    guarded = [Rule(lit(f"p{i}"), (), (lit(f"q{i}"),)) for i in range(21)]
    # A contradiction no guess can block: the largest guess is already
    # inconsistent, so there is no answer set and the cap never trips.
    gp = make_ground_program(guarded + [
        Rule(lit("a"), (), ()),
        Rule(neg("a"), (), ()),
    ])
    assert answer_sets(gp) == []
    # The largest guess is an answer set: it is found before the cap is
    # checked, and the cap trips only when the search goes on.
    gp = make_ground_program(guarded)
    search = iter_answer_sets(gp)
    assert next(search).literals == {lit(f"p{i}") for i in range(21)}
    with pytest.raises(ResourceLimitError):
        next(search)


# --- is_answer_set ---


def test_is_answer_set_fact_program():
    gp = make_ground_program([Rule(lit("p"), (), ())])
    assert is_answer_set(gp, {lit("p")})
    assert not is_answer_set(gp, set())
    assert not is_answer_set(gp, {lit("p"), lit("q")})


def test_is_answer_set_rejects_unsupported_assumption():
    gp = make_ground_program([Rule(lit("p"), (), (lit("q"),))])
    assert is_answer_set(gp, {lit("p")})
    assert not is_answer_set(gp, {lit("q")})


def test_is_answer_set_contradictory_program_rejects_everything():
    gp = make_ground_program([
        Rule(lit("p"), (), ()),
        Rule(neg("p"), (lit("p"),), ()),
    ])
    for rs in ((), (lit("p"),), (lit("p"), neg("p"))):
        assert not is_answer_set(gp, rs)


# --- conformance against brute-force subset enumeration ---


def random_ground_program(rng: random.Random) -> GroundProgram:
    preds = ["p", "q", "r", "s"][: rng.randint(2, 4)]
    pool = [lit(n) for n in preds]
    pool += [neg(n) for n in preds if rng.random() < 0.4]
    rules = []
    for _ in range(rng.randint(1, 7)):
        head = rng.choice(pool)
        body = tuple(rng.sample(pool, rng.randint(0, 2)))
        naf = tuple(rng.sample(pool, rng.randint(0, 2)))
        rules.append(Rule(head, body, naf))
    return make_ground_program(rules)


def reference_answer_sets(gp: GroundProgram) -> set[frozenset[Literal]]:
    """Every subset of the atom base that is the least model of its own
    reduct.  Exponential; only for tiny programs."""
    found = set()
    for k in range(len(gp.atoms) + 1):
        for combo in itertools.combinations(gp.atoms, k):
            if is_answer_set(gp, combo):
                found.add(frozenset(combo))
    return found


def test_answer_sets_matches_subset_enumeration():
    rng = random.Random(11)
    checked = 0
    for _ in range(60):
        gp = random_ground_program(rng)
        assert len(gp.atoms) <= 8
        got = {a.literals for a in answer_sets(gp)}
        assert got == reference_answer_sets(gp)
        checked += 1
    assert checked == 60


def test_answer_sets_invariants_on_random_programs():
    rng = random.Random(23)
    saw_multiple = False
    for _ in range(120):
        gp = random_ground_program(rng)
        result = answer_sets(gp)
        universe = set(gp.ovr_universe)
        for r in gp.rules:
            universe.update(r.naf)
        projections = set()
        for a in result:
            assert is_answer_set(gp, a.literals)
            # assumptions determine the whole answer set
            projections.add(a.literals & frozenset(universe))
            for b in result:
                assert not (a.literals < b.literals), "non-minimal answer set"
        assert len(projections) == len(result)
        if not universe:
            assert len(result) <= 1
        saw_multiple = saw_multiple or len(result) > 1
    assert saw_multiple


def test_answer_sets_output_is_sorted_and_deterministic():
    rng = random.Random(5)
    for _ in range(30):
        gp = random_ground_program(rng)
        first = answer_sets(gp)
        assert first == answer_sets(gp)
        assert first == sorted(first, key=lambda a: a.sort_key())
