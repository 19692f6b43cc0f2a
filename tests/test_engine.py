"""Grounding and answer-set enumeration."""

import contextlib
import gc
import io
import itertools
import random

import pytest

from corpus import (
    corpus_kbs,
    dept_kb,
    dept_text,
    flat_sample,
    nixon_text,
    scale_kb,
    self_pair_kbs,
)
from dkblite import kb as K
from dkblite.cli import EXIT_OK, main
from dkblite.engine import (
    INCONSISTENT,
    GroundProgram,
    ResourceLimitError,
    _Solver,
    answer_sets,
    ground,
    iter_answer_sets,
    least_model,
    make_ground_program,
    reduct,
)
from dkblite.normalize import normalize
from dkblite.parser import parse_dkb
from dkblite.program import (
    Literal,
    Program,
    Rule,
    is_var,
    lit,
    neg,
    parse_asp_text,
)
from dkblite.translate import schema_rules, supporting_facts, translate

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
    # One instance per instd atom that can hold, not per constant.
    p = Program(
        rules=(SUBC_RULE,),
        facts=(lit("subClass", "A", "B"), lit("instd", "a", "A"),
               lit("instd", "c", "A")),
        constants=("a", "b", "c"),
    )
    gp = ground(p)
    instances = rules_named(gp, "dl_subc")
    assert len(instances) == 2
    assert {r.head for r in instances} == {
        lit("instd", "a", "B"),
        lit("instd", "c", "B"),
    }
    # the concept pair comes from the fact, never from the constant pool
    for r in instances:
        assert lit("subClass", "A", "B") in r.body


def test_ground_skips_rules_whose_body_cannot_hold():
    p = Program(
        rules=(SUBC_RULE,),
        facts=(lit("subClass", "A", "B"),),
        constants=("a", "b", "c"),
    )
    assert rules_named(ground(p), "dl_subc") == []


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


def schema_named(*names: str) -> tuple[Rule, ...]:
    by_name = {r.name: r for r in schema_rules()}
    return tuple(by_name[n] for n in names)


def test_ground_recurses_along_the_constant_chain():
    # all_nrel(x, r) needs -tripled(x, r, y) at every constant y, walked
    # along first/next/last; z lacks the middle one.
    consts = ("a", "b", "c")
    facts = [lit("rol", "r"), *supporting_facts(consts)]
    facts += [neg("triplea", "x", "r", y) for y in consts]
    facts += [neg("triplea", "z", "r", y) for y in ("a", "c")]
    p = Program(schema_named("dl_ntriple", "dl_chain1", "dl_chain2",
                             "dl_chain3"), tuple(facts), consts)
    heads = {r.head for r in ground(p).rules}
    assert lit("all_nrel", "x", "r") in heads
    assert lit("all_nrel", "z", "r") not in heads
    assert lit("all_nrel_step", "z", "r", "a") in heads
    assert lit("all_nrel_step", "z", "r", "b") not in heads
    assert lit("all_nrel_step", "z", "r", "c") not in heads


def test_ground_repeated_variable_matches_loops_only():
    # ovr_irr's tripled(X,R,X) takes a's and b's loops, not the a->b or
    # c->a edges.
    p = Program(
        schema_named("dl_triple", "ovr_irr"),
        (lit("def_irr", "r"), lit("nom", "a"), lit("nom", "b"),
         lit("nom", "c"), lit("triplea", "a", "r", "a"),
         lit("triplea", "a", "r", "b"), lit("triplea", "b", "r", "b"),
         lit("triplea", "c", "r", "a")),
        ("a", "b", "c"))
    gp = ground(p)
    instances = rules_named(gp, "ovr_irr")
    assert [r.head for r in instances] == [
        lit("ovr", "irr", "a", "r"), lit("ovr", "irr", "b", "r")]
    assert lit("tripled", "a", "r", "a") in instances[0].body


def test_ground_matches_constants_in_body_patterns():
    # t(X,k) is a trigger (t is derived), v(k,X) a join step on a fact.
    p = parse_asp_text(
        "t(X,Y) :- u(X,Y).\n"
        "p(X) :- t(X,k), v(k,X).\n"
        "u(a,k). u(b,j). u(c,k). v(k,a). v(k,b). v(j,b).\n")
    gp = ground(p)
    assert [r for r in gp.rules if r.head.pred == "p"] == [
        Rule(lit("p", "a"), (lit("t", "a", "k"), lit("v", "k", "a")))]


def test_ground_instantiates_naf_only_rules_once():
    p = parse_asp_text("p :- not q.\nq :- not p.\n")
    gp = ground(p)
    assert gp.rules == (Rule(lit("p"), (), (lit("q"),)),
                        Rule(lit("q"), (), (lit("p"),)))
    assert [a.literals for a in answer_sets(gp)] == [
        frozenset({lit("p")}), frozenset({lit("q")})]


def test_ground_is_deterministic(k_dept):
    p = translate(k_dept)
    first = ground(p).rules
    assert ground(p).rules == first
    assert ground(translate(k_dept)).rules == first


def test_ground_leaves_no_reference_cycles(k_dept):
    # A cycle would keep each call's join tables alive until the cyclic
    # collector runs, raising peak memory on repeated grounding.
    p = translate(k_dept)
    ground(p)
    gc.collect()
    gc.disable()
    try:
        ground(p)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_kb_rejects_variable_like_names():
    # ground does not check its output for variables: a '?'-initial KB
    # name is the only way one could reach it, and the KB refuses it.
    for build in (
        lambda: K.concept_assertion("A", "?x"),
        lambda: K.concept_assertion("?A", "a"),
        lambda: K.role_assertion("?r", "a", "b"),
        lambda: K.Vocabulary(individuals=("?x",)),
        lambda: K.Vocabulary(concepts=("?A",)),
        lambda: K.Vocabulary(roles=("?r",)),
    ):
        with pytest.raises(ValueError, match="bad identifier"):
            build()


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


# --- the least-model kernel against the naive fixpoint it replaced ---


def naive_least_model(gp: GroundProgram, assumed: frozenset[Literal],
                      check: bool):
    """Loop over the rules of the reduct under assumed until nothing
    changes, then look for a complementary pair."""
    model: set[Literal] = set()
    changed = True
    while changed:
        changed = False
        for r in gp.rules:
            if (r.head not in model and assumed.isdisjoint(r.naf)
                    and model.issuperset(r.body)):
                model.add(r.head)
                changed = True
    if check and any(l.complement() in model for l in model):
        return INCONSISTENT
    return model


def kernel_least_model(gp: GroundProgram, assumed: frozenset[Literal],
                       check: bool):
    solver = _Solver(gp)
    out = solver.least_ids(frozenset(solver.index[a] for a in assumed),
                           check)
    return out if out is INCONSISTENT else solver.decode(out)


def test_kernel_agrees_with_the_naive_fixpoint():
    kbs = corpus_kbs(240, 1806) + self_pair_kbs(400, 11) + flat_sample()
    kbs += [dept_kb(2 * s, s) for s in range(1, 6)]
    kbs += [normalize(parse_dkb(nixon_text(k))) for k in (1, 2, 3)]
    rng = random.Random(7)
    calls = 0
    for kb in kbs:
        gp = ground(translate(kb))
        universe = gp.ovr_universe
        guesses = [(), universe] + [
            [a for a in universe if rng.random() < 0.5] for _ in range(6)]
        for guess in guesses:
            for check in (False, True):
                x = frozenset(guess)
                assert kernel_least_model(gp, x, check) == \
                    naive_least_model(gp, x, check)
                calls += 1
    assert calls == (240 + 400 + 510 + 5 + 3) * 8 * 2


p, q, r, s = (lit(n) for n in "pqrs")


@pytest.mark.parametrize("rules, assumed, check, want", [
    # a duplicate positive body literal counts once
    ([Rule(p), Rule(q, (p, p))], set(), True, {p, q}),
    # a duplicate NAF literal blocks once, and blocks nothing unassumed
    ([Rule(p, (), (q, q))], {q}, True, set()),
    ([Rule(p, (), (q, q))], set(), True, {p}),
    # either NAF atom blocks its rule
    ([Rule(p, (), (q, r))], {r}, True, set()),
    # a blocked body-less rule derives nothing
    ([Rule(p, (), (q,)), Rule(r, (p,))], {q}, True, set()),
    # a blocked rule stays blocked when propagation reaches its body
    ([Rule(p), Rule(s), Rule(r, (p, s), (q,))], {q}, True, {p, s}),
    # an assumed atom in no NAF body blocks nothing
    ([Rule(p), Rule(q, (p,), (r,))], {p}, True, {p, q}),
    # a complementary pair is returned without check, refused with it
    ([Rule(p), Rule(neg("p"), (p,))], set(), False, {p, neg("p")}),
    ([Rule(p), Rule(neg("p"), (p,))], set(), True, INCONSISTENT),
], ids=["dup-body", "dup-naf-assumed", "dup-naf-free", "second-naf",
        "blocked-root", "blocked-later", "assumed-unused", "pair-unchecked",
        "pair-checked"])
def test_kernel_edge_cases(rules, assumed, check, want):
    gp = make_ground_program(rules)
    assert kernel_least_model(gp, frozenset(assumed), check) == want
    assert naive_least_model(gp, frozenset(assumed), check) == want


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


def is_answer_set(gp: GroundProgram, i) -> bool:
    """Reference: True iff i is the least model of the reduct of gp
    under i."""
    i = frozenset(i)
    m = least_model(reduct(gp, i))
    return m is not INCONSISTENT and m == i


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


# --- ground against the reference grounder ---


def _substitute(l: Literal, sub: dict[str, str]) -> Literal:
    return Literal(l.neg, l.pred, tuple(sub.get(t, t) for t in l.args))


def reference_ground(p: Program) -> GroundProgram:
    """The grounder ground() replaced, kept as its reference: every rule
    of p instantiated over its facts and constants.

    Body literals of extensional predicates (facts only, never a rule
    head) bind their variables by joining against the fact table, so one
    subClass fact yields one instance per subject constant rather than
    one per concept pair.  Remaining variables range over p.constants.
    """
    head_keys = {(r.head.pred, r.head.neg) for r in p.rules}
    by_key: dict[tuple[str, bool], list[tuple[str, ...]]] = {}
    for f in p.facts:
        by_key.setdefault((f.pred, f.neg), []).append(f.args)

    ground_rules: list[Rule] = [Rule(f, (), (), name="fact") for f in p.facts]
    for r in p.rules:
        keys = [(l.pred, l.neg) for l in r.body]
        if any(k not in head_keys and k not in by_key for k in keys):
            continue  # some body literal can never hold
        edb = [l for l in r.body if (l.pred, l.neg) not in head_keys]
        subs: list[dict[str, str]] = [{}]
        for l in edb:
            nxt: list[dict[str, str]] = []
            for sub in subs:
                for args in by_key[(l.pred, l.neg)]:
                    ext = dict(sub)
                    ok = True
                    for t, a in zip(l.args, args):
                        if is_var(t):
                            if ext.setdefault(t, a) != a:
                                ok = False
                                break
                        elif t != a:
                            ok = False
                            break
                    if ok:
                        nxt.append(ext)
            subs = nxt
        for sub in subs:
            free_here = sorted({t for l in (r.head, *r.body, *r.naf)
                                for t in l.args if is_var(t)} - sub.keys())
            for combo in itertools.product(p.constants, repeat=len(free_here)):
                full = dict(sub)
                full.update(zip(free_here, combo))
                ground_rules.append(Rule(
                    _substitute(r.head, full),
                    tuple(_substitute(l, full) for l in r.body),
                    tuple(_substitute(l, full) for l in r.naf), name=r.name))

    ground_rules = list(dict.fromkeys(ground_rules))
    derivable = {gr.head for gr in ground_rules}
    trimmed = []
    for gr in ground_rules:
        if gr.naf and any(l not in derivable for l in gr.naf):
            gr = Rule(gr.head, gr.body,
                      tuple(l for l in gr.naf if l in derivable), name=gr.name)
        trimmed.append(gr)
    return make_ground_program(trimmed)


def _search(gp: GroundProgram) -> tuple[list, type | None]:
    """The answer sets in search order, as satisfiable() and answer_sets()
    see them, and the ResourceLimitError that may end the search."""
    found = []
    try:
        for a in iter_answer_sets(gp):
            found.append(a)
    except ResourceLimitError:
        return found, ResourceLimitError
    return found, None


def test_ground_agrees_with_reference_grounder():
    kbs = [dept_kb(2 * s, s) for s in range(1, 12)]
    kbs += [dept_kb(n, 2) for n in (30, 60)]
    kbs += corpus_kbs(240, 1806) + flat_sample() + [scale_kb()]
    for kb in kbs:
        p = translate(kb)
        new, ref = ground(p), reference_ground(p)
        assert new.ovr_universe == ref.ovr_universe
        assert _search(new) == _search(ref)
        ref_rules = {(r.name, r.head, r.body) for r in ref.rules}
        assert all((r.name, r.head, r.body) in ref_rules for r in new.rules)
    assert len(kbs) == 11 + 2 + 240 + 510 + 1


@pytest.mark.parametrize("n", [80, 320])
def test_ground_size_is_linear_on_dept(n, tmp_path):
    # The old grounder gave 20,905 rules at n=80 and 313,945 at n=320.
    assert len(ground(translate(dept_kb(n, 2))).rules) < 15 * n
    path = tmp_path / "dept.dkb"
    path.write_text(dept_text(n, 2), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["check-sat", str(path)]) == EXIT_OK
