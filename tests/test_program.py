"""Literal/Rule/Program construction and the ASP text round-trip."""

from __future__ import annotations

import random

import pytest

from dkblite.engine import ground
from dkblite.program import (
    AspSyntaxError,
    Literal,
    Program,
    Rule,
    export_asp_text,
    lit,
    neg,
    parse_asp_text,
)


def test_literal_text_and_complement():
    assert lit("instd", "?x", "A").text() == 'instd(X,"A")'
    assert neg("insta", "a", "A").text() == '-insta(a,"A")'
    assert lit("p").complement() == neg("p")
    assert neg("p").complement().complement() == neg("p")


def test_negative_fact_export():
    p = Program(facts=(neg("insta", "a", "A"),))
    assert export_asp_text(p) == '-insta(a,"A").\n'


def test_rule_text_with_naf():
    r = Rule(lit("instd", "?x", "?z"),
             (lit("def_insta", "?x", "?z"),),
             (lit("ovr", "insta", "?x", "?z"),))
    p = Program(rules=(r,))
    assert export_asp_text(p) == \
        "instd(X,Z) :- def_insta(X,Z), not ovr(insta,X,Z).\n"


def test_safety_checks():
    # Rule is a plain record; ground checks safety when it compiles a rule.
    with pytest.raises(ValueError, match="unsafe head variable"):
        ground(Program(rules=(Rule(lit("p", "?x")),)))
    with pytest.raises(ValueError, match="unsafe negated variable"):
        ground(Program(rules=(Rule(lit("p", "a"), (), (lit("q", "?y"),)),)))
    ground(Program(rules=(Rule(lit("p", "a")),)))  # fact-shaped rule is fine
    ground(Program(rules=(Rule(lit("p", "?x"), (lit("q", "?x"),)),)))


def test_export_deterministic():
    facts = (lit("b", "x"), lit("a", "y"), neg("a", "x"), lit("a", "x"))
    p = Program(facts=facts, constants=("x", "y"))
    q = Program(facts=tuple(reversed(facts)), constants=("x", "y"))
    assert export_asp_text(p) == export_asp_text(q)


def test_quoting_round_trip():
    # Uppercase-initial and underscore-initial names survive via quotes.
    p = Program(facts=(lit("cls", "DeptMember"), lit("cls", "_N0"),
                       neg("instd", "a", "Weird\"Name")))
    assert parse_asp_text(export_asp_text(p)).facts == tuple(
        sorted(p.facts, key=lambda l: (l.pred, l.neg, l.args)))


def _random_program(rng: random.Random) -> Program:
    consts = ["a", "b", "c0", "Big", "_n"]
    preds = ["p", "q", "r"]
    vars_ = ["?x", "?y"]

    def rand_lit(ground: bool, pool=None) -> Literal:
        arity = rng.randint(0, 3)
        terms = tuple(rng.choice(consts if ground else consts + (pool or vars_))
                      for _ in range(arity))
        return Literal(rng.random() < 0.3, rng.choice(preds), terms)

    facts = tuple(rand_lit(True) for _ in range(rng.randint(0, 6)))
    rules = []
    for _ in range(rng.randint(0, 6)):
        body = tuple(rand_lit(False) for _ in range(rng.randint(1, 3)))
        bound = [a for l in body for a in l.args if a.startswith("?")]
        pool = bound or consts
        head = Literal(rng.random() < 0.3, rng.choice(preds),
                       tuple(rng.choice(pool) for _ in range(rng.randint(0, 3))))
        naf = tuple(Literal(False, "ovr", (rng.choice(pool),))
                    for _ in range(rng.randint(0, 2)))
        rules.append(Rule(head, body, naf))
    return Program(tuple(rules), facts, ("a", "b"))


def test_round_trip_random_programs():
    rng = random.Random(42)
    for _ in range(60):
        p = _random_program(rng)
        back = parse_asp_text(export_asp_text(p))
        assert back.constants == p.constants
        assert set(back.facts) == set(p.facts)
        assert [(r.head, r.body, r.naf) for r in back.rules] == \
            [(r.head, r.body, r.naf) for r in p.rules]


def test_parse_rejects_garbage():
    with pytest.raises(AspSyntaxError):
        parse_asp_text("p(a)")  # missing terminator
    with pytest.raises(AspSyntaxError):
        parse_asp_text("p :- q(a], r.")
    with pytest.raises(AspSyntaxError):
        parse_asp_text("p ::- q.")
