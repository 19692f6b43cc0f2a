"""Grounding and answer-set enumeration for compiled programs.

Grounding is relevance-driven (semi-naive): a rule instance is produced
only when every atom of its positive body can hold, that is, lies in the
least model of the program with default negation dropped.  Starting from
the facts, each newly possible atom triggers the rules with a matching
body literal, and their other literals are joined against the atoms
found so far; no instance ranges a variable over the constant pool.
Default-negated literals whose atom no instance derives are dropped from
rule bodies: they are vacuously true.  The assumption universe, which
the max_ovr cap counts, is the program's declared candidates (as with
clingo's #external; translate declares the exception candidates) plus
every default-negated atom of a ground rule.

Rule safety (every head and default-negated variable occurs in the
positive body) is checked once per rule, when its join plan is compiled.
With facts made of KB names, which kb keeps apart from variables, every
instance is then variable-free, so ground rules are not checked again.

Answer sets are found by the reduct definition directly: guess which
default-negated atoms are assumed true, compute the least model of the
reduct, and keep the guess when the model reproduces it exactly.  The
least model is counter-based Horn propagation: each call copies the rule
body counts, blocks the rules of the assumed atoms through precomputed
lists, and costs the blocked rules plus the derivations it makes.  The
search space is the assumption universe; guesses outside the least model
of the negation-free over-approximation cannot be reproduced and are
skipped.  Strongly negated literals are interned as atoms of their own,
with consistency enforced the moment a complementary pair is derived.

The largest guess comes first.  It assumes every atom that can be
assumed, so its reduct keeps the fewest rules: it is a subprogram of the
reduct under any other guess, and its least model M0 is contained in
every other least model.  Hence M0 is contained in every answer set, and
when M0 is inconsistent there is no answer set at all.  ModelSearch
yields answer sets as solver id sets, so a caller can stop at the first
one that settles its question: satisfiability at the first answer set,
entailment of an atom at the first answer set lacking it, or at the
first answer set when the atom is in M0.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Union

from .program import Literal, Program, Rule, is_var

Interpretation = frozenset  # of Literal


class _Inconsistent:
    """Sentinel: the reduct has no model built from consistent literals."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INCONSISTENT"


INCONSISTENT = _Inconsistent()

LeastModelResult = Union[Interpretation, _Inconsistent]


class ResourceLimitError(RuntimeError):
    """The assumption universe exceeds the configured enumeration cap."""


# Default cap on the assumption universe of one model search.
MAX_OVR = 20


@dataclass(frozen=True)
class GroundProgram:
    """Variable-free program: rules (facts as empty-body rules), the
    interned atom table, and the assumption universe (ovr_universe): the
    program's declared candidates plus every atom in a NAF body.

    Not checked for variables: ground() checks each rule's safety when
    it compiles the rule, and translated facts are made of KB names."""

    rules: tuple[Rule, ...]
    atoms: tuple[Literal, ...]
    ovr_universe: tuple[Literal, ...]


@dataclass(frozen=True)
class AnswerSet:
    literals: Interpretation
    ovr_atoms: Interpretation

    def sort_key(self) -> tuple:
        return (tuple(sorted(self.ovr_atoms)), tuple(sorted(self.literals)))


def make_ground_program(rules: Iterable[Rule],
                        candidates: Iterable[Literal] = ()
                        ) -> GroundProgram:
    """Assemble a GroundProgram from ground rules, computing the atom
    table and the assumption universe: the candidates, which join the
    atom table even where no rule mentions them, plus every NAF atom.
    Used by ground() and by test fixtures."""
    rules = tuple(rules)
    universe = set(candidates)
    atoms = set(universe)
    for r in rules:
        atoms.add(r.head)
        atoms.update(r.body)
        universe.update(r.naf)
    atoms |= universe
    return GroundProgram(rules, tuple(sorted(atoms)), tuple(sorted(universe)))


# (pred, neg): the key that sorts predicates into extensional (facts
# only) and intensional (some rule head); arity is added where atoms are
# matched, since one predicate may be used at several arities.
PredKey = tuple[str, bool]
AtomKey = tuple[str, bool, int]


# The plan records are NamedTuples, not dataclasses: a dataclass costs
# about a millisecond to define, which every import of the package pays.
class _Step(NamedTuple):
    """Match one positive body literal: take the atoms of index `index`
    whose bound positions hold the values in slots `sources`, bind the
    literal's new variables at their first position and check every
    other position.  A trigger step matches the arriving atom itself and
    has no index (-1), so its constants and repeats are all checks."""

    body_pos: int
    index: int
    sources: tuple[int, ...]
    binds: tuple[tuple[int, int], ...]   # (argument position, slot)
    checks: tuple[tuple[int, int], ...]  # (argument position, slot)


Template = tuple[bool, str, tuple[int, ...]]  # neg, pred, argument slots


class _RulePlan(NamedTuple):
    """A rule compiled to slots: each distinct term has one, and the
    constants' slots are prefilled in `init`."""

    rule: Rule
    init: tuple[str | None, ...]
    head: Template
    naf: tuple[Template, ...]
    edb_keys: frozenset[PredKey]


class _Plans(NamedTuple):
    """Join plans for one rule tuple; only the indexes are per call."""

    rules: tuple[_RulePlan, ...]
    head_keys: frozenset[PredKey]
    index_count: int
    # atom key -> (index id, bound positions) of each index on that key
    key_indexes: dict[AtomKey, tuple[tuple[int, tuple[int, ...]], ...]]
    # atom key -> (rule id, trigger step, steps for the other literals)
    triggers: dict[AtomKey, tuple[tuple[int, _Step, tuple[_Step, ...]], ...]]
    # rules with no intensional body literal: (rule id, steps)
    upfront: tuple[tuple[int, tuple[_Step, ...]], ...]


def _atom_key(l: Literal) -> AtomKey:
    return (l.pred, l.neg, len(l.args))


def _compile_step(l: Literal, body_pos: int, bound: set[str],
                  slot: dict[str, int],
                  index_ids: dict | None) -> _Step:
    """Plan the match of l given the variables in bound, and add its
    variables to bound.  index_ids is None for a trigger step."""
    positions = () if index_ids is None else tuple(
        k for k, t in enumerate(l.args) if not is_var(t) or t in bound)
    binds, checks = [], []
    for k, t in enumerate(l.args):
        if k in positions:
            continue
        if is_var(t) and t not in bound:
            bound.add(t)
            binds.append((k, slot[t]))
        else:
            checks.append((k, slot[t]))
    index = -1 if index_ids is None else index_ids.setdefault(
        (_atom_key(l), positions), len(index_ids))
    return _Step(body_pos, index, tuple(slot[l.args[k]] for k in positions),
                 tuple(binds), tuple(checks))


def _join_order(body: tuple[Literal, ...], todo: Iterable[int],
                bound: set[str], head_keys: frozenset[PredKey],
                slot: dict[str, int], index_ids: dict) -> tuple[_Step, ...]:
    """Steps for the body literals in todo, most-bound first: fewest new
    variables, then extensional before intensional, then body order.
    Adds their variables to bound."""
    todo = list(todo)
    steps = []
    while todo:
        j = min(todo, key=lambda j: (
            len({t for t in body[j].args if is_var(t)} - bound),
            (body[j].pred, body[j].neg) in head_keys, j))
        todo.remove(j)
        steps.append(_compile_step(body[j], j, bound, slot, index_ids))
    return tuple(steps)


def _compile(rules: tuple[Rule, ...]) -> _Plans:
    head_keys = frozenset((r.head.pred, r.head.neg) for r in rules)
    index_ids: dict[tuple[AtomKey, tuple[int, ...]], int] = {}
    plans, upfront = [], []
    triggers: dict[AtomKey, list] = {}
    for rid, r in enumerate(rules):
        body_vars = {t for l in r.body for t in l.args if is_var(t)}
        where = r.name or r.head.text()
        for t in r.head.args:
            if is_var(t) and t not in body_vars:
                raise ValueError(f"unsafe head variable {t} in {where}")
        for l in r.naf:
            for t in l.args:
                if is_var(t) and t not in body_vars:
                    raise ValueError(
                        f"unsafe negated variable {t} in {where}")
        slot: dict[str, int] = {}
        for l in (r.head, *r.body, *r.naf):
            for t in l.args:
                slot.setdefault(t, len(slot))
        keys = [(l.pred, l.neg) for l in r.body]
        plans.append(_RulePlan(
            r, tuple(None if is_var(t) else t for t in slot),
            (r.head.neg, r.head.pred, tuple(slot[t] for t in r.head.args)),
            tuple((l.neg, l.pred, tuple(slot[t] for t in l.args))
                  for l in r.naf),
            frozenset(k for k in keys if k not in head_keys)))
        idb = [j for j, k in enumerate(keys) if k in head_keys]
        if not idb:
            upfront.append((rid, _join_order(
                r.body, range(len(r.body)), set(), head_keys, slot,
                index_ids)))
        for i in idb:
            bound: set[str] = set()
            trigger = _compile_step(r.body[i], i, bound, slot, None)
            rest = _join_order(r.body, (j for j in range(len(r.body))
                                        if j != i),
                               bound, head_keys, slot, index_ids)
            triggers.setdefault(_atom_key(r.body[i]), []).append(
                (rid, trigger, rest))
    key_indexes: dict[AtomKey, list] = {}
    for (key, positions), idx in index_ids.items():
        key_indexes.setdefault(key, []).append((idx, positions))
    return _Plans(tuple(plans), head_keys, len(index_ids),
                  {k: tuple(v) for k, v in key_indexes.items()},
                  {k: tuple(v) for k, v in triggers.items()},
                  tuple(upfront))


# Plans by rule tuple, for the few tuples in use (translated programs all
# share schema_rules()).  Each entry keeps its tuple alive, so an id is
# never reused while it is a key.
_PLAN_CACHE: dict[int, tuple[tuple[Rule, ...], _Plans]] = {}


def _plans(rules: tuple[Rule, ...]) -> _Plans:
    hit = _PLAN_CACHE.get(id(rules))
    if hit is None:
        if len(_PLAN_CACHE) >= 8:
            del _PLAN_CACHE[next(iter(_PLAN_CACHE))]
        hit = _PLAN_CACHE[id(rules)] = (rules, _compile(rules))
    return hit[1]


def _bind(step: _Step, args: tuple[str, ...], vals: list) -> bool:
    for k, s in step.binds:
        vals[s] = args[k]
    for k, s in step.checks:
        if args[k] != vals[s]:
            return False
    return True


def _lookup(step: _Step, vals: list, indexes: list[dict]) -> list[Literal]:
    return indexes[step.index].get(tuple([vals[s] for s in step.sources]),
                                   ())


def _solutions(steps: tuple[_Step, ...], vals: list, chosen: list,
               indexes: list[dict]) -> Iterator[None]:
    """Yield once per match of every step, with the bindings in vals and
    each matched atom in chosen at its body position.  Depth-first over
    an explicit stack of candidate iterators."""
    if not steps:
        yield
        return
    last = len(steps) - 1
    stack = [iter(_lookup(steps[0], vals, indexes))]
    while stack:
        d = len(stack) - 1
        step = steps[d]
        for atom in stack[d]:
            if _bind(step, atom.args, vals):
                break
        else:
            stack.pop()
            continue
        chosen[step.body_pos] = atom
        if d == last:
            yield
        else:
            stack.append(iter(_lookup(steps[d + 1], vals, indexes)))


def _instances(plan: _RulePlan, steps: tuple[_Step, ...], vals: list,
               chosen: list, indexes: list[dict]) -> Iterator[Rule]:
    hneg, hpred, hslots = plan.head
    for _ in _solutions(steps, vals, chosen, indexes):
        yield Rule(
            Literal(hneg, hpred, tuple([vals[s] for s in hslots])),
            tuple(chosen),
            tuple(Literal(n, q, tuple([vals[s] for s in slots]))
                  for n, q, slots in plan.naf),
            name=plan.rule.name)


def _index(atom: Literal, plans: _Plans, indexes: list[dict]) -> None:
    for idx, positions in plans.key_indexes.get(_atom_key(atom), ()):
        indexes[idx].setdefault(tuple([atom.args[k] for k in positions]),
                                []).append(atom)


def _emit(instances: Iterable[Rule], out: list[Rule], seen: set[Literal],
          queue: deque[Literal]) -> None:
    for r in instances:
        out.append(r)
        if r.head not in seen:
            seen.add(r.head)
            queue.append(r.head)


def ground(p: Program) -> GroundProgram:
    """Instantiate the rules of p that can fire, over its facts.

    A rule instance is produced only when every positive body atom is
    possibly true: a fact, or the head of an instance already produced.
    Atoms are processed in arrival order; each one triggers the rules
    with a matching positive body literal, whose other literals are
    joined against the atoms processed so far through hash indexes on
    their bound positions.  The possibly-true atoms are then exactly the
    least model of p with default negation dropped, which contains the
    least model of every reduct, so no answer set changes.  Rules are
    the facts, then the instances in the order they were found; a rule
    with an extensional body predicate (never a rule head) that has no
    facts is skipped outright.

    The assumption universe is p.candidates plus the instances' NAF
    atoms: a hand-built program lists its own candidates.  Raises
    ValueError when a rule of p is unsafe.
    """
    plans = _plans(p.rules)
    facts = dict.fromkeys(p.facts)
    fact_keys = {(f.pred, f.neg) for f in facts}
    live = [rp.edb_keys <= fact_keys for rp in plans.rules]
    indexes: list[dict] = [{} for _ in range(plans.index_count)]

    seen = set(facts)
    queue: deque[Literal] = deque()
    for f in facts:
        if (f.pred, f.neg) in plans.head_keys:
            queue.append(f)
        else:
            _index(f, plans, indexes)
    out = [Rule(f, (), (), name="fact") for f in facts]
    for rid, steps in plans.upfront:
        if live[rid]:
            rp = plans.rules[rid]
            _emit(_instances(rp, steps, list(rp.init),
                             [None] * len(rp.rule.body), indexes),
                  out, seen, queue)
    while queue:
        atom = queue.popleft()
        _index(atom, plans, indexes)
        for rid, trigger, steps in plans.triggers.get(_atom_key(atom), ()):
            if not live[rid]:
                continue
            rp = plans.rules[rid]
            vals = list(rp.init)
            if _bind(trigger, atom.args, vals):
                chosen = [None] * len(rp.rule.body)
                chosen[trigger.body_pos] = atom
                _emit(_instances(rp, steps, vals, chosen, indexes),
                      out, seen, queue)

    # Two schema rules can yield one instance (dl_dis1/dl_dis2 on a
    # dis(r,r) fact), and an atom matching two body literals triggers
    # its instance twice; keep the first.
    trimmed = []
    for gr in dict.fromkeys(out):
        if gr.naf and any(l not in seen for l in gr.naf):
            gr = Rule(gr.head, gr.body,
                      tuple(l for l in gr.naf if l in seen), name=gr.name)
        trimmed.append(gr)
    return make_ground_program(trimmed, p.candidates)


def reduct(gp: GroundProgram, i: Iterable[Literal]) -> GroundProgram:
    """Gelfond-Lifschitz reduct: drop rules whose NAF part meets i, strip
    the NAF part from the rest."""
    i = frozenset(i)
    kept = tuple(Rule(r.head, r.body, (), name=r.name)
                 for r in gp.rules if not (set(r.naf) & i))
    return make_ground_program(kept)


class _Solver:
    """Dowling and Gallier's counter-based Horn propagation over one
    ground program, reusable across guesses.  Built once: `need` (distinct
    body atoms per rule), `heads`, `roots` (body-less rules), and per atom
    id `watch` (rules whose body holds it) and `blocks` (rules whose NAF
    part holds it).  least_ids copies `need`, sets the count of every
    rule an assumed atom blocks to -1, which no decrement brings back to
    0, and propagates from the unblocked roots: each derived atom
    decrements the rules watching it, and a count reaching 0 derives the
    head.  A call costs the blocked rules plus the derivations; with
    check it stops at the first complementary pair."""

    def __init__(self, gp: GroundProgram):
        self.atoms = list(gp.atoms)
        self.index = index = {a: i for i, a in enumerate(self.atoms)}
        self.compl = [index.get(a.complement(), -1) for a in self.atoms]
        self.heads = [index[r.head] for r in gp.rules]
        self.need: list[int] = []
        self.watch: list[list[int]] = [[] for _ in self.atoms]
        self.blocks: list[list[int]] = [[] for _ in self.atoms]
        for rid, r in enumerate(gp.rules):
            body = {index[l] for l in r.body}
            self.need.append(len(body))
            for a in body:
                self.watch[a].append(rid)
            for a in {index[l] for l in r.naf}:
                self.blocks[a].append(rid)
        self.roots = [rid for rid, n in enumerate(self.need) if not n]

    def least_ids(self, assumed: frozenset[int],
                  check: bool = True) -> set[int] | _Inconsistent:
        counts = self.need.copy()
        for a in assumed:
            for rid in self.blocks[a]:
                counts[rid] = -1
        heads, watch, compl = self.heads, self.watch, self.compl
        stack = [heads[rid] for rid in self.roots if not counts[rid]]
        push = stack.append
        derived: set[int] = set()
        while stack:
            a = stack.pop()
            if a in derived:
                continue
            if check and compl[a] in derived:
                return INCONSISTENT
            derived.add(a)
            for rid in watch[a]:
                n = counts[rid] - 1
                counts[rid] = n
                if not n:
                    push(heads[rid])
        return derived

    def decode(self, ids: set[int]) -> Interpretation:
        return frozenset(self.atoms[i] for i in ids)


def least_model(gp: GroundProgram) -> LeastModelResult:
    """Least model of a NAF-free ground program, or INCONSISTENT when a
    complementary pair is derived."""
    if any(r.naf for r in gp.rules):
        raise ValueError("least_model requires a NAF-free program")
    solver = _Solver(gp)
    out = solver.least_ids(frozenset())
    return out if out is INCONSISTENT else solver.decode(out)


class ModelSearch:
    """The answer sets of one ground program, as sets of solver atom ids,
    from the largest guess to the smallest.

    A guess X is accepted when the least model M of the reduct under X is
    consistent and M reproduces X on the universe.  Guesses outside the
    least model of the negation-free over-approximation are skipped: the
    reduct under any X is a subprogram of that over-approximation, so its
    least model can never contain them.  The first guess assumes every
    remaining atom, so its reduct is a subprogram of every other reduct:
    when its least model is inconsistent, so is every other, and there is
    no answer set.  Otherwise that least model, M0, is contained in the
    least model of every other reduct, hence in every answer set; it is
    `certain` once iteration has computed it.  The max_ovr cap is
    checked after that first guess, before the rest of the search.

    Iterating decodes nothing: `solver.index` maps a literal to its id,
    and `solver.decode` maps an id set back to literals.
    """

    def __init__(self, gp: GroundProgram, max_ovr: int = MAX_OVR) -> None:
        self.solver = _Solver(gp)
        self.universe = gp.ovr_universe
        self.max_ovr = max_ovr
        self.certain: set[int] = set()

    def check_cap(self) -> None:
        """Raise ResourceLimitError when the universe exceeds max_ovr."""
        if len(self.universe) > self.max_ovr:
            raise ResourceLimitError(
                f"assumption universe has {len(self.universe)} atoms"
                f" (cap {self.max_ovr})")

    def __iter__(self) -> Iterator[set[int]]:
        solver = self.solver
        uids = [solver.index[a] for a in self.universe]
        uset = frozenset(uids)
        upper = solver.least_ids(frozenset(), check=False)
        assert not isinstance(upper, _Inconsistent)
        possible = [i for i in uids if i in upper]

        guesses = itertools.chain.from_iterable(
            itertools.combinations(possible, k)
            for k in range(len(possible), -1, -1))
        for n, combo in enumerate(guesses):
            x = frozenset(combo)
            m = solver.least_ids(x)
            if m is INCONSISTENT:
                if n == 0:
                    return
                continue
            if n == 0:
                self.certain = m
            if m & uset == x:
                yield m
            if n == 0:
                self.check_cap()


def iter_answer_sets(gp: GroundProgram,
                     max_ovr: int = MAX_OVR) -> Iterator[AnswerSet]:
    """The answer sets of ModelSearch, decoded, in its order."""
    search = ModelSearch(gp, max_ovr)
    for ids in search:
        lits = search.solver.decode(ids)
        yield AnswerSet(
            literals=lits,
            ovr_atoms=frozenset(l for l in lits if l.pred == "ovr"))


def answer_sets(gp: GroundProgram,
                max_ovr: int = MAX_OVR) -> list[AnswerSet]:
    """All answer sets of gp, sorted; see iter_answer_sets."""
    return sorted(iter_answer_sets(gp, max_ovr), key=AnswerSet.sort_key)
