"""Grounding and answer-set enumeration for compiled programs.

Grounding instantiates each schema rule by joining its extensional body
literals (predicates defined by facts only) against the fact table and
ranging any leftover variables over the constant pool.  Default-negated
literals whose atom no rule can ever derive are dropped from rule bodies:
they are vacuously true, and removing them makes the recorded
ovr_universe exactly the set of atoms that can both be assumed and
derived.

Answer sets are found by the reduct definition directly: guess which
default-negated atoms are assumed true, compute the least model of the
reduct, and keep the guess when the model reproduces it exactly.  The
search space is the set of default-negated atoms, which for compiled
knowledge bases is the ovr universe; guesses outside the least model of
the negation-free over-approximation cannot be reproduced and are
skipped.  Strongly negated literals are interned as atoms of their own,
with consistency enforced the moment a complementary pair is derived.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

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
    interned atom table, and the ground ovr atoms in heads or NAF bodies."""

    rules: tuple[Rule, ...]
    atoms: tuple[Literal, ...]
    ovr_universe: tuple[Literal, ...]

    def __post_init__(self) -> None:
        for r in self.rules:
            for l in (r.head, *r.body, *r.naf):
                if any(is_var(t) for t in l.args):
                    raise ValueError(f"non-ground rule: {l.text()}")


@dataclass(frozen=True)
class AnswerSet:
    literals: Interpretation
    ovr_atoms: Interpretation

    def sort_key(self) -> tuple:
        return (tuple(sorted(self.ovr_atoms)), tuple(sorted(self.literals)))


def make_ground_program(rules: Iterable[Rule]) -> GroundProgram:
    """Assemble a GroundProgram from ground rules, computing the atom
    table and ovr universe.  Used by ground() and by test fixtures."""
    rules = tuple(rules)
    atoms: set[Literal] = set()
    ovr: set[Literal] = set()
    for r in rules:
        atoms.add(r.head)
        atoms.update(r.body)
        atoms.update(r.naf)
        if r.head.pred == "ovr":
            ovr.add(r.head)
        ovr.update(l for l in r.naf if l.pred == "ovr")
    return GroundProgram(rules, tuple(sorted(atoms)), tuple(sorted(ovr)))


def _substitute(l: Literal, sub: dict[str, str]) -> Literal:
    return Literal(l.neg, l.pred, tuple(sub.get(t, t) for t in l.args))


def ground(p: Program) -> GroundProgram:
    """Instantiate every rule of p over its facts and constants.

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


def reduct(gp: GroundProgram, i: Iterable[Literal]) -> GroundProgram:
    """Gelfond-Lifschitz reduct: drop rules whose NAF part meets i, strip
    the NAF part from the rest."""
    i = frozenset(i)
    kept = tuple(Rule(r.head, r.body, (), name=r.name)
                 for r in gp.rules if not (set(r.naf) & i))
    return make_ground_program(kept)


class _Solver:
    """Int-encoded forward chainer over one ground program, reusable
    across assumption subsets."""

    def __init__(self, gp: GroundProgram):
        self.index: dict[Literal, int] = {}
        self.atoms: list[Literal] = []
        for a in gp.atoms:
            self.index[a] = len(self.atoms)
            self.atoms.append(a)
        self.compl = [self.index.get(a.complement(), -1) for a in self.atoms]
        self.rules: list[tuple[int, tuple[int, ...], frozenset[int]]] = []
        self.watch: dict[int, list[int]] = {}
        for r in gp.rules:
            body = tuple(sorted({self.index[l] for l in r.body}))
            naf = frozenset(self.index[l] for l in r.naf)
            idx = len(self.rules)
            self.rules.append((self.index[r.head], body, naf))
            for b in body:
                self.watch.setdefault(b, []).append(idx)

    def least_ids(self, assumed: frozenset[int],
                  check: bool = True) -> set[int] | _Inconsistent:
        counts = []
        queue: deque[int] = deque()
        derived: set[int] = set()

        def derive(a: int) -> bool:
            if a in derived:
                return True
            if check and self.compl[a] != -1 and self.compl[a] in derived:
                return False
            derived.add(a)
            queue.append(a)
            return True

        active = []
        for head, body, naf in self.rules:
            blocked = bool(naf & assumed)
            active.append(not blocked)
            counts.append(len(body))
            if not blocked and not body:
                if not derive(head):
                    return INCONSISTENT
        while queue:
            a = queue.popleft()
            for idx in self.watch.get(a, ()):
                if not active[idx]:
                    continue
                counts[idx] -= 1
                if counts[idx] == 0:
                    if not derive(self.rules[idx][0]):
                        return INCONSISTENT
        return derived

    def decode(self, ids: set[int]) -> Interpretation:
        return frozenset(self.atoms[i] for i in ids)


def least_model(gp: GroundProgram) -> LeastModelResult:
    """Least model of a NAF-free ground program, or INCONSISTENT when a
    complementary pair is derived."""
    for r in gp.rules:
        if r.naf:
            raise ValueError("least_model requires a NAF-free program")
    solver = _Solver(gp)
    out = solver.least_ids(frozenset())
    return out if out is INCONSISTENT else solver.decode(out)


def _assumption_universe(gp: GroundProgram) -> tuple[Literal, ...]:
    u = set(gp.ovr_universe)
    for r in gp.rules:
        u.update(r.naf)
    return tuple(sorted(u))


def iter_answer_sets(gp: GroundProgram,
                     max_ovr: int = MAX_OVR) -> Iterator[AnswerSet]:
    """Answer sets by guess-and-check over the assumption universe, from
    the largest guess to the smallest.

    A guess X is accepted when the least model M of the reduct under X is
    consistent and M reproduces X on the universe.  Guesses outside the
    least model of the negation-free over-approximation are skipped: the
    reduct under any X is a subprogram of that over-approximation, so its
    least model can never contain them.  The first guess assumes every
    remaining atom, so its reduct is a subprogram of every other reduct:
    when its least model is inconsistent, so is every other, and there is
    no answer set.  The max_ovr cap is checked after that first guess,
    before the rest of the search.
    """
    universe = _assumption_universe(gp)
    solver = _Solver(gp)
    uids = [solver.index[a] for a in universe]
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
        if m & uset == x:
            lits = solver.decode(m)
            yield AnswerSet(
                literals=lits,
                ovr_atoms=frozenset(l for l in lits if l.pred == "ovr"))
        if n == 0 and len(universe) > max_ovr:
            raise ResourceLimitError(
                f"assumption universe has {len(universe)} atoms"
                f" (cap {max_ovr})")


def answer_sets(gp: GroundProgram,
                max_ovr: int = MAX_OVR) -> list[AnswerSet]:
    """All answer sets of gp, sorted; see iter_answer_sets."""
    return sorted(iter_answer_sets(gp, max_ovr), key=AnswerSet.sort_key)


def is_answer_set(gp: GroundProgram, i: Iterable[Literal]) -> bool:
    """True iff i is the least model of the reduct of gp under i."""
    i = frozenset(i)
    m = least_model(reduct(gp, i))
    return m is not INCONSISTENT and m == i
