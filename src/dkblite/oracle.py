"""Translation-free reference semantics, used to cross-check the program
pipeline.

A candidate exception set chi is evaluated by a Skolem chase: strict
axioms are applied everywhere, defeasible axioms at every tuple except
those in chi, and each right-existential axiom mints one Skolem constant
per subject it fires on.  The chase gives the least model over the named
individuals, so a fact holds in every model with these exceptions
exactly when the chase derives it.

The inclusions that derive one atom from one atom (`A [= B`,
`exists R [= B`, `R [= S` and both directions of `Inv`) are stated once,
in one table.  The chase applies them forward; the negative closure
applies their contrapositives, -conclusion -> -premise, at the same
exception tuple, so an exception lifts a rule and its contrapositive
together.  `A [= exists R` is the one special case on each side: forward
it mints a Skolem constant, backward it needs every successor denied.
`A [= -B`, `Dis` and `Irr` only deny, and seed the negative closure.

Negative consequences (and hence consistency and the justification of
exceptions) are decided on the merged structure: all Skolem constants of
one existential axiom are identified into a single successor column, and
one column per existential axiom is present whether or not the axiom
ever fired.  Working columnwise is what licenses concluding "e has no
r-successor at all" from finitely many negated edges: a negated edge
into every column rules out anonymous successors too, while a plain
"no named successor" check would overlook them and accept exceptions
that a model with an anonymous successor refutes.  The merged structure
is the quotient of the chase under that identification; positive facts
transfer exactly because every positive consequence has a single
premise, so merging subjects never enables a derivation the chase could
not make in some column.

The column of existential axiom i is its aux constant aux_i, the one
kb.aux_constants gives the translation, so queries are read off the merged
structure as written.  A positive query on aux_i holds there exactly when
some Skolem constant of axiom i satisfies it in the chase: the merge sends
each of them to column i, and nothing else lands in that column.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

from . import kb as K
from .engine import INCONSISTENT

Atom = tuple[str, tuple[str, ...]]  # predicate name, argument tuple


class DepthExceeded(Exception):
    """Raised when the chase under some chi exceeds the depth cap."""

    def __init__(self, chi: frozenset[K.ClashingAssumption]):
        super().__init__(f"chase depth cap exceeded under {sorted(chi)}")
        self.chi = chi


@dataclass(frozen=True)
class HerbrandModel:
    """Chase result: named individuals plus minted Skolem constants, with
    the derived positive and negative ground facts.  skolems lists
    (term, axiom index) in existential-axiom numbering order."""

    universe: tuple[str, ...]
    positives: frozenset[Atom]
    negatives: frozenset[Atom]
    skolems: tuple[tuple[str, int], ...]

    def holds(self, atom: Atom) -> bool:
        return atom in self.positives


# Clashing-set entries are (shape, args) pairs over the assertion shapes
# plus the two existential assertion forms.
POS_EXISTS = "exists_assertion"
NEG_EXISTS = "neg_exists_assertion"


@dataclass(frozen=True)
class ClashingSet:
    """Assertions that hold in every model with these exceptions and
    contradict one application of the target axiom."""

    entries: tuple[tuple[str, tuple[str, ...]], ...]

    def text(self) -> str:
        parts = []
        for shape, args in self.entries:
            if shape == POS_EXISTS:
                parts.append(f"exists {args[0]}({args[1]})")
            elif shape == NEG_EXISTS:
                parts.append(f"-exists {args[0]}({args[1]})")
            else:
                parts.append(K.Axiom(shape, args).text())
        return "{" + ", ".join(sorted(parts)) + "}"


def _entry(name: str, args: tuple[str, ...], positive: bool = True):
    """The clashing-set entry asserting (or denying) name(args)."""
    if len(args) == 1:
        shape = K.CONCEPT_ASSERTION if positive else K.NEG_CONCEPT_ASSERTION
    else:
        shape = K.ROLE_ASSERTION if positive else K.NEG_ROLE_ASSERTION
    return shape, (name,) + args


# The single-premise inclusion rules, one row per direction: (premise
# argument, its variables, conclusion argument, its variables, exception
# tuple).  A premise variable the conclusion lacks is existential
# (`exists R [= B`).  Inv(R,S) reads both ways, its exception tuple always
# the R pair.
_INCLUSION_RULES = {
    K.SUBCLASS: ((0, "x", 1, "x", "x"),),
    K.SUBEX: ((0, "xy", 1, "x", "x"),),
    K.SUBROLE: ((0, "xy", 1, "xy", "xy"),),
    K.INV: ((0, "xy", 1, "yx", "xy"), (1, "yx", 0, "xy", "xy")),
}


class _Rule(NamedTuple):
    """One row of _INCLUSION_RULES at one axiom."""
    axiom: K.Axiom
    defeasible: bool
    premise: str
    pvars: str
    conclusion: str
    cvars: str
    svars: str


def _walk(kb: K.DKB) -> list[tuple[K.Axiom, bool]]:
    """Every axiom with its defeasible flag: strict first, in input order."""
    return [(ax, False) for ax in kb.strict] \
        + [(ax, True) for ax in kb.defeasible]


def _rules(walk) -> list[_Rule]:
    """The rows of _INCLUSION_RULES at each inclusion axiom."""
    return [_Rule(ax, d, ax.args[p], pv, ax.args[c], cv, sv)
            for ax, d in walk
            for p, pv, c, cv, sv in _INCLUSION_RULES.get(ax.shape, ())]


def _at(binding: dict[str, str], variables: str) -> tuple[str, ...]:
    return tuple(map(binding.__getitem__, variables))


def _bindings(variables: str, bound: dict[str, str],
              universe) -> Iterator[dict[str, str]]:
    """bound extended by every value over universe of the unbound
    variables."""
    free = [v for v in variables if v not in bound]
    for values in itertools.product(universe, repeat=len(free)):
        yield {**bound, **dict(zip(free, values))}


# excepted(axiom, defeasible, tuple): whether chi lifts the axiom there
Excepted = Callable[[K.Axiom, bool, tuple[str, ...]], bool]


def _depth(term: str) -> int:
    return term.count("(")


def _chase_positives(walk, rules: list[_Rule], excepted: Excepted,
                     individuals, chi: frozenset[K.ClashingAssumption],
                     depth_cap: int):
    """Forward-chain the positive consequences; returns (universe,
    positives, skolems).  Raises DepthExceeded when Skolem terms would
    nest beyond depth_cap."""
    universe: list[str] = list(individuals)
    skolems: dict[str, int] = {}
    positives: set[Atom] = {
        (ax.args[0], ax.args[1:]) for ax, d in walk
        if ax.shape in (K.CONCEPT_ASSERTION, K.ROLE_ASSERTION)
        and not excepted(ax, d, ())}
    supex = [(ax, d) for ax, d in walk if ax.shape == K.SUPEX]

    changed = True
    while changed:
        changed = False
        for rule in rules:
            for name, args in sorted(positives):
                if name != rule.premise:
                    continue
                b = dict(zip(rule.pvars, args))
                atom = (rule.conclusion, _at(b, rule.cvars))
                if atom not in positives and not excepted(
                        rule.axiom, rule.defeasible, _at(b, rule.svars)):
                    positives.add(atom)
                    changed = True
        for i, (ax, defeasible) in enumerate(supex):
            concept, role = ax.args
            for name, args in sorted(positives):
                if name != concept or excepted(ax, defeasible, args):
                    continue
                subject = args[0]
                term = f"sk_{i}({subject})"
                if (role, (subject, term)) in positives:
                    continue
                if _depth(term) > depth_cap:
                    raise DepthExceeded(chi)
                if term not in skolems:
                    skolems[term] = i
                    universe.append(term)
                positives.add((role, (subject, term)))
                changed = True
    return universe, positives, skolems


def _negative_closure(walk, rules: list[_Rule], excepted: Excepted,
                      universe: list[str], positives: set[Atom]) -> set[Atom]:
    """The negative facts over the given universe: negated assertions,
    irreflexivity, the two sides of each disjointness, and then the
    contrapositives of the inclusion rules to a fixpoint, semi-naively:
    each round reads only the facts the last one added.  That is exact, as
    each contrapositive has one premise and `A [= exists R` can newly fire
    only at a subject whose last R-edge was just denied."""
    negatives: set[Atom] = set()
    for ax, d in walk:
        if ax.shape in (K.NEG_CONCEPT_ASSERTION, K.NEG_ROLE_ASSERTION) \
                and not excepted(ax, d, ()):
            negatives.add((ax.args[0], ax.args[1:]))
        elif ax.shape == K.IRR:
            negatives |= {(ax.args[0], (e, e)) for e in universe
                          if not excepted(ax, d, (e,))}
        elif ax.shape in (K.SUPNOT, K.DIS):
            # Y [= -Z and Dis(Y,Z): each side denies the other.
            y, z = ax.args
            other = {y: z, z: y}
            negatives |= {(other[name], args) for name, args in positives
                          if name in other and not excepted(ax, d, args)}

    supex = [(ax, d) for ax, d in walk if ax.shape == K.SUPEX]
    delta = set(negatives)
    while delta:
        fresh: set[Atom] = set()
        for rule in rules:
            for name, args in delta:
                if name != rule.conclusion:
                    continue
                for b in _bindings(rule.pvars, dict(zip(rule.cvars, args)),
                                   universe):
                    if not excepted(rule.axiom, rule.defeasible,
                                    _at(b, rule.svars)):
                        fresh.add((rule.premise, _at(b, rule.pvars)))
        for ax, d in supex:
            y, r = ax.args
            subjects = {args[0] for name, args in delta if name == r}
            fresh |= {(y, (e,)) for e in subjects
                      if not excepted(ax, d, (e,))
                      and all((r, (e, f)) in negatives for f in universe)}
        delta = fresh - negatives
        negatives |= delta
    return negatives


@dataclass
class _Chase:
    """Full chase state: per-subject Skolem model plus its merged view."""

    universe: list[str]
    positives: set[Atom]
    skolems: dict[str, int]              # skolem term -> axiom index
    merged_universe: list[str]
    merged_pos: set[Atom]
    merged_neg: set[Atom]
    consistent: bool
    columns: tuple[str, ...]             # axiom index -> column name


def _chase(kb: K.DKB, chi: frozenset[K.ClashingAssumption],
           depth_cap: int) -> _Chase:
    """The chase of a deduplicated KB under chi, and its merged view."""
    individuals = kb.vocabulary.individuals
    named = set(individuals)
    lifted = {(ca.axiom, ca.args) for ca in chi if named.issuperset(ca.args)}

    def excepted(ax: K.Axiom, defeasible: bool,
                 args: tuple[str, ...]) -> bool:
        # The one exception test: chi lifts a defeasible axiom at the
        # tuples of named individuals it lists, and nowhere else.
        return defeasible and (ax, args) in lifted

    walk = _walk(kb)
    rules = _rules(walk)
    universe, positives, skolems = _chase_positives(
        walk, rules, excepted, individuals, chi, depth_cap)
    columns = kb.aux_constants()
    q = {term: columns[i] for term, i in skolems.items()}
    merged_universe = list(individuals + columns)
    merged_pos = {(name, tuple(q.get(t, t) for t in args))
                  for name, args in positives}
    merged_neg = _negative_closure(walk, rules, excepted, merged_universe,
                                   merged_pos)
    return _Chase(universe, positives, skolems, merged_universe, merged_pos,
                  merged_neg, not (merged_pos & merged_neg), columns)


def _clash(ch: _Chase, ca: K.ClashingAssumption) -> ClashingSet | None:
    """The clashing set for ca that the merged structure derives, if any:
    facts showing the axiom cannot apply at ca's tuple."""
    pos, neg, universe = ch.merged_pos, ch.merged_neg, ch.merged_universe
    ax, e = ca.axiom, ca.args
    a = ax.args
    if ax.is_assertion:
        atom = (a[0], a[1:])
        positive = ax.shape in (K.CONCEPT_ASSERTION, K.ROLE_ASSERTION)
        if atom in (neg if positive else pos):
            return ClashingSet((_entry(*atom, not positive),))
    elif ax.shape in (K.SUPNOT, K.DIS):
        if (a[0], e) in pos and (a[1], e) in pos:
            return ClashingSet((_entry(a[0], e), _entry(a[1], e)))
    elif ax.shape == K.SUPEX:
        y, r = a
        if (y, e) in pos and all((r, (e[0], f)) in neg for f in universe):
            return ClashingSet((_entry(y, e), (NEG_EXISTS, (r, e[0]))))
    elif ax.shape == K.IRR:
        if (a[0], (e[0], e[0])) in pos:
            return ClashingSet((_entry(a[0], (e[0], e[0])),))
    # An inclusion row clashes where its premise holds and its conclusion
    # is denied; an existential premise is reported as `exists R(e)`.
    for rule in _rules([(ax, True)]):
        at_e = dict(zip(rule.svars, e))
        conclusion = _at(at_e, rule.cvars)
        if (rule.conclusion, conclusion) not in neg:
            continue
        for b in _bindings(rule.pvars, at_e, universe):
            premise = _at(b, rule.pvars)
            if (rule.premise, premise) in pos:
                seen = ((POS_EXISTS, (rule.premise,) + e) if len(b) > len(e)
                        else _entry(rule.premise, premise))
                return ClashingSet(
                    (seen, _entry(rule.conclusion, conclusion, False)))
    return None


def _justified_chase(kb: K.DKB, chi: frozenset[K.ClashingAssumption],
                     depth_cap: int) -> _Chase | None:
    """The chase under chi when chi is a justified exception set (the
    chase is consistent and derives a clashing set for every exception
    in chi), else None."""
    ch = _chase(kb, chi, depth_cap)
    if ch.consistent and all(_clash(ch, ca) is not None for ca in chi):
        return ch
    return None


def _justified_chases(kb: K.DKB, depth_cap: int) \
        -> list[tuple[frozenset[K.ClashingAssumption], _Chase]]:
    """Every justified chi of a deduplicated KB with its chase, by
    enumeration over every candidate subset, smallest first."""
    candidates = K.ca_candidates(kb)
    out = []
    for k in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, k):
            chi = frozenset(combo)
            ch = _justified_chase(kb, chi, depth_cap)
            if ch is not None:
                out.append((chi, ch))
    return out


def _to_model(ch: _Chase) -> HerbrandModel:
    # A negated fact at a column stands for that fact at each Skolem
    # constant of the column's axiom.
    expansion: dict[str, list[str]] = {t: [] for t in ch.columns}
    for term, i in ch.skolems.items():
        expansion[ch.columns[i]].append(term)
    negatives = {(name, combo) for name, args in ch.merged_neg
                 for combo in itertools.product(
                     *(expansion.get(a, [a]) for a in args))}
    return HerbrandModel(
        universe=tuple(ch.universe),
        positives=frozenset(ch.positives),
        negatives=frozenset(negatives),
        skolems=tuple(sorted(ch.skolems.items(), key=lambda kv: (kv[1], kv[0]))))


def chase(kb: K.DKB, chi: frozenset[K.ClashingAssumption] = frozenset(),
          depth_cap: int = 3):
    """Least model with exceptions chi: HerbrandModel, or INCONSISTENT.
    Raises DepthExceeded when Skolem terms would nest beyond depth_cap."""
    ch = _chase(kb.dedup(), chi, depth_cap)
    return _to_model(ch) if ch.consistent else INCONSISTENT


def check_justified(kb: K.DKB, chi: frozenset[K.ClashingAssumption],
                    ca: K.ClashingAssumption, depth_cap: int = 3) \
        -> tuple[bool, ClashingSet | None]:
    """Whether ca is a justified exception under chi: the chase model
    must entail a clashing set for it.  Precondition: ca in chi and the
    chase under chi is consistent; raises DepthExceeded when it exceeds
    depth_cap."""
    kb = kb.dedup()
    if ca not in chi:
        raise ValueError(f"{ca.text()} is not in chi")
    if ca not in set(K.ca_candidates(kb)):
        raise ValueError(f"{ca.text()} is not a candidate of this KB")
    ch = _chase(kb, chi, depth_cap)
    if not ch.consistent:
        raise ValueError("chase under chi must be consistent")
    cs = _clash(ch, ca)
    return cs is not None, cs


def oracle_models(kb: K.DKB, depth_cap: int = 3) \
        -> list[tuple[frozenset[K.ClashingAssumption], HerbrandModel]]:
    """All exception sets that are consistent and fully justified, each
    with its chase model, by enumeration over every candidate subset."""
    return [(chi, _to_model(ch))
            for chi, ch in _justified_chases(kb.dedup(), depth_cap)]


def oracle_answer(kb: K.DKB, query: K.Axiom, depth_cap: int = 3) -> bool:
    """True iff the query holds in every justified model, read off each
    model's merged structure: the aux constant aux_i of kb.aux_constants
    is the column of existential axiom i, so in a positive query it
    matches any Skolem constant of that axiom.  Like entails, raises
    ValueError for a query that is not an assertion and
    kb.UnknownNameError for a name the KB lacks."""
    kb = kb.dedup()
    v = kb.vocabulary
    K.check_query(query, v.concepts, v.roles,
                  v.individuals + kb.aux_constants())
    atom = (query.args[0], query.args[1:])
    positive = query.shape in (K.CONCEPT_ASSERTION, K.ROLE_ASSERTION)
    return all(atom in (ch.merged_pos if positive else ch.merged_neg)
               for _chi, ch in _justified_chases(kb, depth_cap))
