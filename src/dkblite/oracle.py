"""Translation-free reference semantics, used to cross-check the program
pipeline.

A candidate exception set chi is evaluated by a Skolem chase: strict
axioms are applied everywhere, defeasible axioms at every tuple except
those in chi, and each right-existential axiom mints one Skolem constant
per subject it fires on.  The chase gives the least model over the named
individuals, so a fact holds in every model with these exceptions
exactly when the chase derives it.

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
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

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
    tag_of: list[str]                    # axiom index -> column name


def _indexed_supex(kb: K.DKB) -> list[tuple[int, K.Axiom, bool]]:
    out = []
    i = 0
    for defeasible, axioms in ((False, kb.strict), (True, kb.defeasible)):
        for ax in axioms:
            if ax.shape == K.SUPEX:
                out.append((i, ax, defeasible))
                i += 1
    return out


def _depth(term: str) -> int:
    return term.count("(")


def _chase_positives(kb: K.DKB, chi: frozenset[K.ClashingAssumption],
                     depth_cap: int):
    """Forward-chain the positive consequences; returns (universe,
    positives, skolems).  Raises DepthExceeded when Skolem terms would
    nest beyond depth_cap."""

    def blocked(ax: K.Axiom, defeasible: bool, subject: tuple[str, ...]) -> bool:
        if not defeasible:
            return False
        named = all(not s.count("(") for s in subject)
        return named and K.ClashingAssumption(ax, subject) in chi

    universe: list[str] = list(kb.vocabulary.individuals)
    skolems: dict[str, int] = {}
    positives: set[Atom] = set()
    supex = [(i, ax, d) for i, ax, d in _indexed_supex(kb)]

    for defeasible, axioms in ((False, kb.strict), (True, kb.defeasible)):
        for ax in axioms:
            if ax.shape == K.CONCEPT_ASSERTION and not blocked(ax, defeasible, ()):
                positives.add((ax.args[0], (ax.args[1],)))
            elif ax.shape == K.ROLE_ASSERTION and not blocked(ax, defeasible, ()):
                positives.add((ax.args[0], (ax.args[1], ax.args[2])))

    rules = []
    for defeasible, axioms in ((False, kb.strict), (True, kb.defeasible)):
        for ax in axioms:
            if ax.shape in (K.SUBCLASS, K.SUBEX, K.SUBROLE, K.INV):
                rules.append((ax, defeasible))

    changed = True
    while changed:
        changed = False
        for ax, defeasible in rules:
            for name, args in sorted(positives):
                new: tuple[Atom, tuple[str, ...]] | None = None
                if ax.shape == K.SUBCLASS and name == ax.args[0]:
                    new = ((ax.args[1], args), (args[0],))
                elif ax.shape == K.SUBEX and name == ax.args[0]:
                    new = ((ax.args[1], (args[0],)), (args[0],))
                elif ax.shape == K.SUBROLE and name == ax.args[0]:
                    new = ((ax.args[1], args), args)
                elif ax.shape == K.INV and name == ax.args[0]:
                    new = ((ax.args[1], (args[1], args[0])), args)
                elif ax.shape == K.INV and name == ax.args[1]:
                    # S(e,f) with Inv(R,S): R(f,e); exception tuple is
                    # always the first role's pair.
                    new = ((ax.args[0], (args[1], args[0])), (args[1], args[0]))
                if new is None:
                    continue
                atom, subject = new
                if atom not in positives and not blocked(ax, defeasible, subject):
                    positives.add(atom)
                    changed = True
        for i, ax, defeasible in supex:
            concept, role = ax.args
            for name, args in sorted(positives):
                if name != concept:
                    continue
                subject = args[0]
                if blocked(ax, defeasible, (subject,)):
                    continue
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


def _negative_closure(kb: K.DKB, chi: frozenset[K.ClashingAssumption],
                      universe: list[str], positives: set[Atom],
                      named: set[str]) -> set[Atom]:
    """Contrapositive consequences over the given universe.  Defeasible
    axioms are skipped exactly at their chi tuples, mirroring how the
    compiled program guards its application rules."""

    def blocked(ax: K.Axiom, defeasible: bool, subject: tuple[str, ...]) -> bool:
        if not defeasible:
            return False
        if not all(s in named for s in subject):
            return False
        return K.ClashingAssumption(ax, subject) in chi

    negatives: set[Atom] = set()
    for defeasible, axioms in ((False, kb.strict), (True, kb.defeasible)):
        for ax in axioms:
            if ax.shape == K.NEG_CONCEPT_ASSERTION \
                    and not blocked(ax, defeasible, ()):
                negatives.add((ax.args[0], (ax.args[1],)))
            elif ax.shape == K.NEG_ROLE_ASSERTION \
                    and not blocked(ax, defeasible, ()):
                negatives.add((ax.args[0], (ax.args[1], ax.args[2])))
            elif ax.shape == K.IRR:
                for e in universe:
                    if not blocked(ax, defeasible, (e,)):
                        negatives.add((ax.args[0], (e, e)))
            elif ax.shape == K.SUPNOT:
                y, z = ax.args
                for name, args in positives:
                    if name == y and not blocked(ax, defeasible, (args[0],)):
                        negatives.add((z, args))
                    if name == z and not blocked(ax, defeasible, (args[0],)):
                        negatives.add((y, args))
            elif ax.shape == K.DIS:
                r, s = ax.args
                for name, args in positives:
                    if name == r and not blocked(ax, defeasible, args):
                        negatives.add((s, args))
                    if name == s and not blocked(ax, defeasible, args):
                        negatives.add((r, args))

    rules = [(ax, d) for d, axioms in ((False, kb.strict), (True, kb.defeasible))
             for ax in axioms
             if ax.shape in (K.SUBCLASS, K.SUBEX, K.SUPEX, K.SUBROLE, K.INV)]
    changed = True
    while changed:
        changed = False
        fresh: set[Atom] = set()
        for ax, defeasible in rules:
            if ax.shape == K.SUBCLASS:
                y, z = ax.args
                for name, args in negatives:
                    if name == z and not blocked(ax, defeasible, (args[0],)) \
                            and (y, args) not in negatives:
                        fresh.add((y, args))
            elif ax.shape == K.SUBEX:
                r, z = ax.args
                for name, args in negatives:
                    if name != z:
                        continue
                    e = args[0]
                    if blocked(ax, defeasible, (e,)):
                        continue
                    for f in universe:
                        if (r, (e, f)) not in negatives:
                            fresh.add((r, (e, f)))
            elif ax.shape == K.SUPEX:
                y, r = ax.args
                for e in universe:
                    if blocked(ax, defeasible, (e,)):
                        continue
                    if (y, (e,)) in negatives:
                        continue
                    if all((r, (e, f)) in negatives for f in universe):
                        fresh.add((y, (e,)))
            elif ax.shape == K.SUBROLE:
                r, s = ax.args
                for name, args in negatives:
                    if name == s and not blocked(ax, defeasible, args) \
                            and (r, args) not in negatives:
                        fresh.add((r, args))
            elif ax.shape == K.INV:
                r, s = ax.args
                for name, args in negatives:
                    if name not in (r, s):
                        continue
                    flipped = (args[1], args[0])
                    if name == r and not blocked(ax, defeasible, args) \
                            and (s, flipped) not in negatives:
                        fresh.add((s, flipped))
                    if name == s and not blocked(ax, defeasible, flipped) \
                            and (r, flipped) not in negatives:
                        fresh.add((r, flipped))
        if fresh - negatives:
            negatives |= fresh
            changed = True
    return negatives


def _tag_names(kb: K.DKB) -> list[str]:
    # '~' cannot occur in declared names, so columns never collide.
    return [f"~aux{i}" for i in range(len(kb.supex_axioms()))]


def _chase_full(kb: K.DKB, chi: frozenset[K.ClashingAssumption],
                depth_cap: int) -> _Chase:
    kb = kb.dedup()
    universe, positives, skolems = _chase_positives(kb, chi, depth_cap)
    named = set(kb.vocabulary.individuals)

    tag_of = _tag_names(kb)
    q = {term: tag_of[i] for term, i in skolems.items()}
    merged_universe = list(kb.vocabulary.individuals) + tag_of
    merged_pos = {(name, tuple(q.get(t, t) for t in args))
                  for name, args in positives}
    merged_neg = _negative_closure(kb, chi, merged_universe, merged_pos, named)
    consistent = not (merged_pos & merged_neg)
    return _Chase(universe, positives, skolems, merged_universe,
                  merged_pos, merged_neg, consistent, tag_of)


def _expand_negatives(ch: _Chase) -> frozenset[Atom]:
    """Merged negatives mapped back to chase terms: a negated fact at a
    column stands for that fact at each Skolem of the column's axiom."""
    expansion: dict[str, list[str]] = {t: [] for t in ch.tag_of}
    for term, i in ch.skolems.items():
        expansion[ch.tag_of[i]].append(term)
    out: set[Atom] = set()
    for name, args in ch.merged_neg:
        choices = [expansion.get(a, [a]) for a in args]
        for combo in itertools.product(*choices):
            out.add((name, combo))
    return frozenset(out)


def chase(kb: K.DKB, chi: frozenset[K.ClashingAssumption] = frozenset(),
          depth_cap: int = 3):
    """Least model with exceptions chi: HerbrandModel, or INCONSISTENT.
    Raises DepthExceeded when Skolem terms would nest beyond depth_cap."""
    ch = _chase_full(kb, chi, depth_cap)
    if not ch.consistent:
        return INCONSISTENT
    return _to_model(ch)


def _justified(ch: _Chase, ca: K.ClashingAssumption) \
        -> tuple[bool, ClashingSet | None]:
    """Shape-specific clash condition on the merged structure."""
    pos, neg = ch.merged_pos, ch.merged_neg
    ax, e = ca.axiom, ca.args
    s, a = ax.shape, ax.args
    if s == K.CONCEPT_ASSERTION:
        if (a[0], (a[1],)) in neg:
            return True, ClashingSet(((K.NEG_CONCEPT_ASSERTION, a),))
    elif s == K.NEG_CONCEPT_ASSERTION:
        if (a[0], (a[1],)) in pos:
            return True, ClashingSet(((K.CONCEPT_ASSERTION, a),))
    elif s == K.ROLE_ASSERTION:
        if (a[0], (a[1], a[2])) in neg:
            return True, ClashingSet(((K.NEG_ROLE_ASSERTION, a),))
    elif s == K.NEG_ROLE_ASSERTION:
        if (a[0], (a[1], a[2])) in pos:
            return True, ClashingSet(((K.ROLE_ASSERTION, a),))
    elif s == K.SUBCLASS:
        y, z = a
        if (y, e) in pos and (z, e) in neg:
            return True, ClashingSet((
                (K.CONCEPT_ASSERTION, (y, e[0])),
                (K.NEG_CONCEPT_ASSERTION, (z, e[0]))))
    elif s == K.SUPNOT:
        y, z = a
        if (y, e) in pos and (z, e) in pos:
            return True, ClashingSet((
                (K.CONCEPT_ASSERTION, (y, e[0])),
                (K.CONCEPT_ASSERTION, (z, e[0]))))
    elif s == K.SUBEX:
        r, z = a
        if (z, e) in neg and any(name == r and args[0] == e[0]
                                 for name, args in pos):
            return True, ClashingSet((
                (POS_EXISTS, (r, e[0])),
                (K.NEG_CONCEPT_ASSERTION, (z, e[0]))))
    elif s == K.SUPEX:
        y, r = a
        if (y, e) in pos and all((r, (e[0], f)) in neg
                                 for f in ch.merged_universe):
            return True, ClashingSet((
                (K.CONCEPT_ASSERTION, (y, e[0])),
                (NEG_EXISTS, (r, e[0]))))
    elif s == K.SUBROLE:
        r, z = a
        if (r, e) in pos and (z, e) in neg:
            return True, ClashingSet((
                (K.ROLE_ASSERTION, (r, e[0], e[1])),
                (K.NEG_ROLE_ASSERTION, (z, e[0], e[1]))))
    elif s == K.DIS:
        r, z = a
        if (r, e) in pos and (z, e) in pos:
            return True, ClashingSet((
                (K.ROLE_ASSERTION, (r, e[0], e[1])),
                (K.ROLE_ASSERTION, (z, e[0], e[1]))))
    elif s == K.INV:
        r, z = a
        flipped = (e[1], e[0])
        if (r, e) in pos and (z, flipped) in neg:
            return True, ClashingSet((
                (K.ROLE_ASSERTION, (r, e[0], e[1])),
                (K.NEG_ROLE_ASSERTION, (z, e[1], e[0]))))
        if (z, flipped) in pos and (r, e) in neg:
            return True, ClashingSet((
                (K.ROLE_ASSERTION, (z, e[1], e[0])),
                (K.NEG_ROLE_ASSERTION, (r, e[0], e[1]))))
    elif s == K.IRR:
        if (a[0], (e[0], e[0])) in pos:
            return True, ClashingSet(((K.ROLE_ASSERTION, (a[0], e[0], e[0])),))
    return False, None


def check_justified(kb: K.DKB, chi: frozenset[K.ClashingAssumption],
                    ca: K.ClashingAssumption, depth_cap: int = 3) \
        -> tuple[bool, ClashingSet | None]:
    """Whether ca is a justified exception under chi: the chase model
    must entail a clashing set for it.  Precondition: ca in chi and the
    chase under chi is consistent; raises DepthExceeded when it exceeds
    depth_cap."""
    if ca not in chi:
        raise ValueError(f"{ca.text()} is not in chi")
    if ca not in set(K.ca_candidates(kb)):
        raise ValueError(f"{ca.text()} is not a candidate of this KB")
    ch = _chase_full(kb, chi, depth_cap)
    if not ch.consistent:
        raise ValueError("chase under chi must be consistent")
    return _justified(ch, ca)


def _to_model(ch: _Chase) -> HerbrandModel:
    return HerbrandModel(
        universe=tuple(ch.universe),
        positives=frozenset(ch.positives),
        negatives=_expand_negatives(ch),
        skolems=tuple(sorted(ch.skolems.items(), key=lambda kv: (kv[1], kv[0]))))


def oracle_models(kb: K.DKB, depth_cap: int = 3) \
        -> list[tuple[frozenset[K.ClashingAssumption], HerbrandModel]]:
    """All exception sets that are consistent and fully justified, each
    with its chase model, by enumeration over every candidate subset."""
    kb = kb.dedup()
    candidates = K.ca_candidates(kb)
    out = []
    for k in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, k):
            chi = frozenset(combo)
            ch = _chase_full(kb, chi, depth_cap)
            if not ch.consistent:
                continue
            if all(_justified(ch, ca)[0] for ca in chi):
                out.append((chi, _to_model(ch)))
    return out


_AUX_NAME = re.compile(r"aux_+(\d+)\Z")


def _aux_index(kb: K.DKB, term: str) -> int | None:
    if term in kb.vocabulary.individuals:
        return None
    m = _AUX_NAME.match(term)
    if m and int(m.group(1)) < len(kb.supex_axioms()):
        return int(m.group(1))
    return None


def oracle_answer(kb: K.DKB, query: K.Axiom, depth_cap: int = 3) -> bool:
    """True iff the query holds in every justified model.  An aux
    constant in a role query matches any Skolem constant of the same
    existential axiom; negated queries are answered on the merged
    structure, where the aux constant is the axiom's column."""
    kb = kb.dedup()
    models = oracle_models(kb, depth_cap)
    if query.shape in (K.CONCEPT_ASSERTION, K.ROLE_ASSERTION):
        name = query.args[0]
        terms = query.args[1:]
        for chi, model in models:
            by_axiom: dict[int, list[str]] = {}
            for term, i in model.skolems:
                by_axiom.setdefault(i, []).append(term)
            choices = []
            for t in terms:
                i = _aux_index(kb, t)
                choices.append([t] if i is None else by_axiom.get(i, []))
            if not any((name, combo) in model.positives
                       for combo in itertools.product(*choices)):
                return False
        return True
    if query.shape in (K.NEG_CONCEPT_ASSERTION, K.NEG_ROLE_ASSERTION):
        name = query.args[0]
        tags = _tag_names(kb)
        for chi, _model in models:
            ch = _chase_full(kb, chi, depth_cap)
            args = tuple(t if _aux_index(kb, t) is None
                         else tags[_aux_index(kb, t)]
                         for t in query.args[1:])
            if (name, args) not in ch.merged_neg:
                return False
        return True
    raise ValueError(f"not a ground assertion query: {query.text()}")
