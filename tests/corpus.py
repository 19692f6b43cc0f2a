"""Seeded random normal-form DKBs for the agreement suites.

Every KB drawn here is safe for both engines: the existential-dependency
graph is acyclic (the chase terminates), the strict terminology is
coherent (checked by probing each concept and role with a fresh
individual), and the exception-candidate count stays small enough for
exhaustive enumeration on both sides.
"""

from __future__ import annotations

import itertools
import random
import re

from dkblite import kb as K
from dkblite.engine import INCONSISTENT
from dkblite.normalize import normalize
from dkblite.oracle import HerbrandModel, chase
from dkblite.parser import parse_dkb
from dkblite.reductions import FlatKB, from_inconsistent_kb

CONCEPTS = ("A", "B", "C", "D")
ROLES = ("R", "S")
INDIVIDUALS = ("a", "b", "c")

MAX_CANDIDATES = 8


def _existential_graph_is_acyclic(axioms) -> bool:
    """Skolems of one right-existential axiom must never grow the
    subject concept of an axiom already above it.  A skolem sits at the
    object end of its minting role; subrole keeps the end, inverse flips
    it, and a left-existential at the subject end grants a concept,
    closed under subclass.  Defeasible axioms count too: exceptions
    only ever block named subjects, never skolems."""
    supex = [ax for ax in axioms if ax.shape == K.SUPEX]

    def skolem_concepts(role: str) -> set[str]:
        ends = {(role, 1)}
        frontier = [(role, 1)]
        while frontier:
            p, e = frontier.pop()
            for ax in axioms:
                if ax.shape == K.SUBROLE and ax.args[0] == p:
                    step = [(ax.args[1], e)]
                elif ax.shape == K.INV and p in ax.args:
                    other = ax.args[1] if ax.args[0] == p else ax.args[0]
                    step = [(other, 1 - e)]
                else:
                    continue
                for s in step:
                    if s not in ends:
                        ends.add(s)
                        frontier.append(s)
        grown = {ax.args[1] for ax in axioms
                 if ax.shape == K.SUBEX and (ax.args[0], 0) in ends}
        changed = True
        while changed:
            changed = False
            for ax in axioms:
                if ax.shape == K.SUBCLASS and ax.args[0] in grown \
                        and ax.args[1] not in grown:
                    grown.add(ax.args[1])
                    changed = True
        return grown

    edges = {i: set() for i in range(len(supex))}
    for i, ax in enumerate(supex):
        grown = skolem_concepts(ax.args[1])
        for j, other in enumerate(supex):
            if other.args[0] in grown:
                edges[i].add(j)

    seen: dict[int, int] = {}  # 1 = on stack, 2 = done

    def cyclic(i: int) -> bool:
        seen[i] = 1
        for j in edges[i]:
            if seen.get(j) == 1 or (j not in seen and cyclic(j)):
                return True
        seen[i] = 2
        return False

    return not any(i not in seen and cyclic(i) for i in edges)


def _terminology_is_coherent(tbox) -> bool:
    """Probe every concept and role against the strict inclusions: a
    clash from a single membership means the name is strictly
    unsatisfiable, and overriding-based reasoning diverges from repair
    intuitions there."""
    names = [(n, s) for ax in tbox
             for n, s in zip(ax.args, K.SORTS[ax.shape])]
    names_c = sorted({n for n, s in names if s == "concept"})
    names_r = sorted({n for n, s in names if s == "role"})
    for c in names_c:
        probe = K.DKB.from_axioms(
            strict=tbox + (K.concept_assertion(c, "p"),))
        if chase(probe, depth_cap=12) is INCONSISTENT:
            return False
    for r in names_r:
        probe = K.DKB.from_axioms(
            strict=tbox + (K.role_assertion(r, "p", "q"),))
        if chase(probe, depth_cap=12) is INCONSISTENT:
            return False
    return True


def _draw_tbox_axiom(rng, concepts, roles):
    shapes = [K.SUBCLASS, K.SUBCLASS, K.SUPNOT]
    if roles:
        shapes += [K.SUBEX, K.SUPEX, K.SUBROLE, K.DIS, K.INV, K.IRR]
    s = rng.choice(shapes)
    c = lambda: rng.choice(concepts)
    r = lambda: rng.choice(roles)
    if s == K.SUBCLASS:
        x, y = rng.sample(concepts, 2)
        return K.subclass(x, y)
    if s == K.SUPNOT:
        x, y = rng.sample(concepts, 2)
        return K.supnot(x, y)
    if s == K.SUBEX:
        return K.subex(r(), c())
    if s == K.SUPEX:
        return K.supex(c(), r())
    if s == K.SUBROLE and len(roles) > 1:
        x, y = rng.sample(roles, 2)
        return K.subrole(x, y)
    if s == K.DIS and len(roles) > 1:
        x, y = rng.sample(roles, 2)
        return K.dis(x, y)
    if s == K.INV and len(roles) > 1:
        x, y = rng.sample(roles, 2)
        return K.inv(x, y)
    if s == K.IRR:
        return K.irr(r())
    return K.subclass(*rng.sample(concepts, 2))


def _draw_assertion(rng, concepts, roles, inds):
    kinds = ["c", "c", "c", "nc"]
    if roles:
        kinds += ["r", "nr"]
    k = rng.choice(kinds)
    if k == "c":
        return K.concept_assertion(rng.choice(concepts), rng.choice(inds))
    if k == "nc":
        return K.neg_concept_assertion(rng.choice(concepts), rng.choice(inds))
    if k == "r":
        return K.role_assertion(
            rng.choice(roles), rng.choice(inds), rng.choice(inds))
    return K.neg_role_assertion(
        rng.choice(roles), rng.choice(inds), rng.choice(inds))


def _draw_self_pair_axiom(rng, concepts, roles):
    """Half the time an axiom that names one concept or role twice
    (A [= A, A [= -A, R [= R, Dis(R,R), Inv(R,R)), else an ordinary
    TBox axiom."""
    if rng.random() < 0.5:
        return _draw_tbox_axiom(rng, concepts, roles)
    role_shapes = [K.SUBROLE, K.DIS, K.INV] if roles else []
    s = rng.choice([K.SUBCLASS, K.SUPNOT] + role_shapes)
    name = rng.choice(roles if s in role_shapes else concepts)
    return K.Axiom(s, (name, name))


def _draw(rng: random.Random, draw_tbox_axiom=_draw_tbox_axiom) \
        -> K.DKB | None:
    concepts = CONCEPTS[: rng.randint(2, 4)]
    roles = ROLES[: rng.randint(0, 2)]
    inds = INDIVIDUALS[: rng.randint(1, 3)]

    n_tbox = rng.randint(1, 6)
    n_abox = rng.randint(1, min(5, 12 - n_tbox))
    axioms = [draw_tbox_axiom(rng, concepts, roles) for _ in range(n_tbox)]
    axioms += [_draw_assertion(rng, concepts, roles, inds)
               for _ in range(n_abox)]
    axioms = list(dict.fromkeys(axioms))

    strict, defeasible = [], []
    for ax in axioms:
        (defeasible if rng.random() < 0.4 else strict).append(ax)
    if len(defeasible) > 4:
        strict += defeasible[4:]
        defeasible = defeasible[:4]

    kb = K.DKB.from_axioms(
        strict=tuple(strict), defeasible=tuple(defeasible),
        individuals=inds, concepts=concepts, roles=roles)
    if len(K.ca_candidates(kb)) > MAX_CANDIDATES:
        return None
    if not _existential_graph_is_acyclic(
            tuple(ax for ax in kb.strict + kb.defeasible
                  if not ax.is_assertion)):
        return None
    strict_tbox = tuple(ax for ax in kb.strict if not ax.is_assertion)
    if not _terminology_is_coherent(strict_tbox):
        return None
    return kb


def corpus_kbs(count: int = 240, seed: int = 1806) -> list[K.DKB]:
    rng = random.Random(seed)
    out: list[K.DKB] = []
    for _ in range(count * 60):
        if len(out) == count:
            break
        kb = _draw(rng)
        if kb is not None:
            out.append(kb)
    assert len(out) == count, f"generator starved at {len(out)}"
    return out


def self_pair_kbs(count: int, seed: int) -> list[K.DKB]:
    """Like corpus_kbs, but every KB has at least one TBox axiom that
    names one concept or role twice, which corpus_kbs never draws."""
    rng = random.Random(seed)
    out: list[K.DKB] = []
    while len(out) < count:
        kb = _draw(rng, _draw_self_pair_axiom)
        if kb is not None and any(
                not ax.is_assertion and len(set(ax.args)) < len(ax.args)
                for ax in kb.strict + kb.defeasible):
            out.append(kb)
    return out


# --- one axiom of every normal-form shape ---

# (axiom, its surface text), one row per shape, over concepts A-C, roles
# R-T and individuals a, b.
EVERY_SHAPE = (
    (K.concept_assertion("A", "a"), "A(a)"),
    (K.role_assertion("R", "a", "b"), "R(a,b)"),
    (K.neg_concept_assertion("B", "b"), "-B(b)"),
    (K.neg_role_assertion("S", "b", "a"), "-S(b,a)"),
    (K.subclass("A", "B"), "A [= B"),
    (K.supnot("B", "C"), "B [= -C"),
    (K.subex("R", "C"), "exists R [= C"),
    (K.supex("A", "S"), "A [= exists S"),
    (K.subrole("R", "S"), "R [= S"),
    (K.dis("S", "T"), "Dis(S,T)"),
    (K.inv("R", "T"), "Inv(R,T)"),
    (K.irr("T"), "Irr(T)"),
)


def every_shape_kb(strict: bool, defeasible: bool) -> K.DKB:
    """EVERY_SHAPE as strict and/or defeasible axioms, names declared in
    sorted order (the parser's order)."""
    axioms = tuple(ax for ax, _ in EVERY_SHAPE)
    return K.DKB.from_axioms(
        strict=axioms if strict else (),
        defeasible=axioms if defeasible else (),
        concepts=("A", "B", "C"), roles=("R", "S", "T"),
        individuals=("a", "b"))


# --- exhaustive flat corpus (repair-agreement suite) ---

FLAT_CONCEPTS = ("A", "B", "C")
FLAT_INDIVIDUALS = ("a", "b")


def flat_axiom_universe() -> tuple[K.Axiom, ...]:
    """Canonical concept-terminology axioms over the flat signature:
    proper subclass in both orientations, negative inclusions up to the
    A [= -B / B [= -A equivalence, diagonals included (A [= -A makes A
    strictly unsatisfiable, so those land on the incoherent side)."""
    subclass = [K.subclass(x, y)
                for x in FLAT_CONCEPTS for y in FLAT_CONCEPTS if x != y]
    supnot = [K.supnot(x, y) for x, y
              in itertools.combinations_with_replacement(FLAT_CONCEPTS, 2)]
    return tuple(subclass + supnot)


def flat_tboxes() -> tuple[list[tuple], list[tuple]]:
    """Every terminology of at most three universe axioms, split into
    (coherent, incoherent) by the membership probe."""
    universe = flat_axiom_universe()
    coherent, incoherent = [], []
    for r in range(4):
        for tb in itertools.combinations(universe, r):
            (coherent if _terminology_is_coherent(tb)
             else incoherent).append(tb)
    return coherent, incoherent


def flat_aboxes() -> list[tuple[K.Axiom, ...]]:
    """Every set of at most four positive membership assertions."""
    assertions = tuple(K.concept_assertion(c, i)
                       for c in FLAT_CONCEPTS for i in FLAT_INDIVIDUALS)
    return [ab for r in range(5)
            for ab in itertools.combinations(assertions, r)]


def flat_queries() -> tuple[K.Axiom, ...]:
    return tuple(K.concept_assertion(c, i)
                 for c in FLAT_CONCEPTS for i in FLAT_INDIVIDUALS)


def flat_sample(stride: int = 17) -> list[K.DKB]:
    """Every stride-th DKB of the coherent flat corpus x both
    embeddings; stride 17 is prime to 2 and 57, so the sample covers
    both embeddings and every ABox position."""
    coherent, _ = flat_tboxes()
    full = [(tb, ab, emulate) for tb in coherent for ab in flat_aboxes()
            for emulate in (False, True)]
    return [from_inconsistent_kb(FlatKB(tbox=tb, abox=ab), emulate)
            for tb, ab, emulate in full[::stride]]


# --- department KBs (the running example, widened) ---

DEPT_TBOX = """\
D(DeptMember [= exists hasCourse).
Professor [= DeptMember.
PhDStudent [= DeptMember.
PhDStudent [= -exists hasCourse.
"""


def dept_text(n: int, s: int) -> str:
    """dept(n, s): the department TBox over n individuals p000..,
    every (n // s)-th of them (s in all) a PhDStudent, the rest
    Professors.  Exactly one justified model: the hasCourse default is
    overridden at each student."""
    step = n // s
    return DEPT_TBOX + "".join(
        f"{'PhDStudent' if i % step == 0 and i // step < s else 'Professor'}"
        f"(p{i:03d}).\n" for i in range(n))


def dept_kb(n: int, s: int) -> K.DKB:
    return normalize(parse_dkb(dept_text(n, s)))


# --- Nixon diamonds (real choices) ---


def nixon_text(k: int) -> str:
    """Nixon(k): k individuals p0.., each both a Quaker and a Republican,
    under two defaults that pull it to Pacifist and to -Pacifist.  Each
    individual overrides exactly one of them, so there are 2^k justified
    models: Quaker(p_i) is entailed, Pacifist(p_i) and -Pacifist(p_i)
    are not."""
    return ("D(Quaker [= Pacifist).\nD(Republican [= -Pacifist).\n"
            + "".join(f"Quaker(p{i}).\nRepublican(p{i}).\n"
                      for i in range(k)))


# --- wide KB (throughput check) ---

def scale_kb() -> K.DKB:
    """100 individuals, 50 strict axioms, 10 defeasible assertions, 10
    exception candidates.  Six defaults sit on individuals whose strict
    memberships derive the contrary (forcing and justifying the
    exception); the other four apply untouched, so the KB has exactly
    one justified exception set."""
    concepts = tuple(f"C{i}" for i in range(8))
    individuals = tuple(f"e{i:02d}" for i in range(100))
    tbox = (
        K.subclass("C0", "C1"), K.subclass("C1", "C2"),
        K.subclass("C2", "C3"), K.subclass("C4", "C3"),
        K.supnot("C3", "C5"), K.subclass("C6", "C7"),
    )
    witnesses = ("C0", "C1", "C2", "C3", "C4", "C0")
    abox = [K.concept_assertion(c, f"e{i:02d}")
            for i, c in enumerate(witnesses)]
    abox += [K.concept_assertion("C6", f"e{i:02d}") for i in range(6, 10)]
    for j in range(50 - len(tbox) - len(abox)):
        abox.append(K.concept_assertion(concepts[j % 8], f"e{10 + j:02d}"))
    defeasible = tuple(K.concept_assertion("C5", f"e{i:02d}")
                       for i in range(10))
    return K.DKB.from_axioms(
        strict=tbox + tuple(abox), defeasible=defeasible,
        individuals=individuals, concepts=concepts, roles=())


def scale_kb_text() -> str:
    """The same KB in surface syntax, individuals declared up front so
    all 100 are in the signature."""
    kb = scale_kb()
    lines = ["% Throughput check: wide ABox, ten defaults, six forced exceptions."]
    lines += [f"concept {c}." for c in kb.vocabulary.concepts]
    lines += [f"individual {i}." for i in kb.vocabulary.individuals]
    lines += [f"{ax.text()}." for ax in kb.strict]
    lines += [f"D({ax.text()})." for ax in kb.defeasible]
    return "\n".join(lines) + "\n"


# --- surface-syntax fuzzing ---

_FUZZ_NAMES = ("A", "B", "C", "D", "R", "S", "a", "b", "c", "Bob", "exists",
               "concept", "role", "individual", "Dis", "Inv", "Irr", "Ref")
_FUZZ_PUNCT = ("(", ")", ",", ".", "-", "[=", "^-")
_FUZZ_ODD = ("$", "_x", "% note\n", "\n", "#")
_FUZZ_FORMS = (
    "{C}({a})", "-{C}({a})", "{R}({a},{b})", "-{R}({a},{b})",
    "exists {R}{i}({a})", "-exists {R}{i}({a})",
    "{C} [= {C}", "{C}{i} [= -{C}", "{C}{i} [= exists {R}{i}",
    "{C} [= -exists {R}{i}", "exists {R}{i} [= {C}", "{R}{i} [= {R}{i}",
    "Dis({R}{i},{R}{i})", "Inv({R}{i},{R}{i})", "Irr({R}{i})",
    "concept {C}", "role {R}", "individual {a}",
)
_DECL_FORMS = ("concept", "role", "individual")


def _fuzz_token(rng: random.Random) -> str:
    pool = rng.choice((_FUZZ_NAMES, _FUZZ_NAMES, _FUZZ_PUNCT, _FUZZ_PUNCT,
                       _FUZZ_ODD))
    return rng.choice(pool)


def _fuzz_statement(rng: random.Random) -> str:
    """One well-formed statement, possibly D(...)-wrapped, names drawn
    so that sort clashes and case-convention errors happen too."""
    form = rng.choice(_FUZZ_FORMS)
    text = form
    for slot, names in (("{C}", ("A", "B", "C", "D", "R", "a")),
                        ("{R}", ("R", "S", "A")),
                        ("{a}", ("a", "b", "c", "Bob", "A"))):
        while slot in text:
            text = text.replace(slot, rng.choice(names), 1)
    text = text.replace("{b}", rng.choice(("a", "b", "c")))
    while "{i}" in text:
        text = text.replace("{i}", rng.choice(("", "", "^-")), 1)
    while rng.random() < 0.2 and not form.startswith(_DECL_FORMS):
        text = f"D({text})"
    return text + "."


def _fuzz_mutate(rng: random.Random, statement: str) -> str:
    toks = re.findall(r"\[=|\^-|[A-Za-z_]\w*|\S", statement)
    for _ in range(rng.randint(1, 2)):
        op = rng.randrange(4)
        i = rng.randrange(len(toks) + (op == 0))
        if op == 0:
            toks.insert(i, _fuzz_token(rng))
        elif len(toks) > 1 and op == 1:
            del toks[i]
        elif op == 2:
            toks[i] = _fuzz_token(rng)
        elif i + 1 < len(toks):
            toks[i], toks[i + 1] = toks[i + 1], toks[i]
    return " ".join(toks)


def surface_fuzz_docs(n: int, seed: int) -> list[str]:
    """n seeded surface documents of one to four pieces each: a random
    token run, a well-formed statement, or one with a token inserted,
    deleted, replaced or swapped.  Most are rejected; the accepted ones
    cover every statement form, with and without D(...)."""
    rng = random.Random(seed)
    docs = []
    for _ in range(n):
        pieces = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.random()
            if kind < 0.15:
                pieces.append(" ".join(_fuzz_token(rng)
                                       for _ in range(rng.randint(1, 6))))
            elif kind < 0.7:
                pieces.append(_fuzz_statement(rng))
            else:
                pieces.append(_fuzz_mutate(rng, _fuzz_statement(rng)))
        docs.append(rng.choice((" ", "\n")).join(pieces))
    return docs
