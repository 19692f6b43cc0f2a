"""The benchmark's workloads, their seeded inputs and their references.

Each family's contents, and so its cost, are fixed; the seed only picks
which individuals play which part and the order of inputs in a pass.
References never come from the pipeline: the dept families have a closed
form, confirmed here against the chase oracle on small instances, and the
flat corpus is answered by brute-force repair enumeration and the oracle.

A pass yields one call per verdict to ``verdict(kind, key, call, decode)``.
``call`` is the timed part; ``decode`` turns its result into a plain answer
outside the timing, and ``expected(key)`` is the reference for that answer.
Library functions are called through their module attribute, so that the
tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import random

import dkblite.cli as cli
import dkblite.kb as K
import dkblite.oracle as oracle
import dkblite.reasoner as reasoner
import dkblite.reductions as reductions
from dkblite.normalize import normalize
from dkblite.parser import parse_dkb

import corpus

# The TBox of tests/data/dept.dkb; the ABox is generated.
DEPT_TBOX = """\
D(DeptMember [= exists hasCourse).
Professor [= DeptMember.
PhDStudent [= DeptMember.
PhDStudent [= -exists hasCourse.
"""
DEPT_DEFAULT = K.supex("DeptMember", "hasCourse")
QUERY_TEXT = "hasCourse(p000, aux_0)"
QUERY = K.role_assertion("hasCourse", "p000", "aux_0")

# dept(n, s) sizes small enough for the oracle's subset enumeration.
SELF_CHECK_SIZES = ((2, 1), (4, 2), (6, 3), (8, 2), (8, 4))


class Dept:
    """dept(n, s): n individuals p000.., s of them PhDStudent (which ones
    is the seed's choice), the rest Professor.

    Closed form: exactly one justified model, whose exceptions are the
    hasCourse default at each student; so the KB is satisfiable and
    hasCourse(x, aux_0) is entailed exactly for the professors."""

    def __init__(self, n: int, s: int, rng: random.Random) -> None:
        self.names = [f"p{i:03d}" for i in range(n)]
        self.students = frozenset(rng.sample(self.names, s))
        order = list(self.names)
        rng.shuffle(order)
        self.text = DEPT_TBOX + "".join(
            f"{'PhDStudent' if x in self.students else 'Professor'}({x}).\n"
            for x in order)
        self.max_ovr = 2 * n
        self.kb = normalize(parse_dkb(self.text))

    def chi(self) -> frozenset:
        return frozenset(K.ClashingAssumption(DEPT_DEFAULT, (x,))
                         for x in self.students)

    def entailed(self, x: str) -> bool:
        return x not in self.students


def dept_self_check(seed: int) -> list[str]:
    """Confirm the closed form against oracle_models / oracle_answer."""
    rng = random.Random(f"{seed}:self-check")
    errors = []
    for n, s in SELF_CHECK_SIZES:
        d = Dept(n, s, rng)
        kb = d.kb
        models = oracle.oracle_models(kb)
        if [chi for chi, _ in models] != [d.chi()]:
            errors.append(f"dept({n},{s}): oracle models differ from"
                          " the closed form")
        for x in (min(d.students), min(set(d.names) - d.students)):
            q = K.role_assertion("hasCourse", x, "aux_0")
            if oracle.oracle_answer(kb, q) != d.entailed(x):
                errors.append(f"dept({n},{s}): oracle answer on {q.text()}"
                              " differs from the closed form")
    return errors


def _chi_sets(reports) -> list:
    return sorted(tuple(sorted(r.chi)) for r in reports)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _decode_cli(kind: str):
    def decode(result):
        rc, text = result
        doc = json.loads(text)
        if kind == "sat":
            return rc, doc["satisfiable"]
        if kind == "entail":
            return rc, doc["entailed"]
        return rc, sorted(
            tuple(sorted((c["axiom"], tuple(c["args"])) for c in m["chi"]))
            for m in doc["models"])
    return decode


class _DeptFamily:
    """A fixed list of dept(n, s) instances, each a renaming of its own.

    The family grows fast, so each verdict kind's median falls on its
    middle size.  That size is listed several times, in different
    renamings, so the median has several samples a pass; being in the
    middle, the copies do not move the median to another size."""

    INSTANCES: tuple[tuple[int, int], ...]  # (n, s)
    WARMUP: int  # instances run once, untimed, before the first pass

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        rng = random.Random(f"{seed}:inputs")
        self.order_rng = random.Random(f"{seed}:order")
        self.seed = seed
        self.depts = [Dept(n, s, rng) for n, s in self.INSTANCES]

    def run_pass(self, verdict, warmup: bool = False) -> None:
        order = list(range(self.WARMUP if warmup else len(self.depts)))
        self.order_rng.shuffle(order)
        for i in order:
            self.verdicts(i, verdict)

    def closed_form(self, key):
        i, kind = key
        d = self.depts[i]
        if kind == "sat":
            return True
        if kind == "entail":
            return d.entailed(QUERY.args[1])
        return [tuple(sorted(d.chi()))]

    def self_check(self) -> list[str]:
        return dept_self_check(self.seed)


class DeptWide(_DeptFamily):
    """dept(n, 2) for n in 30, 60, 90, through in-process cli.main."""

    INSTANCES = ((30, 2), (60, 2), (60, 2), (60, 2), (90, 2))
    WARMUP = 1

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        super().__init__(seed, workdir)
        self.paths = []
        for i, d in enumerate(self.depts):
            path = workdir / f"dept_wide_{i}.dkb"
            path.write_text(d.text, encoding="utf-8")
            self.paths.append(str(path))

    def verdicts(self, i: int, verdict) -> None:
        flags = [self.paths[i], "--format", "json",
                 "--max-ovr", str(self.depts[i].max_ovr)]
        for kind, argv in (("sat", ["check-sat"]),
                           ("models", ["models"]),
                           ("entail", ["entail", "--query", QUERY_TEXT])):
            verdict(kind, (i, kind),
                    lambda argv=argv: _run_cli(argv + flags),
                    _decode_cli(kind))

    def expected(self, key):
        """(exit code, answer), the models' exceptions as text."""
        want = self.closed_form(key)
        if key[1] == "models":
            return 0, [tuple((ca.axiom.text(), ca.args) for ca in chi)
                       for chi in want]
        return (0 if want else 1), want


class DeptForced(_DeptFamily):
    """dept(2s, s) for s = 1..11 through the library."""

    INSTANCES = tuple((2 * s, s) for s in (1, 2, 3, 4, 5, 6, 6, 6, 6, 6,
                                            7, 8, 9, 10, 11))
    WARMUP = 6

    def verdicts(self, i: int, verdict) -> None:
        kb, cap = self.depts[i].kb, self.depts[i].max_ovr
        verdict("sat", (i, "sat"), lambda: reasoner.satisfiable(kb), bool)
        verdict("models", (i, "models"),
                lambda: reasoner.justified_models(kb, max_ovr=cap),
                _chi_sets)
        verdict("entail", (i, "entail"),
                lambda: reasoner.entails(kb, QUERY, max_ovr=cap), bool)

    expected = _DeptFamily.closed_form


class FlatRepairs:
    """A fixed sample of the exhaustive flat corpus: every SAMPLE_STRIDE-th
    of the 76 coherent terminologies x 57 ABoxes x both embeddings.  The
    stride is prime to 2 and 57, so the sample covers both embeddings and
    every ABox position.  The seed only orders the sample."""

    SAMPLE_STRIDE = 17

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        self.order_rng = random.Random(f"{seed}:order")
        coherent, _ = corpus.flat_tboxes()
        full = [(tb, ab, emulate) for tb in coherent
                for ab in corpus.flat_aboxes() for emulate in (False, True)]
        self.items = []
        for tb, ab, emulate in full[::self.SAMPLE_STRIDE]:
            k = reductions.FlatKB(tbox=tb, abox=ab)
            v = reductions.from_inconsistent_kb(k, emulate).vocabulary
            names = set(v.concepts) | set(v.individuals)
            queries = tuple(q for q in corpus.flat_queries()
                            if set(q.args) <= names)
            self.items.append((k, emulate, queries))
        self._refs: dict = {}

    def run_pass(self, verdict, warmup: bool = False) -> None:
        order = list(range(20 if warmup else len(self.items)))
        self.order_rng.shuffle(order)
        for i in order:
            k, emulate, queries = self.items[i]
            kb = reductions.from_inconsistent_kb(k, emulate)
            verdict("sat", (i, "sat"),
                    lambda: reasoner.satisfiable(kb), bool)
            verdict("models", (i, "models"),
                    lambda: reasoner.justified_models(kb), _chi_sets)
            for q in queries:
                verdict("entail", (i, q),
                        lambda q=q: reasoner.entails(kb, q), bool)

    def expected(self, key):
        i, what = key
        if i not in self._refs:
            k, emulate, queries = self.items[i]
            kb = reductions.from_inconsistent_kb(k, emulate)
            chis = sorted(tuple(sorted(chi))
                          for chi, _ in oracle.oracle_models(kb))
            ref = {"sat": bool(chis), "models": chis}
            for q in queries:
                ref[q] = reductions.ar_entails_bruteforce(k, q)
            self._refs[i] = ref
        return self._refs[i][what]

    def self_check(self) -> list[str]:
        return []


WORKLOADS = {
    "dept_wide": DeptWide,
    "dept_forced": DeptForced,
    "flat_repairs": FlatRepairs,
}
