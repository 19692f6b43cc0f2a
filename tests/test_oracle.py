"""Chase-based reference semantics."""

import ast
import itertools
import pathlib

import pytest

import dkblite.oracle
from dkblite import kb as K
from dkblite.engine import INCONSISTENT
from dkblite.oracle import (
    NEG_EXISTS,
    POS_EXISTS,
    DepthExceeded,
    HerbrandModel,
    chase,
    check_justified,
    oracle_answer,
    oracle_models,
)

from conftest import DEPT_DEFAULT, dis_kb, nixon_kb, subrole_kb

CA_ALICE = K.ClashingAssumption(DEPT_DEFAULT, ("alice",))
CA_BOB = K.ClashingAssumption(DEPT_DEFAULT, ("bob",))


# --- chase ---


def test_chase_mints_one_skolem_per_firing_subject():
    kb = K.DKB.from_axioms(
        strict=(K.concept_assertion("A", "a"), K.supex("A", "R")))
    model = chase(kb)
    assert isinstance(model, HerbrandModel)
    assert model.universe == ("a", "sk_0(a)")
    assert model.positives == {("A", ("a",)), ("R", ("a", "sk_0(a)"))}
    assert model.negatives == frozenset()
    assert model.skolems == (("sk_0(a)", 0),)


def test_chase_dept_without_exceptions_is_inconsistent(k_dept):
    assert chase(k_dept) is INCONSISTENT


def test_chase_dept_with_bob_exception(k_dept):
    model = chase(k_dept, frozenset({CA_BOB}))
    assert isinstance(model, HerbrandModel)
    assert model.universe == ("alice", "bob", "sk_0(alice)")
    assert model.skolems == (("sk_0(alice)", 0),)
    assert model.holds(("DeptMember", ("alice",)))
    assert model.holds(("DeptMember", ("bob",)))
    assert model.holds(("hasCourse", ("alice", "sk_0(alice)")))
    assert not any(name == "hasCourse" and args[0] == "bob"
                   for name, args in model.positives)
    for c in model.universe:
        assert ("hasCourse", ("bob", c)) in model.negatives


def test_chase_depth_cap_on_cyclic_existentials():
    kb = K.DKB.from_axioms(strict=(
        K.supex("A", "R"),
        K.inv("R", "S"),
        K.subex("S", "A"),
        K.concept_assertion("A", "a"),
    ))
    with pytest.raises(DepthExceeded) as exc:
        chase(kb, depth_cap=3)
    assert exc.value.chi == frozenset()
    with pytest.raises(DepthExceeded) as exc:
        oracle_models(kb)
    assert exc.value.chi == frozenset()


def test_chase_applies_both_directions_of_a_self_inverse():
    # Inv(R,S) gives S(y,x) from R(x,y) and R(x,y) from S(y,x), both at
    # the pair (x,y).  Under Inv(R,R), R(a,b) yields R(b,a) at (a,b) and
    # again at (b,a), so excepting (a,b) alone leaves R(b,a) derived.
    ax = K.inv("R", "R")
    kb = K.DKB.from_axioms(strict=(K.role_assertion("R", "a", "b"),),
                           defeasible=(ax,))
    ab, ba = (K.ClashingAssumption(ax, p) for p in (("a", "b"), ("b", "a")))
    assert chase(kb, frozenset({ab})).positives == {
        ("R", ("a", "b")), ("R", ("b", "a"))}
    assert chase(kb, frozenset({ab, ba})).positives == {("R", ("a", "b"))}


def test_chase_is_deterministic(k_dept):
    assert chase(k_dept, frozenset({CA_BOB})) == chase(k_dept, frozenset({CA_BOB}))


def test_chase_named_facts_ignore_strict_axiom_order():
    axioms = (
        K.supex("A", "R"),
        K.supex("B", "S"),
        K.subex("R", "C"),
        K.supnot("C", "D"),
        K.concept_assertion("A", "a"),
        K.concept_assertion("B", "a"),
    )
    models = []
    for strict in (axioms, tuple(reversed(axioms))):
        kb = K.DKB.from_axioms(strict=strict)
        model = chase(kb)
        assert isinstance(model, HerbrandModel)
        models.append(model)

    def named_part(model):
        keep = lambda atoms: {(n, a) for n, a in atoms
                              if all("(" not in t for t in a)}
        return keep(model.positives), keep(model.negatives)

    assert named_part(models[0]) == named_part(models[1])
    assert len(models[0].skolems) == len(models[1].skolems)


# --- check_justified ---


def test_justified_bob_exception_with_witness(k_dept):
    ok, cs = check_justified(k_dept, frozenset({CA_BOB}), CA_BOB)
    assert ok
    assert cs.entries == (
        (K.CONCEPT_ASSERTION, ("DeptMember", "bob")),
        (NEG_EXISTS, ("hasCourse", "bob")),
    )
    assert cs.text() == "{-exists hasCourse(bob), DeptMember(bob)}"


def test_unforced_exception_is_not_justified(k_dept):
    chi = frozenset({CA_ALICE, CA_BOB})
    ok, cs = check_justified(k_dept, chi, CA_ALICE)
    assert (ok, cs) == (False, None)
    assert check_justified(k_dept, chi, CA_BOB)[0]


def test_check_justified_preconditions(k_dept):
    with pytest.raises(ValueError, match="not in chi"):
        check_justified(k_dept, frozenset(), CA_BOB)
    fake = K.ClashingAssumption(
        K.subclass("Professor", "DeptMember"), ("alice",))
    with pytest.raises(ValueError, match="not a candidate"):
        check_justified(k_dept, frozenset({fake}), fake)
    kb = K.DKB.from_axioms(
        strict=(
            K.supnot("A", "B"),
            K.concept_assertion("A", "a"),
            K.concept_assertion("B", "a"),
        ),
        defeasible=(K.concept_assertion("C", "c"),),
    )
    ca = K.ClashingAssumption(K.concept_assertion("C", "c"), ())
    with pytest.raises(ValueError, match="consistent"):
        check_justified(kb, frozenset({ca}), ca)


# --- oracle_models ---


def test_oracle_models_dept(k_dept):
    result = oracle_models(k_dept)
    assert len(result) == 1
    chi, model = result[0]
    assert chi == frozenset({CA_BOB})
    assert model.holds(("DeptMember", ("bob",)))
    assert ("hasCourse", ("bob", "sk_0(alice)")) in model.negatives


def test_oracle_models_strict_only_kb_has_empty_exception_set():
    kb = K.DKB.from_axioms(
        strict=(K.subclass("A", "B"), K.concept_assertion("A", "a")))
    result = oracle_models(kb)
    assert len(result) == 1
    chi, model = result[0]
    assert chi == frozenset()
    assert model.holds(("B", ("a",)))


def test_oracle_models_conflicting_defaults_give_two_models():
    kb = nixon_kb()
    ca_qp = K.ClashingAssumption(K.subclass("Quaker", "Pacifist"), ("nixon",))
    ca_rh = K.ClashingAssumption(K.subclass("Republican", "Hawk"), ("nixon",))
    result = oracle_models(kb)
    by_chi = {chi: model for chi, model in result}
    assert set(by_chi) == {frozenset({ca_qp}), frozenset({ca_rh})}
    assert by_chi[frozenset({ca_qp})].holds(("Hawk", ("nixon",)))
    assert not by_chi[frozenset({ca_qp})].holds(("Pacifist", ("nixon",)))
    assert by_chi[frozenset({ca_rh})].holds(("Pacifist", ("nixon",)))


def test_oracle_models_role_assertion_defaults():
    result = oracle_models(dis_kb())
    assert len(result) == 1
    chi, model = result[0]
    assert chi == {K.ClashingAssumption(K.role_assertion("R", "a", "b"), ())}
    assert ("R", ("a", "b")) in model.negatives

    result = oracle_models(subrole_kb())
    assert len(result) == 1
    chi, model = result[0]
    assert not model.positives
    assert {("S", ("a", "b")), ("R", ("a", "b"))} <= model.negatives


def test_oracle_models_is_deterministic(k_dept):
    assert oracle_models(k_dept) == oracle_models(k_dept)
    kb = nixon_kb()
    assert oracle_models(kb) == oracle_models(kb)


# --- invariants over the fixture family ---


def fixture_kbs(k_dept):
    return (k_dept, nixon_kb(), dis_kb(), subrole_kb())


def test_consistency_is_monotone_in_the_exception_set(k_dept):
    for kb in fixture_kbs(k_dept):
        candidates = K.ca_candidates(kb)
        consistent = {}
        for k in range(len(candidates) + 1):
            for combo in itertools.combinations(candidates, k):
                chi = frozenset(combo)
                consistent[chi] = chase(kb, chi) is not INCONSISTENT
        for chi, ok in consistent.items():
            if not ok:
                continue
            for bigger in consistent:
                if chi <= bigger:
                    assert consistent[bigger], \
                        f"superset of consistent chi became inconsistent: {bigger}"


def entry_holds(model: HerbrandModel, shape: str, args: tuple) -> bool:
    if shape == K.CONCEPT_ASSERTION:
        return (args[0], (args[1],)) in model.positives
    if shape == K.ROLE_ASSERTION:
        return (args[0], (args[1], args[2])) in model.positives
    if shape == K.NEG_CONCEPT_ASSERTION:
        return (args[0], (args[1],)) in model.negatives
    if shape == K.NEG_ROLE_ASSERTION:
        return (args[0], (args[1], args[2])) in model.negatives
    if shape == POS_EXISTS:
        return any(n == args[0] and a[0] == args[1]
                   for n, a in model.positives)
    if shape == NEG_EXISTS:
        return all((args[0], (args[1], f)) in model.negatives
                   for f in model.universe)
    raise AssertionError(f"unexpected clashing-set entry shape {shape}")


def test_every_exception_of_every_model_has_a_valid_witness(k_dept):
    checked = 0
    for kb in fixture_kbs(k_dept):
        for chi, model in oracle_models(kb):
            for ca in chi:
                ok, cs = check_justified(kb, chi, ca)
                assert ok and cs is not None
                for shape, args in cs.entries:
                    assert entry_holds(model, shape, args), \
                        f"witness entry fails in model: {shape} {args}"
                checked += 1
    assert checked >= 4


# --- oracle_answer ---


def test_oracle_answer_dept_queries(k_dept):
    assert oracle_answer(k_dept, K.concept_assertion("DeptMember", "alice"))
    assert oracle_answer(k_dept, K.concept_assertion("DeptMember", "bob"))
    assert oracle_answer(k_dept, K.role_assertion("hasCourse", "alice", "aux_0"))
    assert not oracle_answer(k_dept, K.role_assertion("hasCourse", "bob", "aux_0"))
    assert oracle_answer(k_dept, K.neg_role_assertion("hasCourse", "bob", "aux_0"))
    assert not oracle_answer(k_dept, K.concept_assertion("Professor", "bob"))


def _successor_kb(other: str) -> K.DKB:
    """b has an R-successor, which is B through Inv(R,S) and
    `exists S [= B`; the individual `other` is B in no model."""
    return K.DKB.from_axioms(
        strict=(K.concept_assertion("A", "b"), K.supex("A", "R"),
                K.inv("R", "S"), K.subex("S", "B")),
        individuals=("b", other))


def test_a_name_outside_the_grammar_cannot_pose_as_a_column():
    # Once accepted, an individual `~aux0` shared the name of the merged
    # column of `A [= exists R`, and oracle_answer(B(~aux0)) said True.
    with pytest.raises(ValueError):
        _successor_kb("~aux0")


def test_an_individual_named_like_an_aux_constant_keeps_its_own_verdict():
    kb = _successor_kb("aux_0")
    assert kb.aux_constants() == ("aux__0",)
    assert not oracle_answer(kb, K.concept_assertion("B", "aux_0"))
    assert oracle_answer(kb, K.concept_assertion("B", "aux__0"))
    assert oracle_answer(kb, K.role_assertion("S", "aux__0", "b"))


def test_oracle_answer_rejects_non_assertion_queries(k_dept):
    with pytest.raises(ValueError, match="assertion"):
        oracle_answer(k_dept, K.subclass("Professor", "DeptMember"))


# --- independence ---


def _package_imports(path: pathlib.Path) -> set[str]:
    """The names a module imports from the dkblite package, relative to
    it: "kb" for `from . import kb`, "engine.X" for `from .engine import
    X`."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {a.name.removeprefix("dkblite.") for a in node.names
                      if a.name.split(".")[0] == "dkblite"}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "dkblite":
                    continue
                module = module.removeprefix("dkblite").lstrip(".")
            names |= {f"{module}.{a.name}".lstrip(".") for a in node.names}
    return names


def test_oracle_is_independent_of_the_translation():
    # The oracle is the reference the program pipeline is checked
    # against, so it may use the domain model and the INCONSISTENT
    # marker, but nothing of translate, program, reasoner, parser,
    # normalize or cli.
    path = pathlib.Path(dkblite.oracle.__file__)
    assert _package_imports(path) == {"kb", "engine.INCONSISTENT"}
