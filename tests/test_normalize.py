"""Normal-form rewriting: the four rewrites, helper sharing, idempotence."""

from __future__ import annotations

import pytest

from corpus import (
    corpus_kbs,
    every_shape_kb,
    flat_sample,
    self_pair_kbs,
    surface_fuzz_docs,
)
from dkblite import kb as K
from dkblite import parser as P
from dkblite.normalize import normalize
from dkblite.oracle import oracle_answer
from dkblite.parser import ParseError, parse_dkb, render_dkb


def norm(text: str) -> K.DKB:
    return normalize(parse_dkb(text))


def test_negated_existential_right_side():
    kb = norm("PhDStudent [= -exists hasCourse.")
    assert set(kb.strict) == {
        K.subex("hasCourse", "_N0"),
        K.supnot("PhDStudent", "_N0"),
    }
    assert kb.defeasible == ()


def test_inverse_role_via_fresh_role():
    kb = norm("A [= exists R^-.")
    assert set(kb.strict) == {
        K.supex("A", "_R0"),
        K.inv("R", "_R0"),
    }


def test_exists_assertion_via_carrier_concept():
    kb = norm("exists R(a).")
    assert set(kb.strict) == {
        K.concept_assertion("_N0", "a"),
        K.supex("_N0", "R"),
    }


def test_neg_exists_assertion():
    kb = norm("-exists R(a).")
    assert set(kb.strict) == {
        K.neg_concept_assertion("_N0", "a"),
        K.subex("R", "_N0"),
    }


def test_role_assertion_inverse_is_flipped_in_place():
    # The concrete syntax has no R^-(a,b) form; the programmatic surface
    # representation does, and it normalizes by swapping the arguments.
    skb = P.SurfaceKB(axioms=(
        P.SurfaceAxiom(K.ROLE_ASSERTION, ("R^-", "a", "b")),
        P.SurfaceAxiom(K.NEG_ROLE_ASSERTION, ("R^-", "c", "d")),
    ))
    kb = normalize(skb)
    assert kb.strict == (
        K.role_assertion("R", "b", "a"),
        K.neg_role_assertion("R", "d", "c"),
    )
    assert kb.vocabulary.roles == ("R",)


def test_normal_axioms_unchanged():
    kb = norm("A [= B. A(a). Dis(R,S). exists R [= B.")
    assert kb.strict == (
        K.subclass("A", "B"),
        K.concept_assertion("A", "a"),
        K.dis("R", "S"),
        K.subex("R", "B"),
    )


def test_defeasibility_stays_on_the_users_axiom():
    kb = norm("D(A [= -exists R).")
    assert kb.defeasible == (K.supnot("A", "_N0"),)
    assert kb.strict == (K.subex("R", "_N0"),)


def test_helper_sharing_per_role():
    # One _N per role per direction, regardless of how many axioms need it.
    kb = norm("A [= -exists R. B [= -exists R. -exists R(a). exists R(b).")
    helper_subex = [ax for ax in kb.strict if ax.shape == K.SUBEX]
    helper_supex = [ax for ax in kb.strict if ax.shape == K.SUPEX]
    assert len(helper_subex) == 1
    assert len(helper_supex) == 1
    kb2 = norm("A [= -exists R. B [= -exists S.")
    assert len([ax for ax in kb2.strict if ax.shape == K.SUBEX]) == 2


def test_idempotent():
    texts = [
        "A [= -exists R. exists R(a). D(B [= exists S^-). R(a,b).",
        "A [= B. A(a).",
        "D(A [= -exists R^-). -exists R(a).",
    ]
    for text in texts:
        once = norm(text)
        assert normalize(once) == once


def test_every_shape_round_trips_through_surface_text():
    for strict, defeasible in ((True, False), (False, True), (True, True)):
        kb = every_shape_kb(strict, defeasible)
        assert normalize(parse_dkb(render_dkb(kb))) == kb


@pytest.mark.parametrize("name", sorted(K.RESERVED))
def test_a_kb_its_rendering_would_misread_is_refused(name):
    # Rendered, `Irr(a).` read as an irreflexivity axiom, `Ref(a).` was
    # rejected, and `Dis(a,b).` and `Inv(a,b).` read as role axioms; the
    # library now refuses such a KB where it is built.  An individual
    # with the name still renders and reads back.
    for ax in (K.concept_assertion(name, "a"),
               K.role_assertion(name, "a", "b")):
        with pytest.raises(ValueError, match="reserved predicate name"):
            K.DKB.from_axioms(strict=(ax,))
    kb = K.DKB.from_axioms(strict=(K.concept_assertion("A", name),))
    assert normalize(parse_dkb(render_dkb(kb))) == kb


def _up_to_vocabulary_order(kb: K.DKB) -> tuple:
    v = kb.vocabulary
    return (sorted(v.concepts), sorted(v.roles), sorted(v.individuals),
            kb.strict, kb.defeasible)


def _fuzz_normal_forms() -> list[K.DKB]:
    out = []
    for text in surface_fuzz_docs(5000, 17):
        try:
            out.append(normalize(parse_dkb(text)))
        except ParseError:
            pass
    return out


def test_every_normal_form_reads_back():
    # What the library accepts it can print and read back, helper names
    # included: the surface grammar and kb's name rule are one.
    kbs = (corpus_kbs() + self_pair_kbs(400, 11) + flat_sample()
           + [every_shape_kb(s, d) for s in (False, True)
              for d in (False, True)]
           + _fuzz_normal_forms())
    helpers = 0
    for kb in kbs:
        text = render_dkb(kb)
        helpers += "_N" in text or "_R" in text
        back = normalize(parse_dkb(text))
        assert _up_to_vocabulary_order(back) == _up_to_vocabulary_order(kb), \
            text
    # 320 fuzz normal forms name a helper and did not read back while
    # names starting with '_' were reserved; the 321st is a document that
    # itself names `_x`, which that rule rejected outright.
    assert helpers == 321


def test_fresh_names_skip_taken_indices():
    # Normalizer output fed back through a surface round trip must not
    # collide with the _N0 already present.
    once = norm("A [= -exists R.")
    again = normalize(K.DKB.from_axioms(
        once.strict + (K.concept_assertion("A", "a"),),
        once.defeasible,
        individuals=("a",)))
    assert again.vocabulary.concepts == once.vocabulary.concepts \
        + tuple(c for c in again.vocabulary.concepts
                if c not in once.vocabulary.concepts)


def test_dept_negative_closure_end_to_end(k_dept, dept_path):
    # The rewritten negated existential supports deriving that bob has no
    # course at all, which is what justifies overriding the default.
    kb = normalize(parse_dkb(dept_path.read_text()))
    assert kb == k_dept
    assert oracle_answer(kb, K.neg_role_assertion("hasCourse", "bob", "alice"))
    assert oracle_answer(kb, K.neg_role_assertion("hasCourse", "bob", "bob"))
    assert oracle_answer(kb, K.role_assertion("hasCourse", "alice", "aux_0"))
    assert not oracle_answer(kb, K.role_assertion("hasCourse", "bob", "aux_0"))


def test_surface_variants_agree_semantically():
    # The same constraint written with a user-named helper pair instead of
    # the negated-existential sugar entails the same original-name queries.
    sugar = norm("D(M [= exists r). P [= M. P [= -exists r. P(b). M(a).")
    manual = norm("""
        D(M [= exists r). P [= M.
        exists r [= H. P [= -H.
        P(b). M(a).
    """)
    queries = [
        K.concept_assertion(c, i)
        for c in ("M", "P") for i in ("a", "b")
    ] + [
        K.role_assertion("r", i, j)
        for i in ("a", "b") for j in ("a", "b")
    ] + [
        K.neg_role_assertion("r", i, j)
        for i in ("a", "b") for j in ("a", "b")
    ]
    for q in queries:
        assert oracle_answer(sugar, q) == oracle_answer(manual, q), q.text()
