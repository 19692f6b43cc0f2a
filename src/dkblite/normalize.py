"""Rewriting surface axioms into the normal form the translator accepts.

Rewrites, each introducing strict helper axioms over fresh helper names
(_N<i> for concepts, _R<i> for roles) while the user's axiom keeps any
defeasibility marker:

    A [= -exists R      ->  exists R [= _Ni,  A [= -_Ni
    exists R(a)         ->  _Ni(a),  _Ni [= exists R
    -exists R(a)        ->  exists R [= _Ni,  -_Ni(a)
    R^- in a role position (other than a role assertion)
                        ->  fresh role _Rj with Inv(R,_Rj), _Rj used in place
    R^-(a,b) / -R^-(a,b) ->  R(b,a) / -R(b,a)

The parser rejects `R^-(a,b)`, so the last rewrite applies only to a
SurfaceKB built in code.

Helper names are shared: two axioms needing the same helper for the same
role reuse it.  They are names of kb.NAME, so rendered output parses back;
normal-form axioms pass through unchanged, so the rewriting is idempotent.
"""

from __future__ import annotations

from . import kb as K
from . import parser as P


def _surface_view(kb: K.DKB | P.SurfaceKB) -> P.SurfaceKB:
    if isinstance(kb, P.SurfaceKB):
        return kb
    axioms = tuple(P.SurfaceAxiom(a.shape, a.args, False) for a in kb.strict) \
        + tuple(P.SurfaceAxiom(a.shape, a.args, True) for a in kb.defeasible)
    return P.SurfaceKB(axioms, kb.vocabulary.concepts, kb.vocabulary.roles,
                       kb.vocabulary.individuals)


class _Fresh:
    """Helper-name allocator that never collides with names already in
    the input (which can itself be normalizer output)."""

    def __init__(self, taken: set[str]):
        self.next = max((int(n[2:]) + 1 for n in taken
                         if n[:2] in ("_N", "_R") and n[2:].isdecimal()),
                        default=0)

    def __call__(self, family: str) -> str:
        """The next name of a family: "N" for concepts, "R" for roles."""
        name = f"_{family}{self.next}"
        self.next += 1
        return name


def _split_role(term: str) -> tuple[str, bool]:
    if term.endswith("^-"):
        return term[:-2], True
    return term, False


def normalize(kb: K.DKB | P.SurfaceKB) -> K.DKB:
    """Rewrite every surface axiom; returns a normal-form DKB whose
    vocabulary keeps all declared names plus the helpers."""
    skb = _surface_view(kb)
    taken = set(skb.concepts) | set(skb.roles) | set(skb.individuals)
    for ax in skb.axioms:
        taken.update(_split_role(t)[0] for t in ax.args)
    fresh = _Fresh(taken)

    helpers: list[K.Axiom] = []
    inv_roles: dict[str, str] = {}
    subex_helper: dict[str, str] = {}
    supex_helper: dict[str, str] = {}

    def role_in_place(term: str) -> str:
        """Role usable where an inverse marker needs a real role name."""
        base, inverted = _split_role(term)
        if not inverted:
            return base
        if base not in inv_roles:
            name = fresh("R")
            inv_roles[base] = name
            helpers.append(K.inv(base, name))
        return inv_roles[base]

    def neg_ex_concept(term: str) -> str:
        """_N with strict `exists r [= _N`: holds exactly of constants
        with an r-successor, so -_N(x) expresses having none."""
        r = role_in_place(term)
        if r not in subex_helper:
            name = fresh("N")
            subex_helper[r] = name
            helpers.append(K.subex(r, name))
        return subex_helper[r]

    def ex_concept(term: str) -> str:
        """_N with strict `_N [= exists r`: asserting _N(a) grants a an
        r-successor."""
        r = role_in_place(term)
        if r not in supex_helper:
            name = fresh("N")
            supex_helper[r] = name
            helpers.append(K.supex(name, r))
        return supex_helper[r]

    strict: list[K.Axiom] = []
    defeasible: list[K.Axiom] = []

    for ax in skb.axioms:
        out = defeasible if ax.defeasible else strict
        s, a = ax.shape, ax.args
        if s in (K.ROLE_ASSERTION, K.NEG_ROLE_ASSERTION):
            base, inverted = _split_role(a[0])
            args = (base, a[2], a[1]) if inverted else (base, a[1], a[2])
            out.append(K.Axiom(s, args))
        elif s == P.NEG_SUPEX:
            out.append(K.supnot(a[0], neg_ex_concept(a[1])))
        elif s == P.EXISTS_ASSERTION:
            out.append(K.concept_assertion(ex_concept(a[0]), a[1]))
        elif s == P.NEG_EXISTS_ASSERTION:
            out.append(K.neg_concept_assertion(neg_ex_concept(a[0]), a[1]))
        else:
            out.append(K.Axiom(s, tuple(
                role_in_place(t) if sort == "role" else t
                for t, sort in zip(a, K.SORTS[s]))))

    strict += helpers
    minted_concepts = tuple(sorted(
        set(subex_helper.values()) | set(supex_helper.values())))
    minted_roles = tuple(sorted(inv_roles.values()))
    return K.DKB.from_axioms(
        strict, defeasible,
        individuals=skb.individuals,
        concepts=tuple(skb.concepts) + minted_concepts,
        roles=tuple(skb.roles) + minted_roles)
