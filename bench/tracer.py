"""Outside-in tracer: spans and sizes recorded around each layer's public
functions, from the benchmark's side of the call.

Every binding of a traced function in a loaded ``dkblite`` module is
replaced by one wrapper, so calls are seen whichever module makes them.
Submodules are reached through ``sys.modules``: the package ``__init__``
rebinds ``dkblite.translate`` and ``dkblite.normalize`` to the functions.

Sizes are the benchmark's own definitions, computed from the returned
``GroundProgram`` with a fixpoint that lives here, so no engine change can
redefine them.  Their cost sits in a ``trace.sizes`` span, which is a child
of the caller's span and so never counts as any layer's self time.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import sys
import time

# layer name -> (module, public functions of that layer)
LAYERS = {
    "parser": ("dkblite.parser", ("parse_dkb", "parse_query")),
    "normalize": ("dkblite.normalize", ("normalize",)),
    "reductions": ("dkblite.reductions", ("from_inconsistent_kb",)),
    "translate": ("dkblite.translate", ("translate",)),
    "engine.ground": ("dkblite.engine", ("ground",)),
    "engine.reduct": ("dkblite.engine", ("reduct",)),
    "engine.least_model": ("dkblite.engine", ("least_model",)),
    "engine.answer_sets": ("dkblite.engine", ("answer_sets",)),
    "reasoner": ("dkblite.reasoner",
                 ("satisfiable", "entails", "justified_models", "json_report")),
    "cli": ("dkblite.cli", ("main",)),
}

# Schema rules that make grounding quadratic in the constant pool.
QUADRATIC_RULES = ("dl_subex", "dl_nsubex", "dl_chain2")

SIZES = ("translate.facts", "engine.ground.rules", "engine.ground.atoms",
         *(f"engine.ground.rules.{r}" for r in QUADRATIC_RULES),
         "engine.ground.live_rules", "engine.answer_sets.universe",
         "engine.answer_sets.branchable", "engine.answer_sets.models")


def over_approximation(gp) -> tuple[set, int]:
    """Least model of gp with every NAF literal dropped and no consistency
    check, and the number of rules whose positive body lies inside it."""
    missing = []
    watch = collections.defaultdict(list)
    queue = []
    for i, r in enumerate(gp.rules):
        body = set(r.body)
        missing.append(len(body))
        for b in body:
            watch[b].append(i)
        if not body:
            queue.append(r.head)
    model = set()
    while queue:
        a = queue.pop()
        if a in model:
            continue
        model.add(a)
        for i in watch[a]:
            missing[i] -= 1
            if missing[i] == 0:
                queue.append(gp.rules[i].head)
    return model, missing.count(0)


class Tracer:
    """Spans as [name, start, end, parent index, verdict id], in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.verdict = 0
        self.sizes = collections.Counter({k: 0 for k in SIZES})
        self._last_upper = (None, None)  # (GroundProgram, its model)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1,
                           self.verdict])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, layer: str, fn):
        sizer = getattr(self, "_size_" + fn.__name__, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer):
                out = fn(*args, **kwargs)
            if sizer is not None:
                with self.span("trace.sizes"):
                    sizer(args, out)
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of every traced function; restore on exit."""
        restore = []
        for layer, (modname, names) in LAYERS.items():
            home = sys.modules[modname]
            for name in names:
                original = getattr(home, name)
                wrapper = self.wrap(layer, original)
                for mname, mod in list(sys.modules.items()):
                    if mod is None or not mname.startswith("dkblite"):
                        continue
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, attr, wrapper)
                            restore.append((mod, attr, original))
        try:
            yield self
        finally:
            for mod, attr, original in restore:
                setattr(mod, attr, original)

    def _upper(self, gp) -> tuple[set, int]:
        if self._last_upper[0] is not gp:
            self._last_upper = (gp, over_approximation(gp))
        return self._last_upper[1]

    def _size_translate(self, args, p) -> None:
        self.sizes["translate.facts"] += len(p.facts)

    def _size_ground(self, args, gp) -> None:
        self.sizes["engine.ground.rules"] += len(gp.rules)
        self.sizes["engine.ground.atoms"] += len(gp.atoms)
        for r in gp.rules:
            if r.name in QUADRATIC_RULES:
                self.sizes[f"engine.ground.rules.{r.name}"] += 1
        self.sizes["engine.ground.live_rules"] += self._upper(gp)[1]

    def _size_answer_sets(self, args, models) -> None:
        gp = args[0]
        universe = set(gp.ovr_universe)
        for r in gp.rules:
            universe.update(r.naf)
        upper = self._upper(gp)[0]
        self.sizes["engine.answer_sets.universe"] += len(universe)
        self.sizes["engine.answer_sets.branchable"] += len(universe & upper)
        self.sizes["engine.answer_sets.models"] += len(models)

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per layer; self time is a span's duration
        minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {layer: (0, 0.0) for layer in LAYERS}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if name in out:
                calls, self_s = out[name]
                out[name] = (calls + 1, self_s + (end - start - child[i]))
        return out
