"""Spans around calls into each layer's public functions, installed from
outside the package.

`Tracer.install()` replaces each coarse public function in every maxlin
module namespace that holds it (where its callers look it up) with a wrapper
that records a span: name, start, end, parent span and request. Counts are
taken at the same boundary from the call's arguments and result, after the
span has ended; that time is excluded from every enclosing span. Spans stay
in memory until `layer_metrics()` folds them into per-layer figures.

Per-element helpers (`state_leq`, `mono_*`, `conditional_probability`) are
never wrapped: a span per element would cost more than the work it times.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import defaultdict

MODULES = ("dag", "poset", "model", "transforms", "algebra", "cli")

# function name -> (layer, self-time metric, counter or None)
TARGETS = {
    "transitive_closure": ("dag", "dag.closure_s", "relation_pairs"),
    "order_preserving_maps": ("poset", "poset.lattice_s", "lattice_states"),
    "ideal_lattice": ("poset", "poset.ideals_s", "lattice_states"),
    "incomparable_pairs": ("poset", "poset.incomparable_s", "incomparable_pairs"),
    "hibi_generators": ("algebra", "algebra.generators_s", "generators"),
    "buchberger_check": ("algebra", "algebra.groebner_s", "spairs"),
    "verify_vanishing": ("algebra", "algebra.vanishing_s", None),
    "full_distribution": ("model", "model.distribution_s", "states_evaluated"),
    "oracle_distribution": ("model", "model.oracle_s", "oracle_vectors"),
    "oracle_equivalence_check": ("model", "model.oracle_check_s", None),
    "cbn_correspondence_check": ("model", "model.cbn_s", None),
    "zeta_transform": ("transforms", "transforms.zeta_s", "pair_visits"),
    "moebius_inverse": ("transforms", "transforms.moebius_s", "pair_visits"),
    "zeta_factorization_check": ("transforms", "transforms.factorization_s", None),
    "roundtrip_check": ("transforms", "transforms.roundtrip_s", None),
    "main": ("cli", "cli.self_s", None),
}


COUNTS = (
    "dag.relation_pairs",
    "poset.states",
    "poset.incomparable_pairs",
    "algebra.generators",
    "algebra.spairs",
    "algebra.spairs_coprime",
    "model.states_evaluated",
    "model.oracle_vectors",
    "transforms.pair_visits",
)


def _count(kind: str, args: tuple, kwargs: dict, result) -> dict[str, int]:
    """Work counts read from the call's arguments and result only."""
    if kind == "relation_pairs":
        return {"dag.relation_pairs": len(result.relation)}
    if kind == "lattice_states":
        return {"poset.states": len(result)}
    if kind == "incomparable_pairs":
        return {"poset.incomparable_pairs": len(result)}
    if kind == "generators":
        return {"algebra.generators": len(result)}
    if kind == "states_evaluated":
        return {"model.states_evaluated": len(result)}
    if kind == "oracle_vectors":
        dag = args[0] if args else kwargs["dag"]
        return {"model.oracle_vectors": dag.k**dag.n}
    if kind == "pair_visits":
        lattice = args[1] if len(args) > 1 else kwargs["lattice"]
        return {"transforms.pair_visits": len(lattice) ** 2}
    if kind == "spairs":
        return spair_counts(*args, **kwargs)
    raise KeyError(kind)


def spair_counts(generators, order=None) -> dict[str, int]:
    """S-pairs the Buchberger check must consider, and how many of them have
    coprime leading monomials (the pairs Buchberger's first criterion may
    skip), from the public `default_lattice_order(...).leading_term`."""
    from maxlin.algebra import default_lattice_order

    if order is None:
        order = default_lattice_order(generators)
    supports = [
        frozenset(var for var, _ in order.leading_term(gen.polynomial())[0])
        for gen in generators
    ]
    coprime = sum(
        1
        for i, a in enumerate(supports)
        for b in supports[i + 1 :]
        if a.isdisjoint(b)
    )
    return {"algebra.spairs": math.comb(len(supports), 2), "algebra.spairs_coprime": coprime}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, excluded, request]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.request_counts: dict[str, dict[str, int]] = defaultdict(dict)
        self.errors: dict[str, int] = defaultdict(int)
        self.request = None
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every target in every maxlin module namespace holding it."""
        wrappers = {}
        for module_name in MODULES:
            module = importlib.import_module(f"maxlin.{module_name}")
            for name in TARGETS:
                original = getattr(module, name, None)
                if original is None or getattr(original, "__module__", "").split(".")[0] != "maxlin":
                    continue
                if original not in wrappers:
                    wrappers[original] = self._wrap(name, original)
                self._originals.append((module, name, original))
                setattr(module, name, wrappers[original])

    def uninstall(self) -> None:
        for module, name, original in reversed(self._originals):
            setattr(module, name, original)
        self._originals.clear()

    def _wrap(self, name: str, fn):
        layer, _, counter = TARGETS[name]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            span = [name, clock(), 0.0, parent, 0.0, self.request]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                span[2] = clock()
                self.stack.pop()
            if counter is not None:
                per_request = self.request_counts[self.request]
                for key, value in _count(counter, args, kwargs, result).items():
                    self.counts[key] += value
                    per_request[key] = per_request.get(key, 0) + value
                span[4] = clock() - span[2]
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.request_counts.clear()
        self.errors.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Self time per metric (a span's duration minus what its child spans
        and the counting after them cover), counts, and errors per layer."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, excluded, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start + excluded
        out: dict[str, float] = {metric: 0.0 for _, metric, _ in TARGETS.values()}
        for (name, start, end, *_), inner in zip(self.spans, covered):
            out[TARGETS[name][1]] += end - start - inner
        out.update({name: self.counts.get(name, 0) for name in COUNTS})
        for layer in MODULES:
            out[f"{layer}.errors"] = self.errors.get(layer, 0)
        return out
