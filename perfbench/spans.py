"""Spans around the library's public functions, installed from outside.

``Tracer.install()`` replaces each listed function with a wrapper in every
``crystaljet`` module that bound it (``from .abelian import kernel_basis``
binds a second name) and replaces each listed method on its class;
``uninstall()`` puts the originals back.  Nothing under ``src/`` changes.

Per wrapped name the tracer keeps inclusive time (a call nested inside a
call of the same name adds no inclusive time), self time (duration minus
the time covered by direct child spans) and the call count.  Counters are
computed from the arguments the wrapper sees.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (metric prefix, module, attribute path)
TARGETS = (
    ("cli.run", "crystaljet.cli", "run"),
    ("corpus.mhd_system", "crystaljet.corpus", "mhd_system"),
    ("jets.load_system", "crystaljet.jets", "load_system"),
    ("jets.prolong_system", "crystaljet.jets", "prolong_system"),
    ("jets.sample_points", "crystaljet.jets", "sample_points"),
    ("jets.rank_at_point", "crystaljet.jets", "rank_at_point"),
    ("jets.symbol_report", "crystaljet.jets", "symbol_report"),
    ("jets.cartan_distribution_dimension", "crystaljet.jets", "cartan_distribution_dimension"),
    ("diffpoly.DiffPoly.partial", "crystaljet.diffpoly", "DiffPoly.partial"),
    ("diffpoly.DiffPoly.evaluate", "crystaljet.diffpoly", "DiffPoly.evaluate"),
    ("diffpoly.DiffPoly.add", "crystaljet.diffpoly", "DiffPoly.__add__"),
    ("diffpoly.DiffPoly.total_derivative", "crystaljet.diffpoly", "DiffPoly.total_derivative"),
    ("groups.close_group", "crystaljet.groups", "close_group"),
    ("groups.enumerate_subgroups", "crystaljet.groups", "enumerate_subgroups"),
    ("groups.point_groups", "crystaljet.groups", "point_groups"),
    ("abelian.smith_normal_form", "crystaljet.abelian", "smith_normal_form"),
    ("abelian.IntegerMatrix.inverse_unimodular", "crystaljet.abelian",
     "IntegerMatrix.inverse_unimodular"),
    ("abelian.lattice_from_generators", "crystaljet.abelian", "lattice_from_generators"),
    ("abelian.kernel_basis", "crystaljet.abelian", "kernel_basis"),
    ("abelian.solve_integer", "crystaljet.abelian", "solve_integer"),
    ("abelian.quotient_group", "crystaljet.abelian", "quotient_group"),
    ("cohomology.group_cohomology", "crystaljet.cohomology", "group_cohomology"),
    ("cohomology.derivations", "crystaljet.cohomology", "derivations"),
    ("crystal.is_symmorphic", "crystaljet.crystal", "is_symmorphic"),
    ("pdeclass.classify", "crystaljet.pdeclass", "classify"),
    ("pdeclass.classify_singular", "crystaljet.pdeclass", "classify_singular"),
)


def _rank_entries(counters, args):
    rows = args[0]
    counters["jets.rank_at_point.entries"] += len(rows) * (len(rows[0]) if rows else 0)


def _snf_entries(counters, args):
    counters["abelian.smith_normal_form.entries"] += args[0].rows * args[0].cols


def _inverse_dim(counters, args):
    key = "abelian.IntegerMatrix.inverse_unimodular.max_dim"
    counters[key] = max(counters[key], args[0].rows)


def _cochains(counters, args):
    # group_cohomology(g, mod, degree) builds delta_n on C^n and, for n > 0,
    # delta_{n-1} on C^{n-1}; normalized cochains skip the identity
    g, mod, degree = args[:3]
    counters["cohomology.group_cohomology.cochains"] += sum(
        (g.order - 1) ** k * mod.rank for k in (degree, degree - 1) if k >= 0)


COUNTERS = {
    "jets.rank_at_point": _rank_entries,
    "abelian.smith_normal_form": _snf_entries,
    "abelian.IntegerMatrix.inverse_unimodular": _inverse_dim,
    "cohomology.group_cohomology": _cochains,
}

COUNTER_NAMES = (
    "jets.rank_at_point.entries",
    "abelian.smith_normal_form.entries",
    "abelian.IntegerMatrix.inverse_unimodular.max_dim",
    "cohomology.group_cohomology.cochains",
)


def resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self):
        self.stats = {name: [0.0, 0.0, 0] for name, _, _ in TARGETS}  # incl, self, calls
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self._stack = []  # per open span: time covered by its direct children
        self._depth = dict.fromkeys(self.stats, 0)
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        stats, stack, depth, counters = self.stats[name], self._stack, self._depth, self.counters
        count = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(counters, args)
            children = [0.0]
            stack.append(children)
            outer = depth[name]
            depth[name] = outer + 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[name] = outer
                stack.pop()
                if outer == 0:
                    stats[0] += elapsed
                stats[1] += elapsed - children[0]
                stats[2] += 1
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def install(self):
        """Wrap every target wherever a crystaljet module bound it."""
        resolved = [(name, *resolve(module, path)) for name, module, path in TARGETS]
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "crystaljet" or key.startswith("crystaljet."))]
        for name, owner, attr in resolved:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        out = {}
        for name, (incl, self_s, calls) in self.stats.items():
            out[f"{name}.s"] = incl
            out[f"{name}.self_s"] = self_s
            out[f"{name}.calls"] = calls
        out.update(self.counters)
        return out
