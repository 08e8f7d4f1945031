"""The three benchmark workloads: inputs built from a seed, and a fixed list
of operations whose answers are checked against pinned values.

A workload is built by ``build(name, seed)``, which is the set-up step: it
imports what it needs, builds every input and fills the library's lazy
tables.  It returns a list of ``Op``; the worker runs that list in order,
once per pass, and every pass repeats the same list.  An operation may
appear in the list more than once; its time is the mean of its runs.  The seed also
shuffles the list, so that operations of similar cost do not run back to
back: on a shared host, one slow second would otherwise move a whole
quantile.  Operations call the
library through module attributes, never through names bound here, so the
spans installed by ``spans.py`` see every call.

Pinned values come from the published numbers the acceptance suite checks
(148/138, the H^2 counts, the jet dimension chains) and, for the README
commands, from the sha256 of their canonical JSON at the commit that
defined this benchmark.  A speed-up that changes any of them is a failure.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Op:
    """One closed-loop operation: ``run()`` returns the answer, which must
    equal ``expected``."""

    label: str
    run: Callable[[], Any]
    expected: Any


# ---------------------------------------------------------------------------
# mhd-contact: the plasma model through parse and Cartan distribution rank
# ---------------------------------------------------------------------------

# the constants the corpus test re-instantiates; cc and pi4 stay at 1
_MHD_VARIED = ("rho", "chi", "nu", "cv", "mu0", "mubar", "eps0", "epsbar")
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _system_document(system) -> str:
    import yaml

    return yaml.safe_dump({
        "name": system.name,
        "independent": list(system.independent),
        "dependent": list(system.dependent),
        "order": system.order,
        "equations": system.render_equations(),
        "solve_stages": [[[i, tok] for i, tok in stage] for stage in system.solve_stages],
    }, width=1 << 20)


def _mhd_contact(rng) -> list[Op]:
    from crystaljet import corpus, jets

    ops = []
    for boundary, expected in ((False, 148), (True, 138)):
        # distinct primes keep every instantiation coefficient-generic
        constants = dict(zip(_MHD_VARIED, rng.sample(_PRIMES, len(_MHD_VARIED))))
        doc = _system_document(corpus.mhd_system(boundary=boundary, constants=constants))
        sampling_seed = rng.randrange(1, 2**31)

        def run(doc=doc, sampling_seed=sampling_seed):
            return jets.cartan_distribution_dimension(jets.load_system(doc), seed=sampling_seed)

        ops.append(Op(f"mhd boundary={boundary} seed={sampling_seed}", run, expected))
    return ops


# ---------------------------------------------------------------------------
# h2-sweep: H^2 of every wallpaper arithmetic class, plus H^2(D_4h; Z)
# ---------------------------------------------------------------------------

# H^2(G; Z^2, natural action) per arithmetic class, keyed by the class's
# first wallpaper group; the orders are those of
# test_h2_counts_extension_classes_per_arithmetic_class (total 18)
_H2_EXPECTED = {"pm": "Z/2", "p4m": "Z/2", "pmm": "Z/2 x Z/2"}
SMALL_GROUP_RUNS = 10


def _small_bases():
    """GL(2, Z) matrices with entries in {-1, 0, 1}, split into the signed
    permutations, which only relabel and negate coordinates, and the rest,
    which shear the basis and make the conjugated entries grow."""
    from crystaljet.abelian import IntegerMatrix

    permutations, shears = [], []
    for a, b, c, d in itertools.product((-1, 0, 1), repeat=4):
        if a * d - b * c in (1, -1):
            m = IntegerMatrix([[a, b], [c, d]])
            (permutations if 0 in (a, b) and 0 in (c, d) else shears).append(m)
    return permutations, shears


def _h2_sweep(rng) -> list[Op]:
    from crystaljet import cohomology
    from crystaljet.abelian import FgAbelianGroup
    from crystaljet.cohomology import GModule
    from crystaljet.crystal import wallpaper_groups
    from crystaljet.groups import point_group

    classes = {}
    for wname, g in wallpaper_groups().items():
        classes.setdefault(frozenset(g.point_group.elements), (wname, g.point_group))
    permutations, shears = _small_bases()
    ops = []
    for wname, g in classes.values():
        # each class in one permuted and two sheared bases: entry growth
        # shows on every seed, and three draws vary less than one
        for basis in (rng.choice(permutations), *rng.sample(shears, 2)):
            conj = g.conjugated(basis)

            def run(conj=conj):
                return str(cohomology.group_cohomology(conj, GModule.natural(conj), 2))

            op = Op(f"H2 {wname} P={basis.entries}", run, _H2_EXPECTED.get(wname, "0"))
            # on groups of at most four elements an operation takes a few
            # milliseconds, and one slow second of a shared host can double
            # a single timing: such operations run ten times, spread through
            # the pass by the shuffle, and are timed by the mean of their runs
            ops.extend([op] * (SMALL_GROUP_RUNS if g.order <= 4 else 1))
    rng.shuffle(ops)
    # the long D_4h operation runs first, so the short ones do not carry the
    # first-execution costs of the shared SNF and lattice code
    d4h = point_group("D_4h")
    trivial_z = GModule.trivial(d4h, FgAbelianGroup.free(1))
    d4h_op = Op("H2 D_4h Z", lambda: str(cohomology.group_cohomology(d4h, trivial_z, 2)),
                "Z/2 x Z/2 x Z/2")
    return [d4h_op] + ops


# ---------------------------------------------------------------------------
# corpus-small: every README-scale input, in process
# ---------------------------------------------------------------------------

# (argv, exit code, sha256 of stdout) for the README commands run with
# --format json, as produced at the commit that defined this benchmark
_README_COMMANDS = (
    (["bordism", "unoriented", "--n", "4"], 0,
     "ce91673cf67e15e9942393bb60302a97300ae0f3b70cc30079117285370a572e"),
    (["bordism", "relative", "--betti", "1,2,1", "--p", "1"], 0,
     "36c22d239847c2164ec2fcf65fc942c3e28e48799ee12863e88df6a183f384c1"),
    (["bordism", "crystal-group", "--group", "Z/2 x Z/2"], 0,
     "876c4a08792e9a9676589cc5931cb27d3c673be377e616107de97e2e8c89a015"),
    (["tables", "pointgroup", "C_3", "--verify"], 2,
     "4eef7c63cc851b9dd743e606de91bfbc9181e0d339993065435c533c88e31850"),
    (["tables", "spacegroups", "--filter", "Cubic"], 0,
     "32f23b1684d6001aeb509e9e01b75b1f91cc2a5c58a27ce8fda2b7cab3b66b43"),
    (["tables", "wallpaper", "p4m"], 0,
     "6ce4c6aa83ef18ce07fc4b65ad4e284d0f17bb23e3c4d142b6f3f0d63ed879e6"),
    (["tables", "validate", "--expect-known-errata"], 0,
     "1bca9d2596506f01cce18ab0f4adad500fe00129339f3fc9c89f867382b9c256"),
    (["cohomology", "--group", "cyclic:4", "--module", "Z", "--degree", "2"], 0,
     "c85a90c65283763a2132320714baefe212c4500b7f727249d27ede56d846666c"),
    (["symmorphic"], 0,
     "d25c217837ea8adc07cb1f326bd329a6b6c97187b1bb0966e0ff425c5df4db46"),
    (["pde", "symbol", "continuity_e1.pde"], 0,
     "2c968f34dfddb0d31bca6ef9c5b031e1acd4533a04e4bd4e57c9087afd450dea"),
    (["pde", "involutivity", "pressure_e2.pde"], 0,
     "410c82ca546a359075f2ec0f3bb8b64d87d84e442fb6f771f0ad2bb8648f271f"),
    (["pde", "classify", "navier_stokes.desc"], 0,
     "422397752344750fc64a0a5a58652e7ad911a5df8e7aeebda860031a7e2a950d"),
    (["pde", "singular-classify", "mhd_singular.desc"], 0,
     "72c9fd607984dda473b4fecc831f8a422276ae4164cce8b4ab4a4b72729e95c9"),
    (["pde", "verify-solution", "heat.pde", "--section", "u=a*x+b"], 0,
     "08cd893f634dadad035e93f4293eb35fc7d9e73b3711321def3d14767de75240"),
)

# (dim E, g^(i) dims, dim g+1, dim E+1, ambient jet dim, PASS, contact dim);
# the first three chains and heat's ambient dimension are acceptance
# criterion 3, the rest are their values at the commit that defined this
# benchmark, stable across sampling seeds
_PDE_EXPECTED = {
    "continuity_e1.pde": (14, (8, 5, 2, 0), 15, 29, 15, True, 11),
    "dalembert.pde": (7, (2, 1, 0), 2, 9, 8, False, 4),
    "heat.pde": (7, (2, 0, 0), 2, 9, 8, True, 4),
    "pressure_e2.pde": (12, (5, 2, 0, 0), 7, 19, 13, True, 8),
    "table4_component.pde": (8, (3, 0, 0), 3, 11, 11, True, 5),
    "tricomi.pde": (7, (2, 0, 0), 2, 9, 8, True, 4),
    "uxx_uyy.pde": (6, (1, 0, 0), 0, 6, 8, False, 3),
}

# sha256 of the canonical JSON of each descriptor's classification
_DESCRIPTORS = {
    "dalembert_t2.desc":
        "ff528cbf0a30dbf1ab9650cf952f29ebbe89e5b1752be07a88973bf0e1e683bf",
    "fourier.desc":
        "2966f036e0cf76b116ff5b6a6a54936f26b33792e702c5d4fdafc4dd24d50f63",
    "mhd_singular.desc":
        "6789b4ef1574a2f8874eb2f7991b3703d65d188c7f8d612d6d097a271d373fbe",
    "navier_stokes.desc":
        "bf5065ba99e74a8958337a8aff3a9da81d7e54ed1b69bee0b753a3f710a9ea90",
    "ricci_flow.desc":
        "620a6520c2c17e4f99a53861065451a74d79a3c851301825266000d84a2e8901",
    "table4_singular.desc":
        "f6b5389fcc5b69c11bac0afb4320d4cddbd8b29a068600ee35c192c681a817ce",
    "tricomi_rp2.desc":
        "8eace6c2193e97f24fc918c71dbfd2da9f71b8f9bf6329b8b508b1c248fe53d5",
    "tricomi_s2.desc":
        "e859b78cf01a2f34174dd65f3415d11958010ff55eccee3c41a943c575dc12c2",
    "tricomi_t2.desc":
        "9bd02be0e0929ac335483d8bea1e5634f8654249e13a70cf60893c964be94a87",
}

# nondyadic partition counts q(n): the unoriented bordism group is (Z/2)^q(n)
_BORDISM_RANKS = (1, 0, 1, 0, 2, 1, 3, 1, 5, 3, 8, 5, 12)

_MODULE_GROUPS = ("C_2", "C_s", "C_i", "C_2v", "D_2", "C_2h", "C_4", "S_4", "C_3", "C_4v")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _corpus_small(rng) -> list[Op]:
    from crystaljet import bordism, cli, cohomology, crystal, groups, jets, pdeclass
    from crystaljet.abelian import FgAbelianGroup, IntegerMatrix
    from crystaljet.cohomology import GModule, group_cohomology_cyclic
    from crystaljet.data import data_path

    # fill the lazy tables the commands read
    groups.point_groups()
    groups.point_groups_2d()
    groups.appendix_b_tables()
    crystal.spacegroup_table()
    crystal.wallpaper_table()
    crystal.wallpaper_groups()
    crystal.appendix_c_products()
    crystal.appendix_d_tables()

    ops = []
    for argv, code, digest in _README_COMMANDS:
        def run(argv=argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.run(argv + ["--format", "json"])
            return rc, _sha(out.getvalue())

        ops.append(Op("cli " + " ".join(argv), run, (code, digest)))

    for fname, (dim_e, g_dims, g1, e1, ambient, passed, contact) in _PDE_EXPECTED.items():
        system = jets.load_system(str(data_path(fname)))

        def symbol(system=system, seed=rng.randrange(1, 2**31)):
            r = jets.symbol_report(system, seed=seed)
            return r.dim_e, tuple(r.g_dims), r.dim_g_plus_1, r.dim_e_plus_1, r.ambient_jet_dim

        def integrability(system=system, seed=rng.randrange(1, 2**31)):
            return jets.formal_integrability_check(system, seed=seed).passed

        def contact_dim(system=system, seed=rng.randrange(1, 2**31)):
            return jets.cartan_distribution_dimension(system, seed=seed)

        ops.append(Op(f"symbol_report {fname}", symbol, (dim_e, g_dims, g1, e1, ambient)))
        ops.append(Op(f"formal_integrability_check {fname}", integrability, passed))
        ops.append(Op(f"cartan_distribution_dimension {fname}", contact_dim, contact))

    for fname, digest in _DESCRIPTORS.items():
        desc = pdeclass.load_descriptor(str(data_path(fname)))

        def run(desc=desc):
            if isinstance(desc, pdeclass.SingularPdeDescriptor):
                result = pdeclass.classify_singular(desc)
            else:
                result = pdeclass.classify(desc)
            return _sha(cli.canonical_json(result.to_json_dict()))

        ops.append(Op(f"classify {fname}", run, digest))

    for n, q in enumerate(_BORDISM_RANKS):
        ops.append(Op(f"unoriented_bordism {n}", lambda n=n: bordism.unoriented_bordism(n),
                      FgAbelianGroup.z2_power(q)))

    for order in (2, 3, 4, 5):
        shift = [[1 if i == (j + 1) % order else 0 for j in range(order)] for i in range(order)]
        g = groups.close_group([IntegerMatrix(shift)])
        mod = GModule.trivial(g, FgAbelianGroup.free(1))
        for degree in range(4):
            ops.append(Op(f"H^{degree}(cyclic:{order}; Z)",
                          lambda g=g, mod=mod, degree=degree:
                              cohomology.group_cohomology(g, mod, degree),
                          group_cohomology_cyclic(order, degree)))

    # acceptance criterion 7: H^1 from derivations equals H^1 from the bar
    # complex.  Every (group, action) pair appears once per pass and the seed
    # draws the coefficients.  With a free draw of pairs the pass time would
    # follow the number of C_4v natural modules drawn: one takes about 0.5 s,
    # most of the others a few milliseconds.
    for gname in _MODULE_GROUPS:
        g = groups.point_group(gname)
        for kind in ("trivial", "sign", "natural"):
            if kind == "trivial":
                n = rng.choice([2, 3, 4, 6])
                mod = GModule.trivial(g, FgAbelianGroup.cyclic(n))
            elif kind == "sign":
                n = rng.choice([2, 3, 4, 6])
                mod = GModule.sign(g, FgAbelianGroup.cyclic(n))
            else:
                n = rng.choice([2, 3, 4])
                mod = GModule.natural(g, scale_mod=n)

            def run(g=g, mod=mod):
                return cohomology.derivations(g, mod)[2] == cohomology.group_cohomology(g, mod, 1)

            ops.append(Op(f"H1 {gname} {kind} mod {n}", run, True))
    rng.shuffle(ops)
    return ops


_BUILDERS = {"mhd-contact": _mhd_contact, "h2-sweep": _h2_sweep, "corpus-small": _corpus_small}
WORKLOADS = tuple(_BUILDERS)


def build(name: str, seed: int) -> list[Op]:
    return _BUILDERS[name](random.Random(f"{name}/{seed}"))
