"""Command-line surface: table queries, dataset validation, bordism and
cohomology computations, symmorphism tests and PDE analysis.

Exit codes: 0 success, 1 usage or internal error, 2 validation mismatches
(suppressed by --expect-known-errata when every finding is a recorded
erratum).  All numeric output is exact; JSON is canonical (sorted keys,
no floats) and round-trips byte-identically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

from . import jets
from .abelian import FgAbelianGroup, IntegerMatrix
from .bordism import (
    crystal_group_of,
    nondyadic_partition_count,
    oriented_bordism,
    paper_crystal_assignment,
    relative_bordism,
    unoriented_bordism,
    Z2_RANK_BOUND,
    UnassignedInPaper,
    NotCrystalShapedGroup,
)
from .cohomology import GModule, group_cohomology
from .crystal import (
    appendix_c_products,
    commuting_involutions_check,
    is_symmorphic,
    spacegroup_table,
    spacegroup_table_query,
    wallpaper_groups,
    wallpaper_info,
    wallpaper_subgroups,
    wallpaper_table,
)
from .data import data_path, load_lines
from .groups import (
    INTERNATIONAL,
    close_group,
    enumerate_subgroups,
    parse_matrix,
    point_group,
    point_groups,
    point_groups_2d,
    validate_appendix_b,
)
from .pdeclass import SingularPdeDescriptor, classify, classify_singular, load_descriptor


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _resolve_path(path: str) -> str:
    if os.path.exists(path):
        return path
    candidate = data_path(os.path.basename(path))
    if candidate.is_file():
        return str(candidate)
    raise FileNotFoundError(path)


# ---------------------------------------------------------------------------
# dataset validation
# ---------------------------------------------------------------------------

POINT_GROUP_DOCUMENTED_ORDERS = {
    "C_1": 1, "C_i": 2, "C_s": 2, "C_2": 2, "C_3": 3, "C_4": 4, "C_6": 6,
    "C_2h": 4, "C_3h": 6, "C_4h": 8, "C_6h": 12,
    "C_2v": 4, "C_3v": 6, "C_4v": 8, "C_6v": 12,
    "D_2": 4, "D_3": 6, "D_4": 8, "D_6": 12,
    "D_2h": 8, "D_3h": 12, "D_4h": 16, "D_6h": 24,
    "D_2d": 8, "D_3d": 12, "S_4": 4, "S_6": 6,
    "T": 12, "T_h": 24, "O": 24, "T_d": 24, "O_h": 48,
}


@dataclass
class ValidationReport:
    dataset: str
    checks_run: int = 0
    mismatches: list = field(default_factory=list)

    def add(self, location, published, computed, kind):
        # each entry keeps the dataset it was found in, which the errata
        # verdict reads after merging; the JSON leaves it out
        self.mismatches.append(
            {
                "dataset": self.dataset,
                "location": location,
                "published": str(published),
                "computed": str(computed),
                "class": kind,
            }
        )

    def add_table_mismatches(self, mismatches):
        for mm in mismatches:
            self.add(mm.location, mm.published, mm.computed, mm.kind)

    def merge(self, other: "ValidationReport"):
        self.checks_run += other.checks_run
        self.mismatches.extend(other.mismatches)

    def to_json_dict(self):
        return {
            "dataset": self.dataset,
            "checks_run": self.checks_run,
            "mismatches": [
                {k: v for k, v in m.items() if k != "dataset"} for m in self.mismatches
            ],
        }


def load_known_errata() -> set:
    out = set()
    for line in load_lines("errata.dat"):
        dataset, location, kind = (tok.strip() for tok in line.split("|"))
        out.add((dataset, location, kind))
    return out


def validate_point_group_tables() -> ValidationReport:
    report = ValidationReport("appendix_b")
    groups = point_groups()
    report.checks_run += 1
    if len(groups) != 32:
        report.add("point group count", 32, len(groups), "DatasetError")
    for name, g in groups.items():
        report.checks_run += 1
        want = POINT_GROUP_DOCUMENTED_ORDERS[name]
        if g.order != want:
            report.add(f"{name} order", want, g.order, "OrderMismatch")
        result = validate_appendix_b(name)
        report.checks_run += 1
        report.add_table_mismatches(result.mismatches)
        # every computed subgroup satisfies Lagrange by construction; check
        report.checks_run += 1
        for rec in result.subgroups:
            if rec.order * rec.index != g.order:
                report.add(
                    f"{name} computed {rec.triple()}", "-", "Lagrange failure",
                    "InternalError",
                )
    return report


def validate_space_group_table() -> ValidationReport:
    report = ValidationReport("appendix_a")
    rows = spacegroup_table()
    report.checks_run += 1
    total = sum(r.class_total for r in rows)
    if total != 230:
        report.add("space-group total", 230, total, "TotalMismatch")
    for row in rows:
        report.checks_run += 1
        if row.bravais_total != row.class_total:
            report.add(
                f"{row.syngony} Bravais string",
                row.bravais_total,
                row.class_total,
                "BravaisSumMismatch",
            )
    report.checks_run += 1
    if len(wallpaper_table()) != 17:
        report.add("wallpaper count", 17, len(wallpaper_table()), "TotalMismatch")
    return report


def validate_wallpaper_subgroup_tables() -> ValidationReport:
    """Index consistency for the published plane-group subgroup rows: the
    implied lattice index, index * |P_sub| / |P_sup|, must be a positive
    integer whenever the index is printed."""
    report = ValidationReport("appendix_d")
    groups = wallpaper_groups()
    for rec in wallpaper_table():
        sup_order = groups[rec.name].point_group.order
        for sub, index in wallpaper_subgroups(rec.name):
            if index is None:
                continue
            report.checks_run += 1
            sub_order = groups[sub].point_group.order
            lattice_index = index * sub_order
            if lattice_index % sup_order != 0 or lattice_index // sup_order < 1:
                report.add(
                    f"{rec.name} row ({sub}, {index})",
                    f"index {index}",
                    f"no integral lattice index ({index}*{sub_order}/{sup_order})",
                    "IndexInconsistentInPaper",
                )
    return report


def validate_amalgamated_products() -> ValidationReport:
    report = ValidationReport("appendix_c")
    for product in appendix_c_products():
        report.checks_run += 1
        gens = product.order_two_generators()
        if gens and not commuting_involutions_check(gens):
            report.add(
                product.label,
                "printed as a 3-dimensional subgroup",
                "order-two generators do not commute",
                "ObstructionInPaper",
            )
    return report


def validate_all_tables() -> ValidationReport:
    report = ValidationReport("all")
    for part in (
        validate_point_group_tables(),
        validate_space_group_table(),
        validate_wallpaper_subgroup_tables(),
        validate_amalgamated_products(),
    ):
        report.merge(part)
    return report


def _validation_exit(report: ValidationReport, args) -> int:
    if not report.mismatches:
        return 0
    if args.expect_known_errata:
        known = load_known_errata()
        new = [
            m
            for m in report.mismatches
            if (m["dataset"], m["location"], m["class"]) not in known
        ]
        return 0 if not new else 2
    return 2


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(canonical_json(payload))
    else:
        for line in text_lines:
            print(line)


def _report_lines(report: ValidationReport):
    lines = [f"dataset {report.dataset}: {report.checks_run} checks"]
    if not report.mismatches:
        lines.append("all published values reproduced")
    for m in report.mismatches:
        lines.append(
            f"  [{m['class']}] {m['location']}: published {m['published']}"
            f" | computed {m['computed']}"
        )
    return lines


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_bordism(args) -> int:
    if args.which == "unoriented":
        g = unoriented_bordism(args.n)
        payload = {"n": args.n, "q": nondyadic_partition_count(args.n), "group": g.render()}
        return _emit(args, payload, [g.render()]) or 0
    if args.which == "oriented":
        g = oriented_bordism(args.n)
        payload = {"n": args.n, "group": g.render()}
        return _emit(args, payload, [g.render()]) or 0
    if args.which == "relative":
        betti = _parse_betti(args.betti)
        g = relative_bordism(betti, args.p)
        payload = {"betti": betti, "p": args.p, "group": g.render()}
        return _emit(args, payload, [g.render()]) or 0
    if args.which == "crystal-group":
        b = FgAbelianGroup.parse(args.group)
        group, witnesses = crystal_group_of(b)
        try:
            dim, name = paper_crystal_assignment(b)
        except (UnassignedInPaper, NotCrystalShapedGroup):
            dim, name = witnesses["dimension"], group.name
        payload = {
            "group": b.render(),
            "q": len(b.invariant_factors),
            "crystal": {"dimension": dim, "name": name},
            "construction": group.name,
            "chain": witnesses["chain"],
            "split_sequence": witnesses.get("split_sequence"),
        }
        lines = [
            f"group {b.render()}",
            f"crystal dimension {dim}, crystal group {name}",
            f"constructed companion: {group.name}",
        ]
        for link in witnesses["chain"]:
            lines.append(
                f"  {link['sub']} < {link['sup']}: "
                + ("verified" if link["verified"] else "NOT a subgroup as printed")
            )
        return _emit(args, payload, lines) or 0
    raise AssertionError(args.which)


def _cmd_tables(args) -> int:
    if args.which == "pointgroup":
        g = point_group(args.name)
        result = validate_appendix_b(g.name) if args.verify else None
        recs = result.subgroups if result else enumerate_subgroups(g)
        payload = {
            "name": g.name,
            "international": INTERNATIONAL[g.name],
            "order": g.order,
            "subgroups": [
                {"iso": r.iso_name, "order": r.order, "index": r.index} for r in recs
            ],
        }
        lines = [f"{g.name} ({INTERNATIONAL[g.name]}), order {g.order}"]
        lines += [f"  {r.iso_name:8s} order {r.order:3d} index {r.index}" for r in recs]
        if args.verify:
            report = ValidationReport("appendix_b", checks_run=1)
            report.add_table_mismatches(result.mismatches)
            payload["validation"] = report.to_json_dict()
            lines += _report_lines(report)
            _emit(args, payload, lines)
            return _validation_exit(report, args)
        _emit(args, payload, lines)
        return 0
    if args.which == "spacegroups":
        rows = spacegroup_table_query(args.filter)
        payload = {
            "filter": args.filter,
            "rows": [
                {
                    "syngony": r.syngony,
                    "classes": [{"name": n, "count": c} for n, c in r.classes],
                    "bravais": [{"count": c, "type": t} for c, t in r.bravais],
                    "class_total": r.class_total,
                }
                for r in rows
            ],
            "total": sum(r.class_total for r in rows),
        }
        lines = []
        for r in rows:
            classes = ", ".join(f"{n}({c})" for n, c in r.classes)
            bravais = ", ".join(f"{c}{t}" for c, t in r.bravais)
            lines.append(f"{r.syngony}: {classes} | Bravais {bravais} | total {r.class_total}")
        lines.append(f"grand total {sum(r.class_total for r in rows)}")
        _emit(args, payload, lines)
        return 0
    if args.which == "wallpaper":
        if args.name:
            info = wallpaper_info(args.name)
            subs = wallpaper_subgroups(args.name)
            sym, shift = is_symmorphic(info["group"])
            payload = {
                "name": info["name"],
                "syngony": info["syngony"],
                "point_group": info["point_group"],
                "symmorphic": sym,
                "subgroups": [
                    {"name": s, "index": i if i is not None else "unknown"}
                    for s, i in subs
                ],
            }
            lines = [
                f"{info['name']}: syngony {info['syngony']}, point group "
                f"{info['point_group']}, {'symmorphic' if sym else 'non-symmorphic'}"
            ]
            lines += [f"  {s} index {i if i is not None else '?'}" for s, i in subs]
            _emit(args, payload, lines)
            return 0
        rows = wallpaper_table()
        payload = {
            "rows": [
                {"name": r.name, "syngony": r.syngony, "point_group": r.point_group_label}
                for r in rows
            ],
            "count": len(rows),
        }
        _emit(args, payload, [f"{r.name}: {r.syngony} / {r.point_group_label}" for r in rows])
        return 0
    if args.which == "validate":
        report = validate_all_tables()
        _emit(args, report.to_json_dict(), _report_lines(report))
        return _validation_exit(report, args)
    raise AssertionError(args.which)


def _parse_betti(text: str) -> list[int]:
    betti = []
    for position, tok in enumerate(text.split(","), 1):
        try:
            betti.append(int(tok))
        except ValueError:
            raise ValueError(
                f"--betti entry {position} of {text!r} is {tok!r}, not an integer"
            ) from None
    return betti


# cyclic:N is closed as an N x N shift matrix: the Cayley table takes N^2
# products of N x N matrices (degree 0 answers in about 1 s at N = 24 and
# 8 s at N = 40 on a 2-CPU x86_64 host)
CYCLIC_ORDER_BOUND = 24


def _parse_group_argument(name: str):
    """A point group, plane:<name> for a plane point group (nine of the ten
    plane names are also 3-dimensional symbols), or cyclic:N."""
    try:
        return point_group(name)
    except KeyError:
        pass
    plane = point_groups_2d()
    kind, _, rest = name.partition(":")
    if kind == "plane":
        if rest not in plane:
            raise KeyError(f"unknown plane point group {name!r} (plane:<name> with"
                           f" <name> one of {', '.join(plane)})")
        return plane[rest]
    if name in plane:
        raise KeyError(f"{name!r} names no 3-dimensional point group;"
                       f" the plane point group is plane:{name}")
    if name.lower().startswith("cyclic"):
        m = int(rest) if rest.lstrip("-").isdigit() else 0
        if not 1 <= m <= CYCLIC_ORDER_BOUND:
            raise ValueError(
                f"{name!r}: cyclic:N needs 1 <= N <= {CYCLIC_ORDER_BOUND}"
            )
        shift = [[1 if i == (j + 1) % m else 0 for j in range(m)] for i in range(m)]
        return close_group([IntegerMatrix(shift)])
    raise KeyError(f"unknown group {name!r} (use a point-group name, plane:<name> or cyclic:N)")


def _read_bindings(path: str, g) -> dict:
    """Generator matrix -> action matrix from the lines '[[gen]] -> [[matrix]]'
    of a bindings file; a bad line is named with its file and number."""
    bindings = {}
    with open(path) as lines:
        for number, line in enumerate(lines, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                gen_text, arrow, act_text = line.partition("->")
                if not arrow:
                    raise ValueError("no '->' between a generator and its action")
                gen = parse_matrix(gen_text)
                if gen not in g:
                    raise ValueError(f"{gen_text.strip()} is not in {g.name or 'the group'}")
                bindings[gen] = parse_matrix(act_text)
            except ValueError as exc:
                raise ValueError(f"{path}, line {number} {line!r}: {exc}") from None
    return bindings


def _cmd_cohomology(args) -> int:
    g = _parse_group_argument(args.group)
    base = FgAbelianGroup.parse(args.module)
    if args.action == "trivial":
        mod = GModule.trivial(g, base)
    elif args.action == "sign":
        mod = GModule.sign(g, base)
    elif args.action == "natural":
        mod = GModule.natural(g)
        base = mod.base
    elif os.path.exists(args.action):
        mod = GModule.from_generator_action(g, base, _read_bindings(args.action, g))
    else:
        raise ValueError(
            f"unknown action {args.action!r} (trivial, sign, natural, or a "
            "bindings file with lines '[[gen]] -> [[matrix]]')"
        )
    h = group_cohomology(g, mod, args.degree)
    payload = {
        "group": args.group,
        "module": base.render(),
        "action": args.action,
        "degree": args.degree,
        "cohomology": h.render(),
    }
    _emit(args, payload, [h.render()])
    return 0


def _cmd_symmorphic(args) -> int:
    names = [args.name] if args.name else [r.name for r in wallpaper_table()]
    results = []
    for name in names:
        ok, shift = is_symmorphic(wallpaper_info(name)["group"])
        results.append(
            {
                "name": name,
                "symmorphic": ok,
                "shift": [str(x) for x in shift] if ok else None,
            }
        )
    payload = {"results": results, "symmorphic_count": sum(r["symmorphic"] for r in results)}
    lines = [
        f"{r['name']}: {'symmorphic, shift ' + str(r['shift']) if r['symmorphic'] else 'non-symmorphic'}"
        for r in results
    ]
    if not args.name:
        lines.append(f"{payload['symmorphic_count']} of {len(results)} symmorphic")
    _emit(args, payload, lines)
    return 0


def _cmd_pde(args) -> int:
    seed = args.seed if args.seed is not None else jets.DEFAULT_SEED
    if args.which == "symbol":
        system = jets.load_system(_resolve_path(args.file))
        rep = jets.symbol_report(system, seed=seed)
        payload = rep.to_json_dict()
        lines = [
            f"system {rep.system or args.file}: n={rep.n} m={rep.m} order={rep.order}",
            f"ambient jet dim {rep.ambient_jet_dim}, dim E = {rep.dim_e}",
            f"symbol dims g^(i): {rep.g_dims}, characters {rep.characters}",
            f"dim g+1 = {rep.dim_g_plus_1}, dim E+1 = {rep.dim_e_plus_1}",
        ]
        if rep.inconsistent_rank:
            lines.append("WARNING: rank varied across sample points (max used)")
        _emit(args, payload, lines)
        return 0
    if args.which == "involutivity":
        system = jets.load_system(_resolve_path(args.file))
        verdict = jets.formal_integrability_check(system, seed=seed)
        lines = [
            f"Cartan test: dim g+1 = {verdict.dim_g_plus_1} vs sum {verdict.filtration_sum}"
            f" -> {'involutive' if verdict.involutive else 'not involutive'}",
            f"dim E+1 = {verdict.dim_e_plus_1} vs dim E + dim g+1 = "
            f"{verdict.dim_e + verdict.dim_g_plus_1}",
            f"verdict: {'PASS' if verdict.passed else 'FAIL'} ({verdict.caveat})",
        ]
        _emit(args, verdict.as_dict(), lines)
        return 0
    if args.which == "classify":
        desc = load_descriptor(_resolve_path(args.file))
        if isinstance(desc, SingularPdeDescriptor):
            raise ValueError("singular descriptor: use `pde singular-classify`")
        result = classify(desc)
        payload = result.to_json_dict()
        lines = [
            f"{result.name}: {result.verdict}",
            f"weak bordism {result.weak_bordism.render()}, singular "
            f"{'unknown' if result.singular_bordism is None else result.singular_bordism.render()}",
            f"crystal group {result.crystal_group_name}, dimension {result.crystal_dimension}",
        ] + [f"caveat: {c}" for c in result.caveats]
        _emit(args, payload, lines)
        return 0
    if args.which == "singular-classify":
        desc = load_descriptor(_resolve_path(args.file))
        if not isinstance(desc, SingularPdeDescriptor):
            raise ValueError("plain descriptor: use `pde classify`")
        result = classify_singular(desc)
        payload = result.to_json_dict()
        lines = [f"{result.name}: {result.verdict}"] + [
            f"  {c.name}: {c.verdict} (weak bordism {c.weak_bordism.render()})"
            for c in result.components
        ]
        _emit(args, payload, lines)
        return 0
    if args.which == "verify-solution":
        system = jets.load_system(_resolve_path(args.file))
        section = {}
        for item in args.section:
            name, sep, expr = item.partition("=")
            if not sep:
                raise jets.ParseError(f"--section {item!r} is not dependent=polynomial")
            section[name.strip()] = expr.strip()
        residuals = jets.verify_polynomial_solution(system, section)
        ok = all(r.is_zero() for r in residuals)
        payload = {
            "solution": ok,
            "residuals": [r.render(system.independent, system.dependent) for r in residuals],
        }
        lines = [
            f"residual[{i}] = {r.render(system.independent, system.dependent)}"
            for i, r in enumerate(residuals)
        ] + ["solution verified" if ok else "NOT a solution"]
        _emit(args, payload, lines)
        return 0
    raise AssertionError(args.which)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a subparser from clobbering a global flag given before
    # the subcommand; real defaults are applied after parsing
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "json"],
                        default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for generic-point sampling")
    common.add_argument("--expect-known-errata", action="store_true",
                        default=argparse.SUPPRESS,
                        help="exit 0 when all validation mismatches are recorded errata")

    parser = argparse.ArgumentParser(
        prog="crystaljet",
        description="exact computations: bordism groups, crystallographic tables, "
        "group cohomology, and formal integrability of polynomial PDE systems",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bordism = sub.add_parser("bordism", parents=[common]).add_subparsers(
        dest="which", required=True
    )
    p = bordism.add_parser("unoriented", parents=[common])
    p.add_argument("--n", type=int, required=True,
                   help=f"degree; an n whose Z/2-rank q(n) exceeds {Z2_RANK_BOUND} is refused")
    p = bordism.add_parser("oriented", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p = bordism.add_parser("relative", parents=[common])
    p.add_argument("--betti", required=True, help="comma-separated Z_2 Betti numbers")
    p.add_argument("--p", type=int, required=True)
    p = bordism.add_parser("crystal-group", parents=[common])
    p.add_argument("--group", required=True, help='e.g. "Z/2 x Z/2"')

    tables = sub.add_parser("tables", parents=[common]).add_subparsers(
        dest="which", required=True
    )
    p = tables.add_parser("pointgroup", parents=[common])
    p.add_argument("name")
    p.add_argument("--verify", action="store_true")
    p = tables.add_parser("spacegroups", parents=[common])
    p.add_argument("--filter", default="all")
    p = tables.add_parser("wallpaper", parents=[common])
    p.add_argument("name", nargs="?")
    tables.add_parser("validate", parents=[common])

    p = sub.add_parser("cohomology", parents=[common])
    p.add_argument("--group", required=True,
                   help="point-group name, plane:<name> for a plane point group"
                        f" (e.g. plane:4mm), or cyclic:N with 1 <= N <= {CYCLIC_ORDER_BOUND}")
    p.add_argument("--module", default="Z", help='e.g. "Z", "Z^2", "Z/2 x Z/2"')
    p.add_argument("--action", default="trivial",
                   help="trivial | sign | natural | a file of lines '[[gen]] -> [[matrix]]'")
    p.add_argument("--degree", type=int, required=True)

    p = sub.add_parser("symmorphic", parents=[common])
    p.add_argument("name", nargs="?", help="wallpaper group (default: all 17)")

    pde = sub.add_parser("pde", parents=[common]).add_subparsers(dest="which", required=True)
    for name in ("symbol", "involutivity"):
        p = pde.add_parser(name, parents=[common])
        p.add_argument("file")
    for name in ("classify", "singular-classify"):
        p = pde.add_parser(name, parents=[common])
        p.add_argument("file")
    p = pde.add_parser("verify-solution", parents=[common])
    p.add_argument("file")
    p.add_argument("--section", action="append", required=True,
                   help='dependent=polynomial, e.g. "u=a*x+b" (repeatable)')
    return parser


_DISPATCH = {
    "bordism": _cmd_bordism,
    "tables": _cmd_tables,
    "cohomology": _cmd_cohomology,
    "symmorphic": _cmd_symmorphic,
    "pde": _cmd_pde,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own diagnostics
        code = exc.code or 0
        return 0 if code == 0 else 1
    for name, fallback in (("format", "text"), ("seed", None),
                           ("expect_known_errata", False)):
        if not hasattr(args, name):
            setattr(args, name, fallback)
    try:
        return _DISPATCH[args.command](args) or 0
    except BrokenPipeError:
        return 1
    except Exception as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {type(exc).__name__}{detail}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
