"""Command line interface.

Subcommands: validate, info, cohomology, split, almost-abelian, catalog.
Algebra arguments accept a structure file path, `-` for stdin, or a catalog
entry name.  Exit codes: 0 success, 1 validation or math error,
2 undetermined result, 3 parse or usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .errors import ParseError, SolvcoError, UnknownName
# every subcommand reads its input through files, which loads lie and
# matrices; each handler imports the rest of what it runs
from .files import parse_matrix, parse_structure_file, structure_equations

EXIT_OK = 0
EXIT_MATH = 1
EXIT_UNDETERMINED = 2
EXIT_USAGE = 3


def _read_source(path: str) -> str:
    """The text of a file, or of stdin for `-`; an unreadable or non-UTF-8
    input is a ParseError naming it."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ParseError(0, f"cannot read {path!r}: {reason}") from None


def _load_algebra(spec: str):
    """Structure file path, stdin marker, or catalog name."""
    if spec == "-" or os.path.exists(spec):
        return parse_structure_file(_read_source(spec))
    from .catalog import catalog_get

    try:
        return catalog_get(spec).algebra
    except UnknownName:
        raise UnknownName(
            f"{spec!r} is neither an existing file nor a catalog entry")


def _load_matrix(spec: str):
    return parse_matrix(_read_source(spec))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solvco",
        description="Exact Lie algebra cohomology, nilshadows and lattice analysis",
    )
    parser.add_argument("--version", action="version", version=f"solvco {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check antisymmetry and the Jacobi identity")
    p.add_argument("file")

    p = sub.add_parser("info", help="series, unimodularity and solvability summary")
    p.add_argument("file")

    p = sub.add_parser("cohomology", help="Betti numbers and representative cocycles")
    p.add_argument("file")
    p.add_argument("--reps", action="store_true", help="print representative cocycles")
    p.add_argument("--max-degree", type=int, default=None,
                   help="compute only degrees up to this bound")
    p.add_argument("--format", choices=("plain", "tsv"), default="plain")

    p = sub.add_parser("split", help="modified bracket with a torus kill")
    p.add_argument("file")
    p.add_argument("--complement", default="",
                   help="comma-separated 1-based indices spanning V (default empty)")
    # the values of KillMode and Scale, in order; the enums load with their commands
    p.add_argument("--kill", choices=("full", "compact"), required=True)

    p = sub.add_parser("almost-abelian", help="lattice analysis for R x| R^n")
    p.add_argument("--holonomy", required=True, help="integer matrix file")
    p.add_argument("--derivation", default=None, help="rational matrix file")
    p.add_argument("--scale", choices=("1", "pi"), default="1")
    p.add_argument("--format", choices=("plain", "tsv"), default="plain")

    p = sub.add_parser("catalog", help="list catalog entries or dump one")
    p.add_argument("name", nargs="?", default=None)
    return parser


# built once per process: parse_args does not change the parser
_PARSER = _build_parser()


def run_command(argv):
    """Execute argv (without the program name); returns (exit code, text)."""
    try:
        ns = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return (EXIT_OK if exc.code == 0 else EXIT_USAGE), ""
    try:
        handler = {
            "validate": _cmd_validate,
            "info": _cmd_info,
            "cohomology": _cmd_cohomology,
            "split": _cmd_split,
            "almost-abelian": _cmd_almost_abelian,
            "catalog": _cmd_catalog,
        }[ns.command]
        return handler(ns)
    except (ParseError, UnknownName) as exc:
        return EXIT_USAGE, f"error: {exc}"
    except SolvcoError as exc:
        return EXIT_MATH, f"error: {exc}"
    except ValueError as exc:
        return EXIT_MATH, f"error: {exc}"
    except Exception as exc:  # a defect, still reported without a traceback
        return EXIT_MATH, f"error: internal {type(exc).__name__}: {exc}"


def _cmd_validate(ns):
    _load_algebra(ns.file)  # parse_structure_file and catalog_get validate
    return EXIT_OK, "ok"


def _render(rows, fmt: str = "plain") -> str:
    """One line per (key, value) row: `key value` in plain; in tsv the key
    with its spaces and hyphens replaced by dots, a tab, then the value.
    A bool value is written `true` or `false`."""
    lines = []
    for key, value in rows:
        value = str(value).lower() if isinstance(value, bool) else value
        lines.append(f"{key.replace(' ', '.').replace('-', '.')}\t{value}" if fmt == "tsv"
                     else f"{key} {value}")
    return "\n".join(lines)


def _cmd_info(ns):
    from .lie import (completely_solvable_flag, derived_series, is_unimodular,
                      lower_central_series)

    g = _load_algebra(ns.file)
    derived, central = derived_series(g), lower_central_series(g)
    solv = derived[-1].is_zero()
    rows = [("dim", g.dim), ("unimodular", is_unimodular(g)), ("solvable", solv),
            ("nilpotent", central[-1].is_zero()),
            ("derived-series", " ".join(str(s.dim) for s in derived)),
            ("lower-central-series", " ".join(str(s.dim) for s in central))]
    code = EXIT_OK
    if solv:
        cert = completely_solvable_flag(g)
        if cert.status == "yes":
            dims = " ".join(str(s.dim) for s in cert.chain)
            flag = f"yes (ideal flag dims {dims})"
        elif cert.status == "no":
            idx, factor = cert.witness
            flag = f"no (ad e{idx} has non-real factor {factor})"
        else:
            flag, code = "undetermined", EXIT_UNDETERMINED
    else:
        flag = "no (not solvable)"
    rows.append(("completely-solvable", flag))
    return code, _render(rows)


def _cmd_cohomology(ns):
    from .cohomology import cohomology, format_cocycle, representatives, structural_checks

    if ns.max_degree is not None and ns.max_degree < 0:
        raise ParseError(0, f"--max-degree must be non-negative, got {ns.max_degree}")
    g = _load_algebra(ns.file)
    res = (representatives if ns.reps else cohomology)(g, ns.max_degree)
    tsv = ns.format == "tsv"
    rows = [("dim", g.dim)] + [(f"betti {k}", b) for k, b in enumerate(res.betti)]
    if len(res.betti) == g.dim + 1:  # every degree: the structural report applies
        report = structural_checks(res, g)
        if tsv:
            rows += [("euler", report.euler_characteristic),
                     ("unimodular", report.unimodular),
                     ("duality holds", report.duality_holds),
                     ("duality expected", report.unimodular)]
        else:
            rows += [("unimodular", report.unimodular),
                     ("duality", "holds" if report.duality_holds else "violated"),
                     ("euler", report.euler_characteristic),
                     ("b1", f"{report.b1} (dim - dim[g,g] = {report.b1_expected})")]
            if report.solvable:
                rows.append(("b1-bound", f">= {report.b1_bound} ok"))
    if ns.reps:
        # plain writes `rep k`; tsv numbers each cocycle of degree k
        rows += [(f"rep {k} {t}" if tsv else f"rep {k}", format_cocycle(vec, g.dim, k))
                 for k, reps in enumerate(res.representatives)
                 for t, vec in enumerate(reps)]
    return EXIT_OK, _render(rows, ns.format)


def _parse_complement(text: str):
    text = text.strip()
    if not text:
        return ()
    try:
        indices = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ParseError(0, f"bad --complement list {text!r}")
    if len(set(indices)) != len(indices):
        raise ParseError(0, "--complement indices must be distinct")
    return indices


def _cmd_split(ns):
    from .lie import Subspace
    from .splitting import KillMode, SplittingInput, kill_map, modified_bracket

    g = _load_algebra(ns.file)
    v_idx = _parse_complement(ns.complement)
    if any(not 1 <= i <= g.dim for i in v_idx):
        raise ParseError(0, f"--complement indices must lie in 1..{g.dim}")
    n_idx = [i for i in range(1, g.dim + 1) if i not in v_idx]
    inp = SplittingInput(
        algebra=g,
        complement=Subspace.standard(g.dim, v_idx),
        nilpotent_ideal=Subspace.standard(g.dim, n_idx),
    )
    kill = kill_map(inp, KillMode(ns.kill))
    out = modified_bracket(inp, kill)
    header = [f"# modified bracket: kill={ns.kill}"
              + (f" complement={','.join(map(str, v_idx))}" if v_idx else "")]
    for t, op in enumerate(kill.operators, start=1):
        header.append(f"# K_{t} {'zero' if op.is_zero() else 'nonzero'}")
    return EXIT_OK, "\n".join(header) + "\n" + structure_equations(out)


def _cmd_almost_abelian(ns):
    from .almost_abelian import HolonomyInput, MostowStatus, Scale, analyze

    holonomy = _load_matrix(ns.holonomy)
    derivation = _load_matrix(ns.derivation) if ns.derivation else None
    inp = HolonomyInput(holonomy=holonomy, derivation=derivation, scale=Scale(ns.scale))
    report = analyze(inp)
    rows = [("b1", report.b1)]
    if ns.format == "tsv":
        rows += [("mostow status", report.mostow.value), ("mostow reason", report.mostow_reason)]
    else:
        rows.append(("mostow", f"{report.mostow.value} {report.mostow_reason}"))
    if report.cyclotomic:
        rows.append(("cyclotomic", " ".join(f"{d}:{m}" for d, m in report.cyclotomic)))
    if report.order_m is not None:
        rows.append(("order", report.order_m))
    rows.append(("cover", report.cover_type.value))
    rows += [(f"betti {k}", b) for k, b in enumerate(report.invariant_betti)]
    if report.ce_betti is not None:
        rows += [(f"ce-betti {k}", b) for k, b in enumerate(report.ce_betti)]
        rows.append(("ce-derham-valid", report.de_rham_valid))
    code = EXIT_UNDETERMINED if report.mostow is MostowStatus.UNDETERMINED else EXIT_OK
    return code, _render(rows, ns.format)


def _cmd_catalog(ns):
    from .catalog import catalog_get, catalog_names

    if ns.name is None:
        lines = []
        for name in catalog_names():
            entry = catalog_get(name)
            lines.append(f"{name} dim={entry.algebra.dim} {entry.classification}")
        return EXIT_OK, "\n".join(lines)
    entry = catalog_get(ns.name)
    out = []
    if entry.notes:
        out.append(f"# {entry.notes}")
    out.append(structure_equations(entry.algebra).rstrip("\n"))
    return EXIT_OK, "\n".join(out)


def main(argv=None) -> int:
    code, text = run_command(sys.argv[1:] if argv is None else argv)
    if text:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
