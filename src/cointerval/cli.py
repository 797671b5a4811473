"""Command-line entry point.

Subcommands: check, resolve, betti, embed, decompose, casestudy,
verify.  Exit codes: 0 success, 2 parse error, 3 precondition
violation, 4 resource guard refused.  Output is assembled fully before
being written, so nothing is printed for a command that then fails;
--seed is accepted for harness compatibility and ignored (nothing here
is randomized).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import __version__
from .casestudy import burnside_count, classification_table, classify_all
from .complexes import build_complex
from .covers import glued_resolution, linear_width
from .dumpio import read_complex_dump
from .errors import BudgetError, ParseError, PreconditionError
from .homology import GF2, GF3, GF32003, QQ
from .hypergraph import (
    find_cointerval_labeling,
    find_strongly_stable_labeling,
    read_hypergraph,
)
from .resolution import (
    betti_from_cells,
    betti_from_downset_homology,
    betti_hochster,
    verify_resolution,
)
from .staircase import export_geometry, restrict_to_graph, write_geometry

_FIELDS = {"2": GF2, "3": GF3, "32003": GF32003, "q": QQ}


def _fields(args):
    fld = _FIELDS[args.field]
    if getattr(args, "confirm", False) and fld is not QQ:
        return (fld, QQ)
    return (fld,)


def _perm_line(H, cert):
    return " ".join(str(cert[v]) for v in H.vertices)


def _table_lines(table):
    return table.lines() or ["(no entries)"]


def _fvec(values):
    return " ".join(map(str, values)) if values else "(empty)"


def cmd_check(args):
    H = read_hypergraph(args.file)
    total = math.factorial(H.n)
    lines = []
    cointerval = H.is_cointerval()  # under the given labels, then any
    if cointerval:
        lines.append("cointerval: yes (given labels)")
    elif args.find_labeling:
        cert = find_cointerval_labeling(H)
        cointerval = cert is not None
        if cert:
            lines.append(f"cointerval: yes (labeling: {_perm_line(H, cert)})")
        else:
            lines.append(f"cointerval: no (all {total} labelings)")
    else:
        lines.append("cointerval: no (given labels)")

    consecutive = set(H.vertices) == set(range(1, H.n + 1))
    if consecutive and H.is_strongly_stable():
        lines.append("strongly-stable: yes")
    elif args.find_labeling:
        # a strongly stable labeling is a cointerval labeling, so a
        # cointerval search that found none settles this search too
        cert = find_strongly_stable_labeling(H) if cointerval else None
        if cert:
            lines.append(
                f"strongly-stable: yes (labeling: {_perm_line(H, cert)})"
            )
        else:
            lines.append(f"strongly-stable: no (all {total} labelings)")
    elif consecutive:
        lines.append("strongly-stable: no")
    else:
        lines.append("strongly-stable: n/a (vertex labels are not 1..n)")
    return lines


def cmd_resolve(args):
    H = read_hypergraph(args.file)
    if not H.is_cointerval():
        raise PreconditionError(
            "input is not cointerval under the given labels; "
            "run `check --find-labeling` or `decompose`"
        )
    X = build_complex(H)
    report = verify_resolution(X, fields=_fields(args))
    table = betti_from_cells(X)
    lines = [f"f-vector: {_fvec(X.f_vector())}"]
    lines.append("betti (fine):")
    lines.extend(_table_lines(table))
    lines.append(f"betti (coarse): {_fvec(table.totals())}")
    lines.extend(report.summary().splitlines())
    return lines


def cmd_betti(args):
    H = read_hypergraph(args.file)
    fld = _FIELDS[args.field]
    methods = (
        ("faces", "cellular", "hochster")
        if args.method == "all"
        else (args.method,)
    )
    if ("faces" in methods or "cellular" in methods) and not H.is_cointerval():
        raise PreconditionError(
            f"method {args.method!r} needs a cointerval input; "
            "use --method=hochster"
        )
    tables = {}
    # Hochster's route carries the budget guard: run it first, so that a
    # refusal comes before the complex of H is built
    if "hochster" in methods:
        tables["hochster"] = betti_hochster(H, fld)
    if "faces" in methods or "cellular" in methods:
        X = build_complex(H)  # one complex for both routes
        if "faces" in methods:
            tables["faces"] = betti_from_cells(X)
        if "cellular" in methods:
            tables["cellular"] = betti_from_downset_homology(X, fld)
    lines = []
    printed = []  # (table, its lines) for each distinct table
    for method in methods:
        if len(methods) > 1:
            lines.append(f"method: {method}")
        table = tables[method]
        for seen, seen_lines in printed:
            if table == seen:
                break
        else:
            seen_lines = _table_lines(table)
            printed.append((table, seen_lines))
        lines.extend(seen_lines)
    if args.method == "all":
        lines.append("AGREE" if len(printed) == 1 else "DISAGREE")
    return lines


def cmd_embed(args):
    H = read_hypergraph(args.file)
    geom = restrict_to_graph(H.d, H.n, H)
    if not args.out:
        return export_geometry(geom).splitlines()
    write_geometry(geom, args.out)
    return [
        f"geometry: d={geom.d} m={geom.m} n={geom.n}",
        f"vertices: {len(geom.vertices)}",
        f"maximal-cells: {len(geom.maximal)}",
        f"f-vector: {_fvec(geom.f_vector())}",
        f"wrote {args.out}",
    ]


def cmd_decompose(args):
    H = read_hypergraph(args.file)
    width, cover = linear_width(H, family=args.family)
    lines = [f"width: {width}"]
    for idx, (part, cert) in enumerate(zip(cover.parts, cover.labelings), 1):
        edges = " ".join(
            "(" + " ".join(map(str, e)) + ")" for e in part.edge_list()
        )
        lines.append(f"part {idx}: {edges}")
        lines.append(f"  labeling: {_perm_line(H, cert)}")
    glued, report = glued_resolution(
        H, cover, fields=_fields(args), family=args.family
    )
    lines.append(f"ranks: {_fvec(glued.f_vector())}")
    lines.extend(report.summary().splitlines())
    return lines


def cmd_casestudy(args):
    rows = classify_all(args.d, args.n)
    nco = sum(1 for r in rows if r.cointerval)
    nss = sum(1 for r in rows if r.strongly_stable)
    ngap = sum(1 for r in rows if r.cointerval and not r.strongly_stable)
    lines = classification_table(rows).splitlines()
    lines.append(f"counts: {len(rows)} {nco} {nss} {ngap}")
    lines.append(f"orbit-count: {burnside_count(args.d, args.n)}")
    return lines


def cmd_verify(args):
    X = read_complex_dump(args.file)
    report = verify_resolution(X, fields=_fields(args))
    lines = [
        f"cells: {len(X)}",
        f"result: {'pass' if report.passed else 'FAIL'}",
    ]
    lines.extend(report.summary().splitlines())
    return lines


@functools.cache  # built on the first `main` call, then reused
def _parser():
    p = argparse.ArgumentParser(
        prog="cointerval",
        description="Minimal cellular resolutions of cointerval edge ideals.",
    )
    p.add_argument("--version", action="version", version=__version__)
    p.add_argument(
        "--seed", type=int, default=None, help="accepted and ignored"
    )
    sub = p.add_subparsers(dest="command", required=True)
    # --seed is accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help=argparse.SUPPRESS)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    def field_flag(sp):
        sp.add_argument(
            "--field", choices=sorted(_FIELDS), default="2",
            help="coefficient field (default GF(2))",
        )

    sp = add_parser("check", help="cointerval / strongly stable flags")
    sp.add_argument("file")
    sp.add_argument("--find-labeling", action="store_true")
    sp.set_defaults(fn=cmd_check)

    sp = add_parser("resolve", help="Betti tables of a cointerval input")
    sp.add_argument("file")
    field_flag(sp)
    sp.add_argument(
        "--confirm", action="store_true", help="re-verify over the rationals"
    )
    sp.set_defaults(fn=cmd_resolve)

    sp = add_parser("betti", help="graded Betti numbers")
    sp.add_argument("file")
    sp.add_argument(
        "--method",
        choices=["faces", "cellular", "hochster", "all"],
        default="hochster",
    )
    field_flag(sp)
    sp.set_defaults(fn=cmd_betti)

    sp = add_parser("embed", help="staircase geometry of the complex")
    sp.add_argument("file")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_embed)

    sp = add_parser("decompose", help="linear width and glued resolution")
    sp.add_argument("file")
    sp.add_argument(
        "--family", choices=["cointerval", "ss"], default="cointerval"
    )
    field_flag(sp)
    sp.add_argument("--confirm", action="store_true")
    sp.set_defaults(fn=cmd_decompose)

    sp = add_parser("casestudy", help="classify d-graphs on n vertices")
    sp.add_argument("--d", type=int, default=3)
    sp.add_argument("--n", type=int, default=5)
    sp.set_defaults(fn=cmd_casestudy)

    sp = add_parser("verify", help="re-check a complex dump")
    sp.add_argument("file")
    field_flag(sp)
    sp.add_argument("--confirm", action="store_true")
    sp.set_defaults(fn=cmd_verify)

    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        lines = args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (PreconditionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
