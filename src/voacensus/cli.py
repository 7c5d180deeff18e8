"""Command-line front end producing deterministic JSON/TSV reports.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage error.  Big
integers are always serialized as decimal strings.  VOA_CUTOFF overrides the
default character cutoff; --cutoff and VOA_CUTOFF above MAX_CUTOFF are
rejected before any series is built.  A --seed option is accepted and
ignored: nothing on the result path is randomized.

Each command imports only the modules it uses: `code` and every
`characters` form, `verify` and the lattice characters included, run
without numpy.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

from . import CheckError, __version__, registry


_SERIES_HELP = ("minimal:m:r:s | vplus:TAG | vfull:TAG | w:l:j:k | man:N:2s | "
                "affine:l:j")
# fields after the kind, per series kind
_SERIES_FIELDS = {form.split(":")[0]: form.count(":")
                  for form in _SERIES_HELP.split(" | ")}
# the largest character cutoff accepted: bigger ones exhaust memory or time
# in the coefficient lists and alternating sums
MAX_CUTOFF = 10_000
# the largest lattice rank of a vfull/vplus series (the catalog goes to 12)
# and the largest N of a man:N:2s tower (the catalog's go to 7): an A_n theta
# series takes about rank^2 * cutoff^1.5 steps, one int list per residue of
# the coordinate sum, and the Euler product is rank-fold, so vfull:A32 takes
# seconds at cutoff 1000; the tower walk grows faster than N^2 (man:64:0
# takes about a second at cutoff 8, man:200:0 25 s)
MAX_RANK = 32
# the largest level of a w:l:j:k or affine:l:j series (the catalog's go to
# 8): each affine depth slice is about as wide as the level, and a w:
# character runs to a depth of about cutoff + level, so at cutoff 8 w:64:0:0
# takes 0.2 s, w:256:0:0 0.9 s and w:500:0:0 about 4 s; at cutoff 1000
# affine:2:0 takes 2 s, affine:64:32 8 s and affine:500:250 28 s
MAX_LEVEL = 64


def _default_cutoff() -> int:
    return int(os.environ.get("VOA_CUTOFF", "8"))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="voacensus",
        description="Exact censuses of central-charge-1/2 idempotents, their "
                    "involution groups, and commutant characters.")
    ap.add_argument("--format", choices=("json", "tsv"), default="json")
    ap.add_argument("--seed", type=int, default=None,
                    help="accepted for interface stability; has no effect")
    ap.add_argument("--output", default=None, help="write the report to a file")
    sub = ap.add_subparsers(dest="command", required=True)

    e = sub.add_parser("code", help="emit a catalog code in the text format")
    e.add_argument("tag")

    c = sub.add_parser("census", help="count and classify census points")
    c.add_argument("kind", choices=("code", "lattice", "commutant"))
    c.add_argument("spec", help="code tag / lattice spec / lattice tag")
    c.add_argument("--orthogonal-to", default=None,
                   help="comma list: wtilde (the default), s, phi:alpha0 "
                        "(commutant only)")
    c.add_argument("--gram", action="store_true", help="include the Gram matrix")

    g = sub.add_parser("group", help="involution group of a census")
    g.add_argument("--census", required=True, dest="censusspec")
    g.add_argument("--orthogonal-to", default=None,
                   help="filter a lattice census by these constraints first")
    g.add_argument("--inductive", action="store_true",
                   help="also compute the two-level commuting structure")

    f = sub.add_parser("fischer", help="partial linear space of a census")
    f.add_argument("--census", required=True, dest="censusspec")

    gr = sub.add_parser("griess", help="exact degree-2 algebra operations")
    gsub = gr.add_subparsers(dest="gcommand", required=True)
    gb = gsub.add_parser("build")
    gb.add_argument("lattice")
    gp = gsub.add_parser("product")
    gp.add_argument("lattice")
    gp.add_argument("left")
    gp.add_argument("right")
    gi = gsub.add_parser("inner")
    gi.add_argument("lattice")
    gi.add_argument("left")
    gi.add_argument("right")
    gc = gsub.add_parser("commutant")
    gc.add_argument("lattice")
    gc.add_argument("vector", nargs="?", default="wtilde")
    gv = gsub.add_parser("verify")
    gv.add_argument("which", choices=("twist-chain", "orthogonal-split"))

    ch = sub.add_parser("characters", help="exact q-series identities")
    csub = ch.add_subparsers(dest="ccommand", required=True)
    cv = csub.add_parser("verify")
    cv.add_argument("--cutoff", type=int, default=None)
    cs = csub.add_parser("show")
    cs.add_argument("object", help=_SERIES_HELP)
    cs.add_argument("--cutoff", type=int, default=None)
    return ap


def _element(tag: str, name: str):
    alg = registry.algebra(tag)
    name = name.strip().lower()
    if name in ("wtilde", "s", "phi:alpha0"):
        return registry.constraint_element(alg, name)
    if name == "omega":
        return alg.omega
    if name.startswith("w+:") or name.startswith("w-:"):
        sign = 1 if name[1] == "+" else -1
        return alg.w_vector(int(name[3:]), sign).element
    raise registry.RegistryError(f"unknown element {name!r}")


def run(args) -> dict:
    """Dispatch a parsed invocation; returns the report dictionary."""
    t0 = time.time()
    report: dict = {"tool": f"voacensus {__version__}",
                    "command": args.command, "ok": True}
    if args.command == "code":
        from .gf2code import format_code_text
        text = format_code_text(registry.code(args.tag))
        report["results"] = {"code_text": text}
        report["raw"] = text
    elif args.command == "census":
        if args.orthogonal_to is not None and args.kind != "commutant":
            raise registry.RegistryError(
                f"--orthogonal-to applies to census commutant only, not census {args.kind}")
        constraints = "wtilde" if args.orthogonal_to is None else args.orthogonal_to
        spec = {"code": f"code:{args.spec}", "lattice": f"lattice:{args.spec}",
                "commutant": f"commutant:{args.spec}:{constraints}"}[args.kind]
        c = registry.census(spec)
        report["inputs"] = {"spec": spec}
        report["results"] = c.to_json(include_gram=args.gram)
        if args.kind == "code":
            counts = c.counts_by_kind()
            report["results"]["frames"] = counts.get("frame", 0)
            report["results"]["hamming_points"] = counts.get("hamming", 0)
    elif args.command == "group":
        from . import transpo
        spec = args.censusspec
        if args.orthogonal_to:
            if ":" in spec or spec.strip().lower() in registry.CENSUS_ALIASES:
                raise registry.RegistryError(
                    f"--census {spec!r} with --orthogonal-to: expected a bare lattice tag")
            spec = f"commutant:{spec}:{args.orthogonal_to}"
        c = registry.census(spec)
        table = registry.sigma_table(spec)
        order = transpo.group_order(list(table.rows[table.seeds]))
        res = {"point_count": len(c), "group_order": str(order)}
        # fischer_space runs the 3-transposition check; the witness is only
        # recomputed when that check fails
        try:
            space = transpo.fischer_space(c, table)
        except transpo.TranspoError:
            ok3 = False
            res["witness"] = list(map(int, transpo.is_3transposition(table)[1]))
            report["ok"] = False
        else:
            ok3 = True
            res["line_count"] = len(space.lines)
            res["symplectic_type"] = transpo.is_symplectic_type(space, table)
        res["is_3transposition"] = ok3
        if args.inductive and ok3:
            pair = _noncommuting_pair(c)
            if pair is not None:
                ind = transpo.inductive_structure(table.rows, *pair)
                res["inductive"] = {
                    "d1_order": str(ind["d1_order"]),
                    "d2_order": str(ind["d2_order"]),
                    "d2_point_count": len(ind["d2_points"]),
                }
        report["results"] = res
    elif args.command == "fischer":
        from . import transpo
        c = registry.census(args.censusspec)
        table = registry.sigma_table(args.censusspec)
        space = transpo.fischer_space(c, table)
        hyp = transpo.check_fischer_hypotheses(space, c, table)
        report["results"] = {
            "point_count": len(c), "line_count": len(space.lines),
            "symplectic_type": transpo.is_symplectic_type(space, table),
            **hyp,
        }
        report["ok"] = all(v for v in report["results"].values() if isinstance(v, bool))
    elif args.command == "griess":
        report["command"] = f"griess {args.gcommand}"
        if args.gcommand == "build":
            alg = registry.algebra(args.lattice.upper())
            wt = alg.conformal_wtilde()
            report["results"] = {
                "lattice": alg.lattice.name,
                "dimension": alg.dimension,
                "pairs": alg.npairs,
                "wtilde_central_charge": str(wt.central_charge),
                "omega_norm": str(alg.omega.inner(alg.omega)),
            }
        elif args.gcommand in ("product", "inner"):
            tag = args.lattice.upper()
            a = _element(tag, args.left)
            b = _element(tag, args.right)
            if args.gcommand == "inner":
                report["results"] = {"inner": str(a.inner(b))}
            else:
                report["results"] = (a * b).to_json()
        elif args.gcommand == "commutant":
            tag = args.lattice.upper()
            alg = registry.algebra(tag)
            kern = alg.commutant_weight2(_element(tag, args.vector))
            report["results"] = {"dimension": len(kern)}
        else:  # verify
            from .griess import verify_orthogonal_split, verify_twist_chain
            if args.which == "twist-chain":
                rep = verify_twist_chain(registry.algebra("E8"), registry.alpha0())
            else:
                rep = verify_orthogonal_split(registry.algebra("E6"))
            report["results"] = {k: bool(v) for k, v in rep.items()}
            report["ok"] = rep["ok"]
    elif args.command == "characters":
        report["command"] = f"characters {args.ccommand}"
        cutoff = args.cutoff if args.cutoff is not None else _default_cutoff()
        if cutoff < 0:
            raise registry.RegistryError(f"cutoff {cutoff} is negative")
        if cutoff > MAX_CUTOFF:
            raise registry.RegistryError(
                f"cutoff {cutoff} is above the ceiling {MAX_CUTOFF}")
        if args.ccommand == "verify":
            from . import qchar
            checks = qchar.verify_decompositions(cutoff)
            report["results"] = {"cutoff": cutoff, "checks": checks,
                                 "failures": [c["identity"] for c in checks
                                              if c["status"] != "pass"]}
            report["ok"] = not report["results"]["failures"]
        else:
            report["results"] = _show_series(args.object, cutoff)
    report["wall_time_s"] = round(time.time() - t0, 3)
    return report


def _noncommuting_pair(c):
    """The first 1/32 pair (i, j) in row-major order, or None; j > i, as a
    partner j < i would have given row j first."""
    from .census import GRAM_32ND
    for i, row in enumerate(c.gram):
        partners = row == GRAM_32ND
        if partners.any():
            return i, int(partners.argmax())
    return None


def _show_series(spec: str, cutoff: int) -> dict:
    from . import qchar
    kind, *parts = spec.split(":")
    if len(parts) != _SERIES_FIELDS.get(kind):
        raise registry.RegistryError(
            f"unknown series object {spec!r}; forms: {_SERIES_HELP}")
    if kind == "minimal":
        m, r, s = map(int, parts)
        series = qchar.minimal_character(m, r, s, cutoff)
    elif kind in ("vplus", "vfull"):
        from .dynkin import lattice_type
        tag = parts[0].upper()
        rank = lattice_type(tag)[1]
        if rank > MAX_RANK:
            raise registry.RegistryError(
                f"lattice {tag} has rank {rank}, above the ceiling {MAX_RANK}")
        character = qchar.vplus_character if kind == "vplus" else qchar.vfull_character
        series = character(tag, cutoff)
    elif kind == "w":
        level, j, k = map(int, parts)
        _check_level(spec, level)
        series = qchar.w_character(level, j, k, cutoff)
    elif kind == "man":
        N, twos = map(int, parts)
        if N > MAX_RANK:
            raise registry.RegistryError(
                f"tower man:{N} has rank {N}, above the ceiling {MAX_RANK}")
        series = qchar.man_character(N, twos, cutoff)
    else:
        level, j = map(int, parts)
        _check_level(spec, level)
        two = qchar.affine_sl2_character(level, j, cutoff)
        series = two.specialize_z1()
    return {"object": spec, "denom": series.denom,
            "cutoff": str(series.cutoff),
            "terms": [[str(e), c] for e, c in series.items()]}


def _check_level(spec: str, level: int) -> None:
    if level > MAX_LEVEL:
        raise registry.RegistryError(
            f"{spec} has level {level}, above the ceiling {MAX_LEVEL}")


def _emit(report: dict, fmt: str, output) -> None:
    if "raw" in report:
        # bit-exact emission regardless of the report format
        text = report.pop("raw").rstrip("\n")
    elif fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True, default=_json_default)
    else:
        lines = []

        def flat(prefix, val):
            if isinstance(val, dict):
                for k in sorted(val):
                    flat(f"{prefix}.{k}" if prefix else str(k), val[k])
            elif isinstance(val, list):
                lines.append(f"{prefix}\t{json.dumps(val, default=_json_default)}")
            else:
                lines.append(f"{prefix}\t{val}")

        flat("", report)
        text = "\n".join(lines)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _json_default(obj):
    import numpy as np
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        report = run(args)
        code = 0 if report["ok"] else 1
    except (registry.RegistryError, ValueError) as exc:
        report = {"tool": f"voacensus {__version__}", "ok": False,
                  "error": str(exc)}
        # a failed sigma-table or census check is a check failure, not a
        # usage error
        code = 1 if isinstance(exc, CheckError) else 2
    try:
        _emit(report, args.format, args.output)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early; devnull keeps the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except OSError as exc:
        # an --output path that cannot be written is a usage error
        report = {"tool": f"voacensus {__version__}", "ok": False,
                  "error": f"cannot write {args.output!r}: {exc.strerror}"}
        _emit(report, args.format, None)
        code = 2
    return code


if __name__ == "__main__":
    code = main()
    # the report is out; the shutdown collection would only free, one by
    # one, objects the OS reclaims with the process (numpy's functions and
    # types above all), so freeze them out of its reach.  Only here: tests
    # and the tracer call main() inside longer processes
    gc.freeze()
    sys.exit(code)
