"""The gradelab command line: reproducible reports over the catalog pipelines.

Every subcommand prints a human-readable table by default and a
byte-deterministic machine format under --format json (fixed key order,
fixed indentation, no timing or environment data).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

# contractions and selfcheck import numpy, so only the subcommands that use
# them import them: every other subcommand runs without numpy
from .autgrp import (INNER, NAMED_AUTOMORPHISMS, Automorphism, NodeCapExceeded,
                     named_automorphism)
from .gradings import (AbelianGroup, Grading, catalog, coarsen, format_label,
                       search_labeling, verify_grading, verify_labeling,
                       CATALOG_NAMES)
from .normalizers import (CATALOG_NORMALIZER_GENERATORS,
                          catalog_normalizer_generators, induced_permutation,
                          inner_subquotient, linearize_on_labels, normalizes,
                          quotient_group, det_mod3)

CATALOG = tuple(CATALOG_NAMES)


def _dump(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _emit(args, lines, data) -> None:
    if args.format == "json":
        sys.stdout.write(_dump(data))
    else:
        for line in lines:
            print(line)


def render_coords(coords, algebra) -> str:
    """Human form of a coordinate vector over the named basis."""
    terms = []
    for c, name in zip(coords, algebra.basis_names):
        if c.is_zero():
            continue
        text = repr(c)
        if text == "1":
            piece = name
        elif text == "-1":
            piece = f"-{name}"
        elif "+" in text[1:] or "-" in text[1:] or " " in text:
            piece = f"({text})*{name}"
        else:
            piece = f"{text}*{name}"
        if terms and not piece.startswith("-"):
            terms.append(f"+{piece}")
        else:
            terms.append(piece)
    return "".join(terms) if terms else "0"


# what reading a bad JSON document raises: a ValueError (bytes that are not
# UTF-8 or not JSON, a value unparsable or out of range, a non-integer where
# an integer belongs), a missing key, a value of the wrong type, a zero
# denominator, an infinite number (JSON's reader accepts Infinity), nesting
# deeper than the reader or a parser can recurse
_MALFORMED = (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError,
              OverflowError, RecursionError)

# largest group order `grading label` accepts: the search lists every element
MAX_LABEL_GROUP_ORDER = 1 << 16


def _read_document(path: str, what: str, parse, unreadable: str):
    """(parse(value), sha256 of the bytes) for the UTF-8 JSON document in a
    file, or in stdin for '-'; a file that cannot be read is the ValueError
    `unreadable: reason`, a document `parse` refuses is malformed input."""
    try:
        if path == "-":
            raw = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                raw = fh.read()
    except OSError as exc:
        raise ValueError(f"{unreadable}: {exc.strerror}") from None
    try:
        return parse(json.loads(raw.decode("utf-8"))), hashlib.sha256(raw).hexdigest()
    except _MALFORMED as exc:
        reason = (f"missing key {exc}" if isinstance(exc, KeyError)
                  else f"{type(exc).__name__}: {exc}")
        raise ValueError(f"malformed {what} in {path!r}: {reason}") from None


def _load_automorphism(spec_text: str, n: int) -> Automorphism:
    """A named automorphism, or one of sl(n) from a JSON file or stdin ('-')."""
    if spec_text in NAMED_AUTOMORPHISMS:
        return named_automorphism(spec_text)

    def parse(data) -> Automorphism:
        auto = Automorphism.from_json(data)
        if auto.algebra.n != n:
            raise ValueError(f"an automorphism of sl({auto.algebra.n}), not of sl({n})")
        return auto

    return _read_document(
        spec_text, "automorphism", parse,
        f"unknown automorphism {spec_text!r}: not one of "
        f"{', '.join(sorted(NAMED_AUTOMORPHISMS))}, and not a readable file")[0]


def _load_grading(path: str):
    """Grading from a JSON file or stdin ('-'); returns (grading, sha256)."""
    return _read_document(path, "grading", Grading.from_json,
                          f"cannot read grading file {path!r}")


def _group_from_spec(text: str) -> AbelianGroup:
    try:
        orders = [int(tok) for tok in text.replace("x", ",").split(",") if tok]
    except ValueError:
        raise ValueError(f"cannot parse group spec {text!r}; "
                         "use forms like '7' or '3,3'") from None
    if not orders or any(k < 1 for k in orders):
        raise ValueError(f"invalid group spec {text!r}")
    order = math.prod(orders)
    if order > MAX_LABEL_GROUP_ORDER:
        raise ValueError(f"group spec {text!r} has order {order}, "
                         f"above the limit of {MAX_LABEL_GROUP_ORDER}")
    return AbelianGroup(tuple(orders))


def _grading_lines(name, g):
    algebra = g.algebra
    head = f"grading {name}: {g.num_parts} parts"
    if g.labels is not None:
        head += f", labels in {g.group}"
    lines = [head]
    for i, part in enumerate(g.parts):
        label = f" label {format_label(g.labels[i])}" if g.labels else ""
        span = ", ".join(render_coords(v, algebra) for v in part.basis)
        lines.append(f"  [{i}]{label} dim {part.dim}: span({span})")
    return lines


# --- grading subcommands -----------------------------------------------------

def cmd_grading_show(args) -> int:
    entry = catalog(args.catalog)
    g = entry.grading
    _emit(args, _grading_lines(args.catalog, g), g.to_json())
    return 0


def _axiom_lines(cert) -> list:
    """The verdict of a grading certificate, and its violating pair if any."""
    lines = [f"grading axiom: {'holds' if cert.ok else 'FAILS'}"]
    if not cert.ok:
        lines.append(f"  violating part pair: {cert.violation}")
    return lines


def cmd_grading_verify(args) -> int:
    if (args.catalog is None) == (args.input is None):
        raise ValueError("grading verify needs exactly one of --catalog and --input")
    if args.catalog:
        g = catalog(args.catalog).grading
        source, digest = args.catalog, None
    else:
        g, digest = _load_grading(args.input)
        source = args.input
    cert = verify_grading(g)
    labels_ok = None
    if g.labels is not None:
        labels_ok = verify_labeling(g, g.group, g.labels)
    data = {"source": source, "parts": g.num_parts,
            "dims": list(g.part_dims), "is_grading": cert.ok,
            "violation": list(cert.violation) if cert.violation else None,
            "labels_additive": labels_ok}
    if digest:
        data["input_sha256"] = digest
    lines = [f"parts: {g.num_parts}, dims {list(g.part_dims)}"]
    if digest:
        lines.append(f"input sha256: {digest}")
    lines += _axiom_lines(cert)
    if labels_ok is not None:
        lines.append(f"labels additive: {labels_ok}")
    _emit(args, lines, data)
    ok = cert.ok and labels_ok is not False
    return 0 if ok else 1


def cmd_grading_label(args) -> int:
    g = catalog(args.catalog).grading
    group = _group_from_spec(args.group)
    unlabeled = Grading(g.algebra, g.parts)
    labels = search_labeling(unlabeled, group)
    if labels is None:
        _emit(args, [f"no additive labeling of {args.catalog} over {group}"],
              {"catalog": args.catalog, "group": list(group.cyclic_orders),
               "found": False, "labels": None})
        return 1
    lines = [f"labeling of {args.catalog} over {group}:"]
    for i, lab in enumerate(labels):
        lines.append(f"  part [{i}] -> {format_label(lab)}")
    _emit(args, lines,
          {"catalog": args.catalog, "group": list(group.cyclic_orders),
           "found": True, "labels": [list(l) for l in labels]})
    return 0


def cmd_grading_coarsen(args) -> int:
    g = catalog(args.catalog).grading
    merged = []
    used = set()
    for spec_text in args.merge or []:
        try:
            block = tuple(sorted(int(t) for t in spec_text.split(",")))
        except ValueError:
            raise ValueError(f"bad --merge value {spec_text!r}") from None
        for idx in block:
            if idx < 0 or idx >= g.num_parts:
                raise ValueError(f"part index {idx} out of range")
            if idx in used:
                raise ValueError(f"part index {idx} merged twice")
            used.add(idx)
        merged.append(block)
    for idx in range(g.num_parts):
        if idx not in used:
            merged.append((idx,))
    partition = tuple(sorted(merged))
    coarse = coarsen(g, partition)
    cert = verify_grading(coarse)
    lines = [f"coarsening of {args.catalog} by {list(partition)}:"]
    lines.extend(_grading_lines(f"{args.catalog} coarsened", coarse)[1:])
    lines += _axiom_lines(cert)
    data = {"catalog": args.catalog,
            "partition": [list(b) for b in partition],
            "dims": list(coarse.part_dims),
            "is_grading": cert.ok,
            "violation": list(cert.violation) if cert.violation else None,
            "grading": coarse.to_json()}
    _emit(args, lines, data)
    return 0 if cert.ok else 1


# --- normalizer subcommands ----------------------------------------------------

def cmd_normalizer_check(args) -> int:
    entry = catalog(args.catalog)
    auto = _load_automorphism(args.auto, entry.grading.algebra.n)
    verdict = normalizes(auto, entry.spec)
    perm = induced_permutation(auto, entry.grading) if verdict else None
    lines = [f"{args.auto} normalizes the {args.catalog} group: {verdict}"]
    if perm is not None:
        lines.append(f"induced permutation: {perm.cycle_notation()}")
    data = {"catalog": args.catalog, "automorphism": args.auto,
            "normalizes": verdict,
            "permutation": list(perm.mapping) if perm else None,
            "cycles": perm.cycle_notation() if perm else None}
    _emit(args, lines, data)
    return 0 if verdict else 1


def _group_report(q, gen_names):
    profile = q.element_order_profile()
    elements = sorted(
        ({"mapping": list(p.mapping), "order": p.order(),
          "cycles": p.cycle_notation()} for p in q.elements),
        key=lambda e: e["mapping"])
    return {"order": q.order, "exponent": math.lcm(*profile),
            "element_order_profile": {str(k): v
                                      for k, v in sorted(profile.items())},
            "generators": [{"name": n, "cycles": p.cycle_notation()}
                           for n, p in zip(gen_names, q.generators)],
            "elements": elements}


def _group_lines(title, data):
    lines = [f"{title}: order {data['order']}, exponent {data['exponent']}"]
    lines.append("element orders: " + ", ".join(
        f"{v} of order {k}" for k, v in data["element_order_profile"].items()))
    for gen in data["generators"]:
        lines.append(f"  generator {gen['name']}: {gen['cycles']}")
    return lines


def cmd_normalizer_group(args) -> int:
    """`normalizer quotient` and `normalizer inner`: N(G)/G or its inner
    subquotient, generated by all catalog generators or the inner ones."""
    entry = catalog(args.catalog)
    gens = catalog_normalizer_generators(args.catalog)
    names = CATALOG_NORMALIZER_GENERATORS[args.catalog]
    if args.subcommand == "inner":
        title, build = "inner subquotient", inner_subquotient
        names = [n for n, a in zip(names, gens) if a.key[0] == INNER]
    else:
        title, build = "normalizer quotient", quotient_group
    q = build(entry.spec, entry.grading, gens)
    data = {"catalog": args.catalog, **_group_report(q, names)}
    _emit(args, _group_lines(f"{title} of {args.catalog}", data), data)
    return 0


def cmd_normalizer_linearize(args) -> int:
    entry = catalog(args.catalog)
    auto = _load_automorphism(args.auto, entry.grading.algebra.n)
    if not normalizes(auto, entry.spec):
        _emit(args, [f"{args.auto} does not normalize the {args.catalog} group"],
              {"catalog": args.catalog, "automorphism": args.auto,
               "normalizes": False, "matrix": None})
        return 1
    perm = induced_permutation(auto, entry.grading)
    matrix = linearize_on_labels(perm, entry.grading)
    if matrix is None:
        _emit(args, [f"{args.auto} induces {perm.cycle_notation()}, which has "
                     "no linear model on the labels"],
              {"catalog": args.catalog, "automorphism": args.auto,
               "normalizes": True, "permutation": list(perm.mapping),
               "matrix": None})
        return 1
    det = det_mod3(matrix)
    lines = [f"{args.auto} induces {perm.cycle_notation()}",
             f"linear action on labels (mod 3): {matrix[0]} / {matrix[1]}",
             f"determinant mod 3: {det}"]
    data = {"catalog": args.catalog, "automorphism": args.auto,
            "normalizes": True, "permutation": list(perm.mapping),
            "matrix": [list(r) for r in matrix], "det_mod_3": det}
    _emit(args, lines, data)
    return 0


# --- contract subcommands -------------------------------------------------------

def cmd_contract_equations(args) -> int:
    from . import contractions as con
    g = catalog(args.catalog).grading
    system = con.generate_equations(g)
    lines = [f"contraction system for {args.catalog}: "
             f"{system.num_variables} pair variables, "
             f"{len(system.equations)} equations, "
             f"{len(system.free)} unconstrained"]
    lines.append("variables:")
    for i, pair in enumerate(system.variables):
        tag = "" if i in system.active else "  (unconstrained)"
        lines.append(f"  e{i} = {con.format_pair(pair)}{tag}")
    lines.append("equations (monomial m(i,j) = e_i*e_j):")
    for eq in system.equations:
        lines.append(f"  {eq}   [triple {', '.join(eq.triple)}; "
                     f"residual rank {eq.rank}]")
    data = {"catalog": args.catalog, **system.to_json()}
    _emit(args, lines, data)
    return 0


def _mask_to_pair_map(system, mask: int) -> dict:
    from . import contractions as con
    return {con.format_pair(p): bit
            for p, bit in system.mask_to_assignment(mask).items()}


def cmd_contract_solve(args) -> int:
    from . import contractions as con
    if args.limit < 0:
        raise ValueError(f"--limit must be 0 (all) or a positive count, not {args.limit}")
    g = catalog(args.catalog).grading
    system = con.generate_equations(g)
    solved = con.solve_binary(system)
    limit = args.limit
    lines = [f"contraction solutions for {args.catalog}: "
             f"{solved.active_count} constrained patterns x "
             f"2^{len(system.free)} unconstrained pairs = {len(solved)} total"]
    data = {"catalog": args.catalog,
            "variables": [[list(a), list(b)] for a, b in system.variables],
            "free_pairs": [[list(system.variables[i][0]),
                            list(system.variables[i][1])]
                           for i in system.free],
            "constrained_solution_count": solved.active_count,
            "total_solutions": len(solved)}
    shown = [int(m) for m in solved.active_masks[:limit if limit else None]]
    data["solutions"] = [_mask_to_pair_map(system, m) for m in shown]
    data["solutions_shown"] = len(shown)
    data["solutions_note"] = ("constrained patterns; every unconstrained "
                              "pair may independently take either value")
    if limit and solved.active_count > limit:
        lines.append(f"showing first {limit} constrained patterns "
                     "(use --limit 0 for all)")
    lines.extend(f"  pattern {_format_mask(system, m)}" for m in shown)
    if args.orbits:
        entry = catalog(args.catalog)
        q = quotient_group(entry.spec, entry.grading,
                           catalog_normalizer_generators(args.catalog))
        invariant = con.is_invariant(solved, q)
        orbits = con.symmetry_orbits(solved, q, include_free=False)
        lines.append(f"invariant under the order-{q.order} quotient: "
                     f"{invariant}")
        lines.append(f"orbits of constrained patterns: {len(orbits)}")
        sizes = {}
        for o in orbits:
            sizes[o.size] = sizes.get(o.size, 0) + 1
        lines.append("orbit sizes: " + ", ".join(
            f"{v} of size {k}" for k, v in sorted(sizes.items())))
        head = orbits[:limit if limit else None]
        for o in head:
            lines.append(f"  size {o.size:3d}  rep "
                         f"{_format_mask(system, o.representative)}")
        data["orbits"] = {
            "of": "constrained_patterns",
            "quotient_order": q.order,
            "invariant": invariant,
            "count": len(orbits),
            "size_histogram": {str(k): v for k, v in sorted(sizes.items())},
            "orbits": [{"size": o.size,
                        "representative": _mask_to_pair_map(
                            system, o.representative)}
                       for o in orbits]}
    _emit(args, lines, data)
    return 0


def _format_mask(system, mask: int) -> str:
    on = [pair for pair, bit in _mask_to_pair_map(system, mask).items() if bit]
    return "{" + ", ".join(on) + "}" if on else "{}"


# --- selfcheck -------------------------------------------------------------------

def cmd_selfcheck(args) -> int:
    from . import selfcheck
    numbers = None
    if args.only is not None:
        try:
            numbers = sorted({int(t) for t in args.only.split(",")})
        except ValueError:
            raise ValueError(f"bad --only value {args.only!r}; the checks are "
                             f"numbered {min(selfcheck.CHECKS)} to "
                             f"{max(selfcheck.CHECKS)}") from None
    if args.format == "json":
        results = selfcheck.run_all(numbers)
        data = {"results": [{"number": r.number, "title": r.title,
                             "passed": r.passed, "detail": r.detail}
                            for r in results],
                "passed": sum(r.passed for r in results),
                "failed": sum(not r.passed for r in results)}
        sys.stdout.write(_dump(data))
        return 0 if data["failed"] == 0 else 1
    results = selfcheck.run_all(numbers, report=print)
    failed = [r for r in results if not r.passed]
    print(f"\n{len(results) - len(failed)} of {len(results)} checks passed")
    if failed:
        print("failed: " + ", ".join(str(r.number) for r in failed))
    return 0 if not failed else 1


# --- parser -----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse's parser with its usage errors in the CLI's one-line form:
    `error: ...` on stderr and exit code 2, with no usage block.  Subcommand
    parsers are made by `add_parser`, which builds them of this class too."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _subcommand(parsers, name, help, func, options=(), catalog_flag="required"):
    """Add the subcommand `name` running `func`: its --catalog ("required",
    "optional", or None for none), then its own (flag, keywords) `options`,
    then --format, the order its --help lists them in."""
    p = parsers.add_parser(name, help=help)
    if catalog_flag:
        p.add_argument("--catalog", choices=CATALOG, required=catalog_flag == "required",
                       help="one of the four catalog gradings")
    for flag, keywords in options:
        p.add_argument(flag, **keywords)
    p.add_argument("--format", choices=("human", "json"), default="human",
                   help="output format (json is byte-deterministic)")
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gradelab",
        description="Exact-arithmetic workbench for the fine gradings of "
                    "sl(3,C), their normalizer symmetries, and binary "
                    "graded contractions.")
    sub = parser.add_subparsers(dest="command", required=True)

    grading = sub.add_parser("grading", help="catalog gradings and verification")
    gsub = grading.add_subparsers(dest="subcommand", required=True)
    _subcommand(gsub, "show", "print a catalog grading", cmd_grading_show)
    _subcommand(gsub, "verify", "check the grading axiom", cmd_grading_verify,
                [("--input", dict(help="grading JSON file, or - for stdin"))],
                catalog_flag="optional")
    _subcommand(gsub, "label", "search for an additive labeling", cmd_grading_label,
                [("--group", dict(required=True,
                                  help="cyclic orders, e.g. 7 or 3,3"))])
    _subcommand(gsub, "coarsen", "merge parts and re-verify", cmd_grading_coarsen,
                [("--merge", dict(action="append", metavar="I,J[,K...]",
                                  help="part indices to merge (repeatable)"))])

    norm = sub.add_parser("normalizer", help="normalizer quotients")
    nsub = norm.add_subparsers(dest="subcommand", required=True)
    _subcommand(nsub, "check", "does an automorphism normalize a group",
                cmd_normalizer_check,
                [("--auto", dict(required=True,
                                 help="named automorphism (" +
                                      ", ".join(sorted(NAMED_AUTOMORPHISMS)) +
                                      "), a JSON file, or - for stdin"))])
    _subcommand(nsub, "quotient", "the quotient permutation group", cmd_normalizer_group)
    _subcommand(nsub, "inner", "the inner subquotient", cmd_normalizer_group)
    _subcommand(nsub, "linearize", "2x2 model of a label action", cmd_normalizer_linearize,
                [("--auto", dict(required=True,
                                 help="automorphism to linearize (named, file, or -)"))])

    contract = sub.add_parser("contract", help="binary graded contractions")
    csub = contract.add_subparsers(dest="subcommand", required=True)
    _subcommand(csub, "equations", "generate the quadratic relations",
                cmd_contract_equations)
    _subcommand(csub, "solve", "enumerate all binary solutions", cmd_contract_solve,
                [("--orbits", dict(action="store_true",
                                   help="partition solutions into symmetry orbits")),
                 ("--limit", dict(type=int, default=20,
                                  help="solutions/orbits to print (0 = all)"))])

    _subcommand(sub, "selfcheck", "run the golden verification suite", cmd_selfcheck,
                [("--only", dict(help="comma-separated check numbers"))], catalog_flag=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, NodeCapExceeded) as exc:
        # a bad value from outside (an option, a file, GRADELAB_NODE_CAP), or
        # a solve past that node budget, is a usage error, not a negative verdict
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
