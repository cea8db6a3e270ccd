"""Command-line front end.

`main` is the one place that turns a command line into inputs: once
argparse has accepted it (exit 2 otherwise), main parses --field, reads the
--code and --code2 files (refusing a file whose header names a kind the verb
does not read), prints the field spec line with the modulus in effect, and
only then runs the verb on the parsed objects.  Verbs use stable orderings
everywhere; a domain error is one `error:` line and exit code 1, and a
closed stdout ends in exit code 1 with no traceback.
Randomised checks take an explicit --seed (default 0) so runs are
byte-reproducible.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .automorphisms import mat_aut_brute, rm_aut_brute, rm_aut_group
from .codes import (
    DEFAULT_GUARD,
    GabidulinCode,
    MatrixCode,
    RankMetricCode,
    compress_code,
    expand_code,
    format_code_file,
    gabidulin,
    min_rank_distance,
    parse_code_file,
    rank_weight,
)
from .equivalence import (
    MODES,
    RmMap,
    are_equivalent,
    format_map,
    mat_apply,
    parse_map,
    rm_apply,
)
from .errors import BadParams, RmcodesError
from .fields import (
    FieldTower,
    OrderedBasis,
    find_normal_element,
    format_element,
    normal_basis_from,
    parse_element,
    parse_field_spec,
    parse_int,
    power_basis,
)
from .matrices import format_matrix, parse_matrix
from .subspaces import (
    Subspace,
    SubspaceCode,
    format_subspace_file,
    lift,
    parse_subspace_file,
    subspace_distance,
    unlift,
)
from .verify import EXAMPLE_IDS, run_example

# options several verbs read; each verb registers only those it reads
_SHARED_OPTIONS = {
    "field": dict(required=True, help="gf(p,e,m;modulus=[...])"),
    "code": dict(required=True, help="code file"),
    "basis": dict(help="elements, or 'power'/'normal' (default power)"),
    "out": dict(help="write the file here (default: standard output)"),
    "guard": dict(type=int, default=DEFAULT_GUARD, help="max enumeration size before refusing"),
}
_CODE_FILES = ("rankmetric", "gabidulin", "matrix")  # the headers parse_code_file reads


def _parse_basis(tower: FieldTower, text: str | None) -> OrderedBasis:
    if text is None or text == "power":
        return power_basis(tower)
    if text == "normal":
        return normal_basis_from(find_normal_element(tower))
    return OrderedBasis(_parse_vector(tower, text))


def _parse_vector(tower: FieldTower, text: str):
    return tuple(parse_element(tower, tok) for tok in text.split(","))


def _load(path: str, verb: str, reads: tuple[str, ...]):
    """The code or subspace-code file at path, refused before it is parsed
    unless its header line is one that the verb reads."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise BadParams(f"cannot read {path}: {exc.strerror}") from None
    header = (text.strip().splitlines() or [""])[0].strip()
    if header not in reads:
        raise BadParams(f"{path} has header {header!r}; {verb} reads "
                        f"{' or '.join(reads)} files")
    return (parse_subspace_file if header == "subspace" else parse_code_file)(text)


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _cmd_field(args) -> int:
    tower = args.field
    print(f"p={tower.p} e={tower.e} m={tower.m} q={tower.q} |F|={tower.order}")
    print(f"modulus: {list(tower.modulus)}")
    # the generator is t = g^1 (g^0 in F_2); format_element would build the tables
    print(f"generator: g^{1 % tower.mult_order} "
          f"(multiplicative order {tower.mult_order})")
    subs = [d for d in range(1, tower.m + 1) if tower.m % d == 0]
    print("subfields: " + ", ".join(f"F_{tower.q**d} (d={d})" for d in subs))
    return 0


def _cmd_gab(args) -> int:
    code = gabidulin(args.k, _parse_vector(args.field, args.g))
    print(f"gabidulin code: l={code.l}, k={code.k}, |C|={code.size}")
    if code.size <= args.guard:
        print(f"d_R,min={min_rank_distance(code, guard=args.guard)}")
    else:
        print("d_R,min skipped (code larger than guard)")
    _emit(format_code_file(code), args.out)
    return 0


def _cmd_expand(args) -> int:
    basis = _parse_basis(args.code.tower, args.basis)
    print(f"basis: {basis}")
    mc = expand_code(args.code, basis)
    print(f"expanded matrix code: {mc.l}x{mc.m}, dim={mc.dim}, |C|={mc.size}")
    _emit(format_code_file(mc), args.out)
    return 0


def _cmd_compress(args) -> int:
    basis = _parse_basis(args.code.tower, args.basis)
    print(f"basis: {basis}")
    rm = compress_code(args.code, basis)
    print(f"compressed rank-metric code: l={rm.l}, k={rm.k}, |C|={rm.size}")
    _emit(format_code_file(rm), args.out)
    return 0


def _cmd_lift(args) -> int:
    pivots = tuple(parse_int(tok, "a pivot") for tok in args.pivots.split(","))
    sc = lift(args.code, pivots, guard=args.guard)
    print(f"lifted subspace code: n={sc.n}, dim={sc.dim}, |C|={sc.size}, "
          f"pivots={list(pivots)}")
    _emit(format_subspace_file(sc), args.out)
    return 0


def _cmd_unlift(args) -> int:
    pivots, mc = unlift(args.code)
    print(f"pivots: {list(pivots)}")
    print(f"underlying matrix code: {mc.l}x{mc.m}, dim={mc.dim}")
    _emit(format_code_file(mc), args.out)
    return 0


def _cmd_dist(args) -> int:
    tower = args.field
    if args.kind == "subspace":
        U = Subspace(parse_matrix(tower, args.u, subdeg=1))
        V = Subspace(parse_matrix(tower, args.v, subdeg=1))
        print(f"d_S = {subspace_distance(U, V)}")
    else:
        x = _parse_vector(tower, args.u)
        y = _parse_vector(tower, args.v)
        if len(x) != len(y):
            raise BadParams("vectors must have equal length")
        basis = _parse_basis(tower, args.basis)
        diff = tuple(a - b for a, b in zip(x, y))
        print(f"d_R = {rank_weight(diff, basis)}")
    return 0


def _cmd_mindist(args) -> int:
    if isinstance(args.code, SubspaceCode):
        d = args.code.min_distance(args.guard)
        print(f"d_S,min = {d if d is not None else 'none (fewer than two words)'}")
    else:
        print(f"d_R,min = {min_rank_distance(args.code, guard=args.guard)}")
    return 0


def _cmd_apply(args) -> int:
    tower = args.field
    f = parse_map(tower, args.map)
    if args.x is not None:
        if isinstance(f, RmMap):
            out = rm_apply(f, _parse_vector(tower, args.x))
            print(",".join(format_element(v) for v in out))
        else:
            A = parse_matrix(tower, args.x, subdeg=1)
            print(format_matrix(mat_apply(f, A)))
        return 0
    code = args.code
    if code is None:
        raise BadParams("apply needs --x or --code")
    if isinstance(f, RmMap):
        if not isinstance(code, RankMetricCode):
            raise BadParams("rm maps act on rank-metric codes")
        image = rm_apply(f, code)
    else:
        if not isinstance(code, MatrixCode):
            raise BadParams("mat maps act on matrix codes")
        image = mat_apply(f, code)
    _emit(format_code_file(image), args.out)
    return 0


def _cmd_compose(args) -> int:
    maps = [parse_map(args.field, text) for text in args.map]
    if len(maps) < 2:
        raise BadParams("compose needs at least two --map arguments")
    acc = maps[0]
    for f in maps[1:]:
        acc = acc.compose(f)
    print(format_map(acc))
    return 0


def _cmd_order(args) -> int:
    print(f"order = {parse_map(args.field, args.map).order()}")
    return 0


def _cmd_equiv(args) -> int:
    result = are_equivalent(args.code, args.code2, args.mode, guard=args.guard)
    if result.equivalent:
        print(f"EQUIVALENT after {result.checked} maps")
        print(f"witness: {format_map(result.witness)}")
    else:
        print(f"NOT EQUIVALENT ({result.reason}; {result.checked} maps checked)")
    return 0


def _cmd_aut(args) -> int:
    code = args.code
    brute = None
    if isinstance(code, MatrixCode):
        group = mat_aut_brute(code, guard=args.guard)
        print(f"matrix automorphism group: order {group.order}")
    elif isinstance(code, GabidulinCode) and code.k < code.l:
        group = rm_aut_group(code)
        print(f"rank-metric automorphism group: order {group.order}, d = {group.d}")
    else:  # no analytic form (k = l is the full space): the guard applies
        group = brute = rm_aut_brute(code, guard=args.guard)
        print(f"rank-metric automorphism group (brute): order {group.order}")
    print("generators:")
    for f in group.generators:
        print(f"  {format_map(f)}")
    if args.oracle:
        if isinstance(code, MatrixCode):
            print("oracle: brute enumeration is already exact; MATCH")
        else:
            if brute is None:
                brute = rm_aut_brute(code, guard=args.guard)
            verdict = "MATCH" if group.same_elements(brute) else "MISMATCH"
            print(f"analytic order {group.order}; brute order {brute.order}; "
                  f"{verdict}")
    if args.full:
        print("elements:")
        for f in group.elements:
            print(f"  {format_map(f)}")
    return 0


def _cmd_verify_paper(args) -> int:
    report = run_example(args.example, seed=args.seed)
    print(report.render())
    return 0 if report.passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: main reuses it."""
    parser = argparse.ArgumentParser(
        prog="rmcodes",
        description="rank-metric, matrix and lifted subspace codes: "
                    "construction, distances, equivalence and automorphisms")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, help_text, *shared, reads=_CODE_FILES):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn, reads=reads)
        for opt in shared:
            p.add_argument(f"--{opt}", **_SHARED_OPTIONS[opt])
        return p

    add("field", _cmd_field, "describe a field tower", "field")

    p = add("gab", _cmd_gab, "construct a Gabidulin code", "field", "out", "guard")
    p.add_argument("--g", required=True, help="comma-separated vector entries")
    p.add_argument("--k", type=int, required=True)

    add("expand", _cmd_expand, "expand a rank-metric code to a matrix code",
        "code", "basis", "out", reads=_CODE_FILES[:2])
    add("compress", _cmd_compress, "compress a matrix code to a rank-metric code",
        "code", "basis", "out", reads=("matrix",))

    p = add("lift", _cmd_lift, "lift a matrix code to a subspace code",
            "code", "out", "guard", reads=("matrix",))
    p.add_argument("--pivots", required=True, help="ascending 1-based columns")

    add("unlift", _cmd_unlift, "recover pivots and the underlying matrix code",
        "code", "out", reads=("subspace",))

    p = add("dist", _cmd_dist, "distance between two vectors or subspaces",
            "field", "basis")
    p.add_argument("--kind", choices=("rank", "subspace"), default="rank")
    p.add_argument("--u", required=True, help="vector or subspace basis matrix")
    p.add_argument("--v", required=True)

    add("mindist", _cmd_mindist, "minimum distance of a code file", "code", "guard",
        reads=(*_CODE_FILES, "subspace"))

    p = add("apply", _cmd_apply, "apply an equivalence map", "field", "out")
    p.add_argument("--map", required=True)
    p.add_argument("--x", help="inline vector (rm) or matrix (mat)")
    p.add_argument("--code", help="code file to map")

    p = add("compose", _cmd_compose, "compose maps left to right", "field")
    p.add_argument("--map", action="append", required=True)

    p = add("order", _cmd_order, "order of a map in its group", "field")
    p.add_argument("--map", required=True)

    p = add("equiv", _cmd_equiv, "exhaustive equivalence test for two code files",
            "code", "guard")
    p.add_argument("--code2", required=True)
    p.add_argument("--mode", required=True, choices=MODES)

    p = add("aut", _cmd_aut, "automorphism group of a code file", "code", "guard")
    p.add_argument("--full", action="store_true", help="print all elements")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against brute force")

    p = add("verify-paper", _cmd_verify_paper,
            "re-run a published worked example and diff every stated value")
    p.add_argument("--example", required=True, choices=EXAMPLE_IDS)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomised checks (default 0)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "field" in args:
            args.field = parse_field_spec(args.field)
        for opt in ("code", "code2"):
            if (path := getattr(args, opt, None)) is not None:
                setattr(args, opt, _load(path, args.verb, args.reads))
        if "field" in args or "code" in args:
            tower = args.field if "field" in args else args.code.tower
            print(f"field: {tower.spec_string()}")
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except RmcodesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull, so that the flush at
        # exit raises nothing (the recipe in the Python signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
