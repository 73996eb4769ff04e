"""Command-line front end.

Every numeric flag takes exact input: plain rationals as "p/q", field
scalars as "p/q+r/s*sqrt(d)".  Decimal input is rejected so no
precision is lost at the boundary.  Exit codes: 0 ok, 1 input error
(including a --bound, --factor or --max-len that is not positive),
2 internal error: an internal invariant violation or any other
unexpected exception, reported as one "InternalError: ..." line on
stderr.  A usage error (an unknown command or option, or a missing
required one) also exits 2: argparse reports it before any command
runs.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cache

from .analysis import (accumulate_tangent, complete_parabolicity_check,
                       complete_periodicity_scan, field_bound,
                       rank_lower_bound, sweep)
from .cylinders import decompose
from .deform import shear, stretch, verify_linearity
from .equivalence import translation_equivalent
from .errors import FlatdefError, InternalInvariantError
from .field import FieldScalar, Vec2, _positive, parse_scalar
from .serialize import (FORMAT_VERSION, decomposition_to_json, dump_surface,
                        dumps, load_surface, span_to_json)
from .surface import l_shape, square_tiled


def _scalar(text: str) -> FieldScalar:
    if re.search(r"\d+\.\d+", text):
        raise FlatdefError(
            f"decimal input {text!r} rejected; use exact rationals p/q")
    return parse_scalar(text)


def _direction(text: str) -> Vec2:
    parts = text.split(",")
    if len(parts) != 2:
        raise FlatdefError(f"direction must be 'dx,dy', got {text!r}")
    return Vec2(_scalar(parts[0]), _scalar(parts[1]))


def _parse_cycles(text: str):
    text = text.strip()
    if text in ("", "()", "id"):
        return []
    cycles = re.findall(r"\(([^()]*)\)", text)
    if not cycles:
        raise FlatdefError(f"cannot parse cycle notation {text!r}")
    out = []
    for cyc in cycles:
        if not re.fullmatch(r"[0-9,\s]*", cyc):
            raise FlatdefError(f"bad cycle ({cyc}) in {text!r}: entries "
                               f"are square numbers in ASCII digits")
        entries = [int(x) for x in re.split(r"[,\s]+", cyc.strip()) if x]
        if entries:
            out.append(tuple(entries))
    return out


def _emit(args, payload: dict):
    text = dumps(payload)
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_validate(args):
    surface = load_surface(args.surface)
    data = surface.singularities()
    m = 2 * data.genus + data.num_points - 1
    sig = ",".join(str(k) for k in data.signature)
    print(f"genus {data.genus}, signature ({sig}), m={m}, "
          f"area {surface.area()}")
    return 0


def _max_len_sq(args) -> FieldScalar:
    """The squared --max-len; NonPositiveLength unless it is positive."""
    radius = _positive("max_len", _scalar(args.max_len))
    return radius * radius


def _bound_kwargs(args):
    """--bound and --factor as trace keywords, each refused unless positive."""
    kw = {}
    if args.bound is not None:
        kw["trace_length"] = _positive("bound", _scalar(args.bound))
    if args.factor is not None:
        _positive("factor", args.factor)
        kw["trace_factor"] = args.factor
    return kw


def cmd_decompose(args):
    surface = load_surface(args.surface)
    v = _direction(args.direction)
    dec = decompose(surface, v, **_bound_kwargs(args))
    svg = None
    if args.svg:  # drawn before any file opens, so a failure writes none
        from .render import render_surface  # imported only to draw
        svg = render_surface(surface, dec)
    _emit(args, decomposition_to_json(dec))
    if svg is not None:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
    return 0


def _deform_common(args, op):
    surface = load_surface(args.surface)
    v = _direction(args.direction)
    dec = decompose(surface, v, **_bound_kwargs(args))
    ids = None
    if args.subset is not None:
        if not re.fullmatch(r"[0-9]+(,[0-9]+)*", args.subset):
            raise ValueError(f"--subset {args.subset!r}: cylinder ids are "
                             f"comma-separated ASCII digits")
        if not args.uncertified:
            raise FlatdefError(
                "shearing a proper cylinder subset is not certified by the "
                "full-set deformation rule; pass --uncertified to proceed")
        ids = [int(x) for x in args.subset.split(",")]
    else:
        if not dec.is_periodic:
            raise FlatdefError(
                f"direction is {dec.status}, not certified Periodic; "
                f"use --subset with --uncertified for partial sets")
    amount = _scalar(args.amount)
    if op == "shear":
        result = shear(surface, dec, amount, ids)
        linear = verify_linearity(surface, dec.frame, dec, amount, ids)
        print(f"linearity check: {str(linear).lower()}")
        if args.check_equivalent:
            print(f"translation equivalent to input: "
                  f"{str(translation_equivalent(surface, result)).lower()}")
    else:
        result = stretch(surface, dec, amount, ids)
    dump_surface(result, args.output)
    return 0


def cmd_shear(args):
    return _deform_common(args, "shear")


def cmd_stretch(args):
    return _deform_common(args, "stretch")


def cmd_rank(args):
    surface = load_surface(args.surface)
    decompositions = sweep(surface, _max_len_sq(args), **_bound_kwargs(args))
    span = accumulate_tangent(surface, decompositions)
    k_lb = rank_lower_bound(span)
    payload = span_to_json(span, k_lb)
    payload["directions_scanned"] = len(decompositions)
    _emit(args, payload)
    print(f"dim_C {span.dim()}, p-dim {span.p_dim()}, "
          f"rank lower bound {k_lb}", file=sys.stderr)
    return 0


def cmd_scan(args):
    surface = load_surface(args.surface)
    decompositions = sweep(surface, _max_len_sq(args), **_bound_kwargs(args))
    if args.mode == "periodicity":
        rep = complete_periodicity_scan(decompositions)
    elif args.mode == "parabolicity":
        rep = complete_parabolicity_check(decompositions)
    else:
        rep = {"mode": "field", "directions": len(decompositions),
               "entries": [field_bound(dec) for dec in decompositions
                           if dec.cylinders]}
    rep["format"] = FORMAT_VERSION
    _emit(args, rep)
    return 0


def cmd_render(args):
    surface = load_surface(args.surface)
    kw = _bound_kwargs(args)
    dec = None
    if args.direction:
        dec = decompose(surface, _direction(args.direction), **kw)
    from .render import render_surface
    svg = render_surface(surface, dec)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return 0


def cmd_make_origami(args):
    surf = square_tiled(_parse_cycles(args.right), _parse_cycles(args.up),
                        n=args.squares, label=args.label or "")
    dump_surface(surf, args.output)
    return 0


def cmd_make_lshape(args):
    surf = l_shape(_scalar(args.w1), _scalar(args.h1), _scalar(args.w2),
                   _scalar(args.h2), label=args.label or "")
    dump_surface(surf, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argument parser; each command runs cmd_<command>, with "-" as "_"."""
    parser = argparse.ArgumentParser(
        prog="flatdef",
        description="Exact cylinder decompositions and deformation "
                    "certificates for translation surfaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_bounds(p):
        p.add_argument("--bound", help="trace length bound, exact rational")
        p.add_argument("--factor", type=int, default=None,
                       help="bound factor x longest edge (default 20)")

    p = sub.add_parser("validate", help="check a surface file")
    p.add_argument("surface")

    p = sub.add_parser("decompose", help="cylinders in one direction")
    p.add_argument("surface")
    p.add_argument("--direction", required=True, help="dx,dy exact")
    add_bounds(p)
    p.add_argument("--svg", help="also render the decomposition")
    p.add_argument("-o", "--output", help="write JSON here")

    for name, helptext, flag in (
        ("shear", "cylinder shear u_t on a certified direction", "--t"),
        ("stretch", "cylinder stretch (vertical factor 1+s)", "--s"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("surface")
        p.add_argument("--direction", required=True)
        p.add_argument(flag, dest="amount", required=True)
        p.add_argument("--subset", help="comma-separated cylinder ids")
        p.add_argument("--uncertified", action="store_true",
                       help="allow proper subsets (not orbit-certified)")
        if name == "shear":
            p.add_argument("--check-equivalent", action="store_true")
        add_bounds(p)
        p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("rank", help="tangent span certificate")
    p.add_argument("surface")
    p.add_argument("--max-len", required=True,
                   help="saddle connection length bound, exact rational")
    add_bounds(p)
    p.add_argument("-o", "--output")

    p = sub.add_parser("scan", help="per-direction reports")
    p.add_argument("surface")
    p.add_argument("--max-len", required=True)
    p.add_argument("--mode", choices=["periodicity", "parabolicity", "field"],
                   default="periodicity")
    add_bounds(p)
    p.add_argument("-o", "--output")

    p = sub.add_parser("render", help="SVG picture of a surface")
    p.add_argument("surface")
    p.add_argument("--direction", help="color the cylinders this way")
    add_bounds(p)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("make-origami", help="build a square-tiled surface")
    p.add_argument("--squares", type=int, required=True)
    p.add_argument("--right", required=True, help="cycle notation, e.g. (1 2)")
    p.add_argument("--up", required=True)
    p.add_argument("--label")
    p.add_argument("output")

    p = sub.add_parser("make-lshape", help="build an L-shaped surface")
    for name in ("w1", "h1", "w2", "h2"):
        p.add_argument(f"--{name}", required=True,
                       help=f"{name} as exact scalar; use --{name}=VALUE "
                            f"when the value starts with a minus")
    p.add_argument("--label")
    p.add_argument("output")
    return parser


# parsing leaves the parser as it was, so one serves every call
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # the command is looked up when it runs, not when the parser was built
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except FlatdefError as exc:
        print(f"{exc.name}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"InputError: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"InternalInvariantError: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, never bad input: keep it off exit 1
        print(f"InternalError: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
