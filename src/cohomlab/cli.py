"""Command-line interface.

  cohomlab analyze INPUT.json [--view V] [--spectral R] [--format F] [--out P]
  cohomlab analyze --builtin iwasawa-symplectic
  cohomlab fuzz --seed 0 --iters 100 --shapes dot:2,zigzag:1

Exit codes: 0 success, 1 parse error, 2 validation error, 3 property
failure or engine crash (fuzz).
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback

from .complexes import DoubleComplex
from .geometry import BUILTIN_NAMES, builtin, ce_complex
from .io import (
    MAX_TOTAL_DIM,
    BuildResult,
    ParseError,
    ValidationError,
    build,
    canonical_json,
    check_lie_dim,
    document_for_double_complex,
    load_document,
)
from .properties import PropertyFailure, check_bicomplex
from .randomgen import assemble, random_bicomplex
from .report import VIEWS, input_echo, make_report, render

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_PROPERTY = 3

DEFAULT_SHAPES = "dot:2,square:1,hseg:1,vseg:1,zigzag:1"

# the largest dimension of each shape kind random_bicomplex draws
_MAX_SHAPE_DIM = {"dot": 1, "hseg": 2, "vseg": 2, "square": 4, "zigzag": 5}


def _builtin_result(name):
    obj = builtin(name)
    if isinstance(obj, tuple):
        pair, ops = obj
        return BuildResult("lie_symplectic", pair, ops=ops)
    if isinstance(obj, DoubleComplex):
        return BuildResult("lie_complex", obj)
    # a plain algebra presentation
    check_lie_dim(obj.n, "builtin %s" % name)
    return BuildResult("lie_algebra", ce_complex(obj), lie=obj)


def _cmd_analyze(args, out, err):
    if (args.input is None) == (args.builtin is None):
        print("analyze: give an input file or --builtin, not both", file=err)
        return EXIT_PARSE
    # pages stop changing once r passes the total dimension, which is
    # at most MAX_TOTAL_DIM, so a larger R only repeats the last page
    if args.spectral is not None and not 1 <= args.spectral <= MAX_TOTAL_DIM:
        raise ParseError("--spectral R must be between 1 and the bound %d, got %d"
                         % (MAX_TOTAL_DIM, args.spectral))
    if args.builtin is not None:
        raw = {"builtin": args.builtin}
        result = _builtin_result(args.builtin)
    else:
        doc = load_document(args.input)
        raw = doc.raw
        result = build(doc)
    if args.spectral is not None and result.kind not in (
        "double_complex", "lie_complex"
    ):
        result.warnings.append(
            "spectral pages apply to double complexes; flag ignored")
        rmax = None
    else:
        rmax = args.spectral
    report = make_report(result, input_echo(raw), view=args.view,
                         spectral_rmax=rmax)
    text = render(report, args.format)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise ParseError("cannot write %s: %s" % (args.out, e))
    else:
        out.write(text)
    return EXIT_OK


def _parse_shape_counts(spec):
    counts = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ParseError("--shapes entries look like kind:count, got %r" % part)
        kind, _, num = part.partition(":")
        kind = kind.strip()
        if kind not in _MAX_SHAPE_DIM:
            raise ParseError("unknown shape kind %r" % kind)
        try:
            n = int(num)
        except ValueError:
            raise ParseError("bad count in --shapes entry %r" % part)
        if n < 0:
            raise ParseError("negative count in --shapes entry %r" % part)
        counts[kind] = counts.get(kind, 0) + n
    # a draw may reach the same total dimension bound as an analyze input
    top = sum(_MAX_SHAPE_DIM[kind] * n for kind, n in counts.items())
    if top > MAX_TOTAL_DIM:
        raise ParseError("--shapes may draw total dimension %d, above the bound %d"
                         % (top, MAX_TOTAL_DIM))
    return counts


def _minimize(shapes, prop):
    """Greedy shape removal keeping the named property failing."""
    shapes = list(shapes)

    def still_fails(sub):
        try:
            check_bicomplex(assemble(sub), shapes=sub)
        except PropertyFailure as e:
            return e.prop == prop
        except Exception:
            return True  # an engine crash is as much worth reporting
        return False

    changed = True
    while changed:
        changed = False
        for i in range(len(shapes)):
            sub = shapes[:i] + shapes[i + 1:]
            if still_fails(sub):
                shapes = sub
                changed = True
                break
    return shapes


def _fuzz_one(seed, counts):
    """(seed, draw, PropertyFailure) for a failing seed, else None.

    An engine exception is a failure of the property "crash"."""
    rb = random_bicomplex(seed, {"counts": counts})
    try:
        check_bicomplex(rb.dc, shapes=rb.shapes)
    except PropertyFailure as e:
        return (seed, rb, e)
    except Exception as e:
        crash = PropertyFailure("crash", repr(e))
        crash.__cause__ = e
        return (seed, rb, crash)
    return None


def _cmd_fuzz(args, out, err):
    if args.iters < 0:
        raise ParseError("--iters must not be negative, got %d" % args.iters)
    counts = _parse_shape_counts(args.shapes)
    for seed in range(args.seed, args.seed + args.iters):
        failure = _fuzz_one(seed, counts)
        if failure is not None:
            break
    else:
        print("fuzz: %d iterations, all properties hold" % args.iters, file=out)
        return EXIT_OK
    seed, rb, exc = failure
    small = _minimize(rb.shapes, exc.prop)
    dc = assemble(small)
    path = args.reproducer or ("fuzz-reproducer-%d.json" % seed)
    print("fuzz: property %r failed at seed %d (%s)"
          % (exc.prop, seed, exc.detail), file=err)
    if exc.__cause__ is not None:
        traceback.print_exception(exc.__cause__, file=err)
    try:
        with open(path, "w") as fh:
            fh.write(canonical_json(document_for_double_complex(dc)) + "\n")
    except OSError as e:
        print("fuzz: cannot write the reproducer to %s: %s" % (path, e), file=err)
    else:
        print("fuzz: minimized reproducer (%d shapes) written to %s"
              % (len(small), path), file=err)
    return EXIT_PROPERTY


class _Parser(argparse.ArgumentParser):
    # usage mistakes are parse errors (exit 1), not argparse's default 2,
    # which this tool reserves for validation failures
    def error(self, message):
        raise ParseError(message)


# Built once per process: main may run many times in one interpreter,
# and parse_args keeps no state in the parser between calls.
@functools.cache
def _build_parser():
    ap = _Parser(
        prog="cohomlab",
        description="Exact cohomology tables for double complexes, "
                    "bidifferential pairs, and Lie-algebra models.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="compute a report for one input")
    an.add_argument("input", nargs="?", help="JSON input document")
    an.add_argument("--builtin", metavar="NAME",
                    help="use a stock example instead of a file: "
                         + ", ".join(BUILTIN_NAMES))
    an.add_argument("--view", choices=VIEWS, default="bigraded")
    an.add_argument("--spectral", type=int, metavar="R",
                    help="include spectral pages up to E_R")
    an.add_argument("--format", choices=("json", "md", "csv"), default="json")
    an.add_argument("--out", metavar="PATH", help="write the report here")

    fz = sub.add_parser("fuzz", help="run the property suite on random complexes")
    fz.add_argument("--seed", type=int, default=0)
    fz.add_argument("--iters", type=int, default=100)
    fz.add_argument("--shapes", default=DEFAULT_SHAPES,
                    metavar="LIST", help="comma list of kind:count, e.g. %r"
                    % DEFAULT_SHAPES)
    fz.add_argument("--reproducer", metavar="PATH",
                    help="where to write the minimized failing input")
    return ap


def main(argv=None, out=None, err=None):
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
        if args.command == "analyze":
            return _cmd_analyze(args, out, err)
        return _cmd_fuzz(args, out, err)
    except ParseError as e:
        print("error: %s" % e, file=err)
        return EXIT_PARSE
    except ValidationError as e:
        for v in e.violations:
            print("invalid input: %s" % v, file=err)
        return EXIT_VALIDATION
    except ValueError as e:
        # unknown builtin names, bad views and the like
        print("error: %s" % e, file=err)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
