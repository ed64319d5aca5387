"""Command-line front end.

    wmha verify   [INPUT] [--preset NAME --model M] [--path P] [--report FILE]
                  [--windows K] [--seed N]
    wmha witnesses [INPUT] [--preset NAME --model M] [--path P]   (finite inputs only)
    wmha classify [INPUT] [--preset NAME --model M] [--windows K] [--seed N]

Options a command does not read for the input given (table READS) exit 2.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 input error,
3 internal error: the engine itself failed, so no verdict and no report.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Tuple

from .fileio import (InputDocument, VerificationFailed, load_document, parse_document,
                     witnesses_to_json)
from .groupoids import InputError, LazyGroupoid, preset
from .pipeline import verify_groupoid_model, verify_lazy_model, verify_structure
from .report import PASS, VerificationReport


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wmha",
        description="exact verification of weak multiplier Hopf algebra structure")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("verify", "run the verification pipeline"),
                            ("witnesses", "print the certified witnesses"),
                            ("classify", "print the one-line classification")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", nargs="?", help="JSON input document")
        p.add_argument("--preset", help="named groupoid instead of an input file")
        p.add_argument("--model", choices=["function", "convolution"],
                       help="model algebra for groupoid inputs")
        p.add_argument("--path", choices=["def114", "thm29", "both"],
                       help="verification path (default: def114)")
        p.add_argument("--report", metavar="FILE", help="write the JSON report here")
        p.add_argument("--seed", type=int,
                       help="seed for sampled checks on lazy models")
        p.add_argument("--windows", type=int, metavar="K",
                       help="number of windows for lazy models (default: 3)")
    return parser


# The options each command reads, per input kind; any other option given
# exits 2.  INPUT and --preset are the input itself.  witnesses has no
# lazy row: it refuses a lazy input whatever the options.
READS = {
    "verify": {"structure": ("path", "report"),
               "finite": ("model", "path", "report"),
               "lazy": ("model", "path", "report", "seed", "windows")},
    "witnesses": {"structure": ("path",),
                  "finite": ("model", "path")},
    "classify": {"structure": (),
                 "finite": ("model",),
                 "lazy": ("model", "seed", "windows")},
}
KIND_TEXT = {"structure": "a structure document", "finite": "a finite groupoid",
             "lazy": "an infinite groupoid"}


def _resolve(args) -> Tuple[InputDocument, str]:
    """The input and its kind ("structure", "finite" or "lazy"), after
    checking every given option against READS.  Absent options take the
    values the run uses: path def114 (both for classify), 3 windows, seed 0."""
    if args.preset:
        if args.input:
            raise InputError("give an input file or --preset NAME --model M, not both")
        if not args.model:
            raise InputError("--preset needs --model function|convolution")
        parsed = parse_document({"groupoid": {"preset": args.preset}, "model": args.model})
    elif args.input:
        parsed = parse_document(load_document(args.input))
    else:
        raise InputError("give an input file or --preset NAME --model M")
    kind = "structure" if parsed.kind == "structure" else \
        "lazy" if isinstance(parsed.groupoid, LazyGroupoid) else "finite"

    if kind == "lazy":
        if kind not in READS[args.command]:
            # a lazy run certifies windows, not one witness set to print
            raise InputError(f"{args.command} needs a finite input; certify the windows of "
                             "an infinite groupoid with wmha verify --windows K")
        if args.windows is not None and args.windows < 1:
            # no window would be verified, so a pass would certify nothing
            raise InputError(f"--windows must be at least 1, got {args.windows}")
        if args.path not in (None, "def114"):
            # each window runs the def114 path; no thm29 check would run
            raise InputError(f"--path {args.path} needs a finite input; the windows of "
                             "an infinite groupoid are verified on the def114 path")
    reads = READS[args.command][kind]
    for name, value in vars(args).items():
        if value is not None and name not in ("command", "input", "preset", *reads):
            raise InputError(f"wmha {args.command} does not read --{name} "
                             f"on {KIND_TEXT[kind]}")

    if args.model:
        parsed.model = args.model
    args.path = args.path or ("both" if args.command == "classify" else "def114")
    args.windows = 3 if args.windows is None else args.windows
    args.seed = args.seed or 0
    return parsed, kind


def _run(parsed: InputDocument, kind: str, args) -> VerificationReport:
    if kind == "lazy":
        report = verify_lazy_model(parsed.groupoid, parsed.model,
                                   k_max=args.windows, seed=args.seed)
    else:
        report, ctx = verify_groupoid_model(parsed.groupoid, parsed.model, path=args.path) \
            if kind == "finite" else verify_structure(parsed.structure, path=args.path)
        report.witnesses = witnesses_to_json(ctx)
    report.input_digest = parsed.digest
    return report


def cmd_verify(args) -> int:
    report = _run(*_resolve(args), args)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    for c in report.sorted_checks():
        print(f"{c.status:4} {c.check_id}: {c.detail}")
    if report.verdict == PASS:
        print("verdict: pass")
        return 0
    first = report.first_failure()
    print(f"verdict: fail (first failing check: {first.check_id})")
    return 1


def cmd_witnesses(args) -> int:
    report = _run(*_resolve(args), args)
    if report.verdict != PASS:
        first = report.first_failure()
        raise VerificationFailed(f"verification failed at {first.check_id}: {first.detail}")
    print(json.dumps(report.witnesses, indent=2, sort_keys=True))
    return 0


def cmd_classify(args) -> int:
    parsed, kind = _resolve(args)
    report = _run(parsed, kind, args)

    def mark(flag):
        return "✓" if flag else "✗"

    cls = report.classification
    if kind == "lazy":
        print(f"wmha {mark(report.verdict == PASS)} (per window), weak_hopf ✗ (non-unital)")
    else:
        star = cls.get("star")
        star_text = "-" if star is None else mark(star)
        print(f"wmha {mark(cls.get('wmha'))}, regular {mark(cls.get('regular'))}, "
              f"star {star_text}, weak_hopf {mark(cls.get('weak_hopf'))}, "
              f"hopf {mark(cls.get('hopf'))}")
    return 0 if report.verdict == PASS else 1


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "witnesses":
            return cmd_witnesses(args)
        return cmd_classify(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except VerificationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # an engine fault, not a counterexample: never reported as a verdict
        import traceback  # only on this path, to keep start-up cheap
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
