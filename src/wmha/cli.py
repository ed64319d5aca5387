"""Command-line front end.

    wmha verify   [INPUT] [--preset NAME --model M] [--path P] [--report FILE]
    wmha witnesses [INPUT] [--preset NAME --model M]   (finite inputs only)
    wmha classify [INPUT] [--preset NAME --model M]

Exit codes: 0 all checks pass, 1 at least one check fails, 2 input error,
3 internal error: the engine itself failed, so no verdict and no report.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .fileio import (InputDocument, ParseError, ShapeError, VerificationFailed,
                     load_document, parse_document, witnesses_to_json)
from .groupoids import (BadParameter, LazyGroupoid, UnknownPreset, preset)
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
        p.add_argument("--path", choices=["def114", "thm29", "both"], default="def114",
                       help="verification path (default: def114)")
        p.add_argument("--report", metavar="FILE", help="write the JSON report here")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for sampled checks on lazy models")
        p.add_argument("--windows", type=int, default=3, metavar="K",
                       help="number of windows for lazy models (default: 3)")
    return parser


def _resolve_input(args) -> InputDocument:
    if args.preset:
        if args.input:
            raise ParseError("give an input file or --preset NAME --model M, not both")
        if not args.model:
            raise ParseError("--preset needs --model function|convolution")
        doc = {"groupoid": {"preset": args.preset}, "model": args.model}
        return parse_document(doc)
    if not args.input:
        raise ParseError("give an input file or --preset NAME --model M")
    doc = load_document(args.input)
    parsed = parse_document(doc)
    if args.model and parsed.kind == "groupoid":
        parsed.model = args.model
    return parsed


def _run(parsed: InputDocument, args) -> VerificationReport:
    if parsed.kind == "groupoid":
        if isinstance(parsed.groupoid, LazyGroupoid):
            if args.windows < 1:
                # no window would be verified, so a pass would certify nothing
                raise ParseError(f"--windows must be at least 1, got {args.windows}")
            if args.path != "def114":
                # each window runs the def114 path; no thm29 check would run
                raise ParseError(f"--path {args.path} needs a finite input; the windows of "
                                 "an infinite groupoid are verified on the def114 path")
            report = verify_lazy_model(parsed.groupoid, parsed.model,
                                       k_max=args.windows, seed=args.seed)
            report.input_digest = parsed.digest
            return report
        report, ctx = verify_groupoid_model(parsed.groupoid, parsed.model,
                                            path=args.path)
        report.input_digest = parsed.digest
        report.witnesses = witnesses_to_json(ctx)
        return report
    report, ctx = verify_structure(parsed.structure, path=args.path)
    report.input_digest = parsed.digest
    report.witnesses = witnesses_to_json(ctx)
    return report


def cmd_verify(args) -> int:
    parsed = _resolve_input(args)
    report = _run(parsed, args)
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
    parsed = _resolve_input(args)
    if parsed.kind == "groupoid" and isinstance(parsed.groupoid, LazyGroupoid):
        # a lazy run certifies windows, not one witness set to print
        raise ParseError("witnesses needs a finite input; certify the windows of "
                         "an infinite groupoid with wmha verify --windows K")
    report = _run(parsed, args)
    if report.verdict != PASS:
        first = report.first_failure()
        raise VerificationFailed(f"verification failed at {first.check_id}: {first.detail}")
    print(json.dumps(report.witnesses, indent=2, sort_keys=True))
    return 0


def cmd_classify(args) -> int:
    parsed = _resolve_input(args)
    if parsed.kind == "groupoid" and isinstance(parsed.groupoid, LazyGroupoid):
        report = _run(parsed, args)
        mark = "✓" if report.verdict == PASS else "✗"
        print(f"wmha {mark} (per window), weak_hopf ✗ (non-unital)")
        return 0 if report.verdict == PASS else 1
    args.path = "both"
    report = _run(parsed, args)
    cls = report.classification

    def mark(flag):
        return "✓" if flag else "✗"

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
    except (ParseError, ShapeError, UnknownPreset, BadParameter) as exc:
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
