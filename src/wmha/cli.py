"""Command-line front end.

    wmha verify   [INPUT] [--preset NAME --model M] [--path P] [--report FILE]
                  [--windows K] [--seed N]
    wmha witnesses [INPUT] [--preset NAME --model M] [--path P]   (finite inputs only)
    wmha classify [INPUT] [--preset NAME --model M] [--windows K] [--seed N]
    wmha COMMAND -h | --help

    --model function|convolution     --path def114|thm29|both
    --windows and --seed take an integer; --preset and --report any text.

Each option is written in full, as --name value or --name=value, at most
once.  Options a command does not read for the input given (table READS)
exit 2.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 input error,
3 internal error: the engine itself failed, so no verdict and no report.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace
from typing import Optional, Tuple

from .fileio import (InputDocument, VerificationFailed, load_document, parse_document,
                     witnesses_to_json)
from .groupoids import InputError, LazyGroupoid, preset
from .pipeline import verify_groupoid_model, verify_lazy_model, verify_structure
from .report import PASS, VerificationReport

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
# every option of every command and the values it takes: one of a tuple
# of words, an int, or any text (str)
OPTIONS = {"preset": str, "model": ("function", "convolution"),
           "path": ("def114", "thm29", "both"), "report": str, "seed": int, "windows": int}


def _option_value(name: str, text: str):
    values = OPTIONS[name]
    if values is int:
        try:
            return int(text)
        except ValueError:
            raise InputError(f"--{name} takes an integer, got {text!r}") from None
    if values is not str and text not in values:
        raise InputError(f"--{name} takes one of {', '.join(values)}, got {text!r}")
    return text


def _read_argv(argv: list) -> SimpleNamespace:
    """COMMAND [INPUT] (--name value | --name=value)..., read against
    OPTIONS: each option once and in full.  An absent option reads None."""
    if not argv or argv[0] not in READS:
        got = f"unknown command {argv[0]!r}; " if argv else ""
        raise InputError(f"{got}give a command: {' | '.join(READS)}")
    args = SimpleNamespace(command=argv[0], input=None, **dict.fromkeys(OPTIONS))
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if args.input is not None:
                raise InputError(f"give one input file, got {args.input!r} and {token!r}")
            args.input = token
            continue
        name, eq, text = token[2:].partition("=")
        if not token.startswith("--") or name not in OPTIONS:
            raise InputError(f"unknown option {token.partition('=')[0]!r}")
        if getattr(args, name) is not None:
            raise InputError(f"--{name} is given twice")
        if not eq:
            # a value never starts with "-", except a negative integer
            text = next(tokens, "")
            if text.startswith("-") and not text[1:].isdigit():
                text = ""
        if not text:
            raise InputError(f"--{name} needs a value")
        setattr(args, name, _option_value(name, text))
    return args


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
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(report.to_json())
        except OSError as exc:
            raise InputError(f"cannot write {args.report}: {exc}") from exc
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
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(__doc__, end="")
        return 0
    try:
        args = _read_argv(argv)
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
