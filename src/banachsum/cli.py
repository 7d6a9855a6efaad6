"""Command-line interface.

Reports go to stdout as compact JSON (one object per invocation) so runs
are byte-reproducible; human diagnostics go to stderr.  Exit codes: 0 for
Pass/success, 1 for Fail or a disjointness violation (a report is still
emitted), 2 for usage or precondition problems, 3 for resource limits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterator
from itertools import islice
from typing import NoReturn

from .construct import (
    BSequence,
    _payload_array,
    ap_reduce,
    build_b_sequence,
    build_family,
    verify_b_sequence,
    verify_escape,
    verify_family,
)
from .density import (
    SLICE_ITEMS,
    check_run_bound,
    density_estimate,
    f_profile,
    forced_density,
    longest_run,
    profile_csv,
    profile_payload,
)
from .errors import (
    BanachsumError,
    BudgetExceeded,
    DisjointnessViolation,
    HorizonExceeded,
    NoSuitableRun,
    ParseError,
    PreconditionFailed,
)
from .intset import (
    DEFAULT_DIGIT_BUDGET,
    SUM_DIGITS,
    ExplicitWindow,
    IntSet,
    Window,
    _echo,
    _run_payload,
    from_decimal,
    parse_set,
    serialize_set,
    to_decimal,
)

# Largest window, in bits, that profile, runs and ap-reduce will materialize,
# and that the bitmap route of family and verify, on [0, --brute-span], may span.
WINDOW_BITS_BUDGET = 1 << 20
# Largest --k that construct-b and family accept, checked before the run
# lengths are listed, and most steps of a --bseq file that verify reads,
# checked before the sequence is built.
STEP_BUDGET = 1 << 16

_EXIT_LIMIT = (BudgetExceeded, HorizonExceeded, NoSuitableRun)


def _dumps(value) -> str:
    """Compact JSON of value.  json.dumps refuses an integer past the
    interpreter's int/str digit limit with ValueError; then the value is
    written again with every integer in it converted by to_decimal, to the
    same bytes."""
    try:
        return json.dumps(value, separators=(",", ":"))
    except ValueError:
        if type(value) is int:
            return to_decimal(value)
        if isinstance(value, dict):
            return "{" + ",".join(f"{_dumps(k)}:{_dumps(v)}" for k, v in value.items()) + "}"
        if isinstance(value, (list, tuple)):
            return "[" + ",".join(map(_dumps, value)) + "]"
        raise


def _emit(payload: dict) -> None:
    """Write payload as one line of compact JSON, a slice at a time.

    The bytes are those of ``json.dumps(payload, separators=(",", ":"))``,
    but no report exists whole as text: each top-level value that is a
    list, a tuple or an iterator is an array written SLICE_ITEMS elements
    per json.dumps call, and an iterator's elements are built only as their
    slice is written, so a caller runs every check that can fail first.
    At WINDOW_BITS_BUDGET, a JSON `profile` of `gen poly_runs 2` peaks at
    about 51 MB and `runs --d 2` on `gen congruence 3 1` at about 48 MB
    (2-core x86-64 host, Python 3.11.7), mostly the profile's staircase
    and spans, or the run starts and ends.
    """
    write, sep = sys.stdout.write, ""
    write("{")
    for key, value in payload.items():
        write(f"{sep}{_dumps(key)}:")
        sep = ","
        if isinstance(value, (list, tuple, Iterator)):
            _write_array(write, value)
        else:
            write(_dumps(value))
    write("}\n")


def _write_array(write, values) -> None:
    items, sep = iter(values), ""
    write("[")
    while chunk := list(islice(items, SLICE_ITEMS)):
        write(sep)
        write(_dumps(chunk)[1:-1])
        sep = ","
    write("]")


def _int_arg(text: str) -> int:
    """from_decimal(text); a token that int() refuses gets argparse's own
    message for type=int, with the token cut as _echo cuts it."""
    try:
        return from_decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_echo(text)}") from None


def _window_arg(text: str) -> Window:
    try:
        base_s, len_s = text.split(":", 1)
        return Window(from_decimal(base_s), from_decimal(len_s))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"window must look like BASE:LENGTH, got {_echo(text)} ({exc})"
        ) from None


def _choice(choices: tuple[str, ...]):
    """A parser of one of choices: any other token gets argparse's own
    `invalid choice` message, cut as _echo cuts it.  choices= on the option
    only sets the usage text."""

    def choice(text: str) -> str:
        if text not in choices:
            listed = ", ".join(map(repr, choices))
            raise argparse.ArgumentTypeError(
                f"invalid choice: {_echo(text)} (choose from {listed})"
            )
        return text

    return choice


def _add_arg(p: argparse.ArgumentParser, option: str, parse=_int_arg, **kw) -> None:
    """Add option, its value read by parse.  A number in it of more than
    DECIMAL_DIGIT_LIMIT digits raises BudgetExceeded, which argparse does
    not catch, so the call exits 3 with the option's name in front, as a
    number in set text gets its line's."""

    def typed(text: str):
        try:
            return parse(text)
        except BudgetExceeded as exc:
            raise BudgetExceeded(f"{option}: {exc}") from None

    p.add_argument(option, type=typed, **kw)


def _check_steps(k: int) -> None:
    if k > STEP_BUDGET:
        raise BudgetExceeded(f"{_echo(k)} steps exceed the budget of {STEP_BUDGET} steps")


def _resolve_ells(spec: str, k: int, digit_budget: int) -> list[int]:
    """The k run lengths of --ells: "j" for 1..k, one number for all k, or
    a comma list of at least k numbers.  A number may have digit_budget
    digits, as a base may, since it enters the sums a certificate covers;
    either refusal names --ells."""
    _check_steps(k)
    if spec == "j":
        return list(range(1, k + 1))
    try:
        parts = [from_decimal(p, digit_budget) for p in spec.split(",")]
    except ValueError as exc:
        raise ParseError(f"--ells: {exc}") from None
    except BudgetExceeded as exc:
        raise BudgetExceeded(f"--ells: {exc}") from None
    if "," not in spec:
        return parts * k
    if len(parts) < k:
        raise PreconditionFailed(f"ells list has {len(parts)} entries but k={k}")
    return parts[:k]


def _read_text(path: str) -> str:
    """The file's text; bytes that are not UTF-8 raise ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(str(exc)) from None


def _load_set(args) -> IntSet:
    """The set of --set or --input.  A number in its text may have as many
    digits as the digit budget, where the command has one, and SUM_DIGITS
    more, but never fewer than at the default budget."""
    budget = max(getattr(args, "digit_budget", DEFAULT_DIGIT_BUDGET), DEFAULT_DIGIT_BUDGET)
    text = args.set.replace(";", "\n") if args.input is None else _read_text(args.input)
    return parse_set(text, budget + SUM_DIGITS)


def _check_window_bits(length: int) -> None:
    if length > WINDOW_BITS_BUDGET:
        raise BudgetExceeded(
            f"window of {_echo(length)} bits exceeds the budget of {WINDOW_BITS_BUDGET} bits"
        )


def _check_brute_span(span: int) -> None:
    """Refuse a --brute-span that is negative or whose window [0, span]
    exceeds WINDOW_BITS_BUDGET, before the set is read or parsed."""
    if span < 0:
        raise PreconditionFailed(f"--brute-span must be >= 0, got {_echo(span)}")
    _check_window_bits(span + 1)


def _load_window(args) -> tuple[IntSet, ExplicitWindow]:
    """The set and its bitmap on args.window, within WINDOW_BITS_BUDGET.

    The budget is checked before the set is read or parsed."""
    _check_window_bits(args.window.length)
    s = _load_set(args)
    return s, s.materialize(args.window)


def _add_set_args(p: argparse.ArgumentParser) -> None:
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--set", help="inline set description; ';' separates lines")
    grp.add_argument("--input", help="path to a set description file")


def _add_window_arg(p: argparse.ArgumentParser) -> None:
    _add_arg(
        p,
        "--window",
        _window_arg,
        default=Window(0, 4096),
        help="evaluation window as BASE:LENGTH (default 0:4096)",
    )


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="banachsum",
        description="Density profiles, run search, and verified sumset constructions.",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("profile", help="windowed occupancy profile and density")
    _add_set_args(p)
    _add_window_arg(p)
    formats = ("json", "csv")
    _add_arg(p, "--format", _choice(formats), choices=formats, default="json")

    p = sub.add_parser("runs", help="run structure in a window; optional run search")
    _add_set_args(p)
    _add_window_arg(p)
    _add_arg(p, "--min-len", help="search for a run of this length")
    _add_arg(p, "--lower-bound", default=0)
    _add_arg(p, "--d", help="check the no-run-of-d density bound")

    p = sub.add_parser("construct-b", help="greedy base sequence inside a set")
    _add_set_args(p)
    p.add_argument("--ells", default="j", help='"j", a constant, or a comma list')
    _add_arg(p, "--k", default=8)
    _add_arg(p, "--digit-budget", default=DEFAULT_DIGIT_BUDGET)

    p = sub.add_parser("family", help="build and verify a disjoint component family")
    _add_set_args(p)
    p.add_argument("--ells", default="j")
    _add_arg(p, "--k", default=8)
    _add_arg(p, "--k-sets", default=2)
    schemes = ("residue", "blocks")
    _add_arg(p, "--scheme", _choice(schemes), choices=schemes, default="residue")
    _add_arg(p, "--brute-span", default=2048)
    _add_arg(p, "--digit-budget", default=DEFAULT_DIGIT_BUDGET)

    p = sub.add_parser("verify", help="recheck a stored base sequence against a set")
    _add_set_args(p)
    p.add_argument("--bseq", required=True, help="path to a base sequence JSON file")
    _add_arg(p, "--k-limit")
    _add_arg(p, "--brute-span", default=10_000)

    p = sub.add_parser("ap-reduce", help="strongest dilation structure in a window")
    _add_set_args(p)
    _add_window_arg(p)
    _add_arg(p, "--m0", default=10, help="largest difference to try")

    p = sub.add_parser("escape", help="doubling-escape checks on the power-run set")
    _add_arg(p, "--t", required=True)
    _add_arg(p, "--i-max", required=True)

    p = sub.add_parser("gen", help="echo a set description in canonical form")
    _add_set_args(p)

    return top


def _cmd_profile(args) -> int:
    s, w = _load_window(args)
    profile = f_profile(w)
    if args.format == "csv":
        sys.stdout.writelines(profile_csv(profile))
        return 0
    est = density_estimate(profile)
    _emit(profile_payload(profile, est, forced_density(s)))
    return 0


def _cmd_runs(args) -> int:
    """The runs come from the window's run_bounds() and the longest run
    from longest_run, which check_run_bound also reports under --d."""
    s, w = _load_window(args)
    found = None if args.min_len is None else s.next_run(args.min_len, args.lower_bound)
    report = None if args.d is None else check_run_bound(w, args.d)
    payload: dict = {
        "window": {"base": args.window.base, "length": args.window.length},
        # rows are built as _emit writes them, a slice at a time
        "runs": (_run_payload(a, b) for a, b in zip(*w.run_bounds())),
        "longest_run": longest_run(w) if report is None else report.longest_run,
    }
    if args.min_len is not None:
        payload["next_run"] = None if found is None else _run_payload(found.start, found.end)
    if report is not None:
        payload["run_bound"] = report.to_payload()
    _emit(payload)
    return 0


def _cmd_construct_b(args) -> int:
    s = _load_set(args)
    ells = _resolve_ells(args.ells, args.k, args.digit_budget)
    seq = build_b_sequence(s, ells, args.k, args.digit_budget)
    _emit(seq.to_payload())
    return 0


def _cmd_family(args) -> int:
    _check_brute_span(args.brute_span)
    s = _load_set(args)
    ells = _resolve_ells(args.ells, args.k, args.digit_budget)
    seq = build_b_sequence(s, ells, args.k, args.digit_budget)
    family = build_family(seq, args.k_sets, args.scheme)
    report = verify_family(family, s, args.brute_span)
    _emit({"family": family.to_payload(), "verification": report.to_payload()})
    return 0 if report.passed else 1


def _cmd_verify(args) -> int:
    _check_brute_span(args.brute_span)
    s = _load_set(args)
    try:
        payload = json.loads(_read_text(args.bseq), parse_int=from_decimal)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"bad base sequence file: {exc}") from None
    try:
        _check_steps(len(_payload_array(payload, "bs")))
        seq = BSequence.from_payload(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad base sequence payload: {exc}") from None
    report = verify_b_sequence(seq, s, args.k_limit, args.brute_span)
    _emit(report.to_payload())
    return 0 if report.passed else 1


def _cmd_ap_reduce(args) -> int:
    _, w = _load_window(args)
    red = ap_reduce(w, args.m0)
    _emit(red.to_payload())
    return 0


def _cmd_escape(args) -> int:
    report = verify_escape(args.t, args.i_max)
    _emit(report.to_payload())
    return 0 if report.all_escaped else 1


def _cmd_gen(args) -> int:
    s = _load_set(args)
    sys.stdout.write(serialize_set(s))
    return 0


_HANDLERS = {
    "profile": _cmd_profile,
    "runs": _cmd_runs,
    "construct-b": _cmd_construct_b,
    "family": _cmd_family,
    "verify": _cmd_verify,
    "ap-reduce": _cmd_ap_reduce,
    "escape": _cmd_escape,
    "gen": _cmd_gen,
}


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.  Integers cross into and
    out of the call through intset's decimal codec, so the answer depends
    on argv alone: no process-wide setting is read or changed."""
    try:
        args = _build_parser().parse_args(argv)
        return _HANDLERS[args.subcommand](args)
    except SystemExit as exc:  # argparse: 2 for usage errors, 0 after --help
        return int(exc.code or 0)
    except DisjointnessViolation as exc:
        _emit({"error": "DisjointnessViolation", "detail": str(exc)})
        return 1
    except _EXIT_LIMIT as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)})
        return 3
    except (BanachsumError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """Console entry point: ``main()``'s exit code, without interpreter teardown.

    After ``main`` returns, stdout and stderr are flushed and the process
    ends with ``os._exit``, so a call no longer runs module and object
    teardown, finalizers (``__del__`` methods, weakref callbacks), or the
    ``atexit`` handlers that other code registered (banachsum registers
    none).  If a flush raises ``OSError``, the exit goes through
    ``sys.exit`` instead, so the interpreter reports the failing stream as
    it would after ``sys.exit(main())``.  An exception that escapes ``main``
    is not caught: it ends the process with a traceback and exit code 1.

    numpy, imported only by profiles of many runs, starts one OpenBLAS
    thread per core at import; no command calls BLAS, so the process pins
    one thread, which saves that start-up.  A caller's own setting wins.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
