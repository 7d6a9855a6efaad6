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

from .construct import (
    BSequence,
    DEFAULT_DIGIT_BUDGET,
    ap_reduce,
    budget_int,
    build_b_sequence,
    build_family,
    check_start_digits,
    verify_b_sequence,
    verify_escape,
    verify_family,
)
from .density import (
    check_run_bound,
    density_estimate,
    f_profile,
    forced_density,
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
from .intset import ExplicitWindow, IntSet, Window, parse_set, serialize_set
from .sumset import Status

# Largest window, in bits, that profile, runs and ap-reduce will materialize,
# and that family's bitmap route, on [0, --brute-span], may span.
WINDOW_BITS_BUDGET = 1 << 20

_EXIT_LIMIT = (BudgetExceeded, HorizonExceeded, NoSuitableRun)

# Headroom over the digit budget for int<->str conversions: certificate
# lengths and witnesses are sums of bases, a few digits longer than any base.
_SUM_DIGITS = 64
# The largest limit sys.set_int_max_str_digits accepts (a C int).
_MAX_STR_DIGITS = (1 << 31) - 1
_BLAS_THREADS = "OPENBLAS_NUM_THREADS"


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")


def _window_arg(text: str) -> Window:
    try:
        base_s, len_s = text.split(":", 1)
        return Window(int(base_s), int(len_s))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"window must look like BASE:LENGTH, got {text!r} ({exc})"
        ) from None


def _resolve_ells(spec: str, k: int) -> list[int]:
    if spec == "j":
        return list(range(1, k + 1))
    if "," in spec:
        parts = [int(p) for p in spec.split(",") if p.strip()]
        if len(parts) < k:
            raise PreconditionFailed(
                f"ells list has {len(parts)} entries but k={k}"
            )
        return parts[:k]
    return [int(spec)] * k


def _load_set(args) -> IntSet:
    if args.input is not None:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = args.set.replace(";", "\n")
    return parse_set(text)


def _check_window_bits(length: int) -> None:
    if length > WINDOW_BITS_BUDGET:
        raise BudgetExceeded(
            f"window of {length} bits exceeds the budget of {WINDOW_BITS_BUDGET} bits"
        )


def _load_window(args) -> tuple[IntSet, ExplicitWindow]:
    """The set and its bitmap on args.window, within WINDOW_BITS_BUDGET."""
    s = _load_set(args)
    _check_window_bits(args.window.length)
    return s, s.materialize(args.window)


def _add_set_args(p: argparse.ArgumentParser) -> None:
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--set", help="inline set description; ';' separates lines")
    grp.add_argument("--input", help="path to a set description file")


def _add_window_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--window",
        type=_window_arg,
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
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("runs", help="run structure in a window; optional run search")
    _add_set_args(p)
    _add_window_arg(p)
    p.add_argument("--min-len", type=int, help="search for a run of this length")
    p.add_argument("--lower-bound", type=int, default=0)
    p.add_argument("--d", type=int, help="check the no-run-of-d density bound")

    p = sub.add_parser("construct-b", help="greedy base sequence inside a set")
    _add_set_args(p)
    p.add_argument("--ells", default="j", help='"j", a constant, or a comma list')
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--digit-budget", type=int, default=DEFAULT_DIGIT_BUDGET)

    p = sub.add_parser("family", help="build and verify a disjoint component family")
    _add_set_args(p)
    p.add_argument("--ells", default="j")
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--k-sets", type=int, default=2)
    p.add_argument("--scheme", choices=("residue", "blocks"), default="residue")
    p.add_argument("--brute-span", type=int, default=2048)
    p.add_argument("--digit-budget", type=int, default=DEFAULT_DIGIT_BUDGET)

    p = sub.add_parser("verify", help="recheck a stored base sequence against a set")
    _add_set_args(p)
    p.add_argument("--bseq", required=True, help="path to a base sequence JSON file")
    p.add_argument("--k-limit", type=int)
    p.add_argument("--brute-span", type=int, default=10_000)

    p = sub.add_parser("ap-reduce", help="strongest dilation structure in a window")
    _add_set_args(p)
    _add_window_arg(p)
    p.add_argument("--m0", type=int, default=10, help="largest difference to try")

    p = sub.add_parser("escape", help="doubling-escape checks on the power-run set")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--i-max", type=int, required=True)

    p = sub.add_parser("gen", help="echo a set description in canonical form")
    _add_set_args(p)

    return top


def _cmd_profile(args) -> int:
    s, w = _load_window(args)
    profile = f_profile(w)
    if args.format == "csv":
        sys.stdout.write(profile_csv(profile))
        return 0
    est = density_estimate(profile)
    _emit(profile_payload(profile, est, forced_density(s)))
    return 0


def _cmd_runs(args) -> int:
    s, w = _load_window(args)
    starts, ends = w.run_bounds()
    lengths = [b - a + 1 for a, b in zip(starts, ends)]
    payload: dict = {
        "window": {"base": args.window.base, "length": args.window.length},
        "runs": [{"start": str(a), "len": n} for a, n in zip(starts, lengths)],
        "longest_run": max(lengths, default=0),
    }
    if args.min_len is not None:
        check_start_digits(s, args.min_len, args.lower_bound, DEFAULT_DIGIT_BUDGET)
        found = s.next_run(args.min_len, args.lower_bound)
        payload["next_run"] = (
            None if found is None else {"start": str(found.start), "len": found.length}
        )
    if args.d is not None:
        report = check_run_bound(w, args.d)
        payload["run_bound"] = {
            "d": report.d,
            "longest_run": report.longest_run,
            "ok": report.ok,
            "failures": [[n, f] for n, f in report.failures],
        }
    _emit(payload)
    return 0


def _cmd_construct_b(args) -> int:
    s = _load_set(args)
    ells = _resolve_ells(args.ells, args.k)
    seq = build_b_sequence(s, ells, args.k, args.digit_budget)
    _emit(seq.to_payload())
    return 0


def _cmd_family(args) -> int:
    # the bitmap route works on the window [0, brute_span]
    if args.brute_span < 0:
        raise PreconditionFailed(f"--brute-span must be >= 0, got {args.brute_span}")
    _check_window_bits(args.brute_span + 1)
    s = _load_set(args)
    ells = _resolve_ells(args.ells, args.k)
    seq = build_b_sequence(s, ells, args.k, args.digit_budget)
    family = build_family(seq, args.k_sets, args.scheme)
    report = verify_family(family, s, args.brute_span)
    _emit({"family": family.to_payload(), "verification": report.to_payload()})
    return 0 if report.status is not Status.FAIL else 1


def _cmd_verify(args) -> int:
    s = _load_set(args)
    with open(args.bseq, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh, parse_int=budget_int)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ParseError(f"bad base sequence file: {exc}") from None
    try:
        seq = BSequence.from_payload(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad base sequence payload: {exc}") from None
    report = verify_b_sequence(seq, s, args.k_limit, args.brute_span)
    _emit(report.to_payload())
    return 1 if report.status is Status.FAIL else 0


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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # Integer/decimal conversions are bounded by the digit budget (the
    # --digit-budget option where there is one) rather than by Python's
    # default of 4300 digits, and only for the duration of this call.  The
    # limit is process-wide: threads calling main at once share it.
    limit = sys.get_int_max_str_digits()
    budget = getattr(args, "digit_budget", DEFAULT_DIGIT_BUDGET)
    if limit:
        sys.set_int_max_str_digits(
            min(max(limit, budget + _SUM_DIGITS), _MAX_STR_DIGITS)
        )
    # numpy, imported only by profiles of many runs, starts one OpenBLAS
    # thread per core at import; no command calls BLAS, so one thread
    # saves that start-up.  A caller's own setting wins, and the variable
    # is unset again on return, process-wide like the limit above.
    pin_blas = _BLAS_THREADS not in os.environ
    if pin_blas:
        os.environ[_BLAS_THREADS] = "1"
    try:
        return _HANDLERS[args.subcommand](args)
    except DisjointnessViolation as exc:
        _emit({"error": "DisjointnessViolation", "detail": str(exc)})
        return 1
    except _EXIT_LIMIT as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)})
        return 3
    except (BanachsumError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)
        if pin_blas:
            os.environ.pop(_BLAS_THREADS, None)


if __name__ == "__main__":
    sys.exit(main())
