"""Command exercises through the argument-list entry point.

Each test drives ``main`` directly with an argv list and inspects the JSON
on stdout plus the exit code; one test round-trips through a subprocess to
pin down byte-level reproducibility of reports.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import banachsum
from banachsum.cli import WINDOW_BITS_BUDGET, main
from banachsum.construct import BSequence, DEFAULT_DIGIT_BUDGET, ESCAPE_I_MAX_BUDGET


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# ----------------------------------------------------------------- profile


def test_profile_json(capsys):
    code, out, _ = run_cli(
        capsys, "profile", "--set", "gen congruence 2 1", "--window", "0:16"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["window"] == {"base": 0, "length": 16}
    assert payload["f"] == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8]
    assert payload["density"] == {"num": 1, "den": 2, "argmin": 2}
    assert payload["generator_density"] == {"num": 1, "den": 2}


def test_profile_json_without_generator(capsys):
    code, out, _ = run_cli(
        capsys, "profile", "--set", "run 3 4", "--window", "0:12"
    )
    assert code == 0
    assert "generator_density" not in json.loads(out)


def test_profile_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "profile",
        "--set", "gen congruence 2 1",
        "--window", "0:16",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,f,fn_over_n"
    assert len(lines) == 17
    assert lines[1].startswith("1,1,")


# -------------------------------------------------------------------- runs


def test_runs_payload(capsys):
    code, out, _ = run_cli(
        capsys,
        "runs",
        "--set", "run 4 3;elem 9",
        "--window", "0:16",
        "--min-len", "2",
        "--d", "4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["runs"] == [
        {"start": "4", "len": 3},
        {"start": "9", "len": 1},
    ]
    assert payload["longest_run"] == 3
    assert payload["next_run"] == {"start": "4", "len": 2}
    assert payload["run_bound"]["d"] == 4
    assert payload["run_bound"]["ok"] is True
    assert payload["run_bound"]["failures"] == []


def test_runs_search_can_come_back_empty(capsys):
    code, out, _ = run_cli(
        capsys,
        "runs",
        "--set", "gen congruence 2 1",
        "--window", "0:8",
        "--min-len", "2",
    )
    assert code == 0
    assert json.loads(out)["next_run"] is None


def test_runs_search_refuses_starts_over_the_digit_budget(capsys):
    argv = ["runs", "--set", "gen pow_runs 2", "--window", "0:8"]
    # the next run of 400000 starts at about 120412 digits
    code, out, err = run_cli(capsys, *argv, "--min-len", "400000")
    assert (code, err) == (3, "")
    assert json.loads(out)["error"] == "BudgetExceeded"
    code, out, _ = run_cli(capsys, *argv, "--min-len", "20000")
    assert code == 0
    assert len(json.loads(out)["next_run"]["start"]) == 6021


def dense_runs(n_runs):
    """Runs of 1, 2 and 3 members between gaps of 1 and 2 cells, from 1 on."""
    runs, pos = [], 1
    for i in range(n_runs):
        runs.append((pos, i % 3 + 1))
        pos += i % 3 + 1 + i % 2 + 1
    return runs, pos


# more runs than the profile's staircase route takes (2**10)
DENSE_RUNS, DENSE_LEN = dense_runs(1500)
DENSE_ARGV = [
    "runs",
    "--set", ";".join(f"run {s} {n}" for s, n in DENSE_RUNS),
    "--window", f"0:{DENSE_LEN}",
    "--d", "4",
]
DENSE_OUT = json.dumps(
    {
        "window": {"base": 0, "length": DENSE_LEN},
        "runs": [{"start": str(s), "len": n} for s, n in DENSE_RUNS],
        "longest_run": 3,
        "run_bound": {"d": 4, "longest_run": 3, "ok": True, "failures": []},
    },
    separators=(",", ":"),
) + "\n"


def test_runs_bound_on_a_run_dense_window_builds_no_profile(capsys, monkeypatch):
    import banachsum.density as density

    def no_profile(w):
        raise AssertionError("f_profile called")

    monkeypatch.setattr(density, "f_profile", no_profile)
    assert run_cli(capsys, *DENSE_ARGV) == (0, DENSE_OUT, "")


def test_runs_bound_route_disagreement_is_an_internal_error(monkeypatch):
    # not a usage error with exit 2: the AssertionError leaves main
    import banachsum.density as density

    monkeypatch.setattr(density, "longest_run", lambda w: 0)
    with pytest.raises(AssertionError, match="0 by streak search but 3 from the run bounds"):
        main(DENSE_ARGV)


def test_runs_bound_scans_the_run_bounds_once(capsys, monkeypatch):
    # the runs list and check_run_bound share one scan for starts and one
    # for ends, and nothing from parsing to the report builds a Run
    import banachsum.intset as intset

    scans = []
    bit_offsets = intset._bit_offsets

    def counting_offsets(x, base):
        scans.append(base)
        return bit_offsets(x, base)

    def no_run(self, *args):
        raise AssertionError(f"Run{args} built")

    monkeypatch.setattr(intset, "_bit_offsets", counting_offsets)
    monkeypatch.setattr(intset.Run, "__init__", no_run)
    assert run_cli(capsys, *DENSE_ARGV) == (0, DENSE_OUT, "")
    assert len(scans) == 2


DENSE_PROFILE_ARGV = ["profile", "--set", DENSE_ARGV[2], "--window", DENSE_ARGV[4]]


def test_numpy_profile_runs_with_one_openblas_thread(capsys, monkeypatch):
    import banachsum.density as density

    seen = []
    spans = density._profile_from_spans

    def spy(w):
        seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return spans(w)

    monkeypatch.setattr(density, "_profile_from_spans", spy)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    code, out, _ = run_cli(capsys, *DENSE_PROFILE_ARGV)
    assert code == 0 and json.loads(out)["f"][:3] == [1, 2, 3]
    assert seen == ["1"] and "OPENBLAS_NUM_THREADS" not in os.environ
    # restored on an error exit too
    assert run_cli(capsys, "profile", "--set", "run 0 1")[0] == 2
    assert "OPENBLAS_NUM_THREADS" not in os.environ
    # a caller's own setting wins and is left alone
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    assert run_cli(capsys, *DENSE_PROFILE_ARGV)[0] == 0
    assert seen == ["1", "4"] and os.environ["OPENBLAS_NUM_THREADS"] == "4"


# ----------------------------------------------------- construct and verify


def test_construct_b_frozen_output(capsys):
    code, out, _ = run_cli(
        capsys, "construct-b", "--set", "gen poly_runs 2", "--ells", "1", "--k", "3"
    )
    assert code == 0
    assert json.loads(out) == {
        "ells": [1, 1, 1],
        "bs": ["1", "9", "169"],
        "certificates": [
            {"start": "1", "len": 1},
            {"start": "9", "len": 3},
            {"start": "169", "len": 13},
        ],
    }


def test_construct_b_no_run_available(capsys):
    code, out, _ = run_cli(
        capsys, "construct-b", "--set", "gen congruence 3 1", "--ells", "2", "--k", "2"
    )
    assert code == 3
    assert json.loads(out)["error"] == "NoSuitableRun"


def test_verify_round_trip_and_corruption(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "construct-b", "--set", "gen poly_runs 2", "--ells", "1", "--k", "3"
    )
    assert code == 0
    good = tmp_path / "seq.json"
    good.write_text(out, encoding="utf-8")

    code, out, _ = run_cli(
        capsys, "verify", "--set", "gen poly_runs 2", "--bseq", str(good)
    )
    assert code == 0
    assert json.loads(out) == {"status": "Pass", "checked": 7}

    payload = json.loads(good.read_text(encoding="utf-8"))
    payload["bs"][1] = "8"
    payload["certificates"][1] = {"start": "8", "len": 3}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")

    code, out, _ = run_cli(
        capsys, "verify", "--set", "gen poly_runs 2", "--bseq", str(bad)
    )
    assert code == 1
    verdict = json.loads(out)
    assert verdict["status"] == "Fail"
    assert verdict["witness"] == "8"
    assert verdict["witness_subset"] == [2]


def test_verify_decides_a_valid_sequence_past_the_subset_budget(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "construct-b", "--set", "gen full", "--ells", "1", "--k", "30"
    )
    assert code == 0
    path = tmp_path / "seq.json"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", "--set", "gen full", "--bseq", str(path))
    assert code == 0
    assert json.loads(out) == {"status": "Pass", "checked": 2**30 - 1}


def test_verify_refuses_a_failing_sequence_past_the_subset_budget(capsys, tmp_path):
    # odd bases 1, 3, 5, ...: the hull of the second run already leaves
    # PolyRuns(2), and the per-subset fallback would take 2**30 - 1 checks
    seq = BSequence.from_entries((1,) * 30, tuple(range(1, 61, 2)))
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(seq.to_payload()), encoding="utf-8")
    code, out, err = run_cli(
        capsys, "verify", "--set", "gen poly_runs 2", "--bseq", str(path)
    )
    assert (code, err) == (3, "")
    assert json.loads(out)["error"] == "BudgetExceeded"


def test_verify_rejects_malformed_file(capsys, tmp_path):
    junk = tmp_path / "junk.json"
    # the nested arrays overflow the JSON decoder's recursion
    for text in ("not json", "[" * 100_000 + "]" * 100_000):
        junk.write_text(text, encoding="utf-8")
        code, _, err = run_cli(
            capsys, "verify", "--set", "gen full", "--bseq", str(junk)
        )
        assert code == 2
        assert "error" in err


def test_verify_rejects_non_integer_numbers(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "construct-b", "--set", "gen full", "--ells", "1", "--k", "2"
    )
    assert code == 0
    good = json.loads(out)
    path = tmp_path / "bad.json"
    for where, key, value in [
        ("certificates", "len", 1.5),
        ("ells", 0, True),
        ("bs", 1, 2.9),
        ("certificates", "start", 1.0),
    ]:
        payload = json.loads(out)
        if where == "certificates":
            payload[where][0][key] = value
        else:
            payload[where][key] = value
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, stdout, err = run_cli(
            capsys, "verify", "--set", "gen full", "--bseq", str(path)
        )
        assert (code, stdout) == (2, ""), (where, key, value)
        assert "must be an integer" in err
    # the untouched payload still verifies
    path.write_text(json.dumps(good), encoding="utf-8")
    code, _, _ = run_cli(capsys, "verify", "--set", "gen full", "--bseq", str(path))
    assert code == 0


def test_bases_past_4300_digits_round_trip(capsys, tmp_path):
    # the largest base has 4637 digits, past Python's default int/str limit
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run_cli(
            capsys, "construct-b", "--set", "gen poly_runs 2", "--ells", "1", "--k", "14"
        )
        assert (code, err) == (0, "")
        assert max(len(b) for b in json.loads(out)["bs"]) > 4300
        path = tmp_path / "seq.json"
        path.write_text(out, encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "verify", "--set", "gen poly_runs 2", "--bseq", str(path),
            "--brute-span", "0",
        )
        assert code == 0
        assert json.loads(out) == {"status": "Pass", "checked": 2**14 - 1}
        # the raised limit lasts for one call only
        assert sys.get_int_max_str_digits() == 4300
        # a budget past what the interpreter's limit can hold is still a budget
        code, _, _ = run_cli(
            capsys, "construct-b", "--set", "gen full", "--k", "2",
            "--digit-budget", str(10**12),
        )
        assert code == 0
    finally:
        sys.set_int_max_str_digits(saved)


def test_verify_refuses_numbers_over_the_digit_budget(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "construct-b", "--set", "gen full", "--ells", "1", "--k", "2"
    )
    assert code == 0
    huge = "1" + "0" * DEFAULT_DIGIT_BUDGET
    path = tmp_path / "huge.json"
    for where, key in [("bs", 1), ("certificates", "start")]:
        for quote in ('"', ""):
            payload = json.loads(out)
            if where == "certificates":
                payload[where][1][key] = "HUGE"
            else:
                payload[where][key] = "HUGE"
            text = json.dumps(payload).replace('"HUGE"', quote + huge + quote)
            path.write_text(text, encoding="utf-8")
            code, stdout, _ = run_cli(
                capsys, "verify", "--set", "gen full", "--bseq", str(path)
            )
            assert code == 3, (where, quote)
            assert json.loads(stdout)["error"] == "BudgetExceeded"


# ------------------------------------------------------------------ family


def test_family_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "family",
        "--set", "gen poly_runs 2",
        "--ells", "1",
        "--k", "4",
        "--k-sets", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["family"]["k_sets"] == 2
    assert payload["family"]["index_sets"] == [[1, 3], [2, 4]]
    assert payload["verification"]["status"] == "Pass"


def test_family_answers_many_picks_from_the_hulls(capsys):
    # 8 components of 25 runs each make 26**8 - 1 picks, far over the pick
    # budget; the greedy sequence's hulls pass, so no pick is swept
    code, out, err = run_cli(
        capsys, "family", "--set", "gen full", "--ells", "1", "--k", "200",
        "--k-sets", "8",
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["verification"] == {"status": "Pass", "checked": 26**8 - 1}


def test_family_checks_brute_span_before_any_work(capsys):
    # "run 1 5" holds no base sequence of k=8, so any build ends in
    # NoSuitableRun: the span is refused before the build starts
    common = ("family", "--set", "run 1 5", "--k", "8", "--brute-span")
    code, out, err = run_cli(capsys, *common, "-1")
    assert (code, out) == (2, "")
    assert "--brute-span" in err and ">= 0" in err
    # the bitmaps live on [0, brute_span], one cell more than the span
    for span in (WINDOW_BITS_BUDGET, 10**9):
        code, out, err = run_cli(capsys, *common, str(span))
        assert (code, err) == (3, "")
        assert json.loads(out) == {
            "error": "BudgetExceeded",
            "detail": f"window of {span + 1} bits exceeds the budget of "
                      f"{WINDOW_BITS_BUDGET} bits",
        }
    code, out, _ = run_cli(capsys, *common, str(WINDOW_BITS_BUDGET - 1))
    assert code == 3 and json.loads(out)["error"] == "NoSuitableRun"


def test_family_rejects_too_many_sets(capsys):
    code, _, err = run_cli(
        capsys, "family", "--set", "gen full", "--k", "2", "--k-sets", "5"
    )
    assert code == 2
    assert "error" in err


# --------------------------------------------------------- reduce and escape


def test_ap_reduce_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "ap-reduce",
        "--set", "gen congruence 7 3",
        "--window", "0:100",
        "--m0", "10",
    )
    assert code == 0
    assert json.loads(out) == {
        "m": 7,
        "r": 3,
        "evidence_len": 14,
        "derived_set": "run 1 13\n",
    }


def test_escape_command(capsys):
    code, out, _ = run_cli(capsys, "escape", "--t", "5", "--i-max", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["i0"] == 2
    assert payload["checked"] == 7
    assert payload["all_escaped"] is True
    assert len(payload["checks"]) == 7
    first = payload["checks"][0]
    assert first["i"] == 2
    for key in (
        "below_double",
        "double_lower",
        "double_upper",
        "gap_clearance",
        "shift_margin",
        "doubles_outside",
    ):
        assert first[key] is True


def test_escape_refuses_rungs_over_the_budget(capsys):
    code, out, err = run_cli(
        capsys, "escape", "--t", "5", "--i-max", str(ESCAPE_I_MAX_BUDGET + 1)
    )
    assert (code, err) == (3, "")
    assert json.loads(out) == {
        "error": "BudgetExceeded",
        "detail": f"rungs up to i_max = {ESCAPE_I_MAX_BUDGET + 1} exceed the "
                  f"budget of {ESCAPE_I_MAX_BUDGET}",
    }


# --------------------------------------------------------------------- gen


def test_gen_echoes_canonical_form(capsys):
    code, out, _ = run_cli(capsys, "gen", "--set", "elem 9;run 4 3")
    assert code == 0
    assert out == "run 4 3\nelem 9\n"


def test_gen_round_trips_generators(capsys):
    for text in ("gen pow_runs 4", "gen poly_runs 3", "gen congruence 5 2", "gen full"):
        code, out, _ = run_cli(capsys, "gen", "--set", text)
        assert code == 0
        assert out == text + "\n"


# ------------------------------------------------------------------- errors


def test_usage_errors_exit_two(capsys, tmp_path):
    assert run_cli(capsys)[0] == 2                       # no subcommand
    assert run_cli(capsys, "frobnicate")[0] == 2         # unknown subcommand
    assert run_cli(capsys, "profile")[0] == 2            # no set given
    assert run_cli(                                      # both set sources
        capsys, "profile", "--set", "gen full", "--input", "x"
    )[0] == 2
    assert run_cli(                                      # malformed window
        capsys, "profile", "--set", "gen full", "--window", "nope"
    )[0] == 2
    assert run_cli(capsys, "profile", "--input", "/no/such/file")[0] == 2


def test_huge_window_is_a_budget_error(capsys):
    code, out, err = run_cli(
        capsys, "profile", "--set", "gen full", "--window", "0:300000000"
    )
    assert code == 3
    assert json.loads(out)["error"] == "BudgetExceeded"
    assert err == ""
    over = f"1:{WINDOW_BITS_BUDGET + 1}"
    for cmd in ("runs", "ap-reduce"):
        code, out, _ = run_cli(capsys, cmd, "--set", "gen full", "--window", over)
        assert code == 3
        assert json.loads(out)["error"] == "BudgetExceeded"


def test_parse_errors_carry_line_numbers(capsys):
    code, _, err = run_cli(capsys, "profile", "--set", "run 4 3;run 0 2")
    assert code == 2
    assert "line 2" in err


def test_overlap_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "gen", "--set", "run 4 3;run 5 1")
    assert code == 2
    assert "error" in err


def test_short_ells_list_is_rejected(capsys):
    code, _, err = run_cli(
        capsys, "construct-b", "--set", "gen full", "--ells", "1,2", "--k", "3"
    )
    assert code == 2
    assert "error" in err


# ------------------------------------------------------------- determinism


def test_reports_are_byte_identical_across_runs(capsys):
    argv = ["profile", "--set", "gen poly_runs 2", "--window", "0:512"]
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    code, second, _ = run_cli(capsys, *argv)
    assert code == 0
    assert first == second

    proc = subprocess.run(
        [sys.executable, "-m", "banachsum", *argv],
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == first


# Calls in order: none prints a JSON profile before the last two, the
# first calls that build a Fraction.
NUMPY_FREE_CALLS = [
    ["gen", "--set", "gen poly_runs 2"],
    ["construct-b", "--set", "gen poly_runs 2", "--k", "4"],
    ["escape", "--t", "3", "--i-max", "6"],
    ["ap-reduce", "--set", "gen congruence 3 1", "--window", "0:256"],
    ["profile", "--set", "gen poly_runs 2", "--window", "0:4096", "--format", "csv"],
    ["runs", "--set", "gen congruence 3 1", "--window", "1:1024", "--d", "2"],
    ["profile", "--set", "gen poly_runs 2", "--window", "0:4096"],
    # the odd numbers below 2048: 1024 runs, the most the staircase takes
    ["profile", "--set", "gen congruence 2 1", "--window", "1:2047"],
]
# 1025 runs, one over the cut: the span loop loads numpy
NUMPY_CALL = ["profile", "--set", "gen congruence 2 1", "--window", "1:2049"]


def test_cli_import_leaves_numpy_unloaded():
    # profiles of windows with few runs take the pure-Python route too; no
    # call without numpy loads dataclasses or inspect, and only a JSON
    # profile loads fractions
    src = str(Path(banachsum.__file__).resolve().parents[1])
    script = (
        "import contextlib, io, json, sys\n"
        "def loaded(code):\n"
        "    watched = ('dataclasses', 'fractions', 'inspect', 'numpy')\n"
        "    print(code, *[m for m in watched if m in sys.modules])\n"
        "import banachsum.cli\n"
        "loaded('import')\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = banachsum.cli.main(argv)\n"
        "    loaded(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(NUMPY_FREE_CALLS + [NUMPY_CALL])],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    *lines, last = proc.stdout.splitlines()
    assert lines == ["import"] + ["0"] * (len(NUMPY_FREE_CALLS) - 2) + ["0 fractions"] * 2
    # numpy itself may load inspect
    assert last.split()[:2] == ["0", "fractions"] and "numpy" in last.split()


def test_runs_bound_leaves_numpy_unloaded():
    src = str(Path(banachsum.__file__).resolve().parents[1])
    script = (
        "import contextlib, io, json, sys\n"
        "import banachsum.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = banachsum.cli.main(json.loads(sys.argv[1]))\n"
        "print(code, out.getvalue() == sys.argv[2], 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(DENSE_ARGV), DENSE_OUT],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout == "0 True False\n"


# --------------------------------------------------------------------- fuzz

FUZZ_SETS = [
    "gen pow_runs 2", "gen pow_runs 4", "gen poly_runs 2", "gen poly_runs 3",
    "gen full", "gen congruence 3 1", "gen congruence 1 0", "run 1 20;run 30 5",
    "elem 5;elem 7", "", "gen pow_runs 1", "gen congruence 2", "run 1 0", "elem 0",
    "run 1 5;run 3 2", "gen full;elem 3", "run x 1", "bogus",
]
_small = st.integers(-2, 12).map(str)
# every option of every subcommand, with bounded values and some junk
FUZZ_OPTIONS = {
    "--set": st.integers(0, 3).flatmap(
        lambda i: st.sampled_from(FUZZ_SETS) if i
        else st.text("runelmgpowfc_ 0123456789-;#", max_size=20)
    ),
    "--input": st.sampled_from(["/no/such/file", "."]),
    "--window": st.builds("{}:{}".format, st.integers(-1, 40), st.integers(-1, 300))
    | st.sampled_from(["x", "1:2:3", ":"]),
    "--format": st.sampled_from(["json", "csv", "xml"]),
    "--min-len": _small,
    "--lower-bound": st.integers(-5, 100).map(str),
    "--d": st.integers(-1, 6).map(str),
    "--ells": st.sampled_from(["j", "1", "0", "2", "1,2", "1,2,3,4,5,6", ",", "a", " "]),
    "--k": st.integers(-1, 6).map(str),
    "--k-sets": st.integers(-1, 4).map(str),
    "--scheme": st.sampled_from(["residue", "blocks", "zigzag"]),
    "--brute-span": st.integers(-2, 64).map(str),
    "--digit-budget": st.integers(-1, 200).map(str),
    "--bseq": st.just("BSEQ"),
    "--k-limit": _small,
    "--m0": _small,
    "--t": st.integers(-1, 50).map(str),
    "--i-max": st.integers(-1, 20).map(str),
    "-h": st.just(None),
}
# the options each subcommand takes, the ones it requires first
FUZZ_COMMANDS = {
    "profile": ["--set", "--window", "--format"],
    "runs": ["--set", "--window", "--min-len", "--lower-bound", "--d"],
    "construct-b": ["--set", "--ells", "--k", "--digit-budget"],
    "family": ["--set", "--ells", "--k", "--k-sets", "--scheme", "--brute-span",
               "--digit-budget"],
    "verify": ["--set", "--bseq", "--k-limit", "--brute-span"],
    "ap-reduce": ["--set", "--window", "--m0"],
    "escape": ["--t", "--i-max"],
    "gen": ["--set"],
    "frobnicate": [],
}
_REQUIRED = {"--set", "--bseq", "--t", "--i-max"}


@st.composite
def cli_argvs(draw):
    """An argv of one subcommand: its required options, some of its own,
    and now and then one that belongs elsewhere or none at all."""
    sub = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    own = FUZZ_COMMANDS[sub]
    names = [n for n in own if n in _REQUIRED and draw(st.integers(0, 9))]
    names += draw(st.lists(st.sampled_from(own), max_size=4)) if own else []
    if not draw(st.integers(0, 4)):
        names.append(draw(st.sampled_from(sorted(FUZZ_OPTIONS))))
    argv = [sub]
    for name in names:
        value = draw(FUZZ_OPTIONS[name])
        argv += [name] if value is None else [name, value]
    return argv


_json_leaves = (
    st.none() | st.booleans() | st.integers(-5, 60) | st.floats(allow_nan=False)
    | st.text("0123456789-x", max_size=4)
)
_json = st.recursive(
    _json_leaves,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(["ells", "bs", "certificates", "start", "len"]),
                      kids, max_size=5),
    max_leaves=8,
)


@st.composite
def bseq_payloads(draw):
    """A base sequence payload of at most four steps, often slightly off."""
    k = draw(st.integers(0, 4))
    ints = st.integers(-1, 60)
    entries = st.lists(ints | st.builds(str, ints), min_size=k, max_size=k)
    payload = {
        "ells": draw(st.lists(st.integers(-1, 5), min_size=k, max_size=k)),
        "bs": draw(entries),
        "certificates": [
            {"start": start, "len": length}
            for start, length in zip(draw(entries), draw(entries))
        ],
    }
    if draw(st.booleans()):
        payload[draw(st.sampled_from(sorted(payload)))] = draw(_json)
    return payload


@given(
    cli_argvs(),
    st.builds(json.dumps, bseq_payloads() | _json) | st.just("not json"),
)
@settings(max_examples=400, deadline=None)
def test_main_exits_with_a_documented_code(argv, bseq_text):
    with tempfile.TemporaryDirectory() as tmp:
        bseq = Path(tmp, "bseq.json")
        bseq.write_text(bseq_text)
        argv = [str(bseq) if arg == "BSEQ" else arg for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2, 3), argv
