"""The CLI's bytes against the committed manifest (see golden.py), and
which definitions of the package the manifest's calls enter."""

import inspect
import json
import sys
from pathlib import Path

import pytest

import banachsum
from banachsum.intset import ExplicitWindow
from golden import COLUMNS, MANIFEST, changes, corpus, entry, replay, run_call

# Every function and method of the package that no manifest call enters,
# by the reason it stays.  The reachability test below asserts that the
# unentered definitions are exactly these, so a definition that nothing
# reaches fails it, and so does a stale name here.
UNENTERED = {
    "abstract stubs": (
        "intset.IntSet.run_end_at",
        "intset.IntSet.next_run",
        "intset.IntSet.runs_in",
        "intset._IndexedRuns._start",
        "intset._IndexedRuns._floor_run",
        "intset._IndexedRuns._start_digits",
    ),
    "value dunders: equality, hashing, repr and the assignment guard": (
        "intset.Record.__eq__",
        "intset.Record.__hash__",
        "intset.Record.__repr__",
        "intset._repr",
        "intset.Record.__setattr__",
        "intset.Record.__delattr__",
        "intset.ExplicitWindow.__eq__",
        "intset.ExplicitWindow.__hash__",
        "intset.ExplicitWindow.__repr__",
        "intset.RunList.__eq__",
        "intset.RunList.__hash__",
        "intset.RunList.__repr__",
    ),
    "what tests/test_acceptance.py imports or calls": (
        "density.f_naive",
        "density.f_naive_all",
        "density.check_subadditivity",
        "density.fekete_qd_check",
        "density._f_array",
        "density.WindowProfile.f",
        "sumset.enumerate_subsets",
        "construct.EscapeCheck.chain_ok",
        "intset.ExplicitWindow.dilate",
        "intset.ExplicitWindow.elements",
        "intset._spread",
    ),
    "looked up by name by bench/tracing.py": ("sumset.run_sum",),
    "the console entry point, entered only by a real process": ("cli.run",),
    "membership, which no command asks: the verifiers read run_end_at and "
    "bitmaps, and member, derived once from run_end_at, is for library callers": (
        "intset.IntSet.member",
    ),
}


def test_cli_output_matches_the_manifest(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert [e["argv"] for e in manifest] == [argv for argv, _ in corpus()[1]]
    assert {e["exit"] for e in manifest} == {0, 1, 2, 3}
    for want, got in zip(manifest, replay(tmp_path)):
        *_, code, _, err = got
        assert entry(*got) == want
        assert code == 2 or err == "", (want["argv"], err)


@pytest.mark.parametrize("limit", [4300, 0])
def test_manifest_holds_at_any_interpreter_digit_limit(tmp_path, monkeypatch, limit):
    # the CLI neither reads nor sets the interpreter's int/str digit limit,
    # and answers the same at the default limit and with none
    monkeypatch.setenv("COLUMNS", COLUMNS)
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)

    def refuse(*args):
        raise AssertionError("the int/str digit limit was read or set")

    try:
        with monkeypatch.context() as patch:
            patch.setattr(sys, "set_int_max_str_digits", refuse)
            patch.setattr(sys, "get_int_max_str_digits", refuse)
            got = [entry(*r) for r in replay(tmp_path)]
    finally:
        sys.set_int_max_str_digits(saved)
    assert got == manifest


def test_profile_reads_no_bitmap(tmp_path, monkeypatch):
    # a profile reads a window's runs alone: with the bitmap unreadable,
    # every profile of a run list (an --input file) or of gen poly_runs 2,
    # JSON and CSV, still prints the manifest's bytes, while runs,
    # ap-reduce and verify's fold read bits
    monkeypatch.setenv("COLUMNS", COLUMNS)
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    files, calls = corpus()
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    bseq = {"ells": [1], "bs": ["1"], "certificates": [{"start": "1", "len": 1}]}
    (tmp_path / "seq.json").write_text(json.dumps(bseq), encoding="utf-8")

    def unreadable(self):
        raise AssertionError("a bitmap was read")

    monkeypatch.setattr(ExplicitWindow, "bits", property(unreadable))
    profiles = [
        (argv, want) for (argv, _), want in zip(calls, manifest)
        if argv[:1] == ["profile"] and want["exit"] == 0
        and (argv[1] == "--input" or argv[2] == "gen poly_runs 2")
    ]
    assert {"--format" in argv for argv, _ in profiles} == {False, True}
    assert {argv[1] for argv, _ in profiles} == {"--input", "--set"}
    for argv, want in profiles:
        assert entry(argv, None, *run_call(argv, tmp_path)) == want
    for argv in (["runs", "--input", "{dir}/small.txt", "--window", "0:256"],
                 ["ap-reduce", "--set", "gen poly_runs 2", "--window", "0:256"],
                 ["verify", "--set", "gen poly_runs 2", "--bseq", "{dir}/seq.json"]):
        with pytest.raises(AssertionError, match="a bitmap was read"):
            run_call(argv, tmp_path)


def test_regeneration_lists_every_entry_that_moved():
    a = {"argv": ["gen"], "exit": 2, "stdout_sha256": "0", "stderr": "x"}
    b = {"argv": ["runs"], "exit": 0, "stdout_sha256": "1"}
    old = [a, b, a, {"argv": ["gone"], "exit": 0, "stdout_sha256": "2"}]
    new = [a, {**b, "stdout_sha256": "3"}, {**a, "exit": 3, "stderr": None},
           {"argv": ["new"], "exit": 0, "stdout_sha256": "4"}]
    assert changes(old, new) == [
        'removed: ["gone"]',
        'changed stdout_sha256: ["runs"]',
        'changed exit, stderr: ["gen"]',
        'added: ["new"]',
    ]
    assert changes(new, new) == []


def definitions() -> dict[tuple[str, int, str], str]:
    """Every function and method in the package's modules, keyed as a
    profile hook sees its code (file, first line, qualified name) and
    named module.qualname."""
    found = {}
    for path in sorted(Path(banachsum.__file__).parent.glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if inspect.iscode(c))
            # class bodies share no new locals; comprehensions and lambdas
            # are named <...>
            if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
                key = (str(path), code.co_firstlineno, code.co_qualname)
                found[key] = f"{path.stem}.{code.co_qualname}"
    return found


def test_every_unentered_definition_is_listed(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_qualname))

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        for _ in replay(tmp_path):
            pass
    finally:
        sys.setprofile(previous)
    unentered = {name for key, name in definitions().items() if key not in entered}
    listed = {name for names in UNENTERED.values() for name in names}
    assert sorted(unentered - listed) == [], "entered by no manifest call"
    assert sorted(listed - unentered) == [], "listed but entered, or gone"
