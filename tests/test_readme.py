"""README.md against the code: the Budgets table, the generator forms, the
subcommands, the module map and the CLI examples.

The README states the contract once; these tests fail when a constant, a
form, a subcommand, a public name or an output moves without it.
"""

import ast
import fnmatch
import importlib
import re
import shlex
from pathlib import Path

import banachsum
from banachsum import cli
from banachsum.intset import _GENERATORS, parse_set

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(banachsum.__file__).resolve().parent
# module-level constants that bound work or input
LIMIT_PATTERNS = ("*_BUDGET*", "*_LIMIT", "*_MAX*")


def section(title):
    """The README text under the heading `## title`, up to the next one."""
    text = README.read_text(encoding="utf-8")
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", text, re.M | re.S)
    assert match, f"README has no section {title!r}"
    return match.group(1)


def table_rows(text):
    """The cells of each row of the markdown tables in text, header and
    rule rows left out."""
    return [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in text.splitlines()
        if line.startswith("| `")
    ]


def code_blocks(text):
    return re.findall(r"^```\w*\n(.*?)^```", text, re.M | re.S)


def budget_rows():
    """{`module.NAME`: value} from the Budgets table."""
    return {row[0].strip("`"): int(row[1]) for row in table_rows(section("Budgets"))}


def code_value(name):
    """The value in the code of a Budgets row: a module constant, or for a
    function, the cut it makes in the text it quotes."""
    module, attr = name.split(".")
    value = getattr(importlib.import_module(f"banachsum.{module}"), attr)
    if callable(value):
        # _echo quotes a long token as its first characters and an ellipsis
        return value("7" * 10_000).index("…") - len("''")
    return value


def test_budgets_table_matches_the_code():
    rows = budget_rows()
    assert rows, "the Budgets table has no rows"
    assert {name: code_value(name) for name in rows} == rows


def test_every_limit_of_the_package_has_a_budgets_row():
    rows = budget_rows()
    limits = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Name)
                    and any(fnmatch.fnmatchcase(target.id, p) for p in LIMIT_PATTERNS)
                    and type(getattr(importlib.import_module(f"banachsum.{path.stem}"),
                                     target.id)) is int
                ):
                    limits.add(f"{path.stem}.{target.id}")
    assert limits, "no limit constants found"
    assert limits <= set(rows), f"no Budgets row for {sorted(limits - set(rows))}"


def test_grammar_lists_exactly_the_generator_forms():
    (block,) = code_blocks(section("Set description grammar"))
    lines = [line.split("#")[0].strip() for line in block.splitlines()]
    for line in lines:
        parse_set(line)
    forms = {line.split()[1] for line in lines if line.startswith("gen ")}
    assert forms == set(_GENERATORS)


def subcommands():
    (sub,) = [a for a in cli._build_parser()._actions if a.dest == "subcommand"]
    return set(sub.choices)


def test_cli_section_names_exactly_the_subcommands():
    named = {row[0].strip("`") for row in table_rows(section("CLI"))}
    assert named == subcommands()


def examples():
    """(line, argv, redirect target or None, exit code, shown output) for
    each `banachsum` line of the CLI section's example block."""
    (block,) = [b for b in code_blocks(section("CLI")) if "banachsum " in b]
    found = []
    for line in block.splitlines():
        if line.startswith("banachsum "):
            command, sep, comment = line.partition("# exit ")
            assert sep, f"no exit code given: {line}"
            argv = shlex.split(command)[1:]
            target = None
            if ">" in argv:
                i = argv.index(">")
                argv, target = argv[:i], argv[i + 1]
            found.append([line, argv, target, int(comment.split()[0]), []])
        elif line.startswith("# "):
            found[-1][4].append(line[2:])
    return found


def shown_pattern(lines):
    """A pattern matching the output the README shows, each `...` standing
    for any text."""
    return ".*".join(map(re.escape, "\n".join(lines).split("...")))


def test_cli_examples_give_the_exit_codes_and_output_shown(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    cases = examples()
    assert {argv[0] for _, argv, _, _, _ in cases} == subcommands()
    for line, argv, target, code, shown in cases:
        assert cli.main(argv) == code, line
        out = capsys.readouterr().out
        if target is not None:
            Path(target).write_text(out, encoding="utf-8")
        assert re.fullmatch(shown_pattern(shown), out.removesuffix("\n"), re.S), line


def test_module_map_names_every_public_name():
    the_map = section("Module map")
    public = [name for name in banachsum.__all__ if name != "__version__"]
    assert [name for name in public if f"`{name}`" not in the_map] == []


def test_every_public_class_and_function_has_its_own_docstring():
    def own_doc(obj):
        # a class without one shows the docstring of its base in help()
        return obj.__dict__.get("__doc__") if isinstance(obj, type) else obj.__doc__

    public = [getattr(banachsum, name) for name in banachsum.__all__]
    assert [obj.__name__ for obj in public if callable(obj) and not own_doc(obj)] == []
