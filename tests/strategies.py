"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from banachsum.intset import ExplicitWindow, Window


@st.composite
def shaped_windows(draw, max_len=512):
    """Windows of the shapes the profile routes and ap_reduce have to get right."""
    shape = draw(st.sampled_from(
        ["random", "runs", "empty", "full", "alternating", "edges"]))
    base = draw(st.sampled_from([0, 1, draw(st.integers(2, 10**6))]))
    length = draw(st.integers(min_value=1, max_value=max_len))
    top = (1 << length) - 1
    if shape == "random":
        bits = draw(st.integers(min_value=0, max_value=top))
    elif shape == "runs":
        bits, off = 0, 0
        for gap, run in draw(st.lists(st.tuples(st.integers(1, 40), st.integers(1, 40)),
                                      max_size=6)):
            off += gap
            bits |= ((1 << run) - 1) << off
            off += run
        bits &= top
    elif shape == "empty":
        bits = 0
    elif shape == "full":
        bits = top
    elif shape == "alternating":
        bits = int("10" * length, 2) >> (length + draw(st.integers(0, 1)))
    else:
        inner = draw(st.integers(min_value=0, max_value=top))
        bits = inner | 1 | (1 << (length - 1))
    if base == 0:
        bits &= ~1
    return ExplicitWindow(Window(base, length), bits)


def _int_text(draw, value: int) -> str:
    """value as int(text, 10) reads it: plain, zero-padded, signed or with
    underscores between digits."""
    digits = str(abs(value))
    form = draw(st.sampled_from(["plain", "plain", "zeros", "plus", "underscore"]))
    if form == "zeros":
        digits = "0" * draw(st.integers(1, 3)) + digits
    elif form == "underscore" and len(digits) > 1:
        cut = draw(st.integers(1, len(digits) - 1))
        digits = digits[:cut] + "_" + digits[cut:]
    if value < 0:
        return "-" + digits
    return ("+" if form == "plus" else "") + digits


_NOT_INTS = ["x", "1.5", "_1", "1_", "1__0", "0x10", "--1", "+-2", "1e3", "'7'"]
_GEN_LINES = [
    "gen full", "gen pow_runs 2", "gen poly_runs 3", "gen congruence 4 1",
    "gen full 1", "gen pow_runs 1", "gen congruence 4 9", "gen frob 2", "gen",
]


@st.composite
def run_list_texts(draw, max_lines=10):
    """Set descriptions in parse_set's grammar, mostly run and elem lines on
    a short stretch so runs touch and overlap, with the grammar's corners
    mixed in: comments, blank lines, tabs, CRLF line ends, integer
    spellings, non-positive values, wrong argument counts, non-integers,
    unknown directives and gen lines, valid or not, among other lines."""
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    if draw(st.integers(0, 9)) == 0:
        # a gen line alone among comments and blank lines
        return ending.join(["# header", draw(st.sampled_from(_GEN_LINES)), "", "\t# end"])
    # about half of the other texts hold only well-formed run, elem, blank
    # and comment lines
    clean = draw(st.booleans())
    kinds = ["run"] * 8 + ["elem"] * 3 + ["blank", "comment"]
    if not clean:
        kinds += ["args", "not_int", "unknown", "gen"]
    lines = []
    for _ in range(draw(st.integers(0, max_lines))):
        kind = draw(st.sampled_from(kinds))
        start = draw(st.integers(1 if clean else -1, 60))
        length = draw(st.sampled_from([1, 1, 2, 2, 3, 4, 6, 9] + ([] if clean else [0, -1])))
        if kind == "run":
            words = ["run", _int_text(draw, start), _int_text(draw, length)]
        elif kind == "elem":
            words = ["elem", _int_text(draw, start)]
        elif kind == "blank":
            words = []
        elif kind == "comment":
            words = ["#", "note"]
        elif kind == "args":
            head = draw(st.sampled_from(["run", "elem"]))
            n_args = draw(st.sampled_from([0, 1, 3] if head == "run" else [0, 2]))
            words = [head] + [str(start + i) for i in range(n_args)]
        elif kind == "not_int":
            head = draw(st.sampled_from(["run", "elem"]))
            words = [head, draw(st.sampled_from(_NOT_INTS))]
            if head == "run":
                words.insert(draw(st.integers(1, 2)), str(start))
        elif kind == "unknown":
            words = [draw(st.sampled_from(["frob", "Run", "runs", "ELEM", "gen_full"])), "1"]
        else:
            words = draw(st.sampled_from(_GEN_LINES)).split()
        pad = st.sampled_from([" ", "  ", "\t", " \t "])
        line = draw(pad).join(words)
        if draw(st.booleans()):
            line = draw(st.sampled_from(["", " ", "\t"])) + line
        if draw(st.integers(0, 4)) == 0:
            line += draw(st.sampled_from(["#", " # note", "\t#run 1 1", "  "]))
        lines.append(line)
    return ending.join(lines)
