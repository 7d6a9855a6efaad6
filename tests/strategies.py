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
