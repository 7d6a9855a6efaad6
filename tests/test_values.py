"""The package's immutable value classes, one table row per class.

Each row gives a class, the fields of one instance, its exact repr, an
unequal instance of the same class, and the arguments its constructor
refuses with their messages.  Every class must compare and hash by its
field tuple, print its fields, refuse assignment and deletion, and come
back equal from copy and pickle.  Fields bind like a signature, positional
values first, then by name, with the defaults of DEFAULTS.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from banachsum.construct import (
    APReduction,
    BFamily,
    BSequence,
    EscapeCheck,
    EscapeReport,
    SweepReport,
)
from banachsum.density import DensityEstimate, RunBoundReport, WindowProfile
from banachsum.intset import (
    Congruence,
    ExplicitWindow,
    Full,
    PolyRuns,
    PowRuns,
    Run,
    RunList,
    Window,
)
from oracles import from_entries

SEQ = from_entries((1, 2), (1, 3))
SEQ_REPR = "BSequence(ells=(1, 2), bs=(1, 3))"
CHECK = dict(i=1, below_double=True, doubles_outside=False)
CHECK_REPR = "EscapeCheck(i=1, below_double=True, doubles_outside=False)"
UNPAIRED = "SweepReport takes a witness and its witness_subset together"

# fields a constructor may leave out, with the value each then takes
DEFAULTS = {
    SweepReport: dict(witness=None, witness_subset=None),
}

# (class, fields, repr, unequal instance, [(args, exception, message)])
ROWS = [
    (
        Run,
        dict(start=3, length=4),
        "Run(start=3, length=4)",
        Run(3, 5),
        [
            ((0, 1), ValueError, "run start must be positive, got 0"),
            ((1, 0), ValueError, "run length must be >= 1, got 0"),
        ],
    ),
    (
        Window,
        dict(base=0, length=8),
        "Window(base=0, length=8)",
        Window(1, 8),
        [
            ((-1, 1), ValueError, "window base must be >= 0, got -1"),
            ((0, 0), ValueError, "window length must be >= 1, got 0"),
        ],
    ),
    (Full, {}, "Full()", None, []),
    (
        Congruence,
        dict(m=3, r=1),
        "Congruence(m=3, r=1)",
        Congruence(3, 2),
        [
            ((0, 0), ValueError, "modulus must be >= 1, got 0"),
            ((3, 3), ValueError, "residue must lie in [0, 2], got 3"),
        ],
    ),
    (
        PowRuns,
        dict(c=2),
        "PowRuns(c=2)",
        PowRuns(3),
        [((1,), ValueError, "base must be >= 2, got 1")],
    ),
    (
        PolyRuns,
        dict(p=3),
        "PolyRuns(p=3)",
        PolyRuns(2),
        [((1,), ValueError, "exponent must be >= 2, got 1")],
    ),
    (
        WindowProfile,
        dict(window_base=0, window_length=2, spans=(0,)),
        "WindowProfile(window_base=0, window_length=2, spans=(0,))",
        WindowProfile(0, 2, (0, 1)),
        [],
    ),
    (
        DensityEstimate,
        dict(value=Fraction(1, 2), argmin_n=2),
        "DensityEstimate(value=Fraction(1, 2), argmin_n=2)",
        DensityEstimate(Fraction(1, 2), 4),
        [],
    ),
    (
        RunBoundReport,
        dict(d=2, longest_run=1),
        "RunBoundReport(d=2, longest_run=1)",
        RunBoundReport(2, 0),
        [],
    ),
    (
        BSequence,
        dict(ells=(1, 2), bs=(1, 3)),
        SEQ_REPR,
        from_entries((1, 2), (1, 4)),
        [
            (((1,), (1, 2)), ValueError, "ells and bs must have equal length"),
            (((), ()), ValueError, "a base sequence needs at least one step"),
            (((0,), (1,)), ValueError, "run length 0 at step 1 must be >= 1"),
            (((1,), (0,)), ValueError, "base 0 at step 1 must be >= 1"),
            (((2, 1), (1, 2)), ValueError,
             "base at step 2 must clear the previous run entirely"),
        ],
    ),
    (
        SweepReport,
        dict(checked=3, witness=None, witness_subset=None),
        "SweepReport(checked=3, witness=None, witness_subset=None)",
        SweepReport(3, 7, (2, 1)),
        [((3, 7), TypeError, UNPAIRED), ((3, None, (2, 1)), TypeError, UNPAIRED)],
    ),
    (
        BFamily,
        dict(
            k_sets=2,
            index_sets=((1,), (2,)),
            sets=(RunList([Run(1, 1)]), RunList([Run(3, 2)])),
            source=SEQ,
        ),
        "BFamily(k_sets=2, index_sets=((1,), (2,)), "
        "sets=(RunList([Run(start=1, length=1)]), RunList([Run(start=3, length=2)])), "
        f"source={SEQ_REPR})",
        BFamily(1, ((1, 2),), (RunList([Run(1, 1), Run(3, 2)]),), SEQ),
        [],
    ),
    (
        APReduction,
        dict(m=2, r=1, derived=ExplicitWindow(Window(1, 3), 0b101), evidence_len=2),
        "APReduction(m=2, r=1, derived=ExplicitWindow(Window(base=1, length=3), count=2), "
        "evidence_len=2)",
        APReduction(2, 1, ExplicitWindow(Window(1, 3), 0b100), 2),
        [],
    ),
    (EscapeCheck, CHECK, CHECK_REPR, EscapeCheck(**{**CHECK, "i": 2}), []),
    (
        EscapeReport,
        dict(t=0, checks=(EscapeCheck(**CHECK),)),
        f"EscapeReport(t=0, checks=({CHECK_REPR},))",
        EscapeReport(1, (EscapeCheck(**CHECK),)),
        [],
    ),
]


@pytest.mark.parametrize("cls, fields, text, other, refusals", ROWS,
                         ids=[row[0].__name__ for row in ROWS])
def test_value_class(cls, fields, text, other, refusals):
    value = cls(**fields)
    assert value == cls(*fields.values())
    assert [getattr(value, name) for name in fields] == list(fields.values())

    # equality and hashing go by the field tuple, within one class
    assert hash(value) == hash(cls(**fields)) == hash(tuple(fields.values()))
    assert value.__eq__(object()) is NotImplemented
    assert value != (Congruence(1, 0) if cls is Full else Full())
    assert value != type("Twin", (cls,), {})(**fields)
    if other is not None:
        assert type(other) is cls and value != other

    assert repr(value) == text

    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(**fields)

    # fields bind like a signature: too many values, an unknown name or a
    # missing field without a default are refused
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(**fields, extra=None)
    defaults = DEFAULTS.get(cls, {})
    for name in fields:
        rest = {k: v for k, v in fields.items() if k != name}
        if name in defaults:
            assert cls(**rest) == cls(**rest, **{name: defaults[name]})
        else:
            with pytest.raises(TypeError):
                cls(**rest)
    required = [v for k, v in fields.items() if k not in defaults]
    assert cls(*required) == cls(*required, *defaults.values())
    for args, exc, message in refusals:
        with pytest.raises(exc) as info:
            cls(*args)
        assert str(info.value) == message

    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value and repr(twin) == text


def test_restated_fields_are_derived_not_stored():
    """A field that restates others is a property of them, so the shapes
    that stored such a field are refused, and the derived values follow the
    stored ones."""
    for cls, args in [
        (SweepReport, ("Fail", 3)),
        (WindowProfile, (0, 2, (0,), (0, 1, 1))),
        (BSequence, ((1,), (1,), (Run(1, 1),))),
        (RunBoundReport, (2, 1, ())),
        (EscapeReport, (0, 1, 1, True, ())),
    ]:
        with pytest.raises(TypeError):
            cls(*args)
    passed, failed = SweepReport(3), SweepReport(3, 7, (2, 1))
    assert (passed.passed, passed.to_payload()["status"]) == (True, "Pass")
    assert (failed.passed, failed.to_payload()["status"]) == (False, "Fail")
    assert WindowProfile(0, 2, (0,)).f == (0, 1, 1)
    assert list(from_entries((1, 2), (1, 3)).certificates()) == [Run(1, 1), Run(3, 4)]
    assert (RunBoundReport(2, 1).ok, RunBoundReport(2, 1).failures) == (True, ())
    report = EscapeReport(5, (EscapeCheck(2, True, True), EscapeCheck(3, True, False)))
    assert (report.i0, report.checked, report.all_escaped) == (2, 2, False)
    assert EscapeReport(5, report.checks[:1]).all_escaped
