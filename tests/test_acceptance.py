"""Acceptance sweep: nine end-to-end checks at desk scale.

Each test covers one numbered criterion and is named for it, so the -v
listing doubles as the one-line pass/fail log.  Tests with a stated time
budget enforce it with a wall-clock assert; every test also prints an
explicit [criterion N] line for -s runs.  All arithmetic is exact; there
are no tolerances anywhere, only equalities and strict inequalities.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from banachsum.construct import (
    BFamily,
    ap_reduce,
    build_b_sequence,
    build_family,
    escape_i0,
    verify_b_sequence,
    verify_escape,
    verify_family,
)
from banachsum.density import (
    check_run_bound,
    check_subadditivity,
    density_estimate,
    f_naive,
    f_naive_all,
    f_profile,
    fekete_qd_check,
    longest_run,
)
from banachsum.errors import DisjointnessViolation
from banachsum.intset import (
    Congruence,
    ExplicitWindow,
    Full,
    PolyRuns,
    Window,
    decimal_digits,
)
from banachsum.sumset import enumerate_subsets

N_WINDOW = 2048


def random_window(rng, length, density, base=1):
    bits = 0
    for pos in range(length):
        if rng.random() < density:
            bits |= 1 << pos
    return ExplicitWindow(Window(base, length), bits)


@pytest.fixture(scope="module")
def profile_windows():
    rng = random.Random(20260819)
    densities = [i / 10 for i in range(1, 10)]
    return [
        random_window(rng, N_WINDOW, rng.choice(densities)) for _ in range(100)
    ]


_PROFILES: dict[int, list] = {}


def profiles_for(windows):
    key = id(windows)
    if key not in _PROFILES:
        _PROFILES[key] = [f_profile(w) for w in windows]
    return _PROFILES[key]


def test_criterion_1_profile_matches_naive_oracle(profile_windows):
    t0 = time.perf_counter()
    rng = random.Random(11)
    profiles = profiles_for(profile_windows)
    for w, prof in zip(profile_windows, profiles):
        assert prof.f == f_naive_all(w)  # every n, via the widening scan
        est = density_estimate(prof)
        spots = {1, 2, N_WINDOW, est.argmin_n}
        spots.update(rng.sample(range(1, N_WINDOW + 1), 8))
        for n in spots:
            assert prof.f[n] == f_naive(w, n)
    dt = time.perf_counter() - t0
    assert dt < 30.0
    print(f"[criterion 1] PASS ({dt:.2f}s): 100 windows, exact at every n")


def test_criterion_2_subadditivity_and_block_bound(profile_windows):
    t0 = time.perf_counter()
    profiles = profiles_for(profile_windows)
    for prof in profiles:
        assert check_subadditivity(prof) == []
        for d in range(1, 65):
            assert fekete_qd_check(prof, d)
    dt = time.perf_counter() - t0
    print(
        f"[criterion 2] PASS ({dt:.2f}s): zero subadditivity or block-bound "
        f"violations over 100 profiles, d up to 64"
    )


def break_runs(bits, length, d):
    """Clear bits so that no run of d consecutive members survives."""
    out, streak = 0, 0
    for pos in range(length):
        if (bits >> pos) & 1:
            if streak == d - 1:
                streak = 0
                continue
            out |= 1 << pos
            streak += 1
        else:
            streak = 0
    return out


def test_criterion_3_run_bound_on_conditioned_sets():
    t0 = time.perf_counter()
    rng = random.Random(31)
    n_max = 1024
    for d in (2, 4, 8, 16):
        for _ in range(50):
            raw = random_window(rng, n_max, 0.5)
            bits = break_runs(raw.bits, n_max, d)
            w = ExplicitWindow(Window(1, n_max), bits)
            assert longest_run(w) < d
            report = check_run_bound(w, d)
            assert report.ok and len(report.failures) == 0
            # restate the strict bound in exact rationals at every length
            f = f_profile(w).f
            bound_slope = 1 - Fraction(1, d)
            for n in range(1, n_max + 1):
                assert Fraction(f[n]) < bound_slope * n + 1
    dt = time.perf_counter() - t0
    print(
        f"[criterion 3] PASS ({dt:.2f}s): 50 sets per d in (2,4,8,16), "
        f"strict bound at every n <= 1024"
    )


def test_criterion_4_forced_density_values():
    t0 = time.perf_counter()
    odds = Congruence(2, 1)
    lengths = list(range(2, 1025, 2)) + [1500, 2000, 2048]
    for length in lengths:
        est = density_estimate(f_profile(odds.materialize(Window(0, length))))
        assert est.value == Fraction(1, 2)
        assert est.argmin_n == 2
    full = Full()
    for length in list(range(1, 1025)) + [1500, 2000, 2048]:
        est = density_estimate(f_profile(full.materialize(Window(1, length))))
        assert est.value == 1
        assert est.argmin_n == 1
    dt = time.perf_counter() - t0
    print(
        f"[criterion 4] PASS ({dt:.2f}s): alternating windows give exactly "
        f"1/2, saturated windows give exactly 1"
    )


def test_criterion_5_base_sequence_end_to_end():
    t0 = time.perf_counter()
    a = PolyRuns(2)
    seq = build_b_sequence(a, [1] * 10, 10, digit_budget=10**5)
    assert seq.bs[:3] == (1, 9, 169)
    assert decimal_digits(seq.bs[-1]) <= 1500
    report = verify_b_sequence(seq, a)
    assert report.passed and report.checked == 2**10 - 1

    prefix = build_b_sequence(a, [1] * 3)
    assert prefix.bs == (1, 9, 169)
    for subset in enumerate_subsets(3):
        total = sum(prefix.bs[j - 1] for j in subset)
        assert a.member(total)
    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(
        f"[criterion 5] PASS ({dt:.2f}s): k=10 build and 1023-subset sweep, "
        f"plus element-checked k=3 prefix (1, 9, 169)"
    )


def test_criterion_6_family_end_to_end():
    t0 = time.perf_counter()
    a = PolyRuns(2)
    seq = build_b_sequence(a, [1] * 10, 10, digit_budget=10**5)
    for k_sets in (2, 3, 4):
        family = build_family(seq, k_sets, "residue")
        report = verify_family(family, a)
        assert report.passed

    family = build_family(seq, 3, "residue")
    corrupted = BFamily(
        family.k_sets,
        family.index_sets,
        (family.sets[0], family.sets[0], family.sets[2]),
        family.source,
    )
    with pytest.raises(DisjointnessViolation):
        verify_family(corrupted, a)
    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(
        f"[criterion 6] PASS ({dt:.2f}s): residue families for k_sets in "
        f"(2,3,4) verified; duplicated component detected"
    )


def test_criterion_7_escape_checks_and_threshold():
    t0 = time.perf_counter()
    for t in range(0, 51):
        report = verify_escape(t, 30)
        assert report.all_escaped
        for check in report.checks:
            assert check.chain_ok and check.doubles_outside

    # independent threshold oracle: precomputed crossing points swept in
    # lockstep against the per-call search
    thresholds = [4**i - i for i in range(1, 13)]
    i = 1
    for t in range(0, 10**6 + 1):
        while thresholds[i - 1] <= t:
            i += 1
        assert escape_i0(t) == i
    dt = time.perf_counter() - t0
    assert dt < 5.0
    print(
        f"[criterion 7] PASS ({dt:.2f}s): all shifts t <= 50 escape at "
        f"i_max=30; threshold matches oracle for every t <= 10^6"
    )


def test_criterion_8_dilation_structure_recovery():
    t0 = time.perf_counter()
    rng = random.Random(88)
    n = 10**5
    bits = 0
    planted = range(3, n, 7)
    for x in planted:
        bits |= 1 << x
    noise_added = 0
    while noise_added < n * 5 // 100:
        x = rng.randrange(1, n)
        if x % 7 != 3 and not (bits >> x) & 1:
            bits |= 1 << x
            noise_added += 1
    w = ExplicitWindow(Window(0, n), bits)

    reduction = ap_reduce(w, 10)
    assert (reduction.m, reduction.r) == (7, 3)
    assert reduction.evidence_len == len(planted)

    pulled_back = reduction.derived.dilate(7, 3)
    count = 0
    for x in pulled_back.elements():
        assert w.member(x)
        count += 1
    assert count == len(planted) - 1  # quotient keeps q >= 1, dropping x=3
    dt = time.perf_counter() - t0
    print(
        f"[criterion 8] PASS ({dt:.2f}s): recovered (m,r)=(7,3) under 5% "
        f"noise; dilated pullback of {count} elements all inside the set"
    )


def test_criterion_9_subset_enumeration_is_stable():
    t0 = time.perf_counter()
    for k in range(1, 17):
        subsets = list(enumerate_subsets(k))
        assert len(subsets) == 2**k - 1
        assert len(set(subsets)) == len(subsets)

    def log(k):
        return b"\n".join(
            json.dumps(list(s)).encode() for s in enumerate_subsets(k)
        )

    assert log(16) == log(16)
    dt = time.perf_counter() - t0
    print(
        f"[criterion 9] PASS ({dt:.2f}s): counts 2^k - 1 for k <= 16, "
        f"duplicate-free, byte-identical logs"
    )
