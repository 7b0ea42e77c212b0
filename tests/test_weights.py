"""Weight families: point values, prefix sums, classification, parsing."""

from __future__ import annotations

import json
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqspace import weights
from seqspace.exceptions import CapExceededError, InputError
from seqspace.functionals import StepSequence, ratio
from seqspace.weights import (
    DEFAULT_INDEX_CAP,
    Branch,
    ConstantTailWeights,
    ExplicitRationalWeights,
    HarmonicWeights,
    PowerWeights,
    parse_weight_spec,
)

FAMILY_SPECS = ["power:0.5", "power:2", "harmonic", "ctail:0.25", "ctail:1.0"]


def test_point_values():
    assert HarmonicWeights().weight_at(3) == pytest.approx(1 / 3, rel=1e-15)
    assert PowerWeights(0.5).weight_at(4) == pytest.approx(0.5, rel=1e-15)
    assert ConstantTailWeights(0.25).weight_at(10) == 0.25
    assert ConstantTailWeights(0.25).weight_at(2) == 0.5


def test_normalization_and_monotonicity():
    for spec in FAMILY_SPECS:
        fam = parse_weight_spec(spec)
        head = fam.weights_head(50)
        assert head[0] == 1.0
        assert np.all(np.diff(head) <= 0)
        assert np.all(head > 0)


def test_prefix_sum_small_values():
    fam = PowerWeights(0.5)
    # direct three- and four-term sums
    assert fam.prefix_sum(0) == 0.0
    assert fam.prefix_sum(3) == pytest.approx(1 + 2**-0.5 + 3**-0.5, rel=1e-15)
    assert fam.prefix_sum(4) == pytest.approx(1 + 2**-0.5 + 3**-0.5 + 0.5, rel=1e-15)
    assert HarmonicWeights().prefix_sum(4) == pytest.approx(25 / 12, rel=1e-15)


def test_prefix_sum_against_plain_accumulation():
    for spec in FAMILY_SPECS:
        fam = parse_weight_spec(spec)
        expected = math.fsum(float(fam.weight_at(i)) for i in range(1, 2001))
        assert fam.prefix_sum(2000) == pytest.approx(expected, rel=1e-13)


def test_prefix_sum_large_accuracy():
    # fsum is the independent high-accuracy route
    fam = PowerWeights(0.5)
    n = 10**6
    expected = math.fsum((np.arange(1, n + 1) ** -0.5).tolist())
    assert fam.prefix_sum(n) == pytest.approx(expected, rel=1e-13)


@given(n=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_adjacent_prefix_difference(n):
    # W(n+1) - W(n) recovers the single weight, relative to the prefix scale.
    fam = PowerWeights(0.5)
    diff = fam.prefix_sum(n + 1) - fam.prefix_sum(n)
    w = fam.weight_at(n + 1)
    assert abs(diff - w) <= 1e-12 * max(1.0, fam.prefix_sum(n + 1))


def test_window_sum_matches_prefix_difference():
    fam = HarmonicWeights()
    for lo, hi in [(1, 1), (1, 10), (5, 23), (100, 100), (17, 4)]:
        direct = fam.window_sum(lo, hi)
        if hi < lo:
            assert direct == 0.0
        else:
            expected = math.fsum(1 / i for i in range(lo, hi + 1))
            assert direct == pytest.approx(expected, rel=1e-14)


def test_prefix_array_consistency():
    for spec in FAMILY_SPECS:
        fam = parse_weight_spec(spec)
        arr = fam.prefix_array(300)
        assert arr[0] == 0.0
        for n in (1, 7, 123, 300):
            assert arr[n] == pytest.approx(fam.prefix_sum(n), rel=1e-13)


def test_prefix_sums_deterministic_across_threads():
    fam = PowerWeights(0.5)
    queries = [1, 10, 100, 12345, 2**17, 999_999]

    def worker(seed: int) -> list[float]:
        rng = np.random.default_rng(seed)
        return [fam.prefix_sum(queries[i]) for i in rng.permutation(len(queries))]

    with ThreadPoolExecutor(max_workers=8) as ex:
        results = list(ex.map(worker, range(12)))
    fresh = PowerWeights(0.5)
    baseline = {n: fresh.prefix_sum(n) for n in queries}
    for seed, vals in enumerate(results):
        order = np.random.default_rng(seed).permutation(len(queries))
        for got, i in zip(vals, order):
            assert got == baseline[queries[i]]


def test_index_cap_enforced():
    fam = PowerWeights(0.5, index_cap=1000)
    fam.prefix_sum(1000)
    with pytest.raises(CapExceededError):
        fam.prefix_sum(1001)
    with pytest.raises(CapExceededError):
        PowerWeights(0.5).prefix_sum(2**40 + 1)


@pytest.mark.parametrize(
    "read",
    [
        lambda fam, n: fam.weight_at(n),
        lambda fam, n: fam.weights_head(n),
        lambda fam, n: fam.weights_slice(n - 3, n),
        lambda fam, n: fam.window_sum(n - 3, n),
    ],
    ids=["weight_at", "weights_head", "weights_slice", "window_sum"],
)
def test_index_cap_bounds_every_weight_read(read):
    fam = PowerWeights(0.5, index_cap=10)
    read(fam, 10)
    with pytest.raises(CapExceededError, match="index 11 exceeds the configured cap 10"):
        read(fam, 11)


def test_index_cap_is_one_limit_up_to_the_scan_support():
    # the cap bounds every prefix query, dense arrays included, and may not
    # exceed 2**28, the largest support a window scan takes
    assert DEFAULT_INDEX_CAP == 2**28
    fam = PowerWeights(0.5, index_cap=1000)
    assert fam.prefix_array(1000).size == 1001
    with pytest.raises(CapExceededError, match="prefix index 1001 exceeds the configured cap"):
        fam.prefix_array(1001)
    for cap in (0, -3, 2**28 + 1, 2**40):
        with pytest.raises(InputError, match=f"index cap must lie in 1..268435456, got {cap}"):
            HarmonicWeights(index_cap=cap)
        with pytest.raises(InputError, match="index cap must lie in"):
            parse_weight_spec("power:0.5", index_cap=cap)


def test_exact_prefix_fractions():
    h = HarmonicWeights()
    assert h.prefix_fraction(4) == Fraction(25, 12)
    assert h.prefix_fraction(0) == 0
    assert h.weight_fraction(7) == Fraction(1, 7)
    c = ConstantTailWeights(0.25)
    assert c.weight_fraction(10) == Fraction(1, 4)
    assert c.weight_fraction(3) == Fraction(1, 3)
    with pytest.raises(InputError):
        PowerWeights(0.5).weight_fraction(2)
    with pytest.raises(CapExceededError):
        h.prefix_fraction(100_001)


# exact families and their terms, written out here rather than read from the family
LISTED = [Fraction(1), Fraction(3, 4), Fraction(1, 2), Fraction(1, 3)]  # then the tail 4/(3i)
EXACT_TERMS = {
    "harmonic": (HarmonicWeights, lambda i: Fraction(1, i)),
    "ctail:0.25": (lambda: ConstantTailWeights(0.25), lambda i: max(Fraction(1, 4), Fraction(1, i))),
    "explicit-pattern": (
        lambda: ExplicitRationalWeights(LISTED, "pattern"),
        lambda i: LISTED[i - 1] if i <= len(LISTED) else Fraction(4, 3 * i),
    ),
}


@given(
    kind=st.sampled_from(sorted(EXACT_TERMS)),
    ns=st.lists(st.integers(0, 600), min_size=1, max_size=30),
    order=st.sampled_from(["ascending", "descending", "shuffled", "repeated"]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_exact_prefixes_in_any_read_order_are_the_sequential_sums(kind, ns, order, data):
    # each read sums from the largest anchor at or below it, by binary splitting:
    # every W(n) is the one-term-at-a-time Fraction sum, whatever came before
    make, term = EXACT_TERMS[kind]
    if order == "ascending":
        ns = sorted(ns)
    elif order == "descending":
        ns = sorted(ns, reverse=True)
    elif order == "shuffled":
        ns = data.draw(st.permutations(ns))
    else:
        ns = [n for n in ns for _ in range(2)]
    want = [Fraction(0)]
    for i in range(1, max(ns) + 1):
        want.append(want[-1] + term(i))
    fam = make()
    for n in ns:
        assert fam.prefix_fraction(n) == want[n]


def test_exact_prefix_caps_come_before_any_sum():
    # neither cap reads a term: EXACT_PREFIX_CAP, and the family's index cap
    # (the CLI's --cap)
    for fam, n, match in [
        (HarmonicWeights(), 100_001, "exact prefix sums capped at 100000, got 100001"),
        (HarmonicWeights(index_cap=500), 501, "prefix index 501 exceeds the configured cap 500"),
    ]:
        calls = []
        fam._fraction = lambda i: calls.append(i)
        with pytest.raises(CapExceededError, match=match):
            fam.prefix_fraction(n)
        assert calls == []


def test_an_exact_prefix_holds_only_its_anchors():
    # W(30,000) by binary splitting from W(0): about 0.05 MiB, where a list
    # of every W(i) up to it peaked near 170 MiB
    fam = HarmonicWeights()
    tracemalloc.start()
    try:
        got = fam.prefix_fraction(30_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert got == fam.prefix_fraction(29_999) + Fraction(1, 30_000)
    assert sorted(fam._anchors) == [0, 29_999, 30_000]


def test_classification_branches():
    assert PowerWeights(0.5).classify().branch is Branch.C0_NOT_L1
    assert PowerWeights(1.0).classify().branch is Branch.C0_NOT_L1
    assert HarmonicWeights().classify().branch is Branch.C0_NOT_L1
    c = ConstantTailWeights(0.5).classify()
    assert c.branch is Branch.BOUNDED_BELOW
    assert c.constant == pytest.approx(2.0)
    s = PowerWeights(2.0).classify()
    assert s.branch is Branch.SUMMABLE
    # pi^2/6 is the true sum; the reported constant must sit just above it
    assert s.constant >= math.pi**2 / 6
    assert s.constant == pytest.approx(math.pi**2 / 6, rel=1e-5)


def test_classification_constant_is_upper_bound():
    # the constant must dominate every partial sum it can see
    fam = PowerWeights(1.5)
    c = fam.classify()
    assert c.branch is Branch.SUMMABLE
    assert fam.prefix_sum(10**6) < c.constant


def test_explicit_rational_family(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"weights": ["1", "2/3", "2/3", "1/2"], "tail": "constant"}))
    fam = parse_weight_spec(f"explicit:{path}")
    assert fam.weight_fraction(2) == Fraction(2, 3)
    assert fam.weight_fraction(4) == Fraction(1, 2)
    assert fam.weight_fraction(100) == Fraction(1, 2)
    assert fam.classify().branch is Branch.BOUNDED_BELOW
    assert fam.classify().constant == pytest.approx(2.0)
    assert np.allclose(fam.weights_head(6), [1, 2 / 3, 2 / 3, 0.5, 0.5, 0.5])

    path2 = tmp_path / "w2.json"
    path2.write_text(json.dumps({"weights": ["1", "1/2"], "tail": "pattern"}))
    fam2 = parse_weight_spec(f"explicit:{path2}")
    assert fam2.classify().branch is Branch.C0_NOT_L1
    # pattern tail continues w_L * L / i
    assert fam2.weight_fraction(8) == Fraction(1, 8)
    assert fam2.weight_at(10) == pytest.approx(0.1)
    assert fam2.prefix_fraction(4) == Fraction(1, 1) + Fraction(1, 2) + Fraction(1, 3) + Fraction(1, 4)


def test_explicit_rejects_bad_lists(tmp_path):
    with pytest.raises(InputError):
        ExplicitRationalWeights([Fraction(1, 2)], "constant")  # w_1 != 1
    with pytest.raises(InputError):
        ExplicitRationalWeights([Fraction(1), Fraction(2)], "constant")  # increasing
    with pytest.raises(InputError):
        ExplicitRationalWeights([Fraction(1), Fraction(0)], "constant")  # zero
    with pytest.raises(InputError):
        ExplicitRationalWeights([Fraction(1)], "zeros")  # unknown tail
    path = tmp_path / "bad.json"
    path.write_text("{\"weights\": [\"1\"]}")
    with pytest.raises(InputError):
        parse_weight_spec(f"explicit:{path}")
    with pytest.raises(InputError):
        parse_weight_spec("explicit:/no/such/file.json")
    for weights in (5, "1", {"1": 1}, None):
        path.write_text(json.dumps({"weights": weights, "tail": "pattern"}))
        with pytest.raises(InputError, match="explicit weight file must be"):
            parse_weight_spec(f"explicit:{path}")


def test_parse_weight_spec_errors():
    with pytest.raises(InputError):
        parse_weight_spec("power:0")
    with pytest.raises(InputError):
        parse_weight_spec("power:-1")
    with pytest.raises(InputError):
        parse_weight_spec("power:abc")
    with pytest.raises(InputError):
        parse_weight_spec("ctail:0")
    with pytest.raises(InputError):
        parse_weight_spec("ctail:1.5")
    with pytest.raises(InputError):
        parse_weight_spec("geometric")
    with pytest.raises(InputError):
        parse_weight_spec("harmonic:2")


@pytest.mark.parametrize(
    "read",
    [
        lambda fam, i: fam.weight_at(i),
        lambda fam, i: fam.weights_head(i),
        lambda fam, i: fam.weights_slice(i - 2, i),
        lambda fam, i: fam.window_sum(i - 2, i),
        lambda fam, i: fam.prefix_sum(i),
        lambda fam, i: fam.prefix_array(i),
        lambda fam, i: fam.prefix_fraction(i),
        lambda fam, i: fam.weight_fraction(i),
    ],
    ids=[
        "weight_at", "weights_head", "weights_slice", "window_sum",
        "prefix_sum", "prefix_array", "prefix_fraction", "weight_fraction",
    ],
)
def test_weight_reads_take_integer_indices(read):
    # a float index, even a whole one, is refused whether or not its value is
    # memoized; numpy integers are indices
    fam = HarmonicWeights()
    expected = read(fam, 3)
    assert np.array_equal(read(fam, np.int64(3)), expected)
    for bad in (3.0, 3.5):
        with pytest.raises(InputError, match="must be an integer, got"):
            read(fam, bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), None, "x", "1/0"])
def test_explicit_weights_reject_bad_entries(bad):
    with pytest.raises(InputError, match="^explicit weights must be finite rationals: "):
        ExplicitRationalWeights([1, bad], "constant")


def test_explicit_weights_take_an_array():
    # the entries are converted before the list is tested for emptiness
    assert ExplicitRationalWeights(np.array([1.0, 0.5]), "constant").values == [1, Fraction(1, 2)]


def test_weight_at_rejects_bad_index():
    with pytest.raises(InputError):
        HarmonicWeights().weight_at(0)
    with pytest.raises(InputError):
        HarmonicWeights().weight_at(-3)


@given(
    alpha=st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
    lo=st.integers(min_value=1, max_value=500),
    width=st.integers(min_value=0, max_value=200),
)
@settings(max_examples=50, deadline=None)
def test_window_sum_property(alpha, lo, width):
    fam = PowerWeights(alpha)
    hi = lo + width
    expected = math.fsum(float(i) ** -alpha for i in range(lo, hi + 1))
    assert fam.window_sum(lo, hi) == pytest.approx(expected, rel=1e-12)


# Six family kinds: a vanishing and a summable power, harmonic, a floor, and
# explicit lists with a constant and a pattern tail.
FAMILY_KINDS = {
    "power:0.5": lambda: PowerWeights(0.5),
    "power:1.5": lambda: PowerWeights(1.5),
    "harmonic": HarmonicWeights,
    "ctail:0.25": lambda: ConstantTailWeights(0.25),
    "explicit-constant": lambda: ExplicitRationalWeights(
        [Fraction(1), Fraction(3, 4), Fraction(1, 3)], "constant"
    ),
    "explicit-pattern": lambda: ExplicitRationalWeights(
        [Fraction(1), Fraction(3, 4), Fraction(1, 2)], "pattern"
    ),
}


def _reference_sum(fam, lo: int, hi: int, block: int) -> float:
    # the canonical rule, from fresh terms: np.sum of the window's part in
    # each aligned block (block j holds jB + 1..(j + 1)B), the part sums added
    # with Neumaier's compensation
    total = comp = 0.0
    cuts = [lo, *range(lo - (lo - 1) % block + block, hi + 1, block), hi + 1]
    for start, stop in zip(cuts, cuts[1:]):
        x = float(np.sum(fam._terms(start, stop - 1)))
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp


def _reference_prefix(fam, m: int, block: int) -> np.ndarray:
    # the canonical rule, from fresh terms: [W(0), ..., W(m)], where W at a
    # whole block's end is the Neumaier sum of the blocks' np.sum, and inside
    # block j, W adds the block's cumsum to W at the block before
    parts, end, total, comp = [np.zeros(1)], 0.0, 0.0, 0.0
    for start in range(1, m + 1, block):
        terms = fam._terms(start, min(start + block - 1, m))
        inside = np.cumsum(terms) + end
        x = float(np.sum(terms))
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
        end = total + comp
        if terms.size == block:
            inside[-1] = end
        parts.append(inside)
    return np.concatenate(parts)


@pytest.mark.parametrize("kind", sorted(FAMILY_KINDS))
def test_terms_do_not_depend_on_where_they_are_generated(kind):
    # the ledger and the window sums rest on this: a term generated in
    # one _ARRAY_BLOCK piece equals the same term generated in any other
    # range, and the np.sum of a slice equals the np.sum of the fresh range
    fam = FAMILY_KINDS[kind]()
    rng = np.random.default_rng(7)
    piece = weights._ARRAY_BLOCK
    for base in (1, 2, 1000, 3 * 2**20 + 5):
        span = np.concatenate([fam._terms(base + a, base + a + piece - 1) for a in range(0, 4 * piece, piece)])
        for _ in range(40):
            i, j = sorted(int(x) for x in rng.integers(0, span.size, 2))
            fresh = fam._terms(base + i, base + j)
            assert np.array_equal(span[i : j + 1], fresh)
            assert float(np.sum(span[i : j + 1])) == float(np.sum(fresh))


def _count_terms(fam) -> list[int]:
    generate, count = fam._terms, [0]

    def counted(lo, hi):
        count[0] += hi - lo + 1
        return generate(lo, hi)

    fam._terms = counted
    return count


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("kind", sorted(FAMILY_KINDS))
@given(ns=st.lists(st.integers(0, 2000), min_size=1, max_size=40), block=st.integers(2, 64))
@settings(max_examples=15, deadline=None)
def test_prefix_sum_is_the_stream_value(kind, threads, ns, block):
    # every W(n) equals the reference bit for bit, whatever the reads before
    # it: a read ahead of the family's ledger extends it, a read behind takes
    # a kept block end or its block's prefixes, cached or generated again;
    # and threads share the ledger and its cache (a short switch interval
    # interleaves them) with window sums and ratios, each equal bit for bit
    # to its value on a fresh family
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weights, "_ARRAY_BLOCK", block)
        make = FAMILY_KINDS[kind]
        want = _reference_prefix(make(), max(ns), block)
        windows = [(1 + n // 3, n) for n in ns]
        want_windows = [make().window_sum(lo, hi) for lo, hi in windows]
        f = StepSequence(tuple((1 + n % 7, 1.0 / i) for i, n in enumerate(ns, start=1)))
        want_ratio = ratio(f, make())
        fam = make()

        def worker(seed: int) -> bool:
            order = np.random.default_rng(seed).permutation(len(ns))
            ok = True
            for i in order:
                ok &= fam.prefix_sum(ns[i]) == want[ns[i]]
                ok &= fam.window_sum(*windows[i]) == want_windows[i]
                if i % 8 == 0:
                    ok &= ratio(f, fam) == want_ratio
            return ok

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=threads) as ex:
                assert all(ex.map(worker, range(threads)))
        finally:
            sys.setswitchinterval(switch)


def test_prefix_reads_resume_the_family_stream():
    # rising reads generate each weight once and a block end takes its kept
    # value; the frontier block is generated only as far as a read reaches
    # (block 10 to its 5th term, block 21 to its 3rd), and grown whole when
    # a later block end needs its sum; a read inside a block the cache no
    # longer holds generates that one block again, which later reads in it
    # share; the cache holds at most _CACHED_TERMS terms, four blocks
    fam = PowerWeights(0.5)
    block = weights._ARRAY_BLOCK
    count = _count_terms(fam)
    want = _reference_prefix(PowerWeights(0.5), 22 * block, block)
    reads = (
        (10 * block + 5, 10 * block + 5), (20 * block, 20 * block), (19 * block + 1, 20 * block),
        (19 * block + 9, 20 * block), (10 * block + 5, 21 * block), (5 * block, 21 * block),
        (5 * block - 1, 22 * block), (21 * block + 3, 23 * block + 3),
        (20 * block + 7, 23 * block + 3), (5 * block - 2, 23 * block + 3),
        (18 * block + 1, 24 * block + 3), (5 * block - 3, 24 * block + 3),
        (2 * block + 1, 25 * block + 3),
    )
    for n, terms in reads:
        assert fam.prefix_sum(n) == want[n]
        assert count[0] == terms
        assert len(fam._ledger._cache) * block <= weights._CACHED_TERMS


def test_the_frontier_block_grows_as_far_as_reads_reach():
    # reads inside the first block generate it only as far as they reach,
    # at least doubling what it holds, each term once; a block end's read
    # grows it whole and sums it, and the next block becomes the frontier
    fam = PowerWeights(0.5)
    block = weights._ARRAY_BLOCK
    count = _count_terms(fam)
    want = _reference_prefix(PowerWeights(0.5), block + 100, block)
    reads = (
        (5, 5, 5), (3, 5, 5), (200, 200, 200), (201, 400, 400), (1000, 1000, 1000),
        (block, block, block), (block + 3, block + 3, 3), (block + 4, block + 6, 6),
        (block + 100, block + 100, 100),
    )
    for n, terms, held in reads:
        assert fam.prefix_sum(n) == want[n]
        assert count[0] == terms
        assert fam._ledger._cache[(n - 1) // block][0].size == held


@pytest.mark.parametrize("kind", sorted(FAMILY_KINDS))
@given(
    reads=st.lists(
        st.tuples(st.sampled_from(["prefix", "window", "array", "ratio"]), st.integers(0, 3 * 2**7)),
        min_size=1,
        max_size=30,
    ),
)
@settings(max_examples=20, deadline=None)
def test_reads_that_grow_the_frontier_are_the_reference(kind, reads):
    # 2**7-entry blocks: prefix, window, prefix-array and ratio reads in any
    # order grow the frontier block piece by piece, its raw cumsum resumed,
    # and each equals the reference from fresh terms bit for bit; a window
    # past the frontier's terms sums fresh ones
    block = 2**7
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weights, "_ARRAY_BLOCK", block)
        make = FAMILY_KINDS[kind]
        want = _reference_prefix(make(), 3 * block, block)
        fam = make()
        for read, n in reads:
            if read == "prefix":
                assert fam.prefix_sum(n) == want[n]
            elif read == "window":
                assert fam.window_sum(1 + n // 3, n) == make().window_sum(1 + n // 3, n)
            elif read == "array":
                assert fam.prefix_array(n).tolist() == want[: n + 1].tolist()
            else:
                f = StepSequence(tuple((1 + i % 3, 1.0 / i) for i in range(1, 2 + n // 3)))
                assert ratio(f, fam) == ratio(f, make())


@pytest.mark.parametrize("kind", sorted(FAMILY_KINDS))
def test_a_short_ratio_holds_a_few_hundred_terms(kind):
    # a support of 200 reads W(0..200) and A's windows in the first block:
    # the frontier holds its 200 terms and their prefixes, not the whole
    # 2**16-term block and its 2**16 + 1 prefixes
    fam = FAMILY_KINDS[kind]()
    f = StepSequence(tuple((5, 1.0 / i) for i in range(1, 41)))
    assert f.support == 200
    rep = ratio(f, fam)
    cache = fam._ledger._cache
    assert sum(entry[0].size for entry in cache.values()) <= 512
    assert sum(entry[1].size for entry in cache.values() if entry[1] is not None) <= 513
    assert ratio(f, fam) == rep


@pytest.mark.parametrize("kind", sorted(FAMILY_KINDS))
@given(
    m=st.integers(1, 300),
    reads=st.lists(st.integers(0, 300), min_size=1, max_size=50),
    block=st.sampled_from([2**3, 2**5]),
)
# block [9, 16] leaves the cache while the ledger grows to W(300), so W(14)
# comes from its block generated again
@example(m=300, reads=[300, 14], block=2**3)
@settings(max_examples=20, deadline=None)
def test_stream_reads_in_any_order_are_the_prefix_array(kind, m, reads, block):
    # the ledger forms a block's prefixes only where a read needs them: W(x)
    # ahead of the ledger, in a cached block and in a block that left the
    # cache equals the reference bit for bit, whatever was read before; the
    # kept end at or past x bounds W(x) from above up to rounding without
    # forming any prefix
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weights, "_ARRAY_BLOCK", block)
        want = _reference_prefix(FAMILY_KINDS[kind](), m, block)
        cumsum, entries = np.cumsum, [0]

        def counted(a, *args, **kwargs):
            entries[0] += np.size(a)
            return cumsum(a, *args, **kwargs)

        mp.setattr(np, "cumsum", counted)
        fam = FAMILY_KINDS[kind]()
        for x in reads:
            x %= m + 1
            before = entries[0]
            assert fam.prefix_sum(-(-x // block) * block) >= want[x] * (1 - 1e-12)
            assert entries[0] == before
            assert fam.prefix_sum(x) == want[x]
        assert len(fam._ledger._cache) * block <= weights._CACHED_TERMS
        # read whole on a fresh family, each block forms its prefixes once,
        # the last, the frontier, only as far as W(m)
        entries[0] = 0
        assert FAMILY_KINDS[kind]().prefix_array(m).tolist() == want.tolist()
        assert entries[0] == m


@pytest.mark.parametrize("kind", sorted(FAMILY_KINDS))
def test_prefix_array_is_the_stream_rule(kind):
    # the ledger's blocks, joined, are the reference rule bit for bit
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weights, "_ARRAY_BLOCK", 7)
        want = _reference_prefix(FAMILY_KINDS[kind](), 100, 7)
        assert FAMILY_KINDS[kind]().prefix_array(100).tolist() == want.tolist()


@pytest.mark.parametrize("kind", sorted(FAMILY_KINDS))
@given(lo=st.integers(1, 3000), width=st.integers(0, 1500))
@settings(max_examples=25, deadline=None)
def test_window_sum_keeps_the_chunk_rule(kind, lo, width):
    # small blocks: a window is cut at the aligned blocks, inside one block or
    # across several, and equals the fresh-term reference bit for bit
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weights, "_ARRAY_BLOCK", 2**5)
        fam = FAMILY_KINDS[kind]()
        assert fam.window_sum(lo, lo + width) == _reference_sum(fam, lo, lo + width, 2**5)


@pytest.mark.parametrize("kind", sorted(FAMILY_KINDS))
@given(windows=st.lists(st.tuples(st.integers(1, 3000), st.integers(-5, 1500)), min_size=1, max_size=8))
@settings(max_examples=25, deadline=None)
def test_window_sums_are_the_window_sums_under_one_lock(kind, windows):
    # windows inside one block, across several, and empty: each has
    # window_sum's bits, and all of them are read under one family lock
    windows = [(lo, lo + width) for lo, width in windows]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weights, "_ARRAY_BLOCK", 2**5)
        fam = FAMILY_KINDS[kind]()
        want = [_reference_sum(fam, lo, hi, 2**5) if hi >= lo else 0.0 for lo, hi in windows]
        lock, taken = fam._lock, []

        class CountingLock:
            def __enter__(self):
                taken.append(1)
                return lock.__enter__()

            def __exit__(self, *exc):
                return lock.__exit__(*exc)

        fam._lock = CountingLock()
        assert fam.window_sums(windows) == want
        assert len(taken) == 1
        assert [fam.window_sum(lo, hi) for lo, hi in windows] == want


def test_window_sums_check_every_window_before_reading():
    fam = PowerWeights(0.5, index_cap=10)
    count = _count_terms(fam)
    with pytest.raises(CapExceededError, match="^window end index 11 exceeds"):
        fam.window_sums([(1, 4), (8, 11)])
    with pytest.raises(InputError, match="window start must be >= 1"):
        fam.window_sums([(1, 4), (0, 3)])
    assert count == [0]


def test_window_sum_holds_one_block_of_terms():
    # a window over 65 blocks, starting and ending inside one: each piece is
    # generated on its own and freed, so no buffer of the window is held, and
    # each term is generated once
    fam = PowerWeights(0.5)
    count = _count_terms(fam)
    tracemalloc.start()
    try:
        got = fam.window_sum(3, 2**22 + 9)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count[0] == 2**22 + 7
    assert peak < 2 * 2**20 and current < 2**20
    assert got == _reference_sum(PowerWeights(0.5), 3, 2**22 + 9, 2**16)


@pytest.mark.parametrize(
    "read, name",
    [
        (lambda fam: fam.weight_at(11), "weight index 11"),
        (lambda fam: fam.weights_head(11), "weight index 11"),
        (lambda fam: fam.weights_slice(8, 11), "weight index 11"),
        (lambda fam: fam.window_sum(8, 11), "window end index 11"),
        (lambda fam: fam.prefix_sum(11), "prefix index 11"),
        (lambda fam: fam.prefix_array(11), "prefix index 11"),
        (lambda fam: fam.prefix_fraction(11), "prefix index 11"),
        (lambda fam: fam.weight_fraction(11), "weight index 11"),
    ],
    ids=[
        "weight_at", "weights_head", "weights_slice", "window_sum", "prefix_sum", "prefix_array",
        "prefix_fraction", "weight_fraction",
    ],
)
def test_cap_errors_name_the_read(read, name):
    # an exact family, so the exact reads are capped like the float ones
    with pytest.raises(CapExceededError, match=f"^{name} exceeds the configured cap 10$"):
        read(HarmonicWeights(index_cap=10))
