import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simax import (
    BaselineStats,
    Certificate,
    CertificateIndexError,
    InputSet,
    brute_force_maxima,
    check_certificate,
    dominates,
    sort_scan_maxima,
    verify_certificate,
)


def test_dominates_basics():
    assert dominates((2, 3), (1, 1))
    assert dominates((2, 3), (2, 2))  # one coordinate tie is fine
    assert dominates((1, 3), (1, 1))
    assert not dominates((2, 2), (2, 2))  # equality is not domination
    assert not dominates((1, 3), (2, 2))  # incomparable
    assert not dominates((1, 1), (2, 3))


@given(st.tuples(st.integers(0, 5), st.integers(0, 5)), st.tuples(st.integers(0, 5), st.integers(0, 5)))
def test_dominates_is_asymmetric(p, q):
    assert not (dominates(p, q) and dominates(q, p))


def test_input_set_rejects_bad_shapes():
    with pytest.raises(ValueError):
        InputSet([], [])
    with pytest.raises(ValueError):
        InputSet([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        InputSet([np.nan], [0.0])
    with pytest.raises(ValueError):
        InputSet([np.inf], [0.0])


def test_brute_force_tiny_staircase():
    inp = InputSet.from_points([(1, 1), (2, 2), (3, 1)])
    cert = brute_force_maxima(inp)
    assert cert.maxima == (1, 2)
    assert cert.dominators == {0: 1}
    assert verify_certificate(inp, cert)


def test_brute_force_picks_smallest_dominator_index():
    # (0,0) is dominated by both others; index 1 comes first
    inp = InputSet.from_points([(0, 0), (0, 1), (0, 2)])
    cert = brute_force_maxima(inp)
    assert cert.maxima == (2,)
    assert cert.dominators == {0: 1, 1: 2}


def test_exact_duplicates_are_all_maximal():
    inp = InputSet.from_points([(1, 1), (1, 1), (1, 1)])
    for cert in (brute_force_maxima(inp), sort_scan_maxima(inp)):
        assert cert.maxima_set() == {0, 1, 2}
        assert verify_certificate(inp, cert)


def test_single_point():
    inp = InputSet.from_points([(5, -3)])
    for cert in (brute_force_maxima(inp), sort_scan_maxima(inp)):
        assert cert.maxima == (0,)
        assert cert.dominators == {}
        assert verify_certificate(inp, cert)


@st.composite
def point_sets(draw, max_n=40):
    # a small integer grid forces plenty of ties and exact duplicates
    n = draw(st.integers(1, max_n))
    xs = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
    ys = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
    return InputSet(np.array(xs, dtype=float), np.array(ys, dtype=float))


@given(point_sets())
def test_oracles_agree_and_verify(inp):
    a = brute_force_maxima(inp)
    b = sort_scan_maxima(inp)
    assert a.maxima == b.maxima  # same staircase, same order
    assert verify_certificate(inp, a)
    assert verify_certificate(inp, b)


@given(point_sets(max_n=25))
def test_maxima_are_pairwise_incomparable(inp):
    maxima = brute_force_maxima(inp).maxima
    pts = [inp.point(i) for i in maxima]
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            assert not dominates(p, q)
            assert not dominates(q, p)


@given(point_sets(max_n=25))
def test_sweep_dominators_are_witnesses(inp):
    cert = sort_scan_maxima(inp)
    for i, j in cert.dominators.items():
        assert dominates(inp.point(j), inp.point(i))


def _mutate(cert, **changes):
    return Certificate(
        maxima=changes.get("maxima", cert.maxima),
        dominators=changes.get("dominators", dict(cert.dominators)),
    )


def test_verify_rejects_broken_certificates():
    inp = InputSet.from_points([(0, 3), (1, 2), (2, 1), (0, 0)])
    cert = brute_force_maxima(inp)
    assert cert.maxima == (0, 1, 2)

    missing = _mutate(cert, maxima=(0, 1), dominators={**cert.dominators})
    assert "missing" in check_certificate(inp, missing)

    swapped = _mutate(cert, maxima=(1, 0, 2))
    assert "staircase" in check_certificate(inp, swapped)

    twice = _mutate(cert, maxima=(0, 0, 1, 2))
    assert "twice" in check_certificate(inp, twice)

    overlap = _mutate(cert, dominators={**cert.dominators, 0: 1})
    assert "both maximal and dominated" in check_certificate(inp, overlap)

    selfdom = _mutate(cert, maxima=(0, 1), dominators={**cert.dominators, 2: 2})
    assert "own dominator" in check_certificate(inp, selfdom)

    # (1,2) does not dominate (2,1), so naming it as witness must fail
    liar = _mutate(cert, maxima=(0, 1), dominators={**cert.dominators, 2: 1})
    assert "does not dominate" in check_certificate(inp, liar)


def test_verify_raises_on_out_of_range_indices():
    inp = InputSet.from_points([(0, 0), (1, 1)])
    with pytest.raises(CertificateIndexError):
        check_certificate(inp, Certificate(maxima=(5,), dominators={0: 1}))
    with pytest.raises(CertificateIndexError):
        check_certificate(inp, Certificate(maxima=(1,), dominators={0: 7}))
    with pytest.raises(CertificateIndexError):
        check_certificate(inp, Certificate(maxima=(1,), dominators={-3: 1}))


@pytest.mark.parametrize("bad", [0.0, 1.5, np.float64(1.0), True, "1", None, 2**70, -(2**70), 2**64 - 1, np.uint64(2**64 - 1)])
def test_verify_raises_on_indices_that_are_not_ints_in_range(bad):
    # (1,) with dominators {0: 1} is valid, so a checker that truncated 1.5 to 1 or wrapped a big int would accept
    inp = InputSet.from_points([(0, 0), (1, 1)])
    for cert in (
        Certificate(maxima=(bad,), dominators={0: 1}),
        Certificate(maxima=(1,), dominators={bad: 1}),
        Certificate(maxima=(1,), dominators={0: bad}),
    ):
        with pytest.raises(CertificateIndexError):
            check_certificate(inp, cert)


def test_index_errors_name_the_certificate_field():
    inp = InputSet.from_points([(0, 0), (1, 1)])
    for cert, name in (
        (Certificate(maxima=(1.5,), dominators={0: 1}), "maxima"),
        (Certificate(maxima=(1,), dominators={2**70: 1}), "dominated"),
        (Certificate(maxima=(1,), dominators={0: np.uint64(2**64 - 1)}), "dominator"),
    ):
        with pytest.raises(CertificateIndexError, match=f"^{name} index "):
            check_certificate(inp, cert)


def test_numpy_integer_indices_are_accepted():
    inp = InputSet.from_points([(0, 0), (1, 1)])
    assert check_certificate(inp, Certificate(maxima=(np.int64(1),), dominators={np.int32(0): np.uint8(1)})) is None


def _reference_check_certificate(inp, cert):
    """The per-item checker check_certificate replaced, kept as its oracle (integer test added)."""
    n = inp.n
    xs, ys = inp.xs, inp.ys

    def index(i):
        return isinstance(i, (int, np.integer)) and not isinstance(i, bool) and 0 <= i < n

    for i in cert.maxima:
        if not index(i):
            raise CertificateIndexError(f"maxima index {i!r}")
    for i, j in cert.dominators.items():
        if not index(i) or not index(j):
            raise CertificateIndexError(f"dominators entry {i!r}: {j!r}")
    if not cert.maxima:
        return "no maxima listed (a nonempty input always has at least one)"
    seen = np.zeros(n, dtype=bool)
    for i in cert.maxima:
        if seen[i]:
            return f"index {i} listed twice among maxima"
        seen[i] = True
    for i in cert.dominators:
        if seen[i]:
            return f"index {i} is both maximal and dominated"
        seen[i] = True
    if not seen.all():
        return f"index {int(np.flatnonzero(~seen)[0])} missing from the certificate"
    for a, b in zip(cert.maxima, cert.maxima[1:]):
        if xs[a] == xs[b] and ys[a] == ys[b]:
            continue
        if not (xs[a] < xs[b] and ys[a] > ys[b]):
            return f"maxima {a} and {b} do not step down the staircase"
    for i, j in cert.dominators.items():
        if i == j:
            return f"index {i} listed as its own dominator"
        if not dominates(inp.point(j), inp.point(i)):
            return f"index {j} does not dominate index {i}"
    return None


@st.composite
def corrupted_certificates(draw):
    inp = draw(point_sets(max_n=12))
    n = inp.n
    cert = draw(st.sampled_from([brute_force_maxima, sort_scan_maxima]))(inp)
    maxima, dominators = list(cert.maxima), dict(cert.dominators)
    index = st.integers(0, n - 1)
    bad_index = st.sampled_from([n, n + 3, -1, 2**70, 0.0, 1.5, True, np.int64(n)])
    for _ in range(draw(st.integers(1, 3))):
        ops = ["drop", "duplicate", "swap", "promote", "self", "liar", "bad_maximum", "bad_dominated", "bad_dominator", "empty"]
        op = draw(st.sampled_from(ops))
        if op == "drop" and maxima:
            maxima.pop(draw(st.integers(0, len(maxima) - 1)))
        elif op == "duplicate" and maxima:  # a run of maxima listed again somewhere
            lo = draw(st.integers(0, len(maxima) - 1))
            run = maxima[lo : draw(st.integers(lo + 1, len(maxima)))]
            at = draw(st.integers(0, len(maxima)))
            maxima[at:at] = run
        elif op == "promote" and dominators:  # a dominated point listed as a maximum instead
            i = draw(st.sampled_from(sorted(dominators)))
            del dominators[i]
            maxima.insert(draw(st.integers(0, len(maxima))), i)
        elif op == "swap" and len(maxima) > 1:
            k = draw(st.integers(0, len(maxima) - 2))
            maxima[k], maxima[k + 1] = maxima[k + 1], maxima[k]
        elif op == "self":
            i = draw(index)
            dominators[i] = i
        elif op == "liar":
            dominators[draw(index)] = draw(index)
        elif op == "bad_maximum":
            maxima.insert(draw(st.integers(0, len(maxima))), draw(bad_index))
        elif op == "bad_dominated":
            dominators[draw(bad_index)] = draw(index)
        elif op == "bad_dominator":
            dominators[draw(index)] = draw(bad_index)
        elif op == "empty":
            maxima = []
    return inp, Certificate(maxima=tuple(maxima), dominators=dominators)


def _outcome(check, inp, cert):
    try:
        return check(inp, cert)
    except CertificateIndexError:
        return CertificateIndexError


@settings(max_examples=500)
@given(corrupted_certificates())
def test_check_certificate_matches_the_per_item_oracle(case):
    inp, cert = case
    assert _outcome(check_certificate, inp, cert) == _outcome(_reference_check_certificate, inp, cert)


def test_verify_rejects_empty_maxima():
    inp = InputSet.from_points([(0, 0)])
    assert "no maxima" in check_certificate(inp, Certificate(maxima=(), dominators={0: 0}))


def test_sort_cost_bounds_and_determinism():
    rs = np.random.RandomState(7)
    n = 300
    inp = InputSet(rs.rand(n), rs.rand(n))
    s1, s2 = BaselineStats(), BaselineStats()
    sort_scan_maxima(inp, s1)
    sort_scan_maxima(inp, s2)
    assert (s1.comparisons, s1.sort_cost) == (s2.comparisons, s2.sort_cost)
    assert s1.sort_cost <= 2 * n * np.ceil(np.log2(n)) + 4 * n
    assert s1.sort_cost >= n - 1
    assert s1.comparisons <= 3 * n


def test_heapsort_cost_ignores_presortedness():
    # the baseline must not get cheaper on sorted inputs, that is the point
    # of using a non-adaptive sort for scaling measurements
    n = 1024
    rs = np.random.RandomState(3)
    shuffled = rs.permutation(n).astype(float)
    ys = rs.rand(n)
    s_sorted, s_shuffled = BaselineStats(), BaselineStats()
    sort_scan_maxima(InputSet(np.arange(n, dtype=float), ys), s_sorted)
    sort_scan_maxima(InputSet(shuffled, ys), s_shuffled)
    assert s_sorted.sort_cost >= 0.8 * s_shuffled.sort_cost


def test_both_oracles_verified_on_many_random_instances():
    # broad randomized agreement sweep, small instances for speed
    rs = np.random.RandomState(42)
    for trial in range(10_000):
        n = int(rs.randint(1, 25))
        if trial % 2:
            xs = rs.randint(0, 6, n).astype(float)
            ys = rs.randint(0, 6, n).astype(float)
        else:
            xs = rs.rand(n)
            ys = rs.rand(n)
        inp = InputSet(xs, ys)
        a = brute_force_maxima(inp)
        b = sort_scan_maxima(inp)
        assert a.maxima == b.maxima
        assert verify_certificate(inp, a)
        assert verify_certificate(inp, b)
