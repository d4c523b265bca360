import io
import itertools
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import stats

import oracles
from runkey import sources
from runkey.errors import (
    ConvergenceError,
    EnumerationCapError,
    InvalidDistributionError,
    ModelFormatError,
    NotErgodicError,
)

UNIFORM2 = sources.make_uniform(2)
BIASED = sources.make_bernoulli([0.49, 0.51])
MARKOV = sources.make_markov(2, 1, [[0.9, 0.1], [0.2, 0.8]])


def random_model(rng, n, k, concentration=1.0):
    rows = rng.dirichlet(np.full(n, concentration), size=n**k)
    if k == 0:
        return sources.make_bernoulli(rows[0])
    return sources.make_markov(n, k, rows)


# -- constructors ---------------------------------------------------------------


def test_bernoulli_uniform_rate_is_one():
    assert UNIFORM2.entropy_rate() == 1.0


def test_bernoulli_biased_rate_matches_closed_form():
    expected = oracles.binary_entropy(0.49)
    assert abs(BIASED.entropy_rate() - expected) <= 1e-12
    assert abs(BIASED.entropy_rate() - 0.999711) <= 1e-6


def test_bernoulli_deterministic_flagged():
    model = sources.make_bernoulli([1.0, 0.0])
    assert model.entropy_rate() == 0.0
    assert BIASED.entropy_rate() >= 1e-12


def test_bernoulli_letter_distribution_equals_probs():
    letters = np.exp2(BIASED.log2_block_prob_array(1))
    assert np.allclose(letters, [0.49, 0.51], atol=1e-15)


def test_bernoulli_rejects_bad_distributions():
    with pytest.raises(InvalidDistributionError):
        sources.make_bernoulli([0.5, -0.5, 1.0])
    with pytest.raises(InvalidDistributionError):
        sources.make_bernoulli([0.6, 0.6])


def test_markov_symmetric_stationary():
    model = sources.make_markov(2, 1, [[0.9, 0.1], [0.1, 0.9]])
    assert np.allclose(model.stationary, [0.5, 0.5], atol=1e-10)


def test_markov_memoryless_rows_equal_bernoulli_block_law():
    model = sources.make_markov(2, 1, [[0.5, 0.5], [0.5, 0.5]])
    for t in range(1, 7):
        for word in itertools.product(range(2), repeat=t):
            assert abs(
                np.exp2(model.log2_block_prob(list(word)))
                - np.exp2(UNIFORM2.log2_block_prob(list(word)))
            ) <= 1e-12


def test_markov_asymmetric_stationary_analytic():
    # pi = pi P solved by hand: pi0 * 0.1 = pi1 * 0.2
    assert np.allclose(MARKOV.stationary, [2.0 / 3.0, 1.0 / 3.0], atol=1e-10)


def test_markov_rejects_reducible_chain():
    with pytest.raises(NotErgodicError):
        sources.make_markov(2, 1, [[1.0, 0.0], [0.0, 1.0]])


_IID_STREAM = np.array([0, 2, 2, 1, 2, 0, 2, 2, 1])
# order-0 models and the table each must hold, bit for bit
_ORDER_0 = {
    "bernoulli": (lambda path: sources.make_bernoulli([0.2, 0.3, 0.5]), [0.2, 0.3, 0.5]),
    "uniform": (lambda path: sources.make_uniform(3), [1 / 3] * 3),
    "train": (lambda path: sources.train_markov(_IID_STREAM, 3, 0, alpha=0.5),
              (np.bincount(_IID_STREAM, minlength=3) + 0.5) / (_IID_STREAM.size + 1.5)),
    "file": (sources.load_model, [0.1, 0.2, 0.7]),
}


@pytest.mark.parametrize("case", list(_ORDER_0))
def test_order_0_law_is_exactly_one(case, tmp_path):
    # the one context's law: GTH on a 1x1 matrix gives exactly [1.0]
    path = tmp_path / "iid.model"
    path.write_text("n 3\norder 0\nrow - 0.10000000000000001 0.20000000000000001 "
                    "0.69999999999999996\n", encoding="utf-8")
    build, table = _ORDER_0[case]
    model = build(path)
    assert model.stationary.tolist() == [1.0]
    assert np.array_equal(model.transition, np.array([table]))


# -- stationary law of square chains ------------------------------------------------


def stationary_law(matrix):
    """The stationary law of a square chain, the order-1 table over its size."""
    return sources.make_markov(len(matrix), 1, matrix).stationary


def test_stationary_distribution_examples():
    assert np.allclose(
        stationary_law([[0.9, 0.1], [0.1, 0.9]]), [0.5, 0.5],
        atol=1e-10,
    )
    assert np.allclose(
        stationary_law([[0.9, 0.1], [0.2, 0.8]]),
        [2 / 3, 1 / 3],
        atol=1e-10,
    )


def test_stationary_distribution_periodic_chain():
    # the flip chain is periodic; the damped iteration must still settle
    assert np.allclose(
        stationary_law([[0.0, 1.0], [1.0, 0.0]]), [0.5, 0.5],
        atol=1e-12,
    )


def test_stationary_distribution_identity_not_ergodic():
    with pytest.raises(NotErgodicError):
        stationary_law(np.eye(2))


def test_stationary_distribution_rejects_bad_rows():
    with pytest.raises(InvalidDistributionError):
        stationary_law([[0.9, 0.2], [0.1, 0.9]])


# -- block probabilities -----------------------------------------------------------


def test_block_prob_uniform_exact():
    assert np.exp2(UNIFORM2.log2_block_prob([0, 1, 0, 1])) == 1.0 / 16.0


def test_block_prob_single_letter_biased():
    assert abs(np.exp2(BIASED.log2_block_prob([1])) - 0.51) <= 1e-15


def test_block_prob_markov_analytic():
    assert abs(np.exp2(MARKOV.log2_block_prob([0, 1])) - 1.0 / 15.0) <= 1e-10


def test_block_prob_matches_raw_table_oracle():
    rng = np.random.default_rng(11)
    for n, k in ((2, 0), (2, 1), (2, 2), (3, 1)):
        model = random_model(rng, n, k)
        for t in range(1, 5):
            for word in itertools.product(range(n), repeat=t):
                expected = oracles.markov_word_prob(
                    model.stationary.tolist(),
                    model.transition.tolist(),
                    n,
                    k,
                    word,
                )
                assert abs(np.exp2(model.log2_block_prob(list(word))) - expected) <= 1e-13


def test_block_prob_rejects_out_of_range_symbols():
    with pytest.raises(ValueError):
        UNIFORM2.log2_block_prob([0, 2])


def test_block_law_normalisation_and_consistency():
    rng = np.random.default_rng(5)
    for n, k in ((2, 0), (2, 2), (3, 1)):
        model = random_model(rng, n, k)
        for m in range(1, 5):
            law = np.exp2(model.log2_block_prob_array(m))
            assert abs(law.sum() - 1.0) <= 1e-9
            if m >= 2:
                shorter = np.exp2(model.log2_block_prob_array(m - 1))
                right = law.reshape(-1, n).sum(axis=1)
                left = law.reshape(n, -1).sum(axis=0)
                assert np.abs(right - shorter).max() <= 1e-10
                assert np.abs(left - shorter).max() <= 1e-10


# -- entropies ---------------------------------------------------------------------


def test_entropy_rate_markov_closed_form():
    expected = (2 / 3) * oracles.binary_entropy(0.9) + (1 / 3) * oracles.binary_entropy(0.2)
    assert abs(MARKOV.entropy_rate() - expected) <= 1e-10


def test_entropy_rate_equals_block_entropy_difference():
    # for an order-k chain the conditional block entropy is exact at m >= k
    for model in (MARKOV, sources.make_markov(3, 1, np.random.default_rng(3).dirichlet(np.ones(3), size=3))):
        h3 = model.block_entropy(3)
        h2 = model.block_entropy(2)
        conditional = 4 * h3 - 3 * h2
        assert abs(conditional - model.entropy_rate()) <= 1e-10


def test_block_entropy_uniform_is_log_n():
    for m in range(6):
        assert abs(UNIFORM2.block_entropy(m) - 1.0) <= 1e-12


def test_block_entropy_iid_equals_rate():
    for m in range(6):
        assert abs(BIASED.block_entropy(m) - BIASED.entropy_rate()) <= 1e-12


def test_block_entropy_monotone_and_above_rate():
    rng = np.random.default_rng(17)
    for n, k in ((2, 1), (2, 2), (3, 1)):
        model = random_model(rng, n, k)
        values = [model.block_entropy(m) for m in range(6)]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-10
        assert all(v >= model.entropy_rate() - 1e-10 for v in values)


def test_block_entropy_closed_form_matches_enumeration():
    rng = np.random.default_rng(29)
    for n, k in ((2, 0), (3, 0), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (2, 4)):
        model = random_model(rng, n, k)
        for m in range(5):
            logp = model.log2_block_prob_array(m + 1)
            finite = np.isfinite(logp)
            enumerated = -float(np.sum(np.exp2(logp[finite]) * logp[finite])) / (m + 1)
            assert abs(model.block_entropy(m) - enumerated) <= 1e-12


def test_block_entropy_large_m_needs_no_enumeration():
    # 2**61 blocks: far beyond any enumeration, exact by the chain rule
    assert abs(UNIFORM2.block_entropy(60) - 1.0) <= 1e-12
    rng = np.random.default_rng(31)
    for n, k in ((2, 2), (3, 1), (26, 1)):
        model = random_model(rng, n, k)
        head = sources.entropy_bits(model.stationary)
        expected = (head + (61 - k) * model.entropy_rate()) / 61
        assert abs(model.block_entropy(60) - expected) <= 1e-12
        assert model.entropy_rate() - 1e-12 <= model.block_entropy(60) <= model.block_entropy(59)


def test_log_helpers_bit_identical_to_masked_forms():
    rng = np.random.default_rng(6)
    for shape in ((7,), (33, 5), (4, 9, 3)):
        p = rng.random(shape) ** 4
        p[rng.random(shape) < 0.3] = 0.0
        p.flat[0] = 1.0
        p.flat[-1] = 5e-324  # the smallest subnormal
        positive = p > 0.0
        expected_x = np.zeros_like(p)
        expected_x[positive] = p[positive] * np.log2(p[positive])
        expected_log = np.full_like(p, -np.inf)
        expected_log[positive] = np.log2(p[positive])
        assert np.array_equal(sources.xlog2x(p), expected_x)
        assert np.array_equal(sources._log2_safe(p), expected_log)
        assert np.array_equal(sources.xlog2x(p.T), expected_x.T)  # strided input


def test_entropy_rate_peaks_near_the_table_bytes():
    # the table exists before tracing starts; what is traced is the temporaries
    rows = np.random.default_rng(9).dirichlet(np.ones(64), size=64 * 64)
    rows[:, 0] = 0.0
    rows /= rows.sum(axis=1, keepdims=True)
    model = sources.make_markov(64, 2, rows)
    tracemalloc.start()
    try:
        model.entropy_rate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * model.transition.nbytes


def test_entropy_bounds():
    rng = np.random.default_rng(23)
    for n, k in ((2, 0), (3, 1), (4, 1)):
        model = random_model(rng, n, k, concentration=0.4)
        assert 0.0 <= model.entropy_rate() <= math.log2(n)
        assert 0.0 <= model.redundancy() <= math.log2(n)


def test_redundancy_examples():
    assert UNIFORM2.redundancy() == 0.0
    assert abs(BIASED.redundancy() - (1.0 - oracles.binary_entropy(0.49))) <= 1e-12
    assert abs(BIASED.redundancy() - 2.89e-4) <= 1e-6
    assert sources.make_bernoulli([1.0, 0.0]).redundancy() == 1.0


# -- sampling ----------------------------------------------------------------------


def test_sample_deterministic_in_seed():
    for model in (UNIFORM2, MARKOV):
        a = model.sample(200, 42)
        b = model.sample(200, 42)
        c = model.sample(200, 43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


@pytest.mark.parametrize("n, k", [(2, 0), (3, 2), (256, 1)])
def test_sample_returns_int64_words(n, k):
    # the walk's words are one byte each; a sampled word is the same values in int64
    model = random_model(np.random.default_rng(k), n, k)
    word = model.sample(50, 1)
    words, _ = sources._walk_batch(model, np.random.default_rng(1).random((1, 51)))
    assert word.dtype == np.int64 and words.dtype == np.uint8
    assert np.array_equal(word, words[0])


def test_sample_degenerate_source():
    model = sources.make_bernoulli([1.0, 0.0])
    assert model.sample(5, 0).tolist() == [0, 0, 0, 0, 0]


def test_sample_uniform_frequency_band():
    word = UNIFORM2.sample(100000, 7)
    # binomial 6 sigma band around 0.5 is ~0.0095
    assert abs(word.mean() - 0.5) <= 0.01


def test_sample_markov_transition_frequencies():
    word = MARKOV.sample(100000, 13)
    pairs = np.stack([word[:-1], word[1:]])
    for state in (0, 1):
        mask = pairs[0] == state
        freq = pairs[1][mask].mean()
        assert abs(freq - MARKOV.transition[state, 1]) <= 0.02


def test_sample_block_frequencies_chi_square():
    # goodness of fit of non-overlapping length-3 block counts at 1e-3
    for model in (UNIFORM2, sources.make_bernoulli([0.3, 0.7]), MARKOV):
        word = model.sample(100002, 20240810)
        blocks = word[: word.size - word.size % 3].reshape(-1, 3)
        index = blocks[:, 0] * 4 + blocks[:, 1] * 2 + blocks[:, 2]
        counts = np.bincount(index, minlength=8)
        expected = np.exp2(model.log2_block_prob_array(3)) * counts.sum()
        stat = oracles.chi_square_stat(counts.tolist(), expected.tolist())
        assert stat < stats.chi2.ppf(1.0 - 1e-3, df=7)


# -- training ----------------------------------------------------------------------


@pytest.mark.parametrize("t", [1, 2])
def test_walk_shorter_than_the_context_gives_the_block_law(t):
    model = random_model(np.random.default_rng(17), 3, 3)
    uniforms = np.random.default_rng(t).random((200, t + 1))
    words, log_probs = sources._walk_batch(model, uniforms)
    assert words.shape == (200, t)
    assert log_probs.tolist() == [model.log2_block_prob(word) for word in words]


@st.composite
def walk_cases(draw):
    """A model whose rows may hold zeros or be near-deterministic, and uniforms
    drawn freely or placed on its cumulative thresholds and their neighbours."""
    n, k = draw(st.integers(2, 4)), draw(st.integers(0, 3))
    weights = np.array(
        draw(st.lists(st.integers(0, 4), min_size=n ** (k + 1), max_size=n ** (k + 1))),
        dtype=float,
    ).reshape(n**k, n)
    weights[weights.sum(axis=1) == 0.0] = 1.0
    rows = weights / weights.sum(axis=1, keepdims=True)
    for row in draw(st.lists(st.integers(0, n**k - 1), max_size=3)):
        tiny = draw(st.sampled_from([5e-324, 1e-300, 1e-17, 1e-12]))
        rows[row] = tiny
        rows[row, draw(st.integers(0, n - 1))] = 1.0 - (n - 1) * tiny
    try:
        model = sources.make_bernoulli(rows[0]) if k == 0 else sources.make_markov(n, k, rows)
    except NotErgodicError:
        # also raised when the stationary law's elimination multiplies two
        # subnormal-sized entries to 0, which leaves the chain numerically
        # reducible
        assume(False)
    cuts = np.concatenate(
        [np.cumsum(model.stationary), np.cumsum(model.transition, axis=1).ravel()]
    )
    placed = np.concatenate([cuts, np.nextafter(cuts, 0.0), np.nextafter(cuts, 2.0)])
    t = draw(st.integers(0, k + 4))
    batch = draw(st.integers(1, 6))
    values = st.sampled_from(placed.tolist()) | st.floats(0.0, 1.0, exclude_max=True)
    cells = draw(st.lists(values, min_size=batch * (t + 1), max_size=batch * (t + 1)))
    return model, np.array(cells).reshape(batch, t + 1)


@given(walk_cases())
def test_walk_matches_the_row_gather_oracle_bit_for_bit(case):
    model, uniforms = case
    words, log_probs = sources._walk_batch(model, uniforms)
    expected_words, expected_log = oracles.markov_walk(model, uniforms)
    assert words.dtype == np.min_scalar_type(model.alphabet_size - 1)  # one byte
    assert np.array_equal(words, expected_words)
    # a transposed time-major array, so each position is contiguous
    assert words.flags.f_contiguous
    got, want = np.asarray(log_probs), np.asarray(expected_log)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("k, power", [(26, "2**26"), (10**20 - 1, "2**" + "9" * 20),
                                      (10**20, "2**k"), (10**4000, "2**k")])
def test_cap_message_spells_exponents_of_up_to_20_digits(k, power):
    with pytest.raises(EnumerationCapError) as caught:
        sources._check_cap(2, k, "things")
    cap = sources.DEFAULT_WORD_CAP
    assert str(caught.value) == f"enumerating {power} things exceeds cap {cap}"


def _walk_in_segments(model, uniforms, cuts):
    walk = sources._Walk(uniforms.shape[1] - 1)
    parts = [sources._walk_batch(model, uniforms[:, lo:hi], walk)
             for lo, hi in zip(cuts, cuts[1:])]
    assert all(log is None for _, log in parts[:-1])
    return np.hstack([words for words, _ in parts]), parts[-1][1]


@given(walk_cases(), st.data())
def test_walk_in_segments_gives_the_same_bits(case, data):
    # the walk carries context, log-probability and head context across a cut
    model, uniforms = case
    width = uniforms.shape[1]
    cuts = {cut for cut in data.draw(st.lists(st.integers(1, width))) if cut < width}
    words, log_probs = _walk_in_segments(model, uniforms, [0, *sorted(cuts), width])
    whole_words, whole_log = sources._walk_batch(model, uniforms)
    assert np.array_equal(words, whole_words)
    assert np.array_equal(np.asarray(log_probs).view(np.uint64), whole_log.view(np.uint64))


@pytest.mark.parametrize("t", [129, 1000, 5000])
@pytest.mark.parametrize("width", [1, 7, 200])
def test_order0_row_sums_in_segments_are_numpy_row_sums(t, width):
    # the order-0 log terms are summed as numpy sums a row in sequence: the
    # last running sum of np.cumsum, whatever the cuts
    model = sources.make_bernoulli([0.3, 0.2, 0.5])
    uniforms = np.random.default_rng(t + width).random((9, t + 1))
    cuts = list(range(0, t + 1, width)) + [t + 1]
    words, log_probs = _walk_in_segments(model, uniforms, cuts)
    terms = np.log2(model.transition[0])[words]
    row_sums = np.cumsum(terms, axis=1)[:, -1]
    assert np.array_equal(log_probs.view(np.uint64), row_sums.view(np.uint64))


@given(st.integers(1, 5000), st.data())
def test_order0_log_probs_in_any_segments_are_one_sequential_sum(t, data):
    # the order-0 log terms are added one position at a time, so any cuts give
    # the bits of one whole-row call, within (t - 1) 2**-53 sum|terms| of the
    # exact sum
    model = sources.make_bernoulli([0.3, 0.2, 0.5])
    uniforms = np.random.default_rng(t).random((9, t + 1))
    cuts = set(data.draw(st.lists(st.integers(1, t), max_size=30)))
    words, log_probs = _walk_in_segments(model, uniforms, [0, *sorted(cuts), t + 1])
    whole_words, whole_log = sources._walk_batch(model, uniforms)
    assert np.array_equal(words, whole_words)
    assert np.array_equal(log_probs.view(np.uint64), whole_log.view(np.uint64))
    for terms, got in zip(np.log2(model.transition[0])[words], log_probs):
        assert abs(got - math.fsum(terms)) <= (t - 1) * 2.0**-53 * np.abs(terms).sum()


def test_train_alternating_stream_is_deterministic_flip():
    model = sources.train_markov(np.tile([0, 1], 500), 2, 1, alpha=0.0)
    assert np.array_equal(model.transition, [[0.0, 1.0], [1.0, 0.0]])
    assert model.entropy_rate() < 1e-12


def test_train_fair_bits_rows_near_half():
    stream = np.random.default_rng(1).integers(0, 2, 10**6)
    model = sources.train_markov(stream, 2, 1, alpha=1.0)
    assert np.abs(model.transition - 0.5).max() <= 0.01


def test_train_smoothing_guarantees_positive_rows():
    stream = np.zeros(50, dtype=int)
    stream[-1] = 1
    model = sources.train_markov(stream, 2, 2, alpha=0.5)
    assert model.transition.min() > 0.0


def test_train_rejects_short_stream():
    with pytest.raises(InvalidDistributionError):
        sources.train_markov([0, 1], 2, 2)
    with pytest.raises(InvalidDistributionError):
        sources.train_markov([], 2, 0)


@pytest.mark.parametrize("order, alpha, message", [
    (-1, 0.5, "order must be non-negative"),
    (1, math.nan, "smoothing constant must be finite and >= 0"),
    (1, math.inf, "smoothing constant must be finite and >= 0"),
    (1, -0.5, "smoothing constant must be finite and >= 0"),
], ids=["negative-order", "alpha-nan", "alpha-inf", "alpha-negative"])
def test_train_rejects_a_bad_order_or_smoothing_constant(order, alpha, message):
    # checked before counting: no uniform model from NaN totals, no numpy
    # warning from inf / inf, no float table size from n**-1
    with pytest.raises(InvalidDistributionError, match=message):
        sources.train_markov(np.tile([0, 1, 1], 20), 2, order, alpha=alpha)


def test_train_counts_match_manual_count():
    stream = [0, 0, 1, 0, 1, 1, 0, 0]
    model = sources.train_markov(stream, 2, 1, alpha=0.0)
    # transitions from 0: 0->0 twice, 0->1 twice; from 1: 1->0 twice, 1->1 once
    assert np.allclose(model.transition[0], [0.5, 0.5])
    assert np.allclose(model.transition[1], [2 / 3, 1 / 3])


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_train_rows_bit_identical_to_the_masked_formula(alpha):
    # symbol 2 never occurs, so with alpha = 0 its context keeps a uniform row
    stream = np.random.default_rng(4).integers(0, 2, 400)
    n, k = 3, 2
    counts = np.zeros((n**k, n))
    for i in range(k, stream.size):
        counts[stream[i - 2] * n + stream[i - 1], stream[i]] += 1.0
    totals = counts.sum(axis=1, keepdims=True)
    expected = np.where(
        totals + alpha * n > 0.0,
        (counts + alpha) / np.where(totals + alpha * n > 0.0, totals + alpha * n, 1.0),
        1.0 / n,
    )
    model = sources.train_markov(stream, n, k, alpha=alpha)
    assert np.array_equal(model.transition, expected)


# -- model files -------------------------------------------------------------------


def test_model_file_round_trip_exact():
    for model in (BIASED, MARKOV, sources.make_markov(2, 2, np.array(
            [[0.7, 0.3], [0.4, 0.6], [0.2, 0.8], [0.5, 0.5]]))):
        buf = io.StringIO()
        sources.save_model(model, buf, header_lines=["written by tests"])
        buf.seek(0)
        again = sources.load_model(buf)
        assert again.alphabet_size == model.alphabet_size
        assert again.order == model.order
        assert np.array_equal(again.transition, model.transition)


def test_model_file_rejects_malformed_input():
    cases = [
        "order 1\nrow 0 0.5 0.5\nrow 1 0.5 0.5\n",          # missing n
        "n 2\norder 1\nrow 0 0.5 0.5\n",                     # missing a row
        "n 2\norder 1\nrow 0 0.5 0.5\nrow 0 0.5 0.5\n",      # duplicate row
        "n 2\norder 1\nrow 0 0.5\nrow 1 0.5 0.5\n",          # short row
        "n 2\norder 0\nrow 0 0.5 0.5\n",                     # order-0 label must be '-'
        "n 2\nwat 1\n",                                      # unknown key
    ]
    for text in cases:
        with pytest.raises(ModelFormatError):
            sources.load_model(io.StringIO(text))


@pytest.mark.parametrize("order", [0, 1])
def test_model_file_over_the_table_cap_is_refused_at_its_header(order):
    # the cap check comes before anything the size of the alphabet is built
    text = f"n {sources.DEFAULT_WORD_CAP + 1}\norder {order}\nrow {'0' if order else '-'} 1\n"
    with pytest.raises(EnumerationCapError, match="^line 2: .* exceeds cap"):
        sources.load_model(io.StringIO(text))


def test_model_file_rows_out_of_state_order_load_the_same_table(monkeypatch):
    # the first label is parsed; the labels after it, while in save_model's
    # order, are matched as text; from the first one off that order (here the
    # fourth row) every label is parsed
    model = sources.make_markov(3, 2, np.random.default_rng(5).dirichlet(np.ones(3), size=9))
    buf = io.StringIO()
    sources.save_model(model, buf)
    head, rows = buf.getvalue().split("row ", 1)
    rows = ("row " + rows).splitlines(keepends=True)
    rows[3], rows[4] = rows[4], rows[3]
    parsed = []
    parse = sources._parse_state_label
    monkeypatch.setattr(sources, "_parse_state_label",
                        lambda label, n, k: parsed.append(label) or parse(label, n, k))
    in_order = sources.load_model(io.StringIO(buf.getvalue()))
    assert parsed == ["0,0"]
    swapped = sources.load_model(io.StringIO(head + "".join(rows)))
    assert parsed == ["0,0", "0,0", "1,1", "1,0", "1,2", "2,0", "2,1", "2,2"]
    assert np.array_equal(swapped.transition, model.transition)
    assert np.array_equal(in_order.transition, model.transition)


def test_power_iteration_convergence_error(monkeypatch):
    # asymmetric nearly-reducible chains over more than 128 states (so past the
    # GTH elimination) mix far too slowly for 50 steps, damped or not
    eps = 1e-4
    size = 600
    q = np.arange(1.0, size + 1.0)
    matrix = (1 - eps) * np.eye(size) + eps * q / q.sum()  # stationary law q, not uniform
    # order 10: a context ending in 0 emits 1 w.p. eps, one ending in 1 emits 0 w.p. 2 eps
    table = np.array([[1 - eps, eps], [2 * eps, 1 - 2 * eps]])[np.arange(1024) % 2]
    monkeypatch.setattr(sources, "_POWER_STEPS", 50)
    with pytest.raises(ConvergenceError):
        stationary_law(matrix)
    with pytest.raises(ConvergenceError):
        sources.make_markov(2, 10, table)


def test_slow_mixing_small_chain_is_solved_exactly():
    # power iteration needs ~10**6 steps here and used to raise ConvergenceError
    table = [[1 - 1e-5, 1e-5], [2e-5, 1 - 2e-5]]
    assert np.abs(stationary_law(table) - [2 / 3, 1 / 3]).max() <= 1e-12


def test_slow_binary_order_7_chain_is_solved_exactly():
    # 128 contexts, each emitting one symbol w.p. 1 - 1e-5: power iteration
    # spent 10**6 steps (~11 s) on it and raised ConvergenceError
    rng = np.random.default_rng(1)
    flip = rng.random(128) < 0.5
    table = np.where(flip[:, None], [1e-5, 1 - 1e-5], [1 - 1e-5, 1e-5])
    started = time.perf_counter()
    model = sources.make_markov(2, 7, table)
    assert time.perf_counter() - started < 1.0
    pi = model.stationary
    assert np.abs(sources._step(pi, model.transition) - pi).sum() <= 1e-15
    chain = np.array(oracles.context_matrix(table.tolist(), 2, 7))
    exact = np.linalg.solve((np.eye(128) - chain + 1.0).T, np.ones(128))
    assert np.abs(pi - exact).max() <= 1e-9


def test_tiny_off_diagonal_chain_gets_its_exact_law():
    # 5e-324 vanishes against 1 in I - P, which made the direct solve singular;
    # the elimination never subtracts, so the law is exactly (1/2, 1/2)
    table = [[1.0, 5e-324], [5e-324, 1.0]]
    assert stationary_law(table).tolist() == [0.5, 0.5]
    # a law whose ratio passes the float range: the back substitution rescales
    pi = stationary_law([[0.0, 1.0], [5e-324, 1.0]])
    assert pi.tolist() == [5e-324, 1.0]
    # 5e-324 * 0.5 underflows unless the elimination runs at its 2**600 scale;
    # pi_0 = 2.5e-324 rounds to 0
    pi = stationary_law([[0.0, 1.0, 0.0], [0.0, 1.0, 5e-324], [0.5, 0.5, 0.0]])
    assert pi.tolist() == [0.0, 1.0, 5e-324]


def test_bipartite_chain_converges_through_the_damped_step(monkeypatch):
    # 200 states (past the elimination) in blocks of 120 and 80 with zero
    # diagonal blocks: period 2, so undamped steps from the uniform start swing
    # 0.2 of the mass between the blocks for ever
    rng = np.random.default_rng(13)
    matrix = np.zeros((200, 200))
    matrix[:120, 120:] = rng.dirichlet(np.ones(80), size=120)
    matrix[120:, :120] = rng.dirichlet(np.ones(120), size=80)
    monkeypatch.setattr(sources, "_POWER_STEPS", 10**4)
    pi = stationary_law(matrix)
    assert np.abs(pi @ matrix - pi).sum() <= 1e-10
    assert abs(pi[:120].sum() - 0.5) <= 1e-12


# -- ergodicity and the stationary law ------------------------------------------------


def _table_with_zeros(rng, rows, cols):
    """Random row-stochastic table with most entries zero and one positive per row."""
    table = rng.random((rows, cols)) * (rng.random((rows, cols)) < 0.2)
    table[np.arange(rows), rng.integers(0, cols, size=rows)] += 0.1 + rng.random(rows)
    return table / table.sum(axis=1, keepdims=True)


def test_ergodicity_check_matches_closure_oracle():
    rng = np.random.default_rng(11)
    verdicts = {"square": [], "context": []}
    for _ in range(120):
        size = int(rng.integers(2, 7))  # a model needs n >= 2
        matrix = _table_with_zeros(rng, size, size)
        ergodic = oracles.closed_class_count(matrix.tolist()) == 1
        verdicts["square"].append(ergodic)
        if ergodic:
            pi = stationary_law(matrix)
            assert np.abs(pi @ matrix - pi).sum() <= 1e-10
        else:
            with pytest.raises(NotErgodicError):
                stationary_law(matrix)
    for _ in range(120):
        n, k = int(rng.integers(2, 4)), int(rng.integers(1, 3))
        table = _table_with_zeros(rng, n**k, n)
        chain = oracles.context_matrix(table.tolist(), n, k)
        ergodic = oracles.closed_class_count(chain) == 1
        verdicts["context"].append(ergodic)
        if ergodic:
            sources.make_markov(n, k, table)
        else:
            with pytest.raises(NotErgodicError):
                sources.make_markov(n, k, table)
    for outcomes in verdicts.values():
        assert 10 <= sum(outcomes) <= len(outcomes) - 10


def test_transient_states_feeding_one_closed_class():
    # state 0 leaves for good; states 1 and 2 form the one closed class
    pi = stationary_law([[0.5, 0.5, 0.0], [0.0, 0.3, 0.7], [0.0, 0.6, 0.4]])
    assert pi[0] <= 1e-10
    assert np.allclose(pi, [0.0, 6 / 13, 7 / 13], atol=1e-10)
    # context 0 is transient once context 1 only ever emits 1
    model = sources.make_markov(2, 1, [[0.5, 0.5], [0.0, 1.0]])
    assert model.stationary[0] <= 1e-10
    assert abs(model.stationary[1] - 1.0) <= 1e-10


def test_stationary_law_matches_direct_solve():
    rng = np.random.default_rng(12)
    solved = {False: 0, True: 0}
    for trial in range(80):
        n, k = int(rng.integers(2, 5)), int(rng.integers(0, 4))
        zeros = bool(trial % 2)
        if zeros:
            table = _table_with_zeros(rng, n**k, n)
        else:
            table = rng.dirichlet(np.ones(n), size=n**k)
        chain = np.array(oracles.context_matrix(table.tolist(), n, k))
        if oracles.closed_class_count(chain.tolist()) != 1:
            continue
        size = n**k
        # pi (I - P + 1 1^T) = 1^T has the stationary law as its only solution
        exact = np.linalg.solve((np.eye(size) - chain + 1.0).T, np.ones(size))
        pi = sources.make_markov(n, k, table).stationary
        assert np.abs(pi - exact).max() <= 1e-10
        solved[zeros] += 1
    assert min(solved.values()) >= 15


_IMPORT_PROBE = """
import sys
import runkey.cli
from runkey import sources
sources.load_model(sys.argv[1])
print(" ".join(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_graph_search_import_only_for_tables_with_zeros(tmp_path):
    src = str(Path(sources.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    loaded = {}
    # an order-0 table's one context is its closed class, zeros or not
    for name, model in (("positive", sources.make_markov(2, 1, [[0.9, 0.1], [0.2, 0.8]])),
                        ("zero", sources.make_markov(2, 1, [[0.5, 0.5], [1.0, 0.0]])),
                        ("order0", sources.make_bernoulli([0.5, 0.0, 0.5]))):
        path = tmp_path / f"{name}.model"
        sources.save_model(model, str(path))
        probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(path)],
                               capture_output=True, text=True, env=env, check=True)
        loaded[name] = probe.stdout.split()
    assert loaded["positive"] == [] and loaded["order0"] == []
    assert "scipy.sparse.csgraph" in loaded["zero"]


def _special_rows(n):
    """Rows holding 0.0 and -0.0 together, the smallest subnormal, 1.0 and 1/3."""
    third = 1.0 / 3.0
    edge = [1.0, 0.0, -0.0, 5e-324] + [0.0] * (n - 4)
    thirds = [third, third, 1.0 - 2 * third] + [0.0] * (n - 3)
    return np.array([edge, thirds])


def _model_table(kind, rng):
    """(n, k, table): a small value pool's permuted rows, or all-distinct rows,
    with the special rows each written twice."""
    n, k = 4, 4
    if kind == "pool":
        pool = np.array([0.5, 0.25, 0.125, 0.125])
        table = np.array([rng.permutation(pool) for _ in range(n**k)])
    else:
        table = rng.dirichlet(np.ones(n), size=n**k)
    table[[3, 77, 150, 201]] = np.tile(_special_rows(n), (2, 1))
    return n, k, table


@pytest.mark.parametrize("kind", ["pool", "distinct"])
def test_model_file_matches_the_per_entry_writer_and_reads_back_bit_identical(
        kind, monkeypatch):
    rng = np.random.default_rng(21)
    for _ in range(5):
        n, k, table = _model_table(kind, rng)
        model = sources.make_markov(n, k, table)
        distinct = np.unique(model.transition.view(np.uint64)).size
        repetitive = distinct <= sources._SAVE_DISTINCT_SHARE * table.size
        assert repetitive == (kind == "pool")
        buf = io.StringIO()
        sources.save_model(model, buf, header_lines=["pinned"])
        text = buf.getvalue()
        assert text == oracles.model_file_text(n, k, model.transition, ["pinned"])
        assert " -0 " in text and " 0 " in text and "4.9406564584124654e-324" in text
        looked, parsed = [], []  # tokens looked up in, and parsed through, the cache

        class Counting(sources._Floats):
            def __getitem__(self, token):
                looked.append(token)
                return super().__getitem__(token)

            def __missing__(self, token):
                parsed.append(token)
                return super().__missing__(token)

        monkeypatch.setattr(sources, "_Floats", Counting)
        again = sources.load_model(io.StringIO(text))
        monkeypatch.undo()
        assert np.array_equal(again.transition.view(np.uint64),
                              model.transition.view(np.uint64))
        # the pool's few rows are each split once and its few tokens each
        # parsed once; distinct ones drop the token cache at the end of the
        # row that takes it past 1/32 of the entries
        if kind == "pool":
            rows = np.unique(model.transition.view(np.uint64), axis=0).shape[0]
            assert len(looked) == rows * n
            assert len(parsed) == distinct
        else:
            assert table.size // 32 < len(parsed) <= table.size // 32 + n


@pytest.mark.parametrize("text, message", [
    ("n 2\norder 1\nrow 0 0.5 x\nrow 1 0.5 x\n", "line 3: could not convert"),
    ("n 2\norder 1\nrow 1 -0.5 1.5\nrow 0 -0.5 1.5\n", "line 3: probabilities must"),
    ("n 2\norder 1\nrow 0 0.5 nan\n# c\nrow 1 0.5 nan\n", "line 3: probabilities must"),
    ("n 2\norder 1\nrow 0 0.5 0.5\nrow 1 0.5 0.5\nrow 0 0.5 0.5\n", "line 5: duplicate row"),
], ids=["token", "negative", "nan", "duplicate"])
def test_repeated_rows_name_the_line_of_the_fault(text, message):
    # a repeated row is copied, not parsed: its faults name the first occurrence,
    # and a repeated label is still a duplicate row
    with pytest.raises(ModelFormatError) as raised:
        sources.load_model(io.StringIO(text))
    assert str(raised.value).startswith(message)


def _trained_model(n, k, rng):
    return sources.train_markov(rng.integers(0, n, size=20 * n**k), n, k)


@pytest.mark.parametrize("kind", ["trained", "distinct"])
def test_model_loader_memory_bounded_by_the_table(kind, tmp_path):
    # keeping every row as its own array peaked at 3.3x the table's bytes on
    # the n = 96 order-2 model (3.8x here); an unbounded token cache peaks at
    # 16x here on distinct values
    rng = np.random.default_rng(22)
    n, k = 32, 2
    if kind == "trained":
        model = _trained_model(n, k, rng)
        assert np.unique(model.transition).size <= n**(k + 1) // 64
    else:
        model = sources.make_markov(n, k, rng.dirichlet(np.ones(n), size=n**k))
    path = tmp_path / "m.model"
    sources.save_model(model, str(path))
    sources.load_model(str(path))  # first-use allocations stay out of the peak
    tracemalloc.start()
    try:
        again = sources.load_model(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(again.transition, model.transition)
    assert peak <= 3.3 * model.transition.nbytes


def test_save_model_rows_match_per_float_format():
    third = 1.0 / 3.0
    table = np.array([[0.0, 0.1, 0.9], [third, third, 1.0 - 2 * third], [5e-324, 0.25, 0.75]])
    model = sources.make_markov(3, 1, table)
    buf = io.StringIO()
    sources.save_model(model, buf, header_lines=["pinned"])
    text = oracles.model_file_text(3, 1, model.transition, ["pinned"])
    assert buf.getvalue() == text
    assert text.startswith("# pinned\nn 3\norder 1\nrow 0 0 0.10000000000000001 ")
    assert "4.9406564584124654e-324" in text and "0.33333333333333331" in text
