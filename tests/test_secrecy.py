import importlib.util
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from runkey import cipher, inference, secrecy, sources
from runkey.errors import CertificationError, EnumerationCapError, UnsupportedCipherError
from runkey.words import text_to_word

SPEC2 = cipher.additive_cipher(2)
UNIFORM2 = sources.make_uniform(2)
BIASED = sources.make_bernoulli([0.49, 0.51])
MARKOV = sources.make_markov(2, 1, [[0.9, 0.1], [0.2, 0.8]])
ZERO_KEY = sources.make_bernoulli([1.0, 0.0])


# -- typical sets -------------------------------------------------------------------


def test_typical_set_uniform_pair_contains_everything():
    built = secrecy.build_typical_set(UNIFORM2, UNIFORM2, SPEC2, np.zeros(12, int), 0.05)
    assert built.member_count == 4096
    assert built.mass == pytest.approx(1.0, abs=1e-12)
    assert built.growth == 1.0
    assert built.spread == 0.0
    assert built.members is not None and built.members.size == 4096


@pytest.mark.parametrize("h_ref, count", [(0.75, 0), (1.0, 2**7), (1.25, 0)])
def test_typical_set_band_ends_are_strict(h_ref, count):
    # every plaintext of a uniform pair has rate exactly 1, here at a band end
    # of the two outer bands: both halves and the band ends are exact in floats
    built = secrecy.build_typical_set(UNIFORM2, UNIFORM2, SPEC2, np.ones(7, int), 0.5,
                                      h_ref)
    assert built.member_count == count


def test_typical_set_deterministic_key_single_member():
    z = np.array([0, 1, 1, 0, 1, 0])
    built = secrecy.build_typical_set(MARKOV, ZERO_KEY, SPEC2, z, 0.01, h_ref=0.0)
    assert built.member_count == 1
    assert built.mass == pytest.approx(1.0, abs=1e-12)
    assert built.growth == 0.0
    # the single member is the plaintext itself (identity cipher under zero key)
    assert built.members.tolist() == [int(idx) for idx in [0b011010]]


def test_typical_set_membership_band_soundness_and_completeness():
    z = BIASED.sample(14, 8)
    epsilon, h_ref = 0.06, oracles.binary_entropy(0.49)
    built = secrecy.build_typical_set(UNIFORM2, BIASED, SPEC2, z, epsilon, h_ref)
    table = inference.posterior(UNIFORM2, BIASED, SPEC2, z)
    rate = -table.log_posterior / 14
    inside = np.abs(rate - h_ref) < epsilon / 2
    assert np.array_equal(np.flatnonzero(inside), built.members)
    assert built.member_count == int(inside.sum())
    assert built.mass == pytest.approx(np.exp2(table.log_posterior[inside]).sum(), abs=1e-12)


def test_typical_set_spread_below_epsilon():
    z = BIASED.sample(16, 21)
    built = secrecy.build_typical_set(UNIFORM2, BIASED, SPEC2, z, 0.05)
    assert built.spread < built.epsilon


@pytest.mark.parametrize("xm, ym, t, seed", [
    (UNIFORM2, BIASED, 16, 31),
    (MARKOV, BIASED, 14, 3),
    (MARKOV, sources.make_bernoulli([0.3, 0.7]), 12, 8),
    (sources.make_markov(2, 2, [[0.7, 0.3], [0.4, 0.6], [0.2, 0.8], [0.5, 0.5]]),
     BIASED, 15, 4),
], ids=["uniform-biased", "markov-biased", "markov-skewed", "order2-biased"])
def test_typical_set_count_lies_in_the_band_of_its_mass(xm, ym, t, seed):
    # every member has 2**(-t (h_ref + eps/2)) < P(x|z) < 2**(-t (h_ref - eps/2))
    z = SPEC2.encrypt(xm.sample(t, seed), ym.sample(t, seed + 1))
    built = secrecy.build_typical_set(xm, ym, SPEC2, z, 0.1, bracket_order=4)
    assert built.member_count > 0
    half = built.epsilon / 2
    low = built.mass * 2.0 ** (t * (built.h_ref - half))
    high = built.mass * 2.0 ** (t * (built.h_ref + half))
    assert low * (1 - 1e-9) <= built.member_count <= high * (1 + 1e-9)


def test_typical_set_member_cap_keeps_summary():
    z = BIASED.sample(12, 9)
    built = secrecy.build_typical_set(UNIFORM2, BIASED, SPEC2, z, 0.05, member_cap=16)
    assert built.members is None
    assert built.member_count > 16
    assert 0.0 < built.mass <= 1.0
    assert np.isfinite(built.growth)


def test_typical_set_default_h_ref_is_bracket_midpoint():
    z = BIASED.sample(10, 40)
    built = secrecy.build_typical_set(UNIFORM2, BIASED, SPEC2, z, 0.05, bracket_order=6)
    bracket = inference.hxz_bracket(UNIFORM2, BIASED, SPEC2, 6)
    assert built.h_ref == pytest.approx(bracket.midpoint, abs=0.0)


@pytest.mark.parametrize("seed", [0, 1])
def test_typical_set_split_matches_the_enumeration_on_certify(seed, tmp_path):
    # the certify workload's psi: mass and spread to rounding (L + R sums in
    # another order), count and members exact
    xm, ym, z, _ = _certify_inputs(seed, tmp_path)
    built = secrecy.build_typical_set(xm, ym, SPEC2, z, 0.1)
    count, mass, spread, members = oracles.typical_set_by_enumeration(
        xm, ym, SPEC2, z, 0.1, built.h_ref)
    assert built.member_count == count and np.array_equal(built.members, members)
    assert abs(built.mass - mass) <= 1e-12 and abs(built.spread - spread) <= 1e-12


@pytest.mark.parametrize("k", [0, 2, 5])
def test_split_caps_each_half_not_the_plaintexts(k, monkeypatch):
    # under a cap of 2**10 a binary pair reaches t = 20 - K, though 2**t is
    # far over it: the n**h left words and n**(K + t - h) right cells are not
    monkeypatch.setattr(sources, "DEFAULT_WORD_CAP", 1 << 10)
    for t in range(1, 21 - k):
        h = inference._split(2, k, t)
        assert h == t if t <= k + 1 else max(k, 1) <= h < t
        assert 2**h <= 1 << 10 and (h == t or 2 ** (k + t - h) <= 1 << 10)
    with pytest.raises(EnumerationCapError, match="left-half"):
        inference._split(2, k, 21 - k)
    # packed members need n**t < 2**63, which only a cap of 2**32 or more
    # leaves to check
    monkeypatch.setattr(sources, "DEFAULT_WORD_CAP", 1 << 40)
    inference._split(2, k, 62)
    with pytest.raises(EnumerationCapError, match="2\\*\\*63"):
        inference._split(2, k, 63)


def test_typical_set_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        secrecy.build_typical_set(UNIFORM2, UNIFORM2, SPEC2, [0, 1], 0.0)


# -- growth series ------------------------------------------------------------------


def test_growth_series_uniform_is_one_everywhere():
    points = secrecy.typical_set_growth(
        UNIFORM2, UNIFORM2, SPEC2, [6, 10, 14], 0.05, seed=5
    )
    assert [p.t for p in points] == [6, 10, 14]
    assert all(p.growth == 1.0 for p in points)
    assert all(abs(p.mass - 1.0) <= 1e-12 for p in points)


def test_growth_series_deterministic_key_is_zero():
    points = secrecy.typical_set_growth(
        MARKOV, ZERO_KEY, SPEC2, [6, 10], 0.02, seed=5
    )
    assert all(p.growth == 0.0 for p in points)
    assert all(abs(p.mass - 1.0) <= 1e-12 for p in points)


def test_growth_series_biased_key_tracks_reference():
    points = secrecy.typical_set_growth(
        UNIFORM2, BIASED, SPEC2, [12, 18], 0.05, seed=7
    )
    h = oracles.binary_entropy(0.49)
    for p in points:
        assert p.growth >= h - 0.05
        assert p.mass >= 0.9


def test_growth_series_deterministic_in_seed():
    a = secrecy.typical_set_growth(UNIFORM2, BIASED, SPEC2, [10, 12], 0.05, seed=3)
    b = secrecy.typical_set_growth(UNIFORM2, BIASED, SPEC2, [10, 12], 0.05, seed=3)
    assert a == b


@pytest.mark.parametrize("epsilon, member_cap, t_list", [
    (0.05, 0, [6]), (0.0, 4, [6]), (0.05, 4, [6, 0]),
], ids=["member-cap", "epsilon", "length"])
def test_growth_series_validates_before_the_bracket(epsilon, member_cap, t_list,
                                                    monkeypatch):
    def enumerated(*args, **kwargs):
        raise AssertionError("the bracket was enumerated")

    monkeypatch.setattr(secrecy, "hxz_bracket", enumerated)
    with pytest.raises(ValueError):
        secrecy.typical_set_growth(MARKOV, BIASED, SPEC2, t_list, epsilon, seed=1,
                                   member_cap=member_cap)
    with pytest.raises(ValueError):
        secrecy.robustness_sweep(MARKOV, SPEC2, [0.01], 4, t_list=t_list,
                                 epsilon=epsilon, seed=1, member_cap=member_cap)


# -- concentration experiment ---------------------------------------------------------


def test_concentration_uniform_pair_fraction_one():
    report = secrecy.concentration_experiment(
        UNIFORM2, UNIFORM2, SPEC2, [20, 50], 200, 0.05, 0.01, seed=1
    )
    assert report.band_fractions == (1.0, 1.0)
    assert report.onset_length == 20
    assert abs(report.h_ref - 1.0) <= 1e-12
    assert all(abs(m - 1.0) <= 1e-9 for m in report.means)


def test_concentration_deterministic_key_fraction_one():
    report = secrecy.concentration_experiment(
        MARKOV, ZERO_KEY, SPEC2, [30], 100, 0.05, 0.05, seed=2
    )
    assert report.band_fractions == (1.0,)
    assert abs(report.h_ref) <= 1e-12
    assert abs(report.means[0]) <= 1e-12


def test_concentration_fractions_grow_with_length():
    report = secrecy.concentration_experiment(
        MARKOV, BIASED, SPEC2, [25, 400], 600, 0.05, 0.01, seed=9
    )
    assert report.band_fractions[1] >= report.band_fractions[0]
    assert report.variances[1] < report.variances[0]


def test_concentration_statistic_matches_direct_posterior():
    # one sample by hand: W must equal -(1/t) log2 P(x|z) from the full table
    report = secrecy.concentration_experiment(
        MARKOV, BIASED, SPEC2, [12], 1, 0.05, 0.01, seed=77
    )
    x, _ = sources._walk_batch(
        MARKOV,
        np.random.default_rng(np.random.SeedSequence((77, 12, 0, 0))).random(13)[None, :],
    )
    y, _ = sources._walk_batch(
        BIASED,
        np.random.default_rng(np.random.SeedSequence((77, 12, 0, 1))).random(13)[None, :],
    )
    z = SPEC2.encrypt(x[0], y[0])
    table = inference.posterior(MARKOV, BIASED, SPEC2, z)
    expected = -table.log2_prob(x[0]) / 12
    assert abs(report.means[0] - expected) <= 1e-10


def _numpy_rows(seed, t, start, stop, stream):
    """The per-sample construction the chunked seeding must reproduce."""
    seqs = [np.random.SeedSequence((seed, t, i, stream)) for i in range(start, stop)]
    states = [np.random.PCG64(seq).state["state"] for seq in seqs]
    rows = np.array([np.random.default_rng(seq).random(t + 1) for seq in seqs])
    return states, rows.reshape(stop - start, t + 1)


def _drawn(states, cuts, lanes):
    """Rows drawn a segment at a time, each into a view of one wider buffer of
    NaNs, time-major as the sampler's; (rows, draws)."""
    draws, rows = secrecy._Draws(states, lanes), len(states)
    cells, out = np.full(rows * (cuts[-1] + 1), np.nan), []
    for lo, hi in zip(cuts, cuts[1:]):
        segment = cells[: rows * (hi - lo)].reshape(hi - lo, rows)
        assert draws.fill(segment) is segment
        out.append(segment.copy())
    return np.concatenate(out).T


def _assert_seeded_like_numpy(seed, t, start, stop, lanes=3):
    words = secrecy._pcg64_states(seed, t, start, stop)
    assert words.dtype == np.uint64 and words.shape == (2, stop - start, 4)
    for stream in (0, 1):
        states, rows = _numpy_rows(seed, t, start, stop, stream)
        assert [{"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo}
                for s_hi, s_lo, i_hi, i_lo in words[stream].tolist()] == states
        got = _drawn(words[stream], [0, t + 1], lanes)
        assert np.array_equal(got.view(np.uint64), rows.view(np.uint64))


# start and stop of the three highest sample indices concentration_experiment
# reaches, just below its cap
_TOP_INDICES = sources.DEFAULT_WORD_CAP - 3, sources.DEFAULT_WORD_CAP


@given(
    seed=st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 + 3]) | st.integers(0, 2**70),
    t=st.integers(0, 50),
    boundary=st.integers(0, 2),
    offset=st.integers(-4, 4),
    width=st.integers(1, 9),
    lanes=st.integers(1, 60),
)
def test_uniforms_are_seeded_like_numpy(seed, t, boundary, offset, width, lanes):
    # spans around a chunk boundary, as concentration_experiment cuts them, in
    # one segment of any lane count, fewer or more than the row's draws
    start = max(0, boundary * secrecy._SAMPLE_CHUNK + offset)
    _assert_seeded_like_numpy(seed, t, start, start + width, lanes)


@pytest.mark.parametrize("seed", [7, np.int64(7), np.uint64(2**64 - 1)], ids=str)
def test_uniforms_at_the_top_sample_indices(seed):
    # each index is one SeedSequence entropy word: a cap past 2**32 would need
    # a second word for the higher indices, and must trip this first
    assert sources.DEFAULT_WORD_CAP <= 2**32
    _assert_seeded_like_numpy(seed, 3, *_TOP_INDICES)


@given(
    seed=st.integers(0, 2**70),
    t=st.integers(0, 40),
    start=st.sampled_from([0, 5, _TOP_INDICES[0]]),
    data=st.data(),
)
def test_uniforms_from_any_draw_are_the_slice_of_the_row(seed, t, start, data):
    # a row cut into segments anywhere, one-draw ones too, and held in any
    # number of lanes, is bit for bit the row: the lanes carry across the cuts
    inner = data.draw(st.sets(st.integers(1, t)) if t else st.just(set()), label="cuts")
    lanes = data.draw(st.integers(1, t + 2), label="lanes")
    stop = min(start + data.draw(st.integers(1, 5), label="rows"), _TOP_INDICES[1])
    _, rows = _numpy_rows(seed, t, start, stop, 1)
    states = secrecy._pcg64_states(seed, t, start, stop)[1]
    got = _drawn(states, [0, *sorted(inner), t + 1], lanes)
    assert np.array_equal(got.view(np.uint64), rows.view(np.uint64))


def test_uniforms_slices_at_the_top_sample_indices():
    # the highest reachable rows of both streams, in one-draw segments and
    # wider ones, as one lane and as more
    t = 6
    states = secrecy._pcg64_states(9, t, *_TOP_INDICES)
    for stream in (0, 1):
        _, rows = _numpy_rows(9, t, *_TOP_INDICES, stream)
        for cuts in [[0, t + 1], list(range(t + 2)), [0, 3, 5, t + 1]]:
            for lanes in (1, 2, 4, t + 1, t + 5):
                got = _drawn(states[stream], cuts, lanes)
                assert np.array_equal(got.view(np.uint64), rows.view(np.uint64)), (cuts, lanes)


@pytest.mark.parametrize("lo", [1, 2**31 + 5, 2**64 + 7, 2**128 - 1], ids=hex)
def test_uniforms_jump_as_far_as_advance(lo):
    # rows from the states numpy's advance reaches past lo draws, for any
    # 128-bit lo, go on as the advanced generators, lanes jumping and all
    want, states = [], []
    for i in [2**32 - 1, 2**32]:
        bit_gen = np.random.PCG64(np.random.SeedSequence((5, 9, i, 1)))
        bit_gen.advance(lo)
        state, inc = bit_gen.state["state"]["state"], bit_gen.state["state"]["inc"]
        states.append([state >> 64, state % 2**64, inc >> 64, inc % 2**64])
        want.append(np.random.Generator(bit_gen).random(7))
    for lanes in (1, 2, 5):
        got = _drawn(np.array(states, dtype=np.uint64), [0, 1, 3, 7], lanes)
        assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))


def test_concentration_determinism_across_chunk_sizes(monkeypatch):
    kwargs = dict(t_list=[40, 80], samples=500, epsilon=0.05, delta=0.01, seed=12)
    reference = secrecy.concentration_experiment(MARKOV, BIASED, SPEC2, **kwargs)
    assert secrecy.concentration_experiment(MARKOV, BIASED, SPEC2, **kwargs) == reference
    for chunk in (1, 7):
        monkeypatch.setattr(secrecy, "_SAMPLE_CHUNK", chunk)
        report = secrecy.concentration_experiment(MARKOV, BIASED, SPEC2, **kwargs)
        assert np.allclose(report.means, reference.means, rtol=0.0, atol=1e-12)
        assert np.allclose(report.variances, reference.variances, rtol=0.0, atol=1e-12)


def test_concentration_chunks_hold_at_most_cell_uniforms(monkeypatch):
    # a length's chunks narrow to _CELL // S rows whatever t, so the front's
    # (S, rows) floats stay within _CELL; statistics move by rounding.  Each
    # stream's generator of a chunk holds lanes of at most one segment's
    # draws, at most _LANE_CELLS cells of them
    kwargs = dict(t_list=[99, 300], samples=20, epsilon=0.05, delta=0.01, seed=3,
                  h_ref=0.5)
    reference = secrecy.concentration_experiment(MARKOV, BIASED, SPEC2, **kwargs)
    size = inference._ProductChain(MARKOV, BIASED, SPEC2).size
    shapes, built = [], []
    states = secrecy._pcg64_states
    monkeypatch.setattr(secrecy, "_pcg64_states",
                        lambda *args: shapes.append(args[1:]) or states(*args))
    draws = secrecy._Draws
    monkeypatch.setattr(secrecy, "_Draws",
                        lambda *args: built.append(draws(*args)) or built[-1])
    monkeypatch.setattr(secrecy, "_CELL", 7 * size)
    monkeypatch.setattr(secrecy, "_LANE_CELLS", 400)
    report = secrecy.concentration_experiment(MARKOV, BIASED, SPEC2, **kwargs)
    assert {(t, stop - start) for t, start, stop in shapes} == {(99, 7), (99, 6),
                                                               (300, 7), (300, 6)}
    assert len(built) == 2 * len(shapes)  # a generator a stream
    for k, draws in enumerate(built):
        t, start, stop = shapes[k // 2]
        lanes = min(400 // (stop - start), t + 1)
        assert draws.words.shape == (2, lanes, stop - start)
        assert draws.work.shape == (4, lanes, stop - start)
        assert draws.words[0].size <= 400
    assert np.allclose(report.means, reference.means, rtol=0.0, atol=1e-12)
    assert np.allclose(report.variances, reference.variances, rtol=0.0, atol=1e-12)


def test_concentration_seeds_each_chunk_once_per_stream(monkeypatch):
    # the rows' PCG64 states of both streams come from one call a chunk, and
    # one generator a stream carries them through every time segment: at
    # t = 800, three segments of 2048 rows are seeded once, as is t = 40 in
    # one segment; their generators step 8 lanes a row at _LANE_CELLS = 2048 * 8
    seeded, widths, built = [], [], []
    states = secrecy._pcg64_states
    monkeypatch.setattr(secrecy, "_pcg64_states",
                        lambda *args: seeded.append(args[1:4]) or states(*args))
    walk = secrecy._walk_batch
    monkeypatch.setattr(secrecy, "_walk_batch",
                        lambda model, uniforms, *rest: widths.append(uniforms.shape[1])
                        or walk(model, uniforms, *rest))
    draws = secrecy._Draws
    monkeypatch.setattr(secrecy, "_Draws",
                        lambda *args: built.append((len(args[0]), args[1])) or draws(*args))
    monkeypatch.setattr(secrecy, "_SEGMENT_CELLS", 2048 * 300)
    monkeypatch.setattr(secrecy, "_LANE_CELLS", 2048 * 8)
    secrecy.concentration_experiment(MARKOV, BIASED, SPEC2, [40, 800], 2048, 0.05, 0.01,
                                     seed=5, h_ref=0.5)
    assert widths == [41] * 2 + [267] * 6
    assert seeded == [(40, 0, 2048), (800, 0, 2048)]
    assert built == [(2048, 8)] * 4


def test_concentration_chunk_rows_do_not_narrow_with_t(monkeypatch):
    # the front's (S, rows) floats are all the chunk rule bounds: with _CELL
    # below rows * (t + 1) a chunk still takes min(samples, _SAMPLE_CHUNK,
    # _CELL // S) rows, at every t
    size = inference._ProductChain(MARKOV, BIASED, SPEC2).size
    lengths, samples, cell = [99, 300], 30, 1000
    assert cell // (lengths[0] + 1) < samples <= cell // size
    seeded = []
    states = secrecy._pcg64_states
    monkeypatch.setattr(secrecy, "_pcg64_states",
                        lambda *args: seeded.append(args[1:4]) or states(*args))
    monkeypatch.setattr(secrecy, "_CELL", cell)
    secrecy.concentration_experiment(MARKOV, BIASED, SPEC2, lengths, samples, 0.05, 0.01,
                                     seed=3, h_ref=0.5)
    rows = min(samples, secrecy._SAMPLE_CHUNK, cell // size)
    assert seeded == [(t, 0, rows) for t in lengths]


def test_concentration_front_holds_at_most_cell_over_s_rows(monkeypatch):
    # with S > t + 1 a chunk's rows are _CELL // S, so each forward call gets
    # at most that many and its front, (n**K, rows) floats, stays within _CELL
    xm, ym, _ = _SEGMENT_PAIRS["markov-markov"]
    size = inference._ProductChain(xm, ym, SPEC2).size
    t, cell = 5, 100
    assert size > t + 1 and cell // size == 3
    rows, fronts = [], []
    forward = inference._ProductChain.forward_log2

    def recorded(chain, observations, front=None):
        rows.append(observations.shape[0])
        result = forward(chain, observations, front)
        fronts.append(front.alpha.size)
        return result

    monkeypatch.setattr(inference._ProductChain, "forward_log2", recorded)
    monkeypatch.setattr(secrecy, "_CELL", cell)
    secrecy.concentration_experiment(xm, ym, SPEC2, [t], 10, 0.2, 0.05, seed=4, h_ref=0.7)
    assert rows == [3, 3, 3, 1]
    assert max(fronts) <= cell


_SEGMENT_PAIRS = {
    # K = 3 over a Markov key; an order-0 key, and an order-0 pair, whose
    # walks add their log terms in sequence across every cut, past 128 terms;
    # t below the plaintext's order 4, so the walk and the forward end inside
    # their heads
    "markov-markov": (sources.make_markov(2, 3, np.full((8, 2), 0.5) + [0.3, -0.3]),
                      sources.make_markov(2, 2, [[0.6, 0.4], [0.3, 0.7], [0.5, 0.5],
                                                 [0.8, 0.2]]), [1, 2, 3, 4, 57]),
    "order0-key": (MARKOV, BIASED, [1, 130, 300]),
    "order0-order0": (sources.make_bernoulli([0.8, 0.2]), BIASED, [1, 130, 300]),
    "t-below-kx": (sources.make_markov(2, 4, np.tile([[0.7, 0.3], [0.4, 0.6]], (8, 1))),
                   MARKOV, [1, 2, 3, 5]),
}


@pytest.mark.parametrize("pair", list(_SEGMENT_PAIRS))
def test_concentration_in_one_draw_segments_gives_the_same_bits(pair, monkeypatch):
    # a budget below a chunk's rows cuts every row into segments of one draw,
    # shorter than the forward's first K symbols
    xm, ym, lengths = _SEGMENT_PAIRS[pair]
    kwargs = dict(t_list=lengths, samples=23, epsilon=0.2, delta=0.05, seed=4, h_ref=0.7)
    reference = secrecy.concentration_experiment(xm, ym, SPEC2, **kwargs)
    widths = []
    walk = secrecy._walk_batch
    monkeypatch.setattr(secrecy, "_walk_batch",
                        lambda model, uniforms, *rest: widths.append(uniforms.shape[1])
                        or walk(model, uniforms, *rest))
    monkeypatch.setattr(secrecy, "_SEGMENT_CELLS", 22)
    report = secrecy.concentration_experiment(xm, ym, SPEC2, **kwargs)
    assert set(widths) == {1} and len(widths) == 2 * sum(t + 1 for t in lengths)
    assert report == reference
    for got, want in [(report.means, reference.means), (report.variances, reference.variances)]:
        assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))


def test_concentration_sampling_memory_is_one_segment_whatever_t():
    # a chunk's (rows, t + 1) draws are walked in segments of at most
    # _SEGMENT_CELLS cells: the traced peak is at most one segment's uniforms
    # (8 bytes a cell) and its three word arrays (a byte a cell each), plus a
    # fixed 2 MiB for what does not scale with the segment (the rows' PCG64
    # states and their generators' eight arrays of _LANE_CELLS words, 1 MiB;
    # the walks' contexts and running log-probabilities, the forward's front;
    # 1.8 and 1.5 MB measured).  The same bound at t = 600 (a full chunk of
    # 2048 rows, 19 segments; 9.8 MB of uniforms a stream unsegmented) and at
    # t = 4000 (1048 rows, 65; 34 MB),
    # on a Markov pair and on an order-0 pair, whose walks step one position
    # at a time as the Markov walks do
    bound = (8 + 3) * secrecy._SEGMENT_CELLS + (2 << 20)
    key = sources.make_markov(2, 1, [[0.45, 0.55], [0.6, 0.4]])
    text = sources.make_bernoulli([0.8, 0.2])
    for xm, ym, t, samples in [(MARKOV, key, 600, 2048), (text, BIASED, 4000, 1048)]:
        secrecy.concentration_experiment(xm, ym, SPEC2, [2], 2, 0.05, 0.01, seed=1)
        tracemalloc.start()
        try:
            secrecy.concentration_experiment(
                xm, ym, SPEC2, [t], samples, 0.05, 0.01, seed=1, h_ref=0.5
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (t, peak)


def test_concentration_validates_arguments():
    with pytest.raises(ValueError):
        secrecy.concentration_experiment(MARKOV, BIASED, SPEC2, [10], 0, 0.05, 0.01, seed=1)
    with pytest.raises(ValueError):
        secrecy.concentration_experiment(MARKOV, BIASED, SPEC2, [10], 5, -1.0, 0.01, seed=1)
    with pytest.raises(ValueError):
        secrecy.concentration_experiment(MARKOV, BIASED, SPEC2, [10, 0], 5, 0.05, 0.01, seed=1)
    ident = cipher.CipherSpec(2, [[0, 0], [1, 1]], [[0, 0], [1, 1]])
    with pytest.raises(UnsupportedCipherError):
        secrecy.concentration_experiment(MARKOV, BIASED, ident, [10], 5, 0.05, 0.01, seed=1)


def test_concentration_rejects_a_negative_seed_before_the_bracket(monkeypatch):
    def enumerated(*args, **kwargs):
        raise AssertionError("the bracket was enumerated")

    monkeypatch.setattr(secrecy, "hxz_bracket", enumerated)
    with pytest.raises(ValueError, match="seed"):
        secrecy.concentration_experiment(MARKOV, BIASED, SPEC2, [10], 5, 0.05, 0.01,
                                         seed=-1)
    with pytest.raises(TypeError, match="seed"):
        secrecy.concentration_experiment(MARKOV, BIASED, SPEC2, [10], 5, 0.05, 0.01,
                                         seed=1.0)


class _Bracket(Exception):
    pass


@pytest.mark.parametrize("t_list, samples, over", [
    ([4, 2**21 - 5], 1, "uniforms a row"),  # 2**21 + 1 over both lengths
    ([1], 2**24 + 1, "samples a length"),
    ([200, 20_000], 2**16, "sampled symbols"),
    ([2**21 - 1], 1, None),  # a row of 2**21 uniforms
    ([1], 2**24, None),
    ([20_000], 2048, None),
])
def test_concentration_caps_checked_before_the_bracket(t_list, samples, over, monkeypatch):
    def enumerated(*args, **kwargs):
        raise _Bracket()

    monkeypatch.setattr(secrecy, "hxz_bracket", enumerated)
    with pytest.raises(EnumerationCapError if over else _Bracket, match=over):
        secrecy.concentration_experiment(MARKOV, BIASED, SPEC2, t_list, samples, 0.05, 0.01,
                                         seed=1)


@pytest.mark.parametrize("h_ref", [0.5, None])
def test_concentration_checks_the_factor_table_before_the_bracket_and_any_walk(
    h_ref, monkeypatch
):
    # a binary order-12 pair: the forward's factor table has 2**26 entries,
    # and at t = 20,000 the first chunk's walks took 0.3 s before it was read
    rng = np.random.default_rng(12)
    xm, ym = (sources.make_markov(2, 12, rng.dirichlet([1.0, 1.0], size=4096))
              for _ in range(2))

    def walked(*args):
        raise AssertionError("a row was walked before the cap check")

    monkeypatch.setattr(secrecy, "_walk_batch", walked)
    monkeypatch.setattr(secrecy, "hxz_bracket", walked)
    with pytest.raises(EnumerationCapError) as caught:
        secrecy.concentration_experiment(xm, ym, SPEC2, [20_000], 2048, 0.05, 0.01, seed=0,
                                         h_ref=h_ref)
    assert "enumerating 2**26 forward factor table entries" in str(caught.value)


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.0, TypeError)])
@pytest.mark.parametrize("run", [
    lambda seed: secrecy.typical_set_growth(MARKOV, BIASED, SPEC2, [10], 0.1, seed),
    lambda seed: secrecy.robustness_sweep(MARKOV, SPEC2, [0.01], 4, t_list=[10],
                                          seed=seed),
], ids=["growth", "sweep"])
def test_growth_rejects_a_bad_seed_before_the_bracket(run, seed, error, monkeypatch):
    calls = []

    def spied(*args, **kwargs):
        calls.append(args)
        return inference.hxz_bracket(*args, **kwargs)

    monkeypatch.setattr(secrecy, "hxz_bracket", spied)
    with pytest.raises(error, match="seed"):
        run(seed)
    assert calls == []


# -- certified bounds -----------------------------------------------------------------


def test_certify_bounds_iid_closed_forms():
    xm = sources.make_bernoulli([0.7, 0.3])
    ym = sources.make_bernoulli([0.6, 0.4])
    report = secrecy.certify_bounds(xm, ym, SPEC2, 8)
    h_x = oracles.binary_entropy(0.7)
    h_y = oracles.binary_entropy(0.6)
    exact = h_x + h_y - oracles.binary_entropy(0.46)
    assert abs(report.bound_corollary - (h_x + h_y - 1.0)) <= 1e-12
    assert abs(report.bracket.lower - exact) <= 1e-10
    assert abs(report.bracket.upper - exact) <= 1e-10
    assert report.bracket.lower >= report.bound_corollary - 1e-9


def test_certify_bounds_redundancy_identities():
    report = secrecy.certify_bounds(MARKOV, BIASED, SPEC2, 6)
    for form in report.bound_forms:
        assert abs(form - report.bound_corollary) <= 1e-10


def test_certify_bounds_uniform_key_collapse():
    report = secrecy.certify_bounds(MARKOV, UNIFORM2, SPEC2, 6)
    assert abs(report.bound_corollary - MARKOV.entropy_rate()) <= 1e-12
    assert abs(report.bracket.lower - MARKOV.entropy_rate()) <= 1e-12
    assert abs(report.bracket.upper - MARKOV.entropy_rate()) <= 1e-12


def test_certify_bounds_vernam_on_uniform_plaintext():
    report = secrecy.certify_bounds(UNIFORM2, UNIFORM2, SPEC2, 4)
    assert report.bound_corollary == pytest.approx(1.0, abs=1e-12)
    assert report.bracket.lower == pytest.approx(1.0, abs=1e-12)
    assert report.r_x == 0.0 and report.r_y == 0.0


# -- robustness sweep -----------------------------------------------------------------


def test_sweep_zero_bias_equals_exact_vernam():
    reports = secrecy.robustness_sweep(MARKOV, SPEC2, [0.0], 8)
    vernam = secrecy.certify_bounds(MARKOV, sources.make_bernoulli([0.5, 0.5]), SPEC2, 8)
    row = reports[0]
    assert row.tau == 0.0
    for a, b in (
        (row.h_x, vernam.h_x),
        (row.h_y, vernam.h_y),
        (row.r_x, vernam.r_x),
        (row.r_y, vernam.r_y),
        (row.bracket.lower, vernam.bracket.lower),
        (row.bracket.upper, vernam.bracket.upper),
        (row.bound_corollary, vernam.bound_corollary),
    ):
        assert abs(a - b) <= 1e-10
    assert abs(row.bracket.lower - MARKOV.entropy_rate()) <= 1e-10
    assert abs(row.bracket.upper - MARKOV.entropy_rate()) <= 1e-10
    assert row.r_y == 0.0


def test_sweep_small_bias_matches_abstract_example():
    reports = secrecy.robustness_sweep(UNIFORM2, SPEC2, [0.01], 6)
    row = reports[0]
    assert abs(row.r_y - (1.0 - oracles.binary_entropy(0.49))) <= 1e-12
    assert abs(row.r_y - 2.89e-4) <= 1e-6
    assert abs(row.bound_corollary - (row.h_x - row.r_y)) <= 1e-12


@given(st.floats(1e-3, 0.05))
def test_sweep_key_redundancy_follows_the_bias_series(tau):
    # 1 - h(1/2 + tau) = (1/ln 2) sum_k (2 tau)**(2k) / (2k (2k - 1)): the
    # first two terms bound it below, and the tail is at most the second
    # term's geometric series in 4 tau**2
    ln2 = math.log(2.0)
    second = 4.0 * tau**4 / (3.0 * ln2)
    r_y = sources.make_bernoulli((0.5 - tau, 0.5 + tau)).redundancy()
    assert 2.0 * tau**2 / ln2 + second - 1e-15 <= r_y
    assert r_y <= 2.0 * tau**2 / ln2 + second / (1.0 - 4.0 * tau**2) + 1e-15
    (row,) = secrecy.robustness_sweep(MARKOV, SPEC2, [tau], 1)
    assert row.r_y == r_y and row.bound_forms[0] == row.h_x - r_y
    assert abs(row.bound_corollary - (row.h_x - r_y)) <= 1e-15


def test_sweep_lower_bounds_monotone_as_bias_shrinks():
    for xm in (UNIFORM2, MARKOV):
        reports = secrecy.robustness_sweep(xm, SPEC2, [0.1, 0.05, 0.01, 0.0], 8)
        lowers = [r.bracket.lower for r in reports]
        assert all(b >= a - 1e-12 for a, b in zip(lowers, lowers[1:]))


def test_sweep_rejects_out_of_range_tau():
    with pytest.raises(ValueError):
        secrecy.robustness_sweep(UNIFORM2, SPEC2, [0.5], 4)
    with pytest.raises(ValueError):
        secrecy.robustness_sweep(UNIFORM2, SPEC2, [-0.01], 4)


def test_sweep_growth_series_needs_seed():
    with pytest.raises(ValueError):
        secrecy.robustness_sweep(UNIFORM2, SPEC2, [0.0], 4, t_list=[8])


def test_sweep_with_growth_series():
    reports = secrecy.robustness_sweep(
        UNIFORM2, SPEC2, [0.01, 0.0], 6, t_list=[8, 12], epsilon=0.05, seed=4
    )
    for report in reports:
        assert [p.t for p in report.growth_series] == [8, 12]
    # exact one-time pad: growth pinned at the plaintext entropy level
    assert all(p.growth == 1.0 for p in reports[1].growth_series)


def test_certification_error_surfaces(monkeypatch):
    # force a broken bracket to confirm certification actually trips
    import runkey.secrecy as secrecy_module

    def broken(*args, **kwargs):
        return inference.EntropyBracket(lower=-0.5, upper=-0.4, order_used=0)

    monkeypatch.setattr(secrecy_module, "hxz_bracket", broken)
    with pytest.raises(CertificationError):
        secrecy.certify_bounds(UNIFORM2, UNIFORM2, SPEC2, 2)


# -- the stationary law's exact elimination -----------------------------------------


def _certify_inputs(seed, work):
    """The certify benchmark workload's models and ciphertexts (psi, posterior) at ``seed``."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(workloads)  # its dataclasses look their module up by name
    argvs = {inv.label: inv.argv for inv in workloads.build("certify", seed, work)}
    z = [text_to_word(argvs[label][argvs[label].index("--z") + 1], 2)
         for label in ("psi", "posterior")]
    return sources.load_model(work / "x.model"), sources.load_model(work / "y.model"), *z


@pytest.mark.parametrize("seed", [0, 1])
def test_direct_stationary_solve_moves_the_certify_reports_within_1e_9(seed, tmp_path,
                                                                      monkeypatch):
    # the exact law moves these reports' last .12g digits against the power
    # iteration's law (with a direct solve: h_x and r_x at seed 1, the psi
    # spread, and 13,281 and 18,103 of the posterior CSV's 262,144 rows)
    xm, ym, z_psi, z_post = _certify_inputs(seed, tmp_path)
    monkeypatch.setattr(sources, "_SOLVE_CONTEXTS", 0)  # power iteration at every size
    xp, yp = (sources.make_markov(2, m.order, m.transition) for m in (xm, ym))
    assert not np.array_equal(xm.stationary, xp.stationary)

    def close(solved, iterated):
        assert np.all(np.abs(solved - iterated) <= 1e-9 * np.abs(iterated))

    for solved, iterated in ((xm, xp), (ym, yp)):
        close(solved.entropy_rate(), iterated.entropy_rate())
        close(solved.redundancy(), iterated.redundancy())
    built, before = (secrecy.build_typical_set(x, y, SPEC2, z_psi, 0.1)
                     for x, y in ((xm, ym), (xp, yp)))
    assert built.member_count == before.member_count
    for key in ("h_ref", "mass", "spread", "growth"):
        close(getattr(built, key), getattr(before, key))
    table, table_before = (inference.posterior(x, y, SPEC2, z_post).log_posterior
                           for x, y in ((xm, ym), (xp, yp)))
    assert np.array_equal(np.isfinite(table), np.isfinite(table_before))
    close(table[np.isfinite(table)], table_before[np.isfinite(table)])


@pytest.mark.parametrize("seed", [0, 1])
def test_posterior_halves_move_the_certify_rows_within_1e_12(seed, tmp_path):
    # the posterior sums each plaintext as L + R, the sequential joint table
    # position by position; at seeds 0 and 1 that moves the last .12g digit of
    # 6 and 10 of the CSV's 262,144 rows
    xm, ym, _, z = _certify_inputs(seed, tmp_path)
    log_marginal, blocks = inference._posterior_blocks(xm, ym, SPEC2, z)
    split = np.concatenate([block for _, block in blocks])
    sequential = inference.joint_log2_table(xm, ym, SPEC2, z) - log_marginal
    finite = np.isfinite(sequential)
    assert np.array_equal(np.isfinite(split), finite) and finite.all()
    assert np.abs(split - sequential).max() <= 1e-12


def test_concentration_peak_stays_below_two_uniform_chunks():
    # one chunk of 256 rows at t = 1000: a stream's uniforms are the largest
    # array; the one-byte words and the walks' per-position rows add less than
    # that again (with int64 words the peak was 3.5 times the uniforms)
    t, samples = 1000, 256
    size = inference._ProductChain(MARKOV, BIASED, SPEC2).size
    rows = min(samples, secrecy._SAMPLE_CHUNK, secrecy._CELL // size)
    run = (MARKOV, BIASED, SPEC2, [t], samples, 0.05, 0.01)
    secrecy.concentration_experiment(*run, seed=3, h_ref=0.5)  # a first call's imports
    tracemalloc.start()
    try:
        secrecy.concentration_experiment(*run, seed=3, h_ref=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * rows * (t + 1) * 8
