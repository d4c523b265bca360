import io
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import oracles
import runkey.inference as inference_module
from runkey import cipher, inference, secrecy, sources
from runkey.errors import (
    CertificationError,
    EnumerationCapError,
    NotErgodicError,
    UnsupportedCipherError,
)

SPEC2 = cipher.additive_cipher(2)
UNIFORM2 = sources.make_uniform(2)
BIASED = sources.make_bernoulli([0.49, 0.51])
MARKOV = sources.SourceModel(2, 1, [[0.9, 0.1], [0.2, 0.8]])


def random_model(rng, n, k):
    rows = rng.dirichlet(np.ones(n), size=n**k)
    return sources.make_bernoulli(rows[0]) if k == 0 else sources.SourceModel(n, k, rows)


def random_instance(rng, max_t=9):
    n = int(rng.choice([2, 3]))
    xm = random_model(rng, n, int(rng.integers(0, 3)))
    ym = random_model(rng, n, int(rng.integers(0, 2)))
    spec = cipher.additive_cipher(n)
    t = int(rng.integers(2, max_t + 1))
    x = xm.sample(t, rng)
    y = ym.sample(t, rng)
    return xm, ym, spec, spec.encrypt(x, y)


# -- posterior ---------------------------------------------------------------------


def test_posterior_uniform_pair_is_flat():
    z = UNIFORM2.sample(10, 3)
    table = inference.posterior(UNIFORM2, UNIFORM2, SPEC2, z)
    assert np.abs(np.exp2(table.log_posterior) - 2.0**-10).max() <= 1e-12
    assert abs(table.log_marginal + 10.0) <= 1e-12


def test_posterior_deterministic_key_is_point_mass():
    zero_key = sources.make_bernoulli([1.0, 0.0])
    z = np.array([0, 1, 1, 0, 1])
    table = inference.posterior(MARKOV, zero_key, SPEC2, z)
    # the cipher degenerates to the identity: the plaintext must equal z
    assert abs(np.exp2(table.log2_prob(z)) - 1.0) <= 1e-12
    assert np.exp2(table.log_posterior).sum() == pytest.approx(1.0, abs=1e-9)
    assert np.exp2(table.log2_prob([0, 0, 0, 0, 0])) == 0.0


def test_posterior_biased_key_hand_value():
    # two symbols, all-ones ciphertext: P(00|11) = 0.51^2 by direct normalisation
    table = inference.posterior(UNIFORM2, BIASED, SPEC2, [1, 1])
    assert abs(np.exp2(table.log2_prob([0, 0])) - 0.2601) <= 1e-12
    brute, _ = oracles.posterior_table(UNIFORM2, BIASED, 2, [1, 1])
    assert abs(np.exp2(table.log2_prob([0, 0])) - brute[(0, 0)]) <= 1e-15


def test_posterior_matches_brute_force_enumeration():
    rng = np.random.default_rng(101)
    for _ in range(25):
        xm, ym, spec, z = random_instance(rng)
        table = inference.posterior(xm, ym, spec, z)
        brute, brute_lm = oracles.posterior_table(xm, ym, spec.alphabet_size, z)
        assert abs(table.log_marginal - brute_lm) <= 1e-9
        worst = max(
            abs(np.exp2(table.log2_prob(list(word))) - value)
            for word, value in brute.items()
        )
        assert worst <= 1e-12


def test_log_posterior_matches_the_oracle_in_log_space():
    # log2 P(z) comes from the forward, not from the table: at most 1e-12 apart
    rng = np.random.default_rng(102)
    for _ in range(25):
        xm, ym, spec, z = random_instance(rng)
        table = inference.posterior(xm, ym, spec, z)
        brute, _ = oracles.posterior_table(xm, ym, spec.alphabet_size, z)
        for word, value in brute.items():
            expected = math.log2(value) if value > 0.0 else -math.inf
            got = table.log2_prob(list(word))
            assert got == expected or abs(got - expected) <= 1e-12


def test_posterior_normalisation_certified():
    rng = np.random.default_rng(55)
    for _ in range(10):
        xm, ym, spec, z = random_instance(rng)
        table = inference.posterior(xm, ym, spec, z)
        finite = table.log_posterior[np.isfinite(table.log_posterior)]
        assert abs(np.exp2(finite).sum() - 1.0) <= 1e-9


def test_perfect_secrecy_log_identity():
    # uniform i.i.d. key: posterior equals prior, compared on log values
    rng = np.random.default_rng(77)
    for _ in range(10):
        n = int(rng.choice([2, 3]))
        xm = random_model(rng, n, int(rng.integers(0, 3)))
        yu = sources.make_uniform(n)
        spec = cipher.additive_cipher(n)
        t = int(rng.integers(2, 9))
        z = yu.sample(t, rng)
        table = inference.posterior(xm, yu, spec, z)
        prior = xm.log2_block_prob_array(t)
        both = np.isfinite(table.log_posterior) & np.isfinite(prior)
        assert np.array_equal(np.isfinite(table.log_posterior), np.isfinite(prior))
        assert np.abs(table.log_posterior[both] - prior[both]).max() <= 1e-12


def test_posterior_cap_and_bad_cipher():
    with pytest.raises(EnumerationCapError):
        inference.posterior(UNIFORM2, UNIFORM2, SPEC2, np.zeros(30, int))
    ident = cipher.CipherSpec(2, [[0, 0], [1, 1]])
    with pytest.raises(UnsupportedCipherError):
        inference.posterior(UNIFORM2, UNIFORM2, ident, [0, 1])


def test_posterior_rejects_impossible_ciphertext():
    zero_key = sources.make_bernoulli([1.0, 0.0])
    ones = sources.make_bernoulli([0.0, 1.0])
    with pytest.raises(ValueError):
        # plaintext is all ones, key all zeros, so z = 00 has probability 0
        inference.posterior(ones, zero_key, SPEC2, [0, 0])


def test_posterior_csv_export(tmp_path):
    table = inference.posterior(UNIFORM2, BIASED, SPEC2, [1, 0, 1])
    path = tmp_path / "table.csv"
    table.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "plaintext,log2_posterior"
    assert len(lines) == 9
    word, value = lines[1].split(",")
    assert word == "000"
    assert abs(float(value) - table.log2_prob([0, 0, 0])) <= 1e-9


def _csv_text(n, t, blocks):
    buf = io.StringIO()
    inference_module._write_posterior(buf, n, t, blocks)
    return buf.getvalue()


def _key40():
    probs = np.arange(1, 41) / np.arange(1, 41).sum()
    return sources.make_bernoulli(probs)


# (plaintext model, key model, cipher, ciphertext)
_CSV_CASES = {
    # t = 12 over blocks of 2**10 words and chunks of 2**8 rows: 4 blocks of 4 chunks
    "binary-blocks": lambda: (sources.SourceModel(2, 2, [[0.7, 0.3], [0.4, 0.6],
                                                         [0.2, 0.8], [0.5, 0.5]]),
                              MARKOV, SPEC2, [0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1]),
    # a zero in the plaintext table: -inf rows
    "zeros": lambda: (sources.SourceModel(2, 1, [[1.0, 0.0], [0.4, 0.6]]), MARKOV,
                      SPEC2, [1, 0, 1, 1, 0, 1, 0, 0]),
    # one plaintext has P(x | z) > 1/2, so |log2 P(x | z)| < 1
    "certain": lambda: (sources.make_bernoulli([0.95, 0.05]),
                        sources.make_bernoulli([0.9, 0.1]), SPEC2, [0, 0, 0, 0]),
    "n40-t1": lambda: (sources.make_uniform(40), _key40(), cipher.additive_cipher(40), [7]),
    "n40-t2": lambda: (sources.make_uniform(40), _key40(), cipher.additive_cipher(40),
                       [1, 2]),
}


@pytest.mark.parametrize("case", list(_CSV_CASES))
def test_posterior_csv_matches_the_per_row_writer(case, monkeypatch):
    monkeypatch.setattr(inference_module, "_BLOCK_WORDS", 2**10)
    monkeypatch.setattr(inference_module, "_CSV_ROWS", 2**8)
    xm, ym, spec, z = _CSV_CASES[case]()
    n, t = spec.alphabet_size, len(z)
    blocks = list(inference_module._posterior_blocks(xm, ym, spec, z)[1])
    values = np.concatenate([block for _, block in blocks])
    text = _csv_text(n, t, blocks)
    assert text == oracles.posterior_csv(n, t, blocks)
    table = inference.posterior(xm, ym, spec, z)
    buf = io.StringIO()
    table.to_csv(buf)
    assert buf.getvalue() == oracles.posterior_csv(n, t, [(0, table.log_posterior)])
    if case == "binary-blocks":
        assert len(blocks) == 4
    if case == "zeros":
        assert (values == -np.inf).any()
    if case == "certain":
        assert (np.abs(values) < 1).sum() == 1
    if case == "n40-t2":
        assert text.splitlines()[1] == '"0,0",' + f"{values[0]:.12g}"


def _g12_texts(values):
    rows = inference_module._g12(np.array(values, dtype=float))
    return [bytes(row[row != 0]).decode("ascii") for row in rows]


# zeros, infinities, subnormals, exact ties at the 12th digit (even and odd
# neighbours), and the way up to 1e12, where the digits carry into a 13th
_G12_EDGES = [
    0.0, -0.0, -math.inf, math.inf, math.nan, 5e-324, -5e-324, 2.225073858507201e-308,
    9.9999999999995, -9.9999999999995, 123456789012.5, 123456789013.5, -123456789012.5,
    12345678901.25, 1234567890.125, 1.5, 999999999999.5, -999999999999.5,
    999999999999.4, 999999999999.0, float(np.nextafter(1e12, 0)), 1e12, -1e12,
    1.0, -1.0, float(np.nextafter(1.0, 0)), -0.5, 1e22, -1e-5, -100.0, 99.99999999999999,
]
_NEAR_TIES = st.builds(lambda sign, d, shift: sign * (d + 0.5) / 10.0**shift,
                       st.sampled_from([1, -1]), st.integers(10**11, 10**12 - 1),
                       st.integers(0, 11))
_SCALED = st.builds(lambda m, e: m * 10.0**e, st.floats(-10, 10), st.integers(-30, 30))


@given(st.lists(st.one_of(st.floats(), _SCALED, _NEAR_TIES), min_size=1, max_size=40))
@example(_G12_EDGES)
def test_g12_matches_python_format(values):
    assert _g12_texts(values) == [f"{v:.12g}" for v in values]


# -- forward marginal ---------------------------------------------------------------


def test_forward_matches_brute_force():
    rng = np.random.default_rng(303)
    for _ in range(25):
        xm, ym, spec, z = random_instance(rng)
        forward = inference.log_marginal_forward(xm, ym, spec, z)
        brute = oracles.log_marginal(xm, ym, spec, z)
        assert abs(forward - brute) <= 1e-9


def test_forward_matches_enumerated_marginal():
    rng = np.random.default_rng(404)
    for _ in range(10):
        xm, ym, spec, z = random_instance(rng)
        forward = inference.log_marginal_forward(xm, ym, spec, z)
        table = inference.posterior(xm, ym, spec, z)
        assert abs(forward - table.log_marginal) <= 1e-9


def test_forward_uniform_pair():
    z = UNIFORM2.sample(500, 7)
    assert abs(inference.log_marginal_forward(UNIFORM2, UNIFORM2, SPEC2, z) + 500) <= 1e-9


def test_forward_iid_single_letter_convolution():
    xm = sources.make_bernoulli([0.7, 0.3])
    ym = sources.make_bernoulli([0.6, 0.4])
    z = np.array([1, 0, 1, 1, 0, 0, 1])
    p1 = 0.7 * 0.4 + 0.3 * 0.6  # P(z_i = 1)
    expected = sum(math.log2(p1 if zi else 1 - p1) for zi in z)
    assert abs(inference.log_marginal_forward(xm, ym, SPEC2, z) - expected) <= 1e-9


def test_forward_impossible_ciphertext_is_neg_inf():
    ones = sources.make_bernoulli([0.0, 1.0])
    zero_key = sources.make_bernoulli([1.0, 0.0])
    assert inference.log_marginal_forward(ones, zero_key, SPEC2, [0, 0]) == -np.inf


@st.composite
def models_with_zeros(draw, n, order):
    """An ergodic order-k model whose rows may hold zeros."""
    cells = n ** (order + 1)
    weights = np.array(
        draw(st.lists(st.integers(0, 4), min_size=cells, max_size=cells)), dtype=float
    ).reshape(n**order, n)
    weights[weights.sum(axis=1) == 0.0] = 1.0
    rows = weights / weights.sum(axis=1, keepdims=True)
    try:
        if order == 0:
            return sources.make_bernoulli(rows[0])
        return sources.SourceModel(n, order, rows)
    except NotErgodicError:
        assume(False)


@st.composite
def ciphers(draw, n):
    """The additive cipher, a random Latin square, or the identity (no key table)."""
    kind = draw(st.sampled_from(["additive", "latin", "identity"]))
    if kind == "additive":
        return cipher.additive_cipher(n)
    if kind == "latin":
        return latin_square_cipher(np.random.default_rng(draw(st.integers(0, 2**16))), n)
    return cipher.CipherSpec(n, np.repeat(np.arange(n)[:, None], n, axis=1))


@st.composite
def forward_cases(draw):
    n = draw(st.integers(2, 4))
    xm = draw(models_with_zeros(n, draw(st.integers(0, 3))))
    ym = draw(models_with_zeros(n, draw(st.integers(0, 2))))
    spec = draw(ciphers(n))
    t = draw(st.integers(1, int(math.log(4096, n) + 1e-9)))
    seed = draw(st.integers(0, 2**16))
    rows = [spec.encrypt(xm.sample(t, (seed, i, 0)), ym.sample(t, (seed, i, 1)))
            for i in range(2)]
    rows.append(np.array(draw(st.lists(st.integers(0, n - 1), min_size=t, max_size=t))))
    return xm, ym, spec, np.array(rows)


@given(forward_cases())
def test_forward_matches_oracle_for_any_cipher(case):
    # below 2**-35 the stationary law's ~1e-13 mass on transient contexts
    # decides between -inf and about 2**-40, so only larger values are pinned
    xm, ym, spec, rows = case
    batch = inference._ProductChain(xm, ym, spec).forward_log2(rows)
    for row, from_batch in zip(rows, batch):
        expected = oracles.log_marginal(xm, ym, spec, row)
        if expected > -35.0:
            assert abs(from_batch - expected) <= 1e-9
            single = inference.log_marginal_forward(xm, ym, spec, row)
            assert abs(single - expected) <= 1e-9


@pytest.mark.parametrize("n, kx, ky", [(2, 3, 1), (3, 1, 2), (256, 1, 0)])
def test_forward_gives_the_same_bits_on_one_byte_words(n, kx, ky):
    # the walk's words are one byte each, in a Fortran-order view
    rng = np.random.default_rng(n + kx)
    xm, ym = random_model(rng, n, kx), random_model(rng, n, ky)
    chain = inference._ProductChain(xm, ym, cipher.additive_cipher(n))
    words = rng.integers(0, n, size=(6, 9))
    wide = chain.forward_log2(words)
    assert np.isfinite(wide).all()
    for narrow in (words.astype(np.uint8), np.asfortranarray(words, dtype=np.uint8)):
        assert np.array_equal(chain.forward_log2(narrow).view(np.uint64), wide.view(np.uint64))


@given(forward_cases(), st.data())
def test_forward_in_segments_gives_the_same_bits(case, data):
    # the front, scale, log, dead mask and cipher window carry across a cut,
    # also one inside the first K symbols, which wait for the block laws
    xm, ym, spec, rows = case
    t = rows.shape[1]
    cuts = sorted({cut for cut in data.draw(st.lists(st.integers(1, t))) if cut < t})
    chain = inference._ProductChain(xm, ym, spec)
    front = inference._Front(t)
    parts = [chain.forward_log2(rows[:, lo:hi], front)
             for lo, hi in zip([0, *cuts], [*cuts, t])]
    assert all(part is None for part in parts[:-1])
    whole = chain.forward_log2(rows)
    assert np.array_equal(parts[-1].view(np.uint64), whole.view(np.uint64))


def test_entry_cap_checked_before_the_build(monkeypatch):
    # two order-3 binary models: the forward's factor table has 2**8 entries and
    # a bracket word 2 * 2 * 64 multiply-adds; each kernel checks its own
    xm = sources.SourceModel(2, 3, np.full((8, 2), 0.5))
    monkeypatch.setattr(sources, "DEFAULT_WORD_CAP", 256)
    assert inference.log_marginal_forward(xm, xm, SPEC2, [0, 1]) == -2.0
    assert inference.hz_bracket(xm, xm, SPEC2, 0).upper == 1.0
    monkeypatch.setattr(sources, "DEFAULT_WORD_CAP", 255)
    inference._ProductChain(xm, xm, SPEC2)  # construction checks nothing
    with pytest.raises(EnumerationCapError, match="factor table"):
        inference.log_marginal_forward(xm, xm, SPEC2, [0, 1])
    with pytest.raises(EnumerationCapError, match="bracket"):
        inference.hz_bracket(xm, xm, SPEC2, 0)


def test_forward_factor_table_checked_against_the_entry_cap(monkeypatch):
    # under the identity cipher the key drives and the order-3 plaintext weighs
    # it through a (2**4, 2**4) table; a bracket word needs only 2*2*8
    identity = cipher.CipherSpec(2, [[0, 0], [1, 1]])
    xm = sources.SourceModel(2, 3, np.full((8, 2), 0.5))
    monkeypatch.setattr(sources, "DEFAULT_WORD_CAP", 256)
    z = [0, 1, 1, 0, 1]
    assert abs(inference.log_marginal_forward(xm, BIASED, identity, z) + 5.0) <= 1e-12
    monkeypatch.setattr(sources, "DEFAULT_WORD_CAP", 255)
    with pytest.raises(EnumerationCapError, match="factor table"):
        inference.log_marginal_forward(xm, BIASED, identity, z)


def test_entry_cap_admits_byte_pair_and_rejects_byte_contexts():
    # n=256 with S=256 product states (order 1 against i.i.d.) is exactly at
    # the cap; two order-1 byte models (S=65,536) would take 2**32
    # multiply-adds per parent word of the bracket descent, and 2**32 factor
    # table entries in the forward
    spec = cipher.additive_cipher(256)
    byte = sources.SourceModel(256, 1, np.full((256, 256), 1.0 / 256))
    key = sources.make_uniform(256)
    bracket = inference.hz_bracket(byte, key, spec, 0)
    assert abs(bracket.lower - 8.0) <= 1e-9 and abs(bracket.upper - 8.0) <= 1e-9
    assert abs(inference.log_marginal_forward(byte, key, spec, [7, 9]) + 16.0) <= 1e-9
    # both kernels must reject the pair before any of their memory is allocated
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationCapError, match="bracket"):
            inference.hz_bracket(byte, byte, spec, 0)
        with pytest.raises(EnumerationCapError, match="factor table"):
            inference.log_marginal_forward(byte, byte, spec, [7, 9, 11])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("n, kx, ky, cap, z", [
    (2, 4, 0, 2**6 - 1, [0, 1, 1, 0, 1]),
    (16, 4, 1, sources.DEFAULT_WORD_CAP, [1, 2, 3, 4]),  # 2**28 multiply-adds a word
], ids=["binary", "n16"])
def test_forward_paths_run_over_the_bracket_cap(n, kx, ky, cap, z, monkeypatch):
    # over the bracket's n**(k_X + k_Y + 2), within the forward's n**(2 k_Y + 2)
    rng = np.random.default_rng(27)
    xm, ym = random_model(rng, n, kx), random_model(rng, n, ky)
    spec = cipher.additive_cipher(n)
    monkeypatch.setattr(sources, "DEFAULT_WORD_CAP", cap)
    log_pz = inference.log_marginal_forward(xm, ym, spec, z)
    assert np.isfinite(log_pz)
    table = inference.posterior(xm, ym, spec, z)  # certifies its mass
    assert table.log_marginal == log_pz
    assert abs(float(np.exp2(table.log_posterior).sum()) - 1.0) <= 1e-9
    typical = secrecy.build_typical_set(xm, ym, spec, z, 0.5, h_ref=math.log2(n) / 2)
    assert 0.0 <= typical.mass <= 1.0 + 1e-12  # the total mass was certified
    with pytest.raises(EnumerationCapError, match="bracket"):
        inference.hz_bracket(xm, ym, spec, 0)


# -- ciphertext block entropies ------------------------------------------------------


def z_entropies(xm, ym, spec, length):
    """``H(Z^j)`` for ``j <= length``, as the brackets enumerate them."""
    return inference._entropies_for_chain(inference._ProductChain(xm, ym, spec), length)[0]


@pytest.mark.parametrize("pair", [(MARKOV, UNIFORM2), (UNIFORM2, BIASED)],
                         ids=["key", "plaintext"])
def test_uniform_source_gives_uniform_ciphertext_blocks(pair):
    # a uniform key, or a uniform plaintext, makes Z uniform: H(Z^j) = j log2 n
    assert np.abs(z_entropies(*pair, SPEC2, 5) - np.arange(6)).max() <= 1e-12


def test_zero_entropy_key_gives_plaintext_block_entropies():
    # the key is all zeros, so Z = X and H(Z^j) = j h_{j-1}(X)
    zero_key = sources.make_bernoulli([1.0, 0.0])
    totals = z_entropies(MARKOV, zero_key, SPEC2, 4)
    expected = [j * MARKOV.block_entropy(j - 1) for j in range(1, 5)]
    assert np.abs(totals[1:] - expected).max() <= 1e-12


def test_joint_block_factorisation():
    # h_m(X, Z) enumerated over pairs equals h_m(X) + h_m(Y)
    for m in range(3):
        pair_value = oracles.hm_joint_pair_blocks(MARKOV, BIASED, 2, m)
        assert abs(pair_value - (MARKOV.block_entropy(m) + BIASED.block_entropy(m))) <= 1e-10


def test_z_block_entropies_match_pair_enumeration():
    for m in range(3):
        totals = z_entropies(MARKOV, BIASED, SPEC2, m + 1)
        assert abs(totals[m + 1] / (m + 1) - oracles.hm_z_pair_blocks(MARKOV, BIASED, 2, m)) <= 1e-10


# -- brackets ------------------------------------------------------------------------


def test_hz_bracket_uniform_output():
    for m in (0, 3):
        for pair in ((UNIFORM2, BIASED), (MARKOV, UNIFORM2)):
            bracket = inference.hz_bracket(*pair, SPEC2, m)
            assert abs(bracket.lower - 1.0) <= 1e-12
            assert abs(bracket.upper - 1.0) <= 1e-12


def test_hz_bracket_iid_collapses_to_convolution():
    xm = sources.make_bernoulli([0.7, 0.3])
    ym = sources.make_bernoulli([0.6, 0.4])
    bracket = inference.hz_bracket(xm, ym, SPEC2, 0)
    expected = oracles.binary_entropy(0.46)
    assert abs(bracket.lower - expected) <= 1e-12
    assert abs(bracket.upper - expected) <= 1e-12


def test_hz_bracket_sandwich_monotone():
    prev = None
    for m in range(8):
        bracket = inference.hz_bracket(MARKOV, BIASED, SPEC2, m)
        assert bracket.lower <= bracket.upper + 1e-12
        if prev is not None:
            assert bracket.lower >= prev.lower - 1e-10
            assert bracket.upper <= prev.upper + 1e-10
            assert bracket.width < prev.width  # strictly shrinking here
        prev = bracket


def test_hxz_bracket_collapses_with_uniform_key():
    bracket = inference.hxz_bracket(MARKOV, UNIFORM2, SPEC2, 4)
    assert abs(bracket.lower - MARKOV.entropy_rate()) <= 1e-12
    assert abs(bracket.upper - MARKOV.entropy_rate()) <= 1e-12


def test_hxz_bracket_uniform_plaintext_biased_key():
    bracket = inference.hxz_bracket(UNIFORM2, BIASED, SPEC2, 4)
    assert abs(bracket.midpoint - oracles.binary_entropy(0.49)) <= 1e-12
    assert bracket.width <= 1e-12


def test_hxz_bracket_dominates_corollary_bound():
    rng = np.random.default_rng(909)
    cases = []
    for _ in range(12):
        n = int(rng.choice([2, 3]))
        xm = random_model(rng, n, int(rng.integers(0, 2)))
        ym = random_model(rng, n, int(rng.integers(0, 2)))
        cases.append((xm, ym, cipher.additive_cipher(n), 6))
    # Latin squares over rows with zeros or near-deterministic, n <= 4, orders <= 2
    while len(cases) < 60:
        n, kx, ky = int(rng.integers(2, 5)), *rng.integers(0, 3, size=2).tolist()
        xm, ym = (sharp_model(n, k, rng.choice(SHARP_WEIGHTS, size=n ** (k + 1)))
                  for k in (kx, ky))
        if xm is not None and ym is not None:
            # the bracket's words at the last depth, n**(m + 1), times n * S
            m = int(np.clip(math.log(2**18 / n ** (kx + ky + 1), n) - 1, 0, 6))
            cases.append((xm, ym, latin_square_cipher(rng, n), m))
    for xm, ym, spec, m in cases:
        bracket = inference.hxz_bracket(xm, ym, spec, m)
        bound = xm.entropy_rate() + ym.entropy_rate() - math.log2(spec.alphabet_size)
        assert bracket.lower >= bound - 1e-9


def test_hxz_bracket_needs_a_key_recoverable_cipher():
    # z = x: h(X|Z) is 0, but h(X) + h(Y) - h(Z) would read h(Y)
    key = sources.make_bernoulli([0.3, 0.7])
    bracket = inference.hz_bracket(MARKOV, key, IDENTITY2, 4)  # valid for every cipher
    assert abs(bracket.lower - MARKOV.entropy_rate()) <= 1e-12
    assert abs(bracket.upper - MARKOV.entropy_rate()) <= 1e-12
    with pytest.raises(UnsupportedCipherError):
        inference.hxz_bracket(MARKOV, key, IDENTITY2, 4)
    with pytest.raises(UnsupportedCipherError):
        secrecy.certify_bounds(MARKOV, key, IDENTITY2, 4)


def test_bracket_validation():
    with pytest.raises(CertificationError):
        inference.EntropyBracket(lower=0.9, upper=0.1, order_used=0)
    collapsed = inference.EntropyBracket(lower=0.5 + 1e-12, upper=0.5, order_used=0)
    assert collapsed.lower == collapsed.upper == 0.5


# row weights of sharp models: the small one is 0.01, since much smaller ones
# make the stationary law's power iteration run for seconds
SHARP_WEIGHTS = [0.0, 0.01, 1.0, 2.0, 4.0]


def sharp_model(n, order, weights):
    """The order-k model of n**(k+1) weights, rows normalised (a zero row is
    uniform), or None when it is not ergodic."""
    weights = np.array(weights, dtype=float).reshape(n**order, n)
    weights[weights.sum(axis=1) == 0.0] = 1.0
    rows = weights / weights.sum(axis=1, keepdims=True)
    try:
        if order == 0:
            return sources.make_bernoulli(rows[0])
        return sources.SourceModel(n, order, rows)
    except NotErgodicError:
        return None


@st.composite
def sharp_models(draw, n, order):
    """An ergodic order-k model whose rows may be near-deterministic or hold zeros."""
    cells = n ** (order + 1)
    model = sharp_model(n, order, draw(st.lists(st.sampled_from(SHARP_WEIGHTS),
                                                min_size=cells, max_size=cells)))
    assume(model is not None)
    return model


@st.composite
def bracket_cases(draw):
    n = draw(st.integers(2, 4))
    # equal orders make K = k_D + 1, a window longer than the driver's context
    kx = draw(st.integers(0, 2))
    ky = draw(st.one_of(st.just(kx), st.integers(0, 2)))
    xm, ym = draw(sharp_models(n, kx)), draw(sharp_models(n, ky))
    # the oracle walks S * n**(2 j) symbol pairs at depth j
    longest = max(1, int(math.log(4096 / n ** (kx + ky), n * n) + 1e-9))
    return xm, ym, draw(ciphers(n)), draw(st.integers(1, longest))


@given(bracket_cases())
def test_block_entropies_and_bracket_match_oracle_for_any_cipher(case):
    xm, ym, spec, length = case
    plain, conditional = oracles.z_block_entropies(xm, ym, spec, length)
    totals = z_entropies(xm, ym, spec, length)
    assert np.abs(totals - plain).max() <= 1e-12
    m = length - 1
    bracket = inference.hz_bracket(xm, ym, spec, m)
    assert abs(bracket.upper - (plain[m + 1] - plain[m])) <= 1e-12
    assert abs(bracket.lower - (conditional[m + 1] - conditional[m])) <= 1e-12


# -- chunked enumeration determinism --------------------------------------------------


def test_chunked_enumeration_bit_identical(monkeypatch):
    xm = sources.SourceModel(2, 2, np.array([[0.7, 0.3], [0.4, 0.6], [0.2, 0.8], [0.5, 0.5]]))
    ym = sources.SourceModel(2, 1, [[0.6, 0.4], [0.3, 0.7]])
    z = ym.sample(14, 3)
    # an i.i.d. key under a Latin square: an order-0 side and no additive structure
    rng = np.random.default_rng(3)
    order0 = (random_model(rng, 3, 2), random_model(rng, 3, 0), latin_square_cipher(rng, 3))
    reference = inference.joint_log2_table(xm, ym, SPEC2, z)
    reference_totals = z_entropies(xm, ym, SPEC2, 8)
    reference_order0 = z_entropies(*order0, 5)
    reference_bracket = inference.hz_bracket(xm, ym, SPEC2, 7)
    monkeypatch.setattr(inference_module, "_CELL", 64)
    monkeypatch.setattr(inference_module, "_ENUM_CELL", 1)  # one row per block
    assert np.array_equal(inference.joint_log2_table(xm, ym, SPEC2, z), reference)
    assert np.array_equal(z_entropies(xm, ym, SPEC2, 8), reference_totals)
    assert np.array_equal(z_entropies(*order0, 5), reference_order0)
    assert inference.hz_bracket(xm, ym, SPEC2, 7) == reference_bracket


def _certify_pair():
    """The pair of the certify benchmark workload at seed 0: S = 32 * 4 = 128."""
    rng = np.random.default_rng(np.random.SeedSequence([0, *b"certify"]))
    px, py = rng.uniform(0.05, 0.95, size=32), rng.uniform(0.3, 0.7, size=4)
    xm = sources.SourceModel(2, 5, np.column_stack([1.0 - px, px]))
    ym = sources.SourceModel(2, 2, np.column_stack([1.0 - py, py]))
    return xm, ym


def test_enumeration_blocks_bound_the_working_set(monkeypatch):
    # m = 13: the deepest level alone, 2**14 words by S = 128 states, is 16 MB
    xm, ym = _certify_pair()
    inference.hz_bracket(xm, ym, SPEC2, 1)  # first-use allocations stay out of the peak
    tracemalloc.start()
    try:
        reference = inference.hz_bracket(xm, ym, SPEC2, 13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20
    # blocks of 2 words (their children n * 2 * S = 512 cells) give the same ends
    monkeypatch.setattr(inference_module, "_ENUM_CELL", 2**9)
    assert inference.hz_bracket(xm, ym, SPEC2, 13) == reference


def test_byte_pair_bracket_builds_no_step_table():
    # an order-1 byte plaintext against an i.i.d. byte key, S = 256 at the
    # bracket's cap: one float64 table of n * n * S entries would take 128 MB
    rng = np.random.default_rng(6)
    xm = sources.SourceModel(256, 1, rng.dirichlet(np.ones(256), size=256))
    ym = sources.make_bernoulli(rng.dirichlet(np.ones(256)))
    spec = cipher.additive_cipher(256)
    reference = inference.hz_bracket(xm, ym, spec, 0)  # first-use allocations
    tracemalloc.start()
    try:
        assert inference.hz_bracket(xm, ym, spec, 0) == reference
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


# the certify pair's m = 10 bracket ends and H(Z^j) trail, j <= 11, as the
# forward-step enumeration computed them
CERTIFY_ENDS = (0.9994486705400512, 0.9994538800045163)
CERTIFY_TRAIL = [
    0.0, 0.9998450440716282, 1.999358969886475, 2.9988569572689188,
    3.9983378161944514, 4.997805426078086, 5.99726320812987, 6.996719520199504,
    7.996174348853643, 8.995628740630538, 9.99508279674197, 10.994536676746486,
]


def test_certify_pair_bracket_pinned():
    xm, ym = _certify_pair()
    bracket = inference.hz_bracket(xm, ym, SPEC2, 10)
    assert abs(bracket.lower - CERTIFY_ENDS[0]) <= 1e-12
    assert abs(bracket.upper - CERTIFY_ENDS[1]) <= 1e-12
    trail = z_entropies(xm, ym, SPEC2, 11)
    assert np.abs(trail - CERTIFY_TRAIL).max() <= 1e-12


def test_sampled_surprisal_rate_matches_the_enumeration():
    # W_t = -(1/t) log2 P(x | z) over the sampler's pairs has expectation
    # (H(X^t) + H(Y^t) - H(Z^t)) / t exactly: this ties the walk, the seeding
    # and the forward to the closed-form block entropies and the enumeration
    xm, ym = _certify_pair()
    lengths, samples = [3, 12], 4096
    report = secrecy.concentration_experiment(
        xm, ym, SPEC2, lengths, samples, 0.05, 0.05, seed=0, h_ref=0.5
    )
    plain = z_entropies(xm, ym, SPEC2, max(lengths))
    for t, mean, variance in zip(lengths, report.means, report.variances):
        expected = xm.block_entropy(t - 1) + ym.block_entropy(t - 1) - plain[t] / t
        assert abs(mean - expected) <= 5 * math.sqrt(variance / samples), t


def test_posterior_blocks_bound_the_working_set(tmp_path):
    # t = 20: the whole posterior table alone is 8 MB
    xm, ym = _certify_pair()
    z = SPEC2.encrypt(xm.sample(20, 1), ym.sample(20, 2))
    secrecy.build_typical_set(xm, ym, SPEC2, z[:8], 0.1, bracket_order=1)  # first use
    tracemalloc.start()
    try:
        built = secrecy.build_typical_set(xm, ym, SPEC2, z, 0.1)
        set_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        # every block is the same size, so two of the 16 show the writer's peak;
        # tracing all 2**20 rows' Python objects would take seconds
        _, blocks = inference_module._posterior_blocks(xm, ym, SPEC2, z)
        with open(tmp_path / "posterior.csv", "w") as fh:
            inference_module._write_posterior(fh, 2, 20, itertools.islice(blocks, 2))
        csv_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built.member_count > 0
    assert set_peak <= 4 << 20
    assert csv_peak <= 4 << 20
    with open(tmp_path / "posterior.csv") as fh:
        assert sum(1 for _ in fh) == 1 + 2 * 2**16


@pytest.mark.parametrize("size", ["one", "period", "uneven", "default"])
def test_block_boundaries_change_no_value(size, monkeypatch):
    # an order-3 plaintext with a zero (-inf entries) and an order-1 key; 2**17
    # words split into 2**10 left words and rows of 2**7 right words.  A block
    # holds one left word at the least, one period of the 2**3 contexts, 384
    # left words (so the last block holds 256), or the default 2**16 words
    xm = sources.SourceModel(2, 3, [[0.7, 0.3], [0.4, 0.6], [1.0, 0.0], [0.5, 0.5],
                                    [0.2, 0.8], [0.9, 0.1], [0.6, 0.4], [0.35, 0.65]])
    ym = sources.SourceModel(2, 1, [[0.6, 0.4], [0.3, 0.7]])
    z = SPEC2.encrypt(xm.sample(17, 4), ym.sample(17, 5))
    with monkeypatch.context() as patch:
        patch.setattr(inference_module, "_BLOCK_WORDS", sources.DEFAULT_WORD_CAP)
        ((_, whole),) = inference_module._joint_blocks(xm, ym, SPEC2, z)
        reference = secrecy.build_typical_set(xm, ym, SPEC2, z, 0.2, 0.8)
    width = 2 ** (17 - inference_module._split(2, 3, 17))
    words = {"one": 1, "period": 2**3 * width, "uneven": 3 * 2**14,
             "default": inference_module._BLOCK_WORDS}[size]
    monkeypatch.setattr(inference_module, "_BLOCK_WORDS", words)
    blocks = list(inference_module._joint_blocks(xm, ym, SPEC2, z))
    sizes = [block.size for _, block in blocks]
    assert [start for start, _ in blocks] == np.cumsum([0] + sizes[:-1]).tolist()
    assert max(sizes) <= max(words, width) and sum(sizes) == 2**17
    assert len(blocks) == -(-2**10 // max(1, words // width))
    assert np.array_equal(np.concatenate([block for _, block in blocks]), whole)
    assert np.isneginf(whole).any()
    built = secrecy.build_typical_set(xm, ym, SPEC2, z, 0.2, 0.8)
    assert built.member_count == reference.member_count > 1
    assert built.spread == reference.spread
    assert abs(built.mass - reference.mass) <= 1e-15  # summed block by block


def test_product_chain_dense_and_csr_operators_identical(monkeypatch):
    rng = np.random.default_rng(8)
    # order-0 pairs put several (a, b) contributions on one operator entry
    for n, kx, ky in ((2, 2, 1), (3, 1, 1), (3, 0, 0), (4, 0, 0), (4, 1, 0)):
        xm, ym = random_model(rng, n, kx), random_model(rng, n, ky)
        spec = cipher.additive_cipher(n)
        dense = inference._ProductChain(xm, ym, spec)
        with monkeypatch.context() as patch:
            patch.setattr(inference_module, "_CELL", 0)
            csr = inference._ProductChain(xm, ym, spec)
        assert dense.dense and not csr.dense
        for v in range(n):
            assert np.array_equal(csr.A[v].toarray(), dense.A[v])


def latin_square_cipher(rng, n):
    """The cipher c(a, b) = p[(q[a] + b) mod n] for random permutations p, q."""
    p, q = rng.permutation(n), rng.permutation(n)
    return cipher.CipherSpec(n, p[(q[:, None] + np.arange(n)[None, :]) % n])


@st.composite
def split_cases(draw):
    """A pair (n <= 3, orders <= 3, zeros allowed), a key-recoverable cipher,
    a sampled ciphertext of up to 10 symbols (6 for n = 3) and a split point:
    h = t when t <= K, else any h >= 1 in [K, t]."""
    n = draw(st.integers(2, 3))
    xm = draw(models_with_zeros(n, draw(st.integers(0, 3))))
    ym = draw(models_with_zeros(n, draw(st.integers(0, 3))))
    seed = draw(st.integers(0, 2**16))
    spec = (cipher.additive_cipher(n) if draw(st.booleans())
            else latin_square_cipher(np.random.default_rng(seed), n))
    t = draw(st.integers(1, 10 if n == 2 else 6))
    k = max(xm.order, ym.order)
    h = t if t <= k else draw(st.integers(max(k, 1), t))
    z = spec.encrypt(xm.sample(t, (seed, 0)), ym.sample(t, (seed, 1)))
    return xm, ym, spec, z, h


@given(split_cases(), st.floats(0.05, 1.5), st.floats(-0.45, 0.45),
       st.integers(0, 2**16))
def test_typical_set_split_matches_the_enumeration(case, epsilon, offset, pick):
    # L + R sums in another order than the enumeration, so mass and spread
    # agree to rounding; a prefix-sum difference is exact only to the ulp of
    # its row's total.  The count is exact unless a word lies within rounding
    # of a band end, which no drawn band has.
    xm, ym, spec, z, h = case
    t = z.size
    joint = inference.joint_log2_table(xm, ym, spec, z)
    rates = -(joint[np.isfinite(joint)] - inference.log_marginal_forward(xm, ym, spec, z)) / t
    h_ref = float(rates[pick % rates.size] + offset * epsilon)
    assume(np.all(np.abs(np.abs(rates - h_ref) - epsilon / 2) > 1e-9))
    count, mass, spread, _ = oracles.typical_set_by_enumeration(
        xm, ym, spec, z, epsilon, h_ref)
    split, lengths = inference_module._split, []

    def at_h(n, k, length):  # the left half's own split is left as it is
        lengths.append(length)
        return h if length == t else split(n, k, length)

    with mock.patch.object(secrecy, "_split", at_h):
        built = secrecy.build_typical_set(xm, ym, spec, z, epsilon, h_ref)
    assert lengths[0] == t
    assert built.member_count == count >= 1
    assert abs(built.mass - min(mass, 1.0)) <= 1e-12
    assert abs(built.spread - spread) <= 1e-12


IDENTITY2 = cipher.CipherSpec(2, [[0, 0], [1, 1]])


def test_bracket_runs_under_a_cap_that_stops_the_forward_factor_table(monkeypatch):
    # the key drives the forward, and the order-3 plaintext weighs it through a
    # (2**4, 2**4) factor table; a bracket word needs only 2*2*8 multiply-adds
    xm = sources.SourceModel(2, 3, np.full((8, 2), 0.5))
    monkeypatch.setattr(sources, "DEFAULT_WORD_CAP", 255)
    bracket = inference.hz_bracket(xm, BIASED, IDENTITY2, 4)  # z = x, uniform
    assert abs(bracket.lower - 1.0) <= 1e-12 and abs(bracket.upper - 1.0) <= 1e-12
    with pytest.raises(EnumerationCapError, match="factor table"):
        inference.log_marginal_forward(xm, BIASED, IDENTITY2, [0, 1, 1, 0, 1])


@pytest.mark.parametrize("spec", [
    cipher.additive_cipher(3),
    latin_square_cipher(np.random.default_rng(12), 3),
    IDENTITY2,
], ids=["additive", "latin", "identity"])
def test_product_chain_operators_match_oracle(spec, monkeypatch):
    rng = np.random.default_rng(12)
    n = spec.alphabet_size
    for kx, ky in itertools.product(range(3), repeat=2):
        xm, ym = random_model(rng, n, kx), random_model(rng, n, ky)
        expected = np.array(oracles.product_operators(xm, ym, spec))
        dense = inference._ProductChain(xm, ym, spec)
        with monkeypatch.context() as patch:
            patch.setattr(inference_module, "_CELL", 0)
            csr = inference._ProductChain(xm, ym, spec)
        assert dense.dense and not csr.dense
        assert np.abs(dense.A - expected).max() <= 1e-15
        for v in range(n):
            assert np.abs(csr.A[v].toarray() - expected[v]).max() <= 1e-15


def _operator_bytes(chain) -> int:
    if chain.dense:
        return chain.A.nbytes
    return sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in chain.A)


@pytest.mark.parametrize("n, cell", [(128, 0), (64, None)], ids=["csr", "dense"])
def test_product_chain_build_peaks_near_operator_bytes(n, cell, monkeypatch):
    # an order-1 plaintext against an i.i.d. key: S = n product states
    xm = random_model(np.random.default_rng(n), n, 1)
    ym, spec = sources.make_uniform(n), cipher.additive_cipher(n)
    if cell is not None:
        monkeypatch.setattr(inference_module, "_CELL", cell)
    tracemalloc.start()
    try:
        chain = inference._ProductChain(xm, ym, spec)
        constructed = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        chain.A  # the operators are built on first use
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chain.dense == (cell is None)
    assert constructed < 1 << 20
    assert peak <= 1.5 * _operator_bytes(chain)


@pytest.mark.parametrize("cell", [0, None], ids=["csr", "dense"])
def test_forward_builds_no_operators(cell, monkeypatch):
    # order-1 n=128 plaintext against an i.i.d. key: S = 128, 2**21 operator entries
    n = 128
    xm = random_model(np.random.default_rng(n), n, 1)
    ym, spec = sources.make_uniform(n), cipher.additive_cipher(n)
    if cell is not None:
        monkeypatch.setattr(inference_module, "_CELL", cell)
    z = spec.encrypt(xm.sample(60, np.random.default_rng(1)),
                     ym.sample(60, np.random.default_rng(2)))
    tracemalloc.start()
    try:
        inference.log_marginal_forward(xm, ym, spec, z)
        forward_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        secrecy.concentration_experiment(xm, ym, spec, [20, 40], 16, 0.1, 0.1, 3,
                                         h_ref=1.0)
        experiment_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    operators = _operator_bytes(inference._ProductChain(xm, ym, spec))
    assert operators >= 16 << 20
    assert forward_peak < operators / 8
    assert experiment_peak < operators / 8
