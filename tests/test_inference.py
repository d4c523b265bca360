import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
import runkey.inference as inference_module
from runkey import cipher, inference, secrecy, sources
from runkey.errors import (
    CertificationError,
    EnumerationCapError,
    NotErgodicError,
    StateCapError,
    UnsupportedCipherError,
)

SPEC2 = cipher.additive_cipher(2)
UNIFORM2 = sources.make_uniform(2)
BIASED = sources.make_bernoulli([0.49, 0.51])
MARKOV = sources.make_markov(2, 1, [[0.9, 0.1], [0.2, 0.8]])


def random_model(rng, n, k):
    rows = rng.dirichlet(np.ones(n), size=n**k)
    return sources.make_bernoulli(rows[0]) if k == 0 else sources.make_markov(n, k, rows)


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
    ident = cipher.CipherSpec(2, [[0, 0], [1, 1]], [[0, 0], [1, 1]])
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
        return sources.make_markov(n, order, rows)
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
    coder = np.repeat(np.arange(n)[:, None], n, axis=1)
    return cipher.CipherSpec(n, coder, coder)


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


def test_entry_cap_checked_before_the_build(monkeypatch):
    # n * n * S stored entries: 2 * 2 * 64 for two order-3 binary models
    xm = sources.make_markov(2, 3, np.full((8, 2), 0.5))
    monkeypatch.setattr(inference_module, "DEFAULT_ENTRY_CAP", 256)
    assert inference.log_marginal_forward(xm, xm, SPEC2, [0, 1]) == -2.0
    monkeypatch.setattr(inference_module, "DEFAULT_ENTRY_CAP", 255)
    with pytest.raises(StateCapError):
        inference.log_marginal_forward(xm, xm, SPEC2, [0, 1])
    monkeypatch.undo()
    # two order-1 byte models need 256 * 256 * 65,536 = 2**32 entries; the cap
    # must reject them before any operator memory is allocated
    byte = sources.make_markov(256, 1, np.full((256, 256), 1.0 / 256))
    spec = cipher.additive_cipher(256)
    tracemalloc.start()
    try:
        with pytest.raises(StateCapError):
            inference._ProductChain(byte, byte, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_forward_factor_table_checked_against_the_entry_cap(monkeypatch):
    # under the identity cipher the key drives and the order-3 plaintext weighs
    # it through a (2**4, 2**4) table; the product chain needs only 2*2*8 entries
    identity = cipher.CipherSpec(2, [[0, 0], [1, 1]], [[0, 0], [1, 1]])
    xm = sources.make_markov(2, 3, np.full((8, 2), 0.5))
    monkeypatch.setattr(inference_module, "DEFAULT_ENTRY_CAP", 256)
    z = [0, 1, 1, 0, 1]
    assert abs(inference.log_marginal_forward(xm, BIASED, identity, z) + 5.0) <= 1e-12
    monkeypatch.setattr(inference_module, "DEFAULT_ENTRY_CAP", 255)
    with pytest.raises(StateCapError):
        inference.log_marginal_forward(xm, BIASED, identity, z)


def test_entry_cap_admits_byte_pair_and_rejects_byte_contexts():
    # n=256 with S=256 product states (order 1 against i.i.d.) is exactly at
    # the cap; two order-1 byte models (S=65,536) would store 2**32 entries
    assert 256 * 256 * 256 <= inference.DEFAULT_ENTRY_CAP
    assert 256 * 256 * 65536 > inference.DEFAULT_ENTRY_CAP


# -- conditional entropies -----------------------------------------------------------


def test_hm_conditional_uniform_key_equals_plaintext_entropy():
    for m in range(5):
        lhs = inference.hm_conditional(MARKOV, UNIFORM2, SPEC2, m)
        assert abs(lhs - MARKOV.block_entropy(m)) <= 1e-12


def test_hm_conditional_deterministic_key_is_zero():
    zero_key = sources.make_bernoulli([1.0, 0.0])
    for m in range(4):
        assert abs(inference.hm_conditional(MARKOV, zero_key, SPEC2, m)) <= 1e-12


def test_hm_conditional_uniform_plaintext_biased_key():
    expected = oracles.binary_entropy(0.49)
    for m in range(5):
        value = inference.hm_conditional(UNIFORM2, BIASED, SPEC2, m)
        assert abs(value - expected) <= 1e-12


def test_joint_block_factorisation():
    # h_m(X, Z) enumerated over pairs equals h_m(X) + h_m(Y)
    for m in range(3):
        pair_value = oracles.hm_joint_pair_blocks(MARKOV, BIASED, 2, m)
        assert abs(pair_value - (MARKOV.block_entropy(m) + BIASED.block_entropy(m))) <= 1e-10


def test_z_block_entropies_match_pair_enumeration():
    for m in range(3):
        totals = inference.z_block_entropies(MARKOV, BIASED, SPEC2, m + 1)
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
    for _ in range(12):
        n = int(rng.choice([2, 3]))
        xm = random_model(rng, n, int(rng.integers(0, 2)))
        ym = random_model(rng, n, int(rng.integers(0, 2)))
        spec = cipher.additive_cipher(n)
        bracket = inference.hxz_bracket(xm, ym, spec, 6)
        bound = xm.entropy_rate() + ym.entropy_rate() - math.log2(n)
        assert bracket.lower >= bound - 1e-9


def test_bracket_validation():
    with pytest.raises(CertificationError):
        inference.EntropyBracket(lower=0.9, upper=0.1, order_used=0)
    collapsed = inference.EntropyBracket(lower=0.5 + 1e-12, upper=0.5, order_used=0)
    assert collapsed.lower == collapsed.upper == 0.5


def test_bracket_export_record():
    bracket = inference.hz_bracket(MARKOV, BIASED, SPEC2, 2)
    record = bracket.as_dict()
    assert set(record) == {"m", "lower", "upper"}
    assert record["m"] == 2


@st.composite
def sharp_models(draw, n, order):
    """An ergodic order-k model whose rows may be near-deterministic or hold zeros.

    The small weight is 0.01: much smaller ones make the stationary law's
    power iteration run for seconds.
    """
    cells = n ** (order + 1)
    weights = np.array(
        draw(st.lists(st.sampled_from([0.0, 0.01, 1.0, 2.0, 4.0]),
                      min_size=cells, max_size=cells))
    ).reshape(n**order, n)
    weights[weights.sum(axis=1) == 0.0] = 1.0
    rows = weights / weights.sum(axis=1, keepdims=True)
    try:
        if order == 0:
            return sources.make_bernoulli(rows[0])
        return sources.make_markov(n, order, rows)
    except NotErgodicError:
        assume(False)


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
    totals = inference.z_block_entropies(xm, ym, spec, length)
    assert np.abs(totals - plain).max() <= 1e-12
    m = length - 1
    bracket = inference.hz_bracket(xm, ym, spec, m)
    assert abs(bracket.upper - (plain[m + 1] - plain[m])) <= 1e-12
    assert abs(bracket.lower - (conditional[m + 1] - conditional[m])) <= 1e-12


# -- chunked enumeration determinism --------------------------------------------------


def test_chunked_enumeration_bit_identical(monkeypatch):
    xm = sources.make_markov(2, 2, np.array([[0.7, 0.3], [0.4, 0.6], [0.2, 0.8], [0.5, 0.5]]))
    ym = sources.make_markov(2, 1, [[0.6, 0.4], [0.3, 0.7]])
    z = ym.sample(14, 3)
    reference = inference.joint_log2_table(xm, ym, SPEC2, z)
    reference_totals = inference.z_block_entropies(xm, ym, SPEC2, 8)
    reference_bracket = inference.hz_bracket(xm, ym, SPEC2, 7)
    monkeypatch.setattr(inference_module, "_CELL", 64)
    monkeypatch.setattr(inference_module, "_ENUM_CELL", 1)  # one row per block
    assert np.array_equal(inference.joint_log2_table(xm, ym, SPEC2, z), reference)
    assert np.array_equal(inference.z_block_entropies(xm, ym, SPEC2, 8), reference_totals)
    assert inference.hz_bracket(xm, ym, SPEC2, 7) == reference_bracket


def test_enumeration_blocks_bound_the_working_set(monkeypatch):
    # the pair of the certify benchmark workload at seed 0: S = 32 * 4 = 128
    rng = np.random.default_rng(np.random.SeedSequence([0, *b"certify"]))
    px, py = rng.uniform(0.05, 0.95, size=32), rng.uniform(0.3, 0.7, size=4)
    xm = sources.make_markov(2, 5, np.column_stack([1.0 - px, px]))
    ym = sources.make_markov(2, 2, np.column_stack([1.0 - py, py]))
    inference.hz_bracket(xm, ym, SPEC2, 1)  # first-use allocations stay out of the peak
    tracemalloc.start()
    try:
        reference = inference.hz_bracket(xm, ym, SPEC2, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20
    # blocks of 8 rows (n * n**K = 64 cells a row) give the same ends
    monkeypatch.setattr(inference_module, "_ENUM_CELL", 2**9)
    blocked = inference.hz_bracket(xm, ym, SPEC2, 10)
    assert abs(blocked.lower - reference.lower) <= 1e-12
    assert abs(blocked.upper - reference.upper) <= 1e-12


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
    coder = p[(q[:, None] + np.arange(n)[None, :]) % n]
    decoder = np.empty_like(coder)
    for b in range(n):
        decoder[coder[:, b], b] = np.arange(n)
    return cipher.CipherSpec(n, coder, decoder)


IDENTITY2 = cipher.CipherSpec(2, [[0, 0], [1, 1]], [[0, 0], [1, 1]])


def test_bracket_factor_table_checked_against_the_entry_cap(monkeypatch):
    # as in the forward: the key drives and the order-3 plaintext weighs it
    # through a (2**4, 2**4) table; the product chain needs only 2*2*8 entries
    xm = sources.make_markov(2, 3, np.full((8, 2), 0.5))
    monkeypatch.setattr(inference_module, "DEFAULT_ENTRY_CAP", 256)
    bracket = inference.hz_bracket(xm, BIASED, IDENTITY2, 4)  # z = x, uniform
    assert abs(bracket.lower - 1.0) <= 1e-12 and abs(bracket.upper - 1.0) <= 1e-12
    monkeypatch.setattr(inference_module, "DEFAULT_ENTRY_CAP", 255)
    with pytest.raises(StateCapError, match="factor table"):
        inference.hz_bracket(xm, BIASED, IDENTITY2, 4)


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


def test_log2sumexp():
    values = np.log2(np.array([0.25, 0.25, 0.5]))
    assert abs(inference.log2sumexp(values)) <= 1e-15
    assert inference.log2sumexp(np.array([-np.inf, -np.inf])) == -np.inf
