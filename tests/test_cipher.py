import numpy as np
import pytest
from scipy import stats

import oracles
from runkey import cipher, sources
from test_inference import latin_square_cipher


@pytest.mark.parametrize("n", [2, 3, 26, 256])
def test_round_trip_exhaustive(n):
    spec = cipher.additive_cipher(n)
    xs = np.arange(n)[:, None]
    ys = np.arange(n)[None, :]
    assert np.array_equal(spec.decoder[spec.coder[xs, ys], ys], np.broadcast_to(xs, (n, n)))


@pytest.mark.parametrize("n", [2, 3, 26, 256])
def test_per_key_bijectivity(n):
    spec = cipher.additive_cipher(n)
    for y in range(n):
        assert sorted(spec.coder[:, y].tolist()) == list(range(n))


def test_binary_case_is_xor():
    spec = cipher.additive_cipher(2)
    assert spec.coder.tolist() == [[0, 1], [1, 0]]
    assert spec.decoder.tolist() == [[0, 1], [1, 0]]
    assert spec.encrypt([1], [1]).tolist() == [0]


def test_mod26_example():
    assert cipher.additive_cipher(26).encrypt([3], [25]).tolist() == [2]


def test_encrypt_examples():
    spec = cipher.additive_cipher(2)
    assert spec.encrypt([0, 1, 1, 0], [0, 0, 0, 0]).tolist() == [0, 1, 1, 0]
    assert spec.encrypt([0, 1, 1, 0], [1, 1, 1, 1]).tolist() == [1, 0, 0, 1]


def test_round_trip_random_long_words():
    spec = cipher.additive_cipher(26)
    rng = np.random.default_rng(0)
    x = rng.integers(0, 26, 1000)
    y = rng.integers(0, 26, 1000)
    assert np.array_equal(spec.decrypt(spec.encrypt(x, y), y), x)


def test_length_mismatch_rejected():
    spec = cipher.additive_cipher(2)
    with pytest.raises(ValueError):
        spec.encrypt([0, 1], [0])
    with pytest.raises(ValueError):
        spec.decrypt([0], [0, 1])


def test_symbol_range_rejected():
    spec = cipher.additive_cipher(2)
    with pytest.raises(ValueError):
        spec.encrypt([0, 2], [0, 0])


def test_uniform_key_output_uniformity():
    # the mechanism behind perfect secrecy: uniform key, uniform ciphertext
    xm = sources.make_bernoulli([0.8, 0.15, 0.05])
    spec = cipher.additive_cipher(3)
    x = xm.sample(100000, 99)
    y = sources.make_uniform(3).sample(100000, 100)
    counts = np.bincount(spec.encrypt(x, y), minlength=3)
    expected = [len(x) / 3.0] * 3
    assert oracles.chi_square_stat(counts.tolist(), expected) < stats.chi2.ppf(
        1.0 - 1e-3, df=2
    )


def test_arbitrary_valid_table_accepted():
    # a substitution applied after XOR is still per-key bijective
    perm = np.array([1, 0])
    coder = perm[(np.arange(2)[:, None] + np.arange(2)[None, :]) % 2]
    decoder = np.empty((2, 2), dtype=int)
    for z in range(2):
        for y in range(2):
            decoder[z, y] = next(x for x in range(2) if coder[x, y] == z)
    spec = cipher.CipherSpec(2, coder, decoder)
    assert spec.key_table is not None
    x = np.array([0, 1, 1, 0])
    y = np.array([1, 1, 0, 0])
    assert np.array_equal(spec.decrypt(spec.encrypt(x, y), y), x)


def test_invalid_tables_rejected():
    with pytest.raises(ValueError):
        # coder ignores the plaintext: not per-key bijective
        cipher.CipherSpec(2, [[0, 0], [0, 0]], [[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        # decoder does not invert coder
        cipher.CipherSpec(2, [[0, 1], [1, 0]], [[0, 0], [1, 1]])
    with pytest.raises(ValueError):
        cipher.CipherSpec(2, [[0, 2], [1, 0]], [[0, 1], [1, 0]])


def test_identity_cipher_has_no_key_table():
    # c(x, y) = x is valid but the key cannot be recovered from (x, z)
    ident = cipher.CipherSpec(2, [[0, 0], [1, 1]], [[0, 0], [1, 1]])
    assert ident.key_table is None


@pytest.mark.parametrize("spec", [
    cipher.additive_cipher(26),
    latin_square_cipher(np.random.default_rng(5), 7),
], ids=["additive", "latin"])
def test_key_table_gives_the_key_of_every_pair(spec):
    n = spec.alphabet_size
    for x in range(n):
        assert sorted(spec.key_table[x].tolist()) == list(range(n))
        for z in range(n):
            assert spec.coder[x, spec.key_table[x, z]] == z


def _brute_key_table(coder):
    """key_table by search: the one y with c(x, y) = z, or None for any pair
    reached through several keys."""
    n = coder.shape[0]
    table = np.empty((n, n), dtype=np.int64)
    for x in range(n):
        for z in range(n):
            keys = [y for y in range(n) if coder[x, y] == z]
            if len(keys) != 1:
                return None
            table[x, z] = keys[0]
    return table


def _spec_of(coder):
    coder = np.asarray(coder)
    n = coder.shape[0]
    decoder = np.empty_like(coder)
    for y in range(n):
        decoder[coder[:, y], y] = np.arange(n)
    return cipher.CipherSpec(n, coder, decoder)


@pytest.mark.parametrize("seed", range(6))
def test_key_table_matches_the_brute_force_table(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    spec = latin_square_cipher(rng, n)
    # permuting the key symbols keeps every row c(x, .) a permutation
    shuffled = _spec_of(spec.coder[:, rng.permutation(n)])
    for each in (spec, shuffled):
        assert np.array_equal(each.key_table, _brute_key_table(each.coder))
        assert not each.key_table.flags.writeable


def test_key_table_is_none_when_a_later_row_repeats_a_symbol():
    # every column is a bijection (a valid cipher) and row 0 is a permutation,
    # but rows 1 and 2 reach a ciphertext symbol through two keys
    spec = _spec_of([[0, 1, 2], [1, 0, 1], [2, 2, 0]])
    assert _brute_key_table(spec.coder) is None
    assert spec.key_table is None
