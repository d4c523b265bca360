import numpy as np
import pytest

from runkey import cipher
from test_inference import latin_square_cipher

IDENTITY3 = cipher.CipherSpec(3, np.repeat(np.arange(3)[:, None], 3, axis=1))


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
    # the mechanism behind perfect secrecy: under a uniform key the exact law
    # P(z | x) = #{y : c(x, y) = z} / n is uniform for every x, so for every
    # plaintext law, iff every row y -> c(x, y) is a permutation
    for spec, uniform in [(cipher.additive_cipher(3), True),
                          (latin_square_cipher(np.random.default_rng(1), 5), True),
                          (IDENTITY3, False)]:
        n = spec.alphabet_size
        x, y = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
        law = np.bincount(x * n + spec.encrypt(x, y), minlength=n * n).reshape(n, n) / n
        assert np.array_equal(law, np.full((n, n), 1.0 / n)) == uniform
        assert (spec.key_table is not None) == uniform
    # the identity passes every plaintext through: z = x
    assert IDENTITY3.encrypt([2, 0, 1], [0, 1, 2]).tolist() == [2, 0, 1]


def test_arbitrary_valid_table_accepted():
    # a substitution applied after XOR is still per-key bijective
    coder = np.array([1, 0])[(np.arange(2)[:, None] + np.arange(2)[None, :]) % 2]
    spec = cipher.CipherSpec(2, coder)
    assert spec.key_table is not None
    assert coder.flags.writeable and not spec.coder.flags.writeable
    x = np.array([0, 1, 1, 0])
    y = np.array([1, 1, 0, 0])
    assert np.array_equal(spec.decrypt(spec.encrypt(x, y), y), x)


def test_invalid_tables_rejected():
    for coder in ([[0, 0], [0, 0]],  # ignores the plaintext: not per-key bijective
                  [[0, 1], [0, 1]],  # a repeated symbol in column 0
                  [[0, 2], [1, 0]],  # an out-of-range symbol
                  [[0, 1], [-1, 0]],
                  [[0, 1, 2], [1, 2, 0]]):  # not (n, n)
        with pytest.raises(ValueError, match="coder"):
            cipher.CipherSpec(2, coder)


def test_identity_cipher_has_no_key_table():
    # c(x, y) = x is valid but the key cannot be recovered from (x, z)
    ident = cipher.CipherSpec(2, [[0, 0], [1, 1]])
    assert ident.key_table is None
    assert ident.decoder.tolist() == [[0, 0], [1, 1]]


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


def _brute_decoder(coder):
    """The decoder by search: the one x with c(x, y) = z."""
    n = coder.shape[0]
    return np.array([[next(x for x in range(n) if coder[x, y] == z) for y in range(n)]
                     for z in range(n)])


@pytest.mark.parametrize("seed", range(6))
def test_key_table_matches_the_brute_force_table(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    spec = latin_square_cipher(rng, n)
    # permuting the key symbols keeps every row c(x, .) a permutation
    shuffled = cipher.CipherSpec(n, spec.coder[:, rng.permutation(n)])
    for each in (spec, shuffled):
        assert np.array_equal(each.key_table, _brute_key_table(each.coder))
        assert np.array_equal(each.decoder, _brute_decoder(each.coder))
        assert not each.key_table.flags.writeable and not each.decoder.flags.writeable


def test_key_table_is_none_when_a_later_row_repeats_a_symbol():
    # every column is a bijection (a valid cipher) and row 0 is a permutation,
    # but rows 1 and 2 reach a ciphertext symbol through two keys
    spec = cipher.CipherSpec(3, [[0, 1, 2], [1, 0, 1], [2, 2, 0]])
    assert _brute_key_table(spec.coder) is None
    assert spec.key_table is None
