import numpy as np
import pytest

import oracles
from runkey import words


def test_as_word_validates_range():
    assert words.as_word([0, 1, 2], 3).tolist() == [0, 1, 2]
    with pytest.raises(ValueError):
        words.as_word([0, 3], 3)
    with pytest.raises(ValueError):
        words.as_word([-1], 2)
    with pytest.raises(ValueError):
        words.as_word([], 2)


def test_index_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        t = int(rng.integers(1, 9))
        word = rng.integers(0, n, t)
        idx = words.word_to_index(word, n)
        assert np.array_equal(words.index_to_word(idx, n, t), word)


def test_index_ordering_first_symbol_most_significant():
    assert words.word_to_index([1, 0, 0], 2) == 4
    assert words.word_to_index([0, 0, 1], 2) == 1


def test_text_round_trip_small_alphabet():
    word = np.array([0, 1, 25])
    text = words.word_to_text(word, 26)
    assert text == "01p"
    assert np.array_equal(words.text_to_word(text, 26), word)
    with pytest.raises(ValueError):
        words.text_to_word("0!1", 2)


def test_text_round_trip_large_alphabet():
    word = np.array([0, 200, 41])
    text = words.word_to_text(word, 256)
    assert text == "0,200,41"
    assert np.array_equal(words.text_to_word(text, 256), word)


@pytest.mark.parametrize("text", ["1,,2", ",1,2", "1,2,"])
def test_text_with_an_empty_field_is_rejected(text):
    # as a stray character is for n <= 36
    with pytest.raises(ValueError, match="empty symbol field"):
        words.text_to_word(text, 40)


def test_bytes_round_trip():
    data = bytes(range(20))
    sym = words.bytes_to_symbols(data, 256)
    assert words.symbols_to_bytes(sym, 256) == data


def test_bit_expansion_msb_first():
    sym = words.bytes_to_symbols(b"\x80\x01", 2, bits=True)
    assert sym.tolist() == [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]
    assert words.symbols_to_bytes(sym, 2, bits=True) == b"\x80\x01"
    with pytest.raises(ValueError):
        words.bytes_to_symbols(b"\x00", 3, bits=True)
    with pytest.raises(ValueError):
        words.symbols_to_bytes([1, 0, 1], 2, bits=True)


@pytest.mark.parametrize("n, t", [(2, 6), (10, 4), (26, 2), (36, 3), (37, 2), (256, 2)])
def test_vectorized_codec_matches_the_scalar_pair(n, t):
    scalar = [words.index_to_word(u, n, t) for u in range(n**t)]
    expected = [oracles.word_text(word.tolist(), n) for word in scalar]
    assert [words.word_to_text(word, n) for word in scalar] == expected
    assert np.array_equal(words.digits(n, t), scalar)
    # unsorted, with repeats and both ends of the range
    index = np.random.default_rng(n).integers(0, n**t, 64)
    index = np.concatenate([index, [n**t - 1, 0], index[:8], [0]])
    assert np.array_equal(words.digits(n, t, index), [scalar[u] for u in index])
    for chosen in (index, np.arange(n**t)):
        rows = words.text_bytes(n, t, chosen)
        assert [bytes(row[row != 0]).decode("ascii") for row in rows] == [expected[u] for u in chosen]


@pytest.mark.parametrize("n", [26, 40, 256])
def test_word_to_text_matches_the_oracle_on_long_words(n):
    word = np.random.default_rng(n).integers(0, n, 5000)
    word[:3] = [0, n - 1, 0]
    assert words.word_to_text(word, n) == oracles.word_text(word.tolist(), n)
    assert np.array_equal(words.text_to_word(words.word_to_text(word, n), n), word)
