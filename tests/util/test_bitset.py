"""Tests for packed-bitset kernels (BFS Sharing substrate)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.util import bitset


def reference_pack_word(draws: np.ndarray) -> np.ndarray:
    """Shift-and-sum packing of a ``(rows, bits <= 64)`` boolean block.

    The original word packer, kept as the reference the ``np.packbits``
    packing is property-tested against: bit ``k`` of row ``i`` is
    ``draws[i, k]``, built as a sum of ``2^k`` over set positions.
    """
    shifts = np.arange(draws.shape[1], dtype=np.uint64)
    weights = (np.uint64(1) << shifts).astype(np.uint64)
    return (draws.astype(np.uint64) * weights).sum(axis=1, dtype=np.uint64)


def reference_pack_bool_matrix(masks: np.ndarray) -> np.ndarray:
    bit_count, rows = masks.shape
    matrix = np.zeros((rows, bitset.packed_words(bit_count)), dtype=np.uint64)
    for word in range(matrix.shape[1]):
        block = masks[word * bitset.WORD_BITS : (word + 1) * bitset.WORD_BITS]
        matrix[:, word] = reference_pack_word(block.T)
    return matrix


def reference_sample_bit_matrix(probabilities, bit_count, rng):
    rows = probabilities.shape[0]
    matrix = np.zeros((rows, bitset.packed_words(bit_count)), dtype=np.uint64)
    for word in range(matrix.shape[1]):
        bits_here = min(bitset.WORD_BITS, bit_count - word * bitset.WORD_BITS)
        draws = rng.random((rows, bits_here)) < probabilities[:, None]
        matrix[:, word] = reference_pack_word(draws)
    return matrix


#: Word-boundary bit counts every packing property must also hold at.
PACKING_EDGE_BITS = (0, 1, 7, 8, 63, 64, 65, 232, 256)


def with_packing_edges(test):
    for bits in PACKING_EDGE_BITS:
        test = example(bit_count=bits, rows=5, seed=bits)(test)
    return test


class TestPackedWords:
    @pytest.mark.parametrize(
        "bits,words", [(0, 0), (1, 1), (63, 1), (64, 1), (65, 2), (1500, 24)]
    )
    def test_values(self, bits, words):
        assert bitset.packed_words(bits) == words

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bitset.packed_words(-1)


class TestFullRow:
    @pytest.mark.parametrize("bits", [1, 7, 64, 65, 100, 128, 250])
    def test_popcount_equals_bits(self, bits):
        assert bitset.popcount(bitset.full_row(bits)) == bits

    def test_trailing_bits_are_zero(self):
        row = bitset.full_row(70)
        assert not bitset.get_bit(row, 70 % 64 + 64)


class TestGetSetBit:
    def test_roundtrip(self):
        row = np.zeros(2, dtype=np.uint64)
        for index in (0, 1, 63, 64, 127):
            assert not bitset.get_bit(row, index)
            bitset.set_bit(row, index)
            assert bitset.get_bit(row, index)
        assert bitset.popcount(row) == 5


class TestSampleBitMatrix:
    def test_shape(self):
        probs = np.full(10, 0.5)
        matrix = bitset.sample_bit_matrix(probs, 130, np.random.default_rng(0))
        assert matrix.shape == (10, 3)

    def test_probability_zero_and_one_edges(self):
        probs = np.array([1.0, 1e-9])
        matrix = bitset.sample_bit_matrix(probs, 256, np.random.default_rng(0))
        counts = bitset.popcount_rows(matrix)
        assert counts[0] == 256  # always-present edge
        assert counts[1] == 0  # essentially never present

    def test_bit_frequencies_match_probabilities(self):
        probs = np.array([0.1, 0.5, 0.9])
        bits = 20_000
        matrix = bitset.sample_bit_matrix(probs, bits, np.random.default_rng(7))
        frequencies = bitset.popcount_rows(matrix) / bits
        np.testing.assert_allclose(frequencies, probs, atol=0.02)

    def test_trailing_bits_unset(self):
        probs = np.full(4, 1.0)
        bits = 70
        matrix = bitset.sample_bit_matrix(probs, bits, np.random.default_rng(0))
        assert (bitset.popcount_rows(matrix) == bits).all()


class TestPopcountRows:
    def test_matches_python_bit_count(self):
        rng = np.random.default_rng(3)
        matrix = rng.integers(0, 2**63, size=(5, 4), dtype=np.uint64)
        expected = [
            sum(int(word).bit_count() for word in row) for row in matrix
        ]
        np.testing.assert_array_equal(bitset.popcount_rows(matrix), expected)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            bitset.popcount_rows(np.zeros(3, dtype=np.uint64))


class TestConcatenateRanges:
    def test_basic(self):
        starts = np.array([0, 5, 9])
        ends = np.array([3, 5, 12])
        np.testing.assert_array_equal(
            bitset.concatenate_ranges(starts, ends), [0, 1, 2, 9, 10, 11]
        )

    def test_all_empty(self):
        starts = np.array([4, 7])
        ends = np.array([4, 7])
        assert bitset.concatenate_ranges(starts, ends).size == 0

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=500),
                st.integers(min_value=0, max_value=20),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_naive_concatenation(self, segments):
        starts = np.array([s for s, _ in segments], dtype=np.int64)
        ends = starts + np.array([l for _, l in segments], dtype=np.int64)
        expected = np.concatenate(
            [np.arange(s, e) for s, e in zip(starts, ends)]
        ) if (ends > starts).any() else np.empty(0, dtype=np.int64)
        np.testing.assert_array_equal(
            bitset.concatenate_ranges(starts, ends), expected
        )


class TestPackBoolMatrix:
    def test_roundtrip_via_get_bit(self):
        rng = np.random.default_rng(0)
        masks = rng.random((70, 5)) < 0.4  # spans a word boundary
        packed = bitset.pack_bool_matrix(masks)
        assert packed.shape == (5, bitset.packed_words(70))
        for bit in range(70):
            for row in range(5):
                assert bitset.get_bit(packed[row], bit) == masks[bit, row]

    def test_matches_sample_bit_matrix_layout(self):
        # Packing externally-drawn booleans must land in the same layout
        # sample_bit_matrix produces, so the fixpoint kernel can consume it.
        rng = np.random.default_rng(1)
        probs = np.array([0.3, 0.8])
        sampled = bitset.sample_bit_matrix(probs, 64, np.random.default_rng(2))
        draws = np.empty((64, 2), dtype=bool)
        replay = np.random.default_rng(2)
        for word_bits in [replay.random((2, 64)) < probs[:, None]]:
            draws[:] = word_bits.T
        packed = bitset.pack_bool_matrix(draws)
        assert np.array_equal(packed, sampled)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            bitset.pack_bool_matrix(np.zeros(4, dtype=bool))


class TestPackingMatchesReference:
    """``np.packbits`` packing vs the shift-and-sum reference, bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @with_packing_edges
    @given(
        bit_count=st.integers(0, 200),
        rows=st.integers(0, 9),
        seed=st.integers(0, 2**16),
    )
    def test_pack_bool_matrix(self, bit_count, rows, seed):
        rng = np.random.default_rng(seed)
        masks = rng.random((bit_count, rows)) < rng.random()
        packed = bitset.pack_bool_matrix(masks)
        expected = reference_pack_bool_matrix(masks)
        assert packed.dtype == expected.dtype == np.uint64
        np.testing.assert_array_equal(packed, expected)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @with_packing_edges
    @given(
        bit_count=st.integers(0, 200),
        rows=st.integers(0, 9),
        seed=st.integers(0, 2**16),
    )
    def test_sample_bit_matrix(self, bit_count, rows, seed):
        probabilities = np.random.default_rng(seed).random(rows)
        sampled = bitset.sample_bit_matrix(
            probabilities, bit_count, np.random.default_rng(seed + 1)
        )
        expected = reference_sample_bit_matrix(
            probabilities, bit_count, np.random.default_rng(seed + 1)
        )
        assert sampled.dtype == expected.dtype == np.uint64
        np.testing.assert_array_equal(sampled, expected)


class TestPrefixMask:
    def test_counts_only_prefix_bits(self):
        mask = bitset.prefix_mask(70, 2)
        assert bitset.popcount(mask) == 70

    def test_zero_bits(self):
        assert bitset.popcount(bitset.prefix_mask(0, 3)) == 0

    def test_saturates_at_word_width(self):
        mask = bitset.prefix_mask(500, 2)
        assert bitset.popcount(mask) == 128

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bitset.prefix_mask(-1, 2)
