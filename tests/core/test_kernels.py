"""Tests for the kernel providers (stored ROM and Algorithm 2 generator)."""

import pytest

from repro.coding.registry import make_encoder
from repro.core.config import EncodeRegion, VCCConfig
from repro.core.kernels import GeneratedKernelProvider, StoredKernelProvider
from repro.errors import ConfigurationError
from repro.utils.bitops import interleave_planes, split_planes


class TestStoredKernels:
    def test_count_and_width(self):
        provider = StoredKernelProvider(16, 8, seed=1)
        kernels = provider.kernels_for(0)
        assert len(kernels) == 8
        assert all(0 <= k < (1 << 16) for k in kernels)

    def test_independent_of_data(self):
        provider = StoredKernelProvider(16, 8, seed=1)
        assert provider.kernels_for(0) == provider.kernels_for(0xDEADBEEF)

    def test_deterministic_per_seed(self):
        assert StoredKernelProvider(8, 4, seed=2).kernels == StoredKernelProvider(8, 4, seed=2).kernels

    def test_different_seeds_differ(self):
        assert StoredKernelProvider(16, 8, seed=1).kernels != StoredKernelProvider(16, 8, seed=2).kernels

    def test_kernels_distinct_and_not_trivial(self):
        provider = StoredKernelProvider(16, 16, seed=3)
        kernels = provider.kernels_for(0)
        assert len(set(kernels)) == 16
        assert 0 not in kernels
        assert (1 << 16) - 1 not in kernels

    def test_no_complementary_pairs(self):
        provider = StoredKernelProvider(8, 8, seed=4)
        kernels = set(provider.kernels_for(0))
        for kernel in kernels:
            assert (kernel ^ 0xFF) not in kernels or kernel == kernel ^ 0xFF

    def test_explicit_kernels(self):
        provider = StoredKernelProvider(4, 2, kernels=[0b1010, 0b0110])
        assert provider.kernels_for(123) == [0b1010, 0b0110]

    def test_explicit_kernels_validated(self):
        with pytest.raises(ConfigurationError):
            StoredKernelProvider(4, 2, kernels=[0b1010])
        with pytest.raises(ConfigurationError):
            StoredKernelProvider(4, 2, kernels=[0b1010, 1 << 5])

    def test_is_stored_flag(self):
        assert StoredKernelProvider(8, 2, seed=0).is_stored

    @pytest.mark.parametrize(
        "kernel_bits,largest,include_biased",
        [(2, 1, False), (3, 3, False), (3, 4, True), (4, 7, False)],
    )
    def test_rom_holds_one_kernel_per_complementary_pair(
        self, kernel_bits, largest, include_biased
    ):
        # 0, all-ones and complements are never drawn, so a fuller ROM
        # would loop forever; it is refused before the draw instead.
        full = StoredKernelProvider(kernel_bits, largest, seed=5, include_biased=include_biased)
        assert len(set(full.kernels)) == largest
        with pytest.raises(ConfigurationError, match=f"at most {largest} kernels"):
            StoredKernelProvider(kernel_bits, largest + 1, seed=5, include_biased=include_biased)

    def test_vcc_stored_refuses_more_kernels_than_the_rom_holds(self):
        # 16-bit words, 4 partitions: 4-bit kernels, at most 7 in a ROM.
        assert make_encoder("vcc-stored", word_bits=16, num_cosets=64).config.num_kernels == 4
        with pytest.raises(ConfigurationError, match="at most 7 kernels"):
            make_encoder("vcc-stored", word_bits=16, num_cosets=128)


class TestGeneratedKernels:
    def _config(self, num_kernels=16):
        return VCCConfig(
            word_bits=64,
            kernel_bits=8,
            num_kernels=num_kernels,
            encode_region=EncodeRegion.RIGHT_PLANE,
            stored_kernels=False,
        )

    def test_requires_right_plane(self):
        config = VCCConfig(
            word_bits=64, kernel_bits=16, num_kernels=4, stored_kernels=True,
            encode_region=EncodeRegion.FULL_WORD,
        )
        with pytest.raises(ConfigurationError):
            GeneratedKernelProvider(config)

    def test_kernel_count_and_width(self):
        provider = GeneratedKernelProvider(self._config())
        kernels = provider.kernels_for(0x0123456789ABCDEF)
        assert len(kernels) == 16
        assert all(0 <= k < (1 << 8) for k in kernels)

    def test_derived_from_left_plane_only(self):
        provider = GeneratedKernelProvider(self._config())
        word = 0x0123456789ABCDEF
        left, right = split_planes(word, 64)
        # Change only the right plane: kernels must not change.
        modified = interleave_planes(left, right ^ 0xFFFF, 64)
        assert provider.kernels_for(word) == provider.kernels_for(modified)

    def test_changes_with_left_plane(self):
        provider = GeneratedKernelProvider(self._config())
        word = 0x0123456789ABCDEF
        left, right = split_planes(word, 64)
        modified = interleave_planes(left ^ 0xFFFF, right, 64)
        assert provider.kernels_for(word) != provider.kernels_for(modified)

    def test_not_stored(self):
        assert not GeneratedKernelProvider(self._config()).is_stored

    def test_small_kernel_count(self):
        provider = GeneratedKernelProvider(self._config(num_kernels=2))
        kernels = provider.kernels_for(0xFEDCBA9876543210)
        assert len(kernels) == 2

    def test_rejects_oversized_word(self):
        provider = GeneratedKernelProvider(self._config())
        with pytest.raises(ConfigurationError):
            provider.kernels_for(1 << 64)

    def test_deterministic(self):
        provider = GeneratedKernelProvider(self._config())
        word = 0xA5A5A5A5A5A5A5A5
        assert provider.kernels_for(word) == provider.kernels_for(word)
