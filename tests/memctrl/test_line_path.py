"""Controller tests specific to the line-granularity write/read path."""

import numpy as np
import pytest

from repro.coding.base import Encoder
from repro.coding.cost import BitChangeCost, saw_then_energy
from repro.coding.registry import make_encoder
from repro.errors import ConfigurationError
from repro.memctrl.config import ControllerConfig
from repro.memctrl.controller import MemoryController
from repro.pcm.array import PCMArray
from repro.pcm.cell import CellTechnology
from repro.pcm.faultmap import FaultMap


def _build(encoder, rows=8, encrypt=False, fault_map=None):
    array = PCMArray(rows=rows, row_bits=512, technology=encoder.technology,
                     fault_map=fault_map, seed=11, word_bits=64)
    return MemoryController(
        array=array,
        encoder=encoder,
        config=ControllerConfig(encrypt=encrypt),
    )


class _ScalarOnlyEncoder(Encoder):
    """Implements only the word-level interface (third-party style)."""

    name = "scalar-only"

    @property
    def aux_bits(self) -> int:
        return 1

    def encode(self, data, context):
        inverted = data ^ ((1 << self.word_bits) - 1)
        return self._select_best([data, inverted], [0, 1], context)

    def decode(self, codeword, aux):
        return codeword ^ (((1 << self.word_bits) - 1) if aux else 0)


class TestLinePath:
    def test_scalar_only_encoder_works_through_controller(self, rng):
        encoder = _ScalarOnlyEncoder(64, CellTechnology.MLC, BitChangeCost())
        controller = _build(encoder, encrypt=True)
        words = [int(v) for v in rng.integers(0, 1 << 62, size=8)]
        controller.write_line(3, words)
        assert controller.read_line(3) == words

    def test_aux_store_is_dense_array(self, rng):
        controller = _build(make_encoder("rcc", num_cosets=16, seed=1))
        assert controller._aux_store.shape == (8, 8)
        words = [int(v) for v in rng.integers(0, 1 << 62, size=8)]
        controller.write_line(2, words)
        row = controller.row_for_address(2)
        assert controller._aux_store[row].max() < (1 << controller.encoder.aux_bits)
        assert controller.read_line(2) == words

    def test_write_matches_word_encoder_results(self, rng):
        # The controller's single encode_line call must store exactly what
        # per-word encodes against the same row contents would produce.
        encoder = make_encoder("vcc-stored", num_cosets=64,
                               cost_function=saw_then_energy(), seed=2)
        fault_map = FaultMap(rows=8, cells_per_row=256, fault_rate=0.02, seed=3)
        controller = _build(encoder, fault_map=fault_map)
        words = [int(v) for v in rng.integers(0, 1 << 62, size=8)]
        row = controller.row_for_address(5)
        old_row = controller.array.read_row(row)
        stuck = controller.array.stuck_info(row)
        controller.write_line(5, words)
        from repro.coding.base import WordContext

        for index, word in enumerate(words):
            start = index * 32
            context = WordContext(
                old_cells=old_row[start:start + 32],
                stuck_mask=stuck[start:start + 32],
                bits_per_cell=2,
            )
            expected = encoder.encode(word, context)
            assert controller._aux_store[row][index] == expected.aux

    @pytest.mark.parametrize("line_bits, word_bits", [(520, 65), (512, 128)])
    def test_words_over_64_bits_rejected(self, line_bits, word_bits):
        with pytest.raises(ConfigurationError, match="between 1 and 64"):
            ControllerConfig(line_bits=line_bits, word_bits=word_bits)

    def test_aux_fields_over_63_bits_rejected(self):
        # The aux store is int64: a third-party encoder with a 64-bit aux
        # field is refused when the controller is built.
        class _WideAuxEncoder(_ScalarOnlyEncoder):
            @property
            def aux_bits(self):
                return 64

        encoder = _WideAuxEncoder(64, CellTechnology.MLC, BitChangeCost())
        with pytest.raises(ConfigurationError, match="at most 63"):
            _build(encoder)

    def test_saw_bits_per_word_accounting(self, rng):
        fault_map = FaultMap(rows=8, cells_per_row=256, fault_rate=0.05, seed=7)
        controller = _build(
            make_encoder("unencoded"), fault_map=fault_map
        )
        words = [int(v) for v in rng.integers(0, 1 << 62, size=8)]
        result = controller.write_line(1, words)
        assert len(result.saw_bits_per_word) == 8
        assert sum(result.saw_bits_per_word) >= result.saw_cells
