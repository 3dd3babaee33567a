"""Tests for the shared blackboard model and cost accounting."""

import pytest

from repro.commcc import (
    Blackboard,
    PlayerView,
    Protocol,
    ProtocolResult,
    bits_needed,
    decode_integer,
    encode_integer,
)


class TestBlackboard:
    def test_write_and_total_bits(self):
        board = Blackboard()
        board.write(0, "1010")
        board.write(1, "11")
        assert board.total_bits == 6
        assert len(board) == 2

    def test_transcript_concatenates(self):
        board = Blackboard()
        board.write(0, "10")
        board.write(1, "01")
        assert board.transcript() == "1001"

    def test_non_bit_write_rejected(self):
        board = Blackboard()
        with pytest.raises(ValueError):
            board.write(0, "abc")

    def test_empty_write_allowed(self):
        board = Blackboard()
        board.write(0, "")
        assert board.total_bits == 0

    def test_entries_record_player_and_label(self):
        board = Blackboard()
        board.write(2, "1", label="hello")
        entry = board.entries()[0]
        assert entry.player == 2
        assert entry.label == "hello"

    def test_entries_returns_copy(self):
        board = Blackboard()
        board.write(0, "1")
        board.entries().clear()
        assert len(board) == 1


class TestWriteBySize:
    """A write by size reads back exactly as a write of that many zeros."""

    WRITES = [(0, 5, "r1:0->1"), (1, 0, ""), (1, 3, "r2:1->0"), (0, 1, "")]

    def test_matches_a_write_of_zeros(self):
        sized, zeros = Blackboard(), Blackboard()
        for player, size, label in self.WRITES:
            sized.write_size(player, size, label=label)
            zeros.write(player, "0" * size, label=label)

        def view(board):
            return [
                (entry.player, entry.bits, entry.size, entry.label, repr(entry))
                for entry in board.entries()
            ]

        assert view(sized) == view(zeros)
        assert sized.total_bits == zeros.total_bits == 9
        assert sized.transcript() == zeros.transcript() == "0" * 9
        assert len(sized) == len(zeros) == 4

    def test_interleaves_with_content_writes(self):
        board = Blackboard()
        board.write(0, "101")
        board.write_size(1, 2)
        board.write(0, "1")
        assert board.transcript() == "101001"
        assert board.total_bits == 6

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Blackboard().write_size(0, -1)


class _EchoProtocol(Protocol):
    """Each player writes its (string) input; output = parity of total bits."""

    def execute(self, views):
        for view in views:
            view.write(view.local_input)
        return views[0].board.total_bits % 2 == 0


class TestProtocolRunner:
    def test_run_returns_result_with_cost(self):
        result = _EchoProtocol().run(["101", "11"])
        assert isinstance(result, ProtocolResult)
        assert result.cost_bits == 5
        assert result.output is False

    def test_single_player_rejected(self):
        with pytest.raises(ValueError):
            _EchoProtocol().run(["1"])

    def test_worst_case_cost(self):
        protocol = _EchoProtocol()
        cost = protocol.worst_case_cost([["1", "1"], ["111", "1111"]])
        assert cost == 7

    def test_player_views_have_indices(self):
        captured = []

        class Capture(Protocol):
            def execute(self, views):
                captured.extend(view.player for view in views)
                return True

        Capture().run(["a", "b", "c"])
        assert captured == [0, 1, 2]


class TestIntegerEncoding:
    def test_roundtrip(self):
        for value in [0, 1, 5, 255]:
            assert decode_integer(encode_integer(value, 9)) == value

    def test_fixed_width(self):
        assert encode_integer(3, 5) == "00011"

    def test_overflow_raises(self):
        with pytest.raises(ValueError):
            encode_integer(8, 3)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            encode_integer(-1, 3)

    def test_decode_rejects_garbage(self):
        with pytest.raises(ValueError):
            decode_integer("10a")
        with pytest.raises(ValueError):
            decode_integer("")

    def test_bits_needed(self):
        assert bits_needed(1) == 1
        assert bits_needed(2) == 1
        assert bits_needed(3) == 2
        assert bits_needed(8) == 3
        assert bits_needed(9) == 4

    def test_bits_needed_invalid(self):
        with pytest.raises(ValueError):
            bits_needed(0)
