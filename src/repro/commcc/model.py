"""The number-in-hand shared-blackboard model (Definition 1).

``t`` players each hold an input; they communicate by appending bit
strings to a shared blackboard visible to everyone.  The *cost* of a run
is the total number of bits written — exactly the paper's
``|pi_Q(x^1, ..., x^t)|``.

Number-in-hand discipline is enforced structurally: a protocol never
touches raw inputs.  It receives :class:`PlayerView` objects, and the
view for player ``i`` exposes only ``x^i`` (plus the public blackboard).
"""

from __future__ import annotations

import math
from typing import Callable, Generic, List, Optional, Sequence, Tuple, TypeVar

InputT = TypeVar("InputT")


class BlackboardEntry:
    """One write: which player wrote how many bits, and an optional label.

    A write by size alone (:meth:`Blackboard.write_size`) keeps no
    content; its ``bits`` read as that many zeros, built on access.
    """

    __slots__ = ("player", "size", "label", "_bits")

    def __init__(
        self, player: int, size: int, label: str = "", bits: Optional[str] = None
    ) -> None:
        self.player = player
        self.size = size
        self.label = label
        self._bits = bits

    @property
    def bits(self) -> str:
        """The written bit string (zeros for a write by size)."""
        return "0" * self.size if self._bits is None else self._bits

    def __repr__(self) -> str:
        suffix = f", label={self.label!r}" if self.label else ""
        return f"BlackboardEntry(player={self.player}, bits='{self.bits}'{suffix})"


class Blackboard:
    """A shared blackboard: an append-only sequence of bit strings."""

    def __init__(self) -> None:
        self._entries: List[BlackboardEntry] = []
        self._total_bits = 0

    def write(self, player: int, bits: str, label: str = "") -> None:
        """Append ``bits`` (a string over '0'/'1') on behalf of ``player``."""
        if bits and set(bits) - {"0", "1"}:
            raise ValueError(f"blackboard writes must be bit strings, got {bits!r}")
        self._append(BlackboardEntry(player, len(bits), label, bits))

    def write_size(self, player: int, size: int, label: str = "") -> None:
        """Append a write of ``size`` bits whose content does not matter.

        Cost accounting needs only the length; the entry reads back as
        ``size`` zeros.
        """
        if size < 0:
            raise ValueError(f"a write cannot have negative size, got {size}")
        self._append(BlackboardEntry(player, size, label))

    def _append(self, entry: BlackboardEntry) -> None:
        self._entries.append(entry)
        self._total_bits += entry.size

    def entries(self) -> List[BlackboardEntry]:
        """Return the entries written so far (a copy)."""
        return list(self._entries)

    @property
    def total_bits(self) -> int:
        """The transcript length in bits — the run's cost."""
        return self._total_bits

    def transcript(self) -> str:
        """Concatenate every write into the full transcript."""
        return "".join(entry.bits for entry in self._entries)

    def __len__(self) -> int:
        return len(self._entries)


class PlayerView(Generic[InputT]):
    """Player ``i``'s view: its own input plus the public blackboard."""

    def __init__(self, player: int, local_input: InputT, board: Blackboard) -> None:
        self.player = player
        self.local_input = local_input
        self.board = board

    def write(self, bits: str, label: str = "") -> None:
        """Write on the blackboard as this player."""
        self.board.write(self.player, bits, label=label)


class ProtocolResult(Generic[InputT]):
    """Outcome of one protocol run: the output and the full transcript."""

    def __init__(self, output: bool, board: Blackboard) -> None:
        self.output = output
        self.board = board

    @property
    def cost_bits(self) -> int:
        """Bits written on the blackboard during the run."""
        return self.board.total_bits

    def __repr__(self) -> str:
        return f"ProtocolResult(output={self.output}, cost_bits={self.cost_bits})"


class Protocol(Generic[InputT]):
    """A deterministic shared-blackboard protocol.

    Subclasses implement :meth:`execute`, which receives one
    :class:`PlayerView` per player and must return the Boolean output
    (which, in the model, every player can infer from the transcript).
    """

    name = "protocol"

    def execute(self, views: Sequence[PlayerView[InputT]]) -> bool:
        raise NotImplementedError

    def run(self, inputs: Sequence[InputT]) -> ProtocolResult[InputT]:
        """Run the protocol on concrete inputs and account for its cost."""
        if len(inputs) < 2:
            raise ValueError(f"need at least 2 players, got {len(inputs)}")
        board = Blackboard()
        views = [
            PlayerView(player, local_input, board)
            for player, local_input in enumerate(inputs)
        ]
        output = self.execute(views)
        return ProtocolResult(output, board)

    def worst_case_cost(self, input_tuples: Sequence[Sequence[InputT]]) -> int:
        """Max cost over the given input tuples (Definition 1's ``Cost``)."""
        return max(self.run(inputs).cost_bits for inputs in input_tuples)


def encode_integer(value: int, width: int) -> str:
    """Fixed-width big-endian binary encoding of a non-negative integer."""
    if value < 0:
        raise ValueError(f"cannot encode negative value {value}")
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if value >> width:
        raise ValueError(f"value {value} does not fit in {width} bits")
    return format(value, f"0{width}b")


def decode_integer(bits: str) -> int:
    """Inverse of :func:`encode_integer`."""
    if not bits or set(bits) - {"0", "1"}:
        raise ValueError(f"not a bit string: {bits!r}")
    return int(bits, 2)


def bits_needed(count: int) -> int:
    """Bits needed to encode values ``0 .. count-1`` (at least 1)."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return max(1, math.ceil(math.log2(count))) if count > 1 else 1
