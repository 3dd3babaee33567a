"""Code-mappings (Definition 3) and the factory used by the gadget layer.

The constructions need, for parameters ``(ell, alpha)`` with
``k = (ell + alpha) ** alpha``, a mapping from indices ``m in [k]`` to
codewords of length ``ell + alpha`` over an alphabet of size
``ell + alpha`` with pairwise Hamming distance at least ``ell``
(Theorem 4 with ``L = alpha``, ``M = ell + alpha``, ``d = M - L = ell``).

Symbols are 0-based here (``0 .. q-1``); the paper's 1-based symbol
``sigma_(h, w_h)`` corresponds to our position value ``w_h in {0..q-1}``.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterator, List, Sequence, Tuple

from .gf import is_prime_power
from .reed_solomon import ReedSolomonCode, hamming_distance


def index_to_digits(index: int, base: int, length: int) -> Tuple[int, ...]:
    """Return the ``length`` base-``base`` digits of ``index`` (LSB first).

    This is the fixed "arbitrary ordering" of ``Sigma^alpha`` the paper
    refers to: index ``m`` maps to the ``m``-th tuple.
    """
    if index < 0 or index >= base ** length:
        raise ValueError(f"index {index} out of range for base^{length} = {base ** length}")
    digits = []
    for _ in range(length):
        digits.append(index % base)
        index //= base
    return tuple(digits)


def digits_to_index(digits: Sequence[int], base: int) -> int:
    """Inverse of :func:`index_to_digits`."""
    index = 0
    for digit in reversed(list(digits)):
        if not 0 <= digit < base:
            raise ValueError(f"digit {digit} out of range for base {base}")
        index = index * base + digit
    return index


class CodeMapping:
    """A code-mapping ``C : [k] -> Sigma^M`` with guaranteed distance.

    Attributes
    ----------
    alphabet_size:
        ``q = |Sigma|``; codeword symbols lie in ``0 .. q-1``.
    block_length:
        ``M`` — the codeword length.
    num_codewords:
        ``k`` — how many indices the mapping is defined on.
    guaranteed_distance:
        A lower bound on the pairwise Hamming distance, certified by the
        construction (RS) or by explicit verification (greedy).
    """

    alphabet_size: int
    block_length: int
    num_codewords: int
    guaranteed_distance: int

    def codeword(self, index: int) -> Tuple[int, ...]:
        """Return ``C(index)`` for ``index in 0 .. k-1``."""
        raise NotImplementedError

    def codewords(self) -> Iterator[Tuple[int, ...]]:
        """Iterate over all codewords in index order."""
        for index in range(self.num_codewords):
            yield self.codeword(index)

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.num_codewords:
            raise ValueError(
                f"codeword index {index} out of range [0, {self.num_codewords})"
            )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(q={self.alphabet_size}, M={self.block_length}, "
            f"k={self.num_codewords}, d>={self.guaranteed_distance})"
        )


class RSCodeMapping(CodeMapping):
    """Reed–Solomon code-mapping: ``(L=alpha, M=ell+alpha, d=ell+1)``.

    Requires ``q = ell + alpha`` to be a prime power.  Codewords are
    cached on first use.
    """

    def __init__(self, ell: int, alpha: int) -> None:
        if ell < 1 or alpha < 1:
            raise ValueError(f"need ell >= 1 and alpha >= 1, got {ell}, {alpha}")
        q = ell + alpha
        if not is_prime_power(q):
            raise ValueError(
                f"ell + alpha = {q} is not a prime power; use GreedyCodeMapping"
            )
        self.ell = ell
        self.alpha = alpha
        self.alphabet_size = q
        self.block_length = q
        self.num_codewords = q ** alpha
        self._rs = ReedSolomonCode.over_order(q, message_length=alpha, block_length=q)
        self.guaranteed_distance = self._rs.minimum_distance  # ell + 1 >= ell
        self._cache: Dict[int, Tuple[int, ...]] = {}

    def codeword(self, index: int) -> Tuple[int, ...]:
        self._check_index(index)
        cached = self._cache.get(index)
        if cached is None:
            message = index_to_digits(index, self.alphabet_size, self.alpha)
            cached = self._rs.encode(message)
            self._cache[index] = cached
        return cached


class GreedyCodeMapping(CodeMapping):
    """A code built by greedy search, for non-prime-power alphabets.

    For small spaces (``q^M`` up to ~200k) the search enumerates
    ``Sigma^M`` lexicographically; for larger spaces it samples random
    words with a fixed seed — at the gadget regime (distance close to
    ``M``) a uniformly random word clears the distance bar against a
    small codebook with high probability, so sampling converges fast
    where lexicographic scanning would crawl through ``q^{d}`` rejects.
    Either way the kept set is verified pairwise, so the distance
    guarantee is unconditional.
    """

    _EXHAUSTIVE_LIMIT = 200_000

    def __init__(
        self,
        alphabet_size: int,
        block_length: int,
        min_distance: int,
        target_count: int,
        seed: int = 0,
        max_attempts: int = 2_000_000,
    ) -> None:
        if min_distance > block_length:
            raise ValueError(
                f"distance {min_distance} cannot exceed block length {block_length}"
            )
        self.alphabet_size = alphabet_size
        self.block_length = block_length
        self.guaranteed_distance = min_distance
        space = alphabet_size ** block_length
        kept: List[Tuple[int, ...]] = []
        if space <= self._EXHAUSTIVE_LIMIT:
            for word in itertools.product(
                range(alphabet_size), repeat=block_length
            ):
                if all(
                    hamming_distance(word, other) >= min_distance for other in kept
                ):
                    kept.append(word)
                    if len(kept) >= target_count:
                        break
        else:
            rng = random.Random(seed)
            attempts = 0
            while len(kept) < target_count and attempts < max_attempts:
                attempts += 1
                word = tuple(
                    rng.randrange(alphabet_size) for _ in range(block_length)
                )
                if all(
                    hamming_distance(word, other) >= min_distance for other in kept
                ):
                    kept.append(word)
        if len(kept) < target_count:
            raise ValueError(
                f"greedy search found only {len(kept)} of {target_count} codewords "
                f"at distance {min_distance} (q={alphabet_size}, M={block_length})"
            )
        self._codewords = kept
        self.num_codewords = len(kept)

    def codeword(self, index: int) -> Tuple[int, ...]:
        self._check_index(index)
        return self._codewords[index]


class StoredCodeMapping(CodeMapping):
    """A code-mapping rebuilt from a cached codeword table.

    Unlike :class:`ExplicitCodeMapping` the distance is *trusted*, not
    re-verified: the table is content-addressed by the code layer's
    source fingerprint (see :mod:`repro.store`), so it was certified by
    the construction that produced it and re-running the ``O(k^2 M)``
    pairwise check would cost more than the build being skipped.
    """

    def __init__(
        self,
        alphabet_size: int,
        block_length: int,
        guaranteed_distance: int,
        codewords: Sequence[Sequence[int]],
    ) -> None:
        self.alphabet_size = alphabet_size
        self.block_length = block_length
        self.guaranteed_distance = guaranteed_distance
        self._codewords = [tuple(word) for word in codewords]
        self.num_codewords = len(self._codewords)

    def codeword(self, index: int) -> Tuple[int, ...]:
        self._check_index(index)
        return self._codewords[index]


def code_mapping_to_dict(mapping: CodeMapping) -> Dict[str, object]:
    """Flatten any code-mapping to its JSON-safe table form."""
    return {
        "alphabet_size": mapping.alphabet_size,
        "block_length": mapping.block_length,
        "guaranteed_distance": mapping.guaranteed_distance,
        "codewords": [list(word) for word in mapping.codewords()],
    }


def code_mapping_from_dict(data: Dict[str, object]) -> "StoredCodeMapping":
    """Inverse of :func:`code_mapping_to_dict` (distance trusted)."""
    return StoredCodeMapping(
        alphabet_size=data["alphabet_size"],
        block_length=data["block_length"],
        guaranteed_distance=data["guaranteed_distance"],
        codewords=data["codewords"],
    )


class ExplicitCodeMapping(CodeMapping):
    """A code-mapping from an explicit codeword list (verified on build)."""

    def __init__(self, alphabet_size: int, codewords: Sequence[Sequence[int]]) -> None:
        words = [tuple(word) for word in codewords]
        if not words:
            raise ValueError("need at least one codeword")
        block_length = len(words[0])
        for word in words:
            if len(word) != block_length:
                raise ValueError("codewords must all have the same length")
            for symbol in word:
                if not 0 <= symbol < alphabet_size:
                    raise ValueError(
                        f"symbol {symbol} out of alphabet range [0, {alphabet_size})"
                    )
        if len(set(words)) != len(words):
            raise ValueError("codewords must be distinct")
        self.alphabet_size = alphabet_size
        self.block_length = block_length
        self._codewords = words
        self.num_codewords = len(words)
        self.guaranteed_distance = exact_minimum_distance_of(words)

    def codeword(self, index: int) -> Tuple[int, ...]:
        self._check_index(index)
        return self._codewords[index]


def exact_minimum_distance_of(words: Sequence[Sequence[int]]) -> int:
    """Exhaustively compute the pairwise minimum distance.

    Returns the block length for a single-codeword code (vacuous case).
    """
    words = list(words)
    if len(words) < 2:
        return len(words[0]) if words else 0
    return min(
        hamming_distance(a, b) for a, b in itertools.combinations(words, 2)
    )


def verify_code_mapping(mapping: CodeMapping) -> int:
    """Exhaustively verify the claimed distance; return the true minimum.

    Raises :class:`AssertionError` when the guarantee is violated —
    intended for tests and benches, not hot paths.
    """
    true_distance = exact_minimum_distance_of(list(mapping.codewords()))
    if true_distance < mapping.guaranteed_distance:
        raise AssertionError(
            f"code mapping violates its distance guarantee: "
            f"claimed >= {mapping.guaranteed_distance}, measured {true_distance}"
        )
    return true_distance


def code_mapping_for_parameters(ell: int, alpha: int) -> CodeMapping:
    """Return a code-mapping for gadget parameters ``(ell, alpha)``.

    Prefers Reed–Solomon when ``ell + alpha`` is a prime power (always
    the case for the parameter presets); otherwise falls back to a
    greedy search for ``(ell + alpha) ** alpha`` codewords at distance
    ``ell``, which the paper's Theorem 4 guarantees to exist.

    When the result store is configured (``repro.store``), greedy tables
    are memoized under ``codes.code_mapping`` and warm calls return a
    :class:`StoredCodeMapping` with identical codewords and distance.
    A Reed–Solomon table is built in well under a millisecond, less
    than a store write costs, so it is never stored.
    """
    from ..store import CODE_MODULES, get_store

    q = ell + alpha
    if is_prime_power(q):
        return RSCodeMapping(ell, alpha)

    def search() -> CodeMapping:
        return GreedyCodeMapping(
            alphabet_size=q,
            block_length=q,
            min_distance=ell,
            target_count=q ** alpha,
        )

    store = get_store()
    if store is None:
        return search()
    return store.get_or_compute(
        "codes.code_mapping",
        {"ell": ell, "alpha": alpha},
        CODE_MODULES,
        "code_mapping",
        search,
    )
