"""Sparsity patterns, permutations, and pattern symmetries.

A sparsity pattern is a set of free (row, col) positions on an n-by-n grid,
indexed 1-based.  It doubles as a digraph: position (i, j) free means there
is an edge from vertex i to vertex j.  Two discrete symmetries preserve
stability of the associated matrix space and are implemented here: transpose
(reversing every edge) and relabeling by a permutation.  Multiplication by a
nonsingular diagonal matrix maps the matrix space to itself, so at pattern
level it is a no-op and gets no operation.

File formats
------------
mask:  n lines of n characters; '*' marks a free entry, '0' or '.' a zero.
json:  {"n": int, "free": [[i, j], ...]} with 1-based indices; the
       serializer emits pairs sorted row-major.
"""

from __future__ import annotations

import collections
import itertools
import json
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapabilityError, PatternFormatError

CANONICAL_N_CAP = 8  # orbit keys are uint64, which holds n^2 <= 64 bits

_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)

_FREE_CHARS = {"*", "∗"}  # ASCII star plus the typographic one
_ZERO_CHARS = {"0", "."}


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} in one-line notation.

    ``mapping[i-1]`` is the image of i.  Composition is function
    composition: ``a.compose(b)`` applies b first, then a.
    """

    mapping: tuple[int, ...]

    def __post_init__(self):
        n = len(self.mapping)
        if sorted(self.mapping) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.mapping}")

    @property
    def n(self) -> int:
        return len(self.mapping)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    def __call__(self, i: int) -> int:
        return self.mapping[i - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(i) = self(other(i))."""
        if other.n != self.n:
            raise ValueError("size mismatch")
        return Permutation(tuple(self.mapping[j - 1] for j in other.mapping))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, img in enumerate(self.mapping, start=1):
            inv[img - 1] = i
        return Permutation(tuple(inv))

    @property
    def sign(self) -> int:
        """+1 for even, -1 for odd; equals det of the permutation matrix."""
        inversions = sum(
            1
            for a, b in itertools.combinations(self.mapping, 2)
            if a > b
        )
        return -1 if inversions % 2 else 1

    def matrix_rows(self) -> list[list[int]]:
        """The permutation matrix P with P[i][j] = 1 iff i+1 == self(j+1).

        Columns of the identity permuted: column j of P is e_{self(j)}.
        """
        rows = [[0] * self.n for _ in range(self.n)]
        for j in range(1, self.n + 1):
            rows[self.mapping[j - 1] - 1][j - 1] = 1
        return rows


def _index(x) -> int:
    """x as an int, for any integer type but bool (numpy ints included);
    raises ValueError otherwise."""
    if isinstance(x, bool):
        raise ValueError(f"entry index must be an integer, got {x!r}")
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"entry index must be an integer, got {x!r}") from None


def all_permutations(n: int):
    """All permutations of {1..n} in lexicographic one-line order."""
    for tup in itertools.permutations(range(1, n + 1)):
        yield Permutation(tup)


@dataclass(frozen=True)
class SparsityPattern:
    """A set of free (row, col) positions on an n-by-n grid, 1-based."""

    n: int
    free: frozenset[tuple[int, int]]

    def __post_init__(self):
        # type(x) is int: a float size or index breaks every lookup, and bools are ints
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"n must be a positive int, got {self.n!r}")
        for i, j in self.free:
            if type(i) is not int or type(j) is not int:
                raise ValueError(f"entry indices must be ints: ({i!r}, {j!r})")
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"entry out of range: ({i}, {j}) for n={self.n}")

    @classmethod
    def _from_checked_pairs(cls, n: int, free: frozenset) -> "SparsityPattern":
        """The pattern of pairs that its caller has already checked as
        __post_init__ does, without a second walk over them; n is checked."""
        if type(n) is not int or n < 1:
            return cls(n, free)  # which raises __post_init__'s error
        p = object.__new__(cls)
        p.__dict__.update(n=n, free=free)  # what the frozen __init__ sets
        return p

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "SparsityPattern":
        """The pattern of (i, j) pairs of integer indices (numpy ints too)."""
        return cls(_index(n), frozenset((_index(i), _index(j)) for i, j in pairs))

    @classmethod
    def full(cls, n: int) -> "SparsityPattern":
        return cls(n, frozenset((i, j) for i in range(1, n + 1) for j in range(1, n + 1)))

    @classmethod
    def diagonal(cls, n: int) -> "SparsityPattern":
        return cls(n, frozenset((i, i) for i in range(1, n + 1)))

    @classmethod
    def empty(cls, n: int) -> "SparsityPattern":
        return cls(n, frozenset())

    @property
    def dimension(self) -> int:
        return len(self.free)

    @property
    def codimension(self) -> int:
        return self.n * self.n - len(self.free)

    def sorted_free(self) -> list[tuple[int, int]]:
        return sorted(self.free)

    def bitkey(self) -> int:
        """Row-major bit string as an integer, cell (1,1) most significant.

        Integer order on keys equals lexicographic order on the bit strings,
        which is the canonical order used for orbit minima.
        """
        return pattern_to_key(self)

    def describe(self) -> str:
        return f"{self.n}x{self.n} pattern, {len(self.free)} free entries"


# --- bit-level helpers (shared with the atlas enumeration) ---

def pattern_to_key(p: SparsityPattern) -> int:
    n = p.n
    key = 0
    for i, j in p.free:
        key |= 1 << (n * n - 1 - ((i - 1) * n + (j - 1)))
    return key


def _key_bit(n: int, i: int, j: int) -> int:
    """The key bit of entry (i, j) in 1..n: bit n^2 - 1 - ((i - 1) n + j - 1)."""
    return 1 << n * (n + 1) - i * n - j


def key_to_pattern(n: int, key: int) -> SparsityPattern:
    """The pattern of a row-major bit key; the pairs it decodes are ints
    in range by construction, so they skip from_pairs's conversion.  Only
    the set bits are visited, lowest first."""
    cells = _bit_cells(n)
    free = []
    while key:
        low = key & -key
        free.append(cells[low.bit_length() - 1])
        key ^= low
    return SparsityPattern._from_checked_pairs(n, frozenset(free))


@lru_cache(maxsize=None)
def _bit_cells(n: int) -> tuple[tuple[int, int], ...]:
    """Entry b is the (row, col) pair of key bit b (least significant
    first), so bit n^2 - 1 is (1, 1)."""
    return tuple((i, j) for i in range(n, 0, -1) for j in range(n, 0, -1))


@lru_cache(maxsize=None)
def _image_table(n: int) -> np.ndarray:
    """uint8 [n^2, n!]: entry [pos, r] is where the r-th permutation in
    lexicographic order sends bit position pos (row-major, 0-based), so
    column 0 is the identity.

    A transpose followed by permutation r sends position (i, j) to the
    transpose of where permutation r alone sends it, so the transposed
    images need no columns of their own (see _key_bits).
    """
    perms = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(n))), np.uint8
    )
    images = np.ascontiguousarray(perms.reshape(-1, n).T)  # [v, r]: image of vertex v
    table = np.empty((n * n, images.shape[1]), dtype=np.uint8)
    for i in range(n):
        row = images[i] * n
        for j in range(n):
            np.add(row, images[j], out=table[i * n + j])
    table.flags.writeable = False  # cached, so shared by every caller
    return table


@lru_cache(maxsize=None)
def _key_bits(n: int) -> np.ndarray:
    """uint64 [n^2, 2]: row pos holds the key bit of position pos and that
    of its transpose."""
    total = n * n
    weight = _BITS[total - 1 :: -1]
    transposed = np.arange(total).reshape(n, n).T.ravel()
    bits = np.stack([weight, weight[transposed]], axis=1)
    bits.flags.writeable = False  # cached, so shared by every caller
    return bits


def _orbit_keys(n: int, key: int) -> np.ndarray:
    """The images of a pattern key under the 2*n! symmetries.

    Entry 2*r + t is the image under the r-th permutation in lexicographic
    order, after a transpose when t is 1, so entry 0 is the key itself.
    """
    if n > CANONICAL_N_CAP:
        raise CapabilityError(f"orbit keys are uint64; n={n} exceeds cap {CANONICAL_N_CAP}")
    total = n * n
    table = _image_table(n)
    bits = _key_bits(n)
    keys = np.zeros((table.shape[1], 2), dtype=np.uint64)  # row r: entries 2r, 2r + 1
    images = np.empty_like(keys)
    for pos in range(total):
        if key >> (total - 1 - pos) & 1:
            keys |= bits.take(table[pos], axis=0, out=images)
    return keys.ravel()


def _symmetry(n: int, g: int) -> tuple[list[int], bool]:
    """Symmetry g of _orbit_keys: the image of each vertex (0-based) under
    its permutation, and whether it transposes first."""
    column = _image_table(n)[:: n + 1, g // 2]  # the diagonal (v, v) goes to (perm v, perm v)
    return [pos // (n + 1) for pos in column.tolist()], bool(g % 2)


def key_orbit(n: int, key: int) -> set[int]:
    """All distinct images of a pattern key under relabeling and transpose."""
    return set(_orbit_keys(n, key).tolist())


# --- parsing / serialization ---

def parse_pattern(text: str, format: str = "mask") -> SparsityPattern:
    """Parse a pattern from mask or json text.

    Raises PatternFormatError naming the offending line/column for ragged
    rows, foreign characters, out-of-range indices, or duplicate pairs.
    """
    if format == "mask":
        return _parse_mask(text)
    if format == "json":
        return _parse_json(text)
    raise ValueError(f"unknown pattern format: {format!r}")


def _parse_mask(text: str) -> SparsityPattern:
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise PatternFormatError("empty mask")
    n = len(lines)
    free = set()
    for li, line in enumerate(lines, start=1):
        row = line.strip()
        if len(row) != n:
            raise PatternFormatError(
                f"ragged mask: expected {n} characters, got {len(row)}", line=li
            )
        for ci, ch in enumerate(row, start=1):
            if ch in _FREE_CHARS:
                free.add((li, ci))
            elif ch not in _ZERO_CHARS:
                raise PatternFormatError(
                    f"character {ch!r} is not one of *, 0, .", line=li, column=ci
                )
    return SparsityPattern(n, frozenset(free))


def _parse_json(text: str) -> SparsityPattern:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PatternFormatError(f"invalid json: {exc.msg}", line=exc.lineno, column=exc.colno)
    return decode_json_pattern(data)


def decode_json_pattern(data) -> SparsityPattern:
    """The pattern of a decoded json object {"n": ..., "free": [[i, j], ...]}.

    Raises PatternFormatError unless n is a positive integer and free a
    list of distinct integer pairs in 1..n.  Other keys are ignored, so an
    atlas record decodes through here too.
    """
    return _decode_json_pattern(data)[0]


def _decode_json_pattern(data) -> tuple[SparsityPattern, int]:
    """decode_json_pattern's pattern and its key, from one pass over the
    free list that checks each pair, sets its key bit and finds a repeat
    by that bit.  A list this pass does not accept, and so every bad one,
    goes through _decode_free, which raises its error."""
    if not isinstance(data, dict) or "n" not in data or "free" not in data:
        raise PatternFormatError('json pattern needs keys "n" and "free"')
    n = data["n"]
    # type(x) is int: json's true and false decode to bools, which are ints
    if type(n) is not int or n < 1:
        raise PatternFormatError(f'"n" must be a positive integer, got {n!r}')
    free = data["free"]
    if not isinstance(free, list):
        raise PatternFormatError(f'"free" must be a list of pairs, got {free!r}')
    top = n * (n + 1)  # _key_bit, inlined: (i, j) is key bit top - i n - j
    key = 0
    pairs = []
    for entry in free:
        if type(entry) is list and len(entry) == 2:
            i, j = entry
            if type(i) is int and type(j) is int and 0 < i <= n and 0 < j <= n:
                bit = 1 << top - i * n - j
                if not key & bit:
                    key |= bit
                    pairs.append((i, j))
                    continue
        p = _decode_free(n, free)
        return p, pattern_to_key(p)
    return SparsityPattern._from_checked_pairs(n, frozenset(pairs)), key


def _decode_free(n: int, free: list) -> SparsityPattern:
    """The pattern of a free list, checked pair shapes first, then index
    types and ranges in the constructor, then repeats: the order that
    picks which error a bad list raises."""
    pairs = []
    for entry in free:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise PatternFormatError(f"free entry must be a pair, got {entry!r}")
        pairs.append(tuple(entry))
    try:
        # the constructor's check is the one type and range check
        p = SparsityPattern(n, frozenset(pairs))
    except (TypeError, ValueError) as exc:  # TypeError: an unhashable index
        raise PatternFormatError(f"index pairs must be integers in 1..{n}: {exc}") from None
    if len(p.free) != len(pairs):
        repeated = next(pair for pair, count in collections.Counter(pairs).items() if count > 1)
        raise PatternFormatError(f"duplicate pair: {repeated}")
    return p


def encode_json_pattern(p: SparsityPattern) -> dict:
    """The json object of p, pairs sorted row-major: decode_json_pattern's inverse."""
    return {"n": p.n, "free": [list(pair) for pair in p.sorted_free()]}


def serialize_pattern(p: SparsityPattern, format: str = "mask") -> str:
    if format == "mask":
        rows = []
        for i in range(1, p.n + 1):
            rows.append("".join("*" if (i, j) in p.free else "0" for j in range(1, p.n + 1)))
        return "\n".join(rows) + "\n"
    if format == "json":
        return json.dumps(encode_json_pattern(p))
    raise ValueError(f"unknown pattern format: {format!r}")


# --- symmetry actions ---

def transpose_pattern(p: SparsityPattern) -> SparsityPattern:
    """Reverse every edge: (i, j) free in the result iff (j, i) free in p."""
    return SparsityPattern(p.n, frozenset((j, i) for (i, j) in p.free))


def apply_permutation(p: SparsityPattern, sigma: Permutation) -> SparsityPattern:
    """Relabel vertices: free entry (a, b) moves to (sigma(a), sigma(b))."""
    if sigma.n != p.n:
        raise ValueError(f"size mismatch: pattern n={p.n}, permutation n={sigma.n}")
    return SparsityPattern(p.n, frozenset((sigma(a), sigma(b)) for (a, b) in p.free))


@dataclass(frozen=True)
class PatternOrbitInfo:
    """Canonical representative of a pattern's symmetry orbit.

    Transposing first (if flagged) and then relabeling the input reproduces
    ``canonical``, which is the lexicographic minimum of the orbit under the
    row-major bit-string order.
    """

    canonical: SparsityPattern
    orbit_size: int
    relabeling: Permutation
    transposed: bool


def canonical_form(p: SparsityPattern) -> PatternOrbitInfo:
    """Minimize p over all relabelings and the transpose.

    The first symmetry reaching the minimum gives the relabeling, and the
    orbit size is the group order over the stabilizer of p.
    """
    n = p.n
    keys = _orbit_keys(n, pattern_to_key(p))
    g = int(keys.argmin())
    image, transposed = _symmetry(n, g)
    return PatternOrbitInfo(
        canonical=key_to_pattern(n, int(keys[g])),
        orbit_size=keys.size // int(np.count_nonzero(keys == keys[0])),
        relabeling=Permutation(tuple(v + 1 for v in image)),
        transposed=transposed,
    )
