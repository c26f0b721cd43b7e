"""Exact linear algebra over F_2^m with vectors stored as int bitmasks.

Vectors live in dimension m <= 64 so that addition is a single XOR and
rank computations reduce to word operations. Subspaces are kept in a
canonical reduced row-echelon form, which makes equality structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence

from .errors import InvalidParameterError, NotInSpanError

MAX_DIM = 64


@dataclass(frozen=True, order=False)
class Gf2Vector:
    """An element of F_2^m; bit i of ``bits`` is coordinate i."""

    bits: int
    dim: int

    def __post_init__(self) -> None:
        if not 1 <= self.dim <= MAX_DIM:
            raise InvalidParameterError(f"dimension must be in 1..{MAX_DIM}, got {self.dim}")
        if self.bits < 0 or self.bits >> self.dim:
            raise InvalidParameterError(f"bits 0x{self.bits:x} do not fit in dimension {self.dim}")

    def __add__(self, other: "Gf2Vector") -> "Gf2Vector":
        if other.dim != self.dim:
            raise InvalidParameterError("dimension mismatch")
        return Gf2Vector(self.bits ^ other.bits, self.dim)

    # over F_2 subtraction and addition coincide
    __sub__ = __add__
    __xor__ = __add__

    def __lt__(self, other: "Gf2Vector") -> bool:
        return (self.dim, self.bits) < (other.dim, other.bits)

    def __le__(self, other: "Gf2Vector") -> bool:
        return (self.dim, self.bits) <= (other.dim, other.bits)

    def is_zero(self) -> bool:
        return self.bits == 0

    def to_hex(self) -> str:
        """Lowercase hex string of ceil(m/4) digits, MSB = coordinate m-1."""
        width = (self.dim + 3) // 4
        return format(self.bits, f"0{width}x")

    @classmethod
    def from_hex(cls, text: str, dim: int) -> "Gf2Vector":
        try:
            bits = int(text, 16)
        except ValueError as exc:
            raise InvalidParameterError(f"bad hex vector {text!r}") from exc
        return cls(bits, dim)

    @classmethod
    def zero(cls, dim: int) -> "Gf2Vector":
        return cls(0, dim)

    @classmethod
    def unit(cls, index: int, dim: int) -> "Gf2Vector":
        if not 0 <= index < dim:
            raise InvalidParameterError(f"unit index {index} out of range for dim {dim}")
        return cls(1 << index, dim)


def _rref(bits_list: Iterable[int]) -> List[int]:
    """Reduce rows to canonical RREF over GF(2); pivots are highest set bits.

    Returned rows are sorted by pivot descending and every pivot bit is
    cleared from all other rows, so two spans are equal iff the lists match.
    """
    basis: List[int] = []
    for row in bits_list:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
            # clear the new pivot from every other row
            pivot = 1 << (row.bit_length() - 1)
            for i, b in enumerate(basis):
                if b != row and b & pivot:
                    basis[i] = b ^ row
            basis.sort(reverse=True)
    return basis


@dataclass(frozen=True)
class Gf2Subspace:
    """A subspace of F_2^m held as an RREF basis (possibly empty)."""

    dim: int
    basis: tuple

    @classmethod
    def from_vectors(cls, vectors: Sequence[Gf2Vector], dim: int) -> "Gf2Subspace":
        for v in vectors:
            if v.dim != dim:
                raise InvalidParameterError("mixed vector dimensions in span")
        rows = _rref(v.bits for v in vectors)
        return cls(dim, tuple(Gf2Vector(b, dim) for b in rows))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def reduce(self, v: Gf2Vector) -> int:
        """Residual bits of v after elimination by the basis (0 iff member)."""
        if v.dim != self.dim:
            raise InvalidParameterError("dimension mismatch")
        bits = v.bits
        for b in self.basis:
            bits = min(bits, bits ^ b.bits)
        return bits

    def __contains__(self, v: Gf2Vector) -> bool:
        return self.reduce(v) == 0

    def elements(self) -> Iterator[Gf2Vector]:
        """All 2^rank members, in increasing bitmask order."""
        seen = sorted(_combinations_bits(self.basis))
        for bits in seen:
            yield Gf2Vector(bits, self.dim)

    def element_bits(self) -> List[int]:
        return sorted(_combinations_bits(self.basis))

    def shifted(self, offset: Gf2Vector) -> frozenset:
        """The coset {z + offset : z in subspace} as a set of vectors."""
        return frozenset(Gf2Vector(b ^ offset.bits, self.dim) for b in _combinations_bits(self.basis))


def _combinations_bits(basis: Sequence[Gf2Vector]) -> List[int]:
    out = [0]
    for b in basis:
        out += [x ^ b.bits for x in out]
    return out


def span_of(vectors: Sequence[Gf2Vector], m: int) -> Gf2Subspace:
    """Span of the given vectors inside F_2^m, rank via Gaussian elimination."""
    return Gf2Subspace.from_vectors(vectors, m)


def coefficients_in_basis(target: Gf2Vector, basis: Sequence[Gf2Vector]) -> List[int]:
    """GF(2) coefficients expressing target over the given ordered vectors.

    Works for dependent lists too (greedy left-to-right elimination); the
    coefficient pattern is unique exactly when the list is independent.
    Raises NotInSpanError when target is outside the span.
    """
    n = len(basis)
    # augment each row with an indicator of which inputs were combined
    rows = []
    for i, v in enumerate(basis):
        if v.dim != target.dim:
            raise InvalidParameterError("dimension mismatch between target and basis")
        rows.append((v.bits, 1 << i))
    echelon: List[tuple] = []  # (bits, combo), bits with distinct leading bit
    for bits, combo in rows:
        for eb, ec in echelon:
            nb = bits ^ eb
            if nb < bits:
                bits, combo = nb, combo ^ ec
        if bits:
            echelon.append((bits, combo))
            echelon.sort(reverse=True)
    t, tc = target.bits, 0
    for eb, ec in echelon:
        nt = t ^ eb
        if nt < t:
            t, tc = nt, tc ^ ec
    if t:
        raise NotInSpanError(f"vector {target.to_hex()} not in span of {n} given vectors")
    return [(tc >> i) & 1 for i in range(n)]


def random_vector(m: int, rng) -> Gf2Vector:
    """Uniform element of F_2^m (zero included)."""
    return Gf2Vector(rng.getrandbits(m) if m > 0 else 0, m)


def random_subspace(m: int, ell: int, rng) -> Gf2Subspace:
    """Uniform random rank-ell subspace of F_2^m.

    Drawn by the incremental procedure: each successive vector is uniform
    over the complement of the current span, so every ordered independent
    sequence is equally likely and the subspace law is uniform.
    """
    if not 0 <= ell <= m:
        raise InvalidParameterError(f"need 0 <= ell <= m, got ell={ell}, m={m}")
    if m > MAX_DIM:
        raise InvalidParameterError(f"m must be <= {MAX_DIM}")
    chosen: List[Gf2Vector] = []
    span = Gf2Subspace.from_vectors([], m)
    while len(chosen) < ell:
        v = random_vector(m, rng)
        if v in span:
            continue  # rejection keeps the draw uniform over the complement
        chosen.append(v)
        span = Gf2Subspace.from_vectors(chosen, m)
    return span


__all__ = [
    "MAX_DIM",
    "Gf2Vector",
    "Gf2Subspace",
    "span_of",
    "coefficients_in_basis",
    "random_vector",
    "random_subspace",
]
