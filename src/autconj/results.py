"""Result records returned by the Aut/Conj solvers."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AutResult:
    """Automorphism group of a single map.

    elements: sorted tuple of Mobius elements over the ground field.
    group: ASCII isomorphism-type label ("C2", "D6", "S4", ...).
    algorithm: which engine produced the result.
    primes / fibers: for the CRT engine, the good primes actually used
    and the per-prime fiber sizes, in the same order.
    """

    elements: tuple
    group: str
    algorithm: str
    primes: tuple = ()
    fibers: tuple = ()
    height_bound: int | None = None

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


@dataclass(frozen=True)
class ConjResult:
    """Conjugating set between two maps over the ground field.

    Empty elements means proven non-conjugate; reason carries the cheap
    certificate when one was found (type mismatch etc), else "".
    """

    elements: tuple
    algorithm: str
    reason: str = ""
    primes: tuple = ()
    fibers: tuple = ()
    height_bound: int | None = None

    @property
    def is_conjugate(self) -> bool:
        return len(self.elements) > 0

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)
