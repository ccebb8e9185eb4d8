"""Enumeration of the molecular ground-state levels probed by the lattice.

The homonuclear molecular ion populates only even rotational levels of its
electronic/vibrational ground state, split between the I = 0 and I = 2
nuclear-spin isomers.  A fully specified state carries (N, J, I, F, m): the
hyperfine quantum number F exists only for I = 2, and m is the projection of
J (I = 0) or of F (I = 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from .angular import HalfInt

NUCLEAR_SPIN_ISOMERS = (0, 2)


@dataclass(frozen=True)
class MolecularState:
    """One hyperfine-Zeeman level of the doublet-Sigma ground state."""

    n: int                       # rotational quantum number, even
    j: HalfInt                   # N +- 1/2
    i_nuc: int                   # total nuclear spin, 0 or 2
    f: HalfInt | None            # present iff i_nuc == 2
    m: HalfInt                   # projection of J (I=0) or of F (I=2)

    def __post_init__(self):
        if self.n < 0 or self.n % 2 != 0:
            raise ValueError(f"N must be even and >= 0, got {self.n}")
        if self.i_nuc not in NUCLEAR_SPIN_ISOMERS:
            raise ValueError(f"I must be one of {NUCLEAR_SPIN_ISOMERS}, got {self.i_nuc}")
        if self.j.twice not in (2 * self.n - 1, 2 * self.n + 1) or self.j.twice < 1:
            raise ValueError(f"J = {self.j} is not N +- 1/2 for N = {self.n}")
        if self.i_nuc == 0:
            if self.f is not None:
                raise ValueError("F is only defined for the I = 2 isomer")
            m_max = self.j.twice
        else:
            if self.f is None:
                raise ValueError("the I = 2 isomer requires F")
            if not (abs(self.j.twice - 4) <= self.f.twice <= self.j.twice + 4):
                raise ValueError(f"F = {self.f} violates |J-I| <= F <= J+I for J = {self.j}")
            m_max = self.f.twice
        if abs(self.m.twice) > m_max or (self.m.twice - m_max) % 2 != 0:
            raise ValueError(f"m = {self.m} invalid for J = {self.j}, F = {self.f}")
        # the generated dataclass hash, taken once: state sets and the Stark
        # table cache hash every state of a 540-state tuple per lookup
        object.__setattr__(self, "_hash",
                           hash((self.n, self.j, self.i_nuc, self.f, self.m)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt through __init__: hash(None) differs between processes
        return type(self), (self.n, self.j, self.i_nuc, self.f, self.m)

    def sort_key(self):
        two_f = self.f.twice if self.f is not None else -1
        return (self.n, self.j.twice, self.i_nuc, two_f, self.m.twice)

    def label(self) -> str:
        if self.i_nuc == 0:
            return f"N={self.n} J={self.j} I=0 m={self.m}"
        return f"N={self.n} J={self.j} I=2 F={self.f} m={self.m}"


def spin_rotation_levels(n_max: int) -> list[tuple[int, HalfInt]]:
    """All (N, J) spin-rotation levels with even N <= n_max."""
    if n_max < 0 or n_max % 2 != 0:
        raise ValueError(f"N_max must be even and >= 0, got {n_max}")
    levels = []
    for n in range(0, n_max + 1, 2):
        for two_j in (2 * n - 1, 2 * n + 1):
            if two_j >= 1:
                levels.append((n, HalfInt(two_j)))
    return levels


def enumerate_states(n_max: int, isomers=NUCLEAR_SPIN_ISOMERS) -> list[MolecularState]:
    """Every (N, J, I, F, m) combination with even N <= n_max, v = 0.

    The count follows 12 * sum over even N of (2N + 1); N_max = 8 gives the
    540 levels an unselectively prepared molecule can occupy.
    """
    states = []
    for n, j in spin_rotation_levels(n_max):
        for i_nuc in isomers:
            if i_nuc == 0:
                for two_m in range(-j.twice, j.twice + 1, 2):
                    states.append(MolecularState(n, j, 0, None, HalfInt(two_m)))
            else:
                for two_f in range(abs(j.twice - 4), j.twice + 4 + 1, 2):
                    f = HalfInt(two_f)
                    for two_m in range(-two_f, two_f + 1, 2):
                        states.append(MolecularState(n, j, i_nuc, f, HalfInt(two_m)))
    states.sort(key=MolecularState.sort_key)
    return states
