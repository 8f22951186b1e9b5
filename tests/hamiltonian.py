"""The 2D Hubbard model's qubit Hamiltonian as Pauli terms, for tests.

The compiler never builds the terms: the tests check the one-norm and the
controlled step's anticommuting controls against them.
"""

from __future__ import annotations

from dataclasses import dataclass

from starsched.hubbard import HubbardSpec, grid_edges


@dataclass(frozen=True)
class PauliTerm:
    """A single Pauli term: coefficient times a product of single-qubit Paulis.

    ``support`` maps spin-orbital index to a letter in {X, Y, Z}.
    """

    coefficient: float
    support: tuple[tuple[int, str], ...]
    kind: str  # "hopping_xx" | "hopping_yy" | "onsite_zz"


def build_hamiltonian(spec: HubbardSpec) -> list[PauliTerm]:
    """Qubit Hamiltonian terms for the Hubbard instance.

    Each hopping edge contributes an XX and a YY term per spin sector with
    coefficient -t/2 (string factors between the endpoints cancel when the
    endpoints are adjacent on the Jordan-Wigner line, so only the two-qubit
    cores are recorded).  Each site contributes one ZZ term with coefficient
    u/4 coupling its two spin-orbitals.  Identity offsets are dropped.
    """
    v = spec.n * spec.n
    out: list[PauliTerm] = []
    for spin in (0, 1):
        for a, b in grid_edges(spec.n):
            qa, qb = spin * v + a, spin * v + b
            out.append(
                PauliTerm(-spec.t / 2, ((qa, "X"), (qb, "X")), "hopping_xx")
            )
            out.append(
                PauliTerm(-spec.t / 2, ((qa, "Y"), (qb, "Y")), "hopping_yy")
            )
    for s in range(v):
        out.append(
            PauliTerm(spec.u / 4, ((s, "Z"), (v + s, "Z")), "onsite_zz")
        )
    return out
