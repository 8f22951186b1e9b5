"""The 2D Hubbard model's qubit Hamiltonian as Pauli terms, for tests.

The compiler never builds the terms: the tests check the one-norm and the
controlled step's anticommuting controls (``anticommuting_controls``, read
by the trotter and decoder tests) against them.
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


def anticommuting_controls(n: int):
    """Pauli operators anticommuting with the hopping / onsite sub-Hamiltonians.

    K0 applies Z to both spin-orbitals of every odd-parity site (row + col
    odd); K1 applies X to the spin-down orbital of every site.  Both are
    verified symbolically against the term set: an operator pair
    anticommutes iff it disagrees (with non-identity letters) on an odd
    number of qubits.
    """
    v = n * n
    k0 = tuple(
        (spin * v + r * n + c, "Z")
        for spin in (0, 1)
        for r in range(n)
        for c in range(n)
        if (r + c) % 2 == 1
    )
    k1 = tuple((v + s, "X") for s in range(v))
    for term in build_hamiltonian(HubbardSpec(n)):
        control = k0 if term.kind.startswith("hopping") else k1
        if not _anticommutes(control, term.support):
            raise AssertionError(
                f"control does not anticommute with {term.kind} term {term.support}"
            )
    return k0, k1


def _anticommutes(a, b) -> bool:
    letters_a = dict(a)
    odd = 0
    for q, letter in b:
        other = letters_a.get(q)
        if other is not None and other != letter:
            odd += 1
    return odd % 2 == 1
