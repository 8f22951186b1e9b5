"""Clock-accurate lattice-surgery scheduling and resource estimation for
second-order Trotter simulation of the 2D Hubbard model on an architecture
combining error-corrected Clifford operations with repeat-until-success
analog rotations."""

__version__ = "0.1.0"
