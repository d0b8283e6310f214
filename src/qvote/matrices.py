"""Small operator matrices shared by the voting and group protocols."""

from __future__ import annotations

import numpy as np


def shift_matrix(D: int, k: int = 1) -> np.ndarray:
    """Cyclic shift |j> -> |j+k mod D> (the "yes" operator of the shift schemes)."""
    return np.eye(D, dtype=complex)[:, (np.arange(D) + k) % D]


def phase_vote_matrix(D: int, m: int = 1) -> np.ndarray:
    """Diagonal phase diag(e^{2 pi i k m / D}), the "yes" operator of the phase schemes."""
    return np.diag(np.exp(2j * np.pi * np.arange(D) * m / D))


def angle_phase_matrix(D: int, theta: float) -> np.ndarray:
    """Diagonal phase diag(e^{i k theta}) for a general angle."""
    return np.diag(np.exp(1j * np.arange(D) * theta))


def dft_matrix(D: int) -> np.ndarray:
    """Discrete Fourier transform F|j> = (1/sqrt(D)) sum_k w^{jk} |k>."""
    j = np.arange(D)
    return np.exp(2j * np.pi * np.outer(j, j) / D) / np.sqrt(D)


def phase_state(D: int, theta: float) -> np.ndarray:
    """The single-qudit phase state (1/sqrt(D)) sum_j e^{i j theta} |j>."""
    return np.exp(1j * np.arange(D) * theta) / np.sqrt(D)


def fourier_basis_kets(D: int) -> list[np.ndarray]:
    """Orthonormal kets F^dagger|x>; measuring them here equals a computational
    measurement in the Fourier-transformed frame."""
    F = dft_matrix(D)
    return [F.conj().T[:, x].copy() for x in range(D)]


def swap_pair_matrix(D: int) -> np.ndarray:
    """Swap on two D-dimensional registers: |k>|j> -> |j>|k>."""
    return np.eye(D * D, dtype=complex)[:, np.arange(D * D).reshape(D, D).T.reshape(-1)]


PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
