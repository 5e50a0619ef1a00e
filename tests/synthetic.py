"""Propagator blocks with known pair content, shared by the test modules."""

import numpy as np

from diracpairs import GBlocks


def haar_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def cs_unitary_gblocks(rng, angles):
    """(GBlocks, A, C) of the unitary diag(A, C) [[cos, sin], [-sin, cos]]
    diag(D, B)^dag with Haar A, B, C (the minus-sector columns do not involve
    D): omega = -A tan(angles) C^dag, so the spectrum of omega^dag omega is
    tan(angles)^2, degeneracies included."""
    m = len(angles)
    a, b, c = (haar_unitary(rng, m) for _ in range(3))
    cos, sin = np.diag(np.cos(angles)), np.diag(np.sin(angles))
    return GBlocks(g_pm=a @ sin @ b.conj().T, g_mm=c @ cos @ b.conj().T), a, c


def synthetic_gblocks(omega):
    """GBlocks with -G_pm G_mm^{-1} = omega and orthonormal columns:
    G_mm = (1 + omega^H omega)^{-1/2} and G_pm = -omega G_mm, so that
    |det(G_mm)|^2 = 1/det(1 + omega^H omega), the normalization a unitary
    evolution enforces."""
    omega = np.asarray(omega, dtype=complex)
    lam, v = np.linalg.eigh(omega.conj().T @ omega)
    g_mm = (v / np.sqrt(1.0 + lam)) @ v.conj().T
    return GBlocks(g_pm=-omega @ g_mm, g_mm=g_mm)
