"""Spectral helpers that only the tests use.

The package differentiates in one place, the divergence of the analyzed
advection fluxes (model._divergence).  These plain forms serve the tests
as oracles and to make single modes.
"""

import numpy as np

from benard_da.spectral import COS, SIN, SpectralField


def derivative_x(f):
    return f * (1j * f.grid.kx[:, None])


def derivative_y(f):
    """d/dy flips parity: sin -> cos with +m pi, cos -> sin with -m pi.

    The cos -> sin image of the m = ny column is not representable and is
    truncated by the field constructor.
    """
    g = f.grid
    if f.parity == SIN:
        return SpectralField(g, COS, f.coeffs * g.ky[None, :])
    return SpectralField(g, SIN, f.coeffs * (-g.ky[None, :]))


def dealias(f):
    """The field (scalar or vector) cut to the grid's dealiased band."""
    return f * f.grid.dealias_mask


def real_mode(grid, parity, n, m, amplitude=1.0, phase=0.0):
    """amplitude * Re[exp(i(2 pi n x / L + phase))] * basis_m(y), as a field."""
    c = np.zeros(grid.coeff_shape, dtype=np.complex128)
    if n in (0, grid.nx // 2, -grid.nx // 2):
        c[abs(n), m] = amplitude * np.cos(phase)
    else:
        half = 0.5 * amplitude * np.exp(1j * phase)
        c[abs(n), m] = half if n > 0 else np.conj(half)
    return SpectralField(grid, parity, c)
