"""The coherent phase sum behind every received-power measurement."""

import numpy as np


def coherent_sum(amp, psi, theta):
    """Return sum_k amp[k] * exp(-1j * (psi[k] + theta[k])) as a complex scalar."""
    if len(psi) != len(amp) or len(theta) != len(amp):
        raise ValueError("amp, psi, theta must have equal length")
    return complex(np.sum(amp * np.exp(-1j * (psi + theta))))
