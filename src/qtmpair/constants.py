"""Unit conversion constants for the kelvin/tesla/Bohr-magneton unit system.

All energies in this package are stored as E/k_B in kelvin, magnetic fields
in tesla, magnetic moments in Bohr magnetons and times in nanoseconds.  The
two CODATA-derived ratios below are the only conversions ever needed:

    mu_B / k_B : Zeeman energy of 1 Bohr magneton in 1 tesla, in kelvin
    k_B / h    : oscillation frequency of a 1 kelvin splitting, in GHz
"""

# Bohr magneton over Boltzmann constant [K/T]
MU_B_OVER_K_B = 0.671714

# Boltzmann constant over Planck constant [GHz/K]
K_B_OVER_H_GHZ = 20.836619

# Largest number of parallel Arrhenius channels in a relaxation model or fit
MAX_PROCESSES = 4
