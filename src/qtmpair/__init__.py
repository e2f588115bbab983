"""Four-state pseudospin toolkit for coupled anisotropic 4f ion pairs.

Builds and diagonalizes the tunneling Hamiltonian of a lanthanide dimer
with and without applied field, derives tunneling rates and threshold
fields, and fits multi-process Arrhenius models to magnetization-lifetime
data.  Import each name from its module; the package root holds only ``__version__``.
"""

__version__ = "0.1.0"
