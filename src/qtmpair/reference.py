"""Published parameters of the two reference dilanthanide fullerenes.

Central values of the two-process Arrhenius fits to the zero-field
magnetization lifetimes of Dy2S@C82 and Tb2ScN@C80, together with the
reported threshold fields, ground-gap frequencies and quarter-rule
tunneling elements.  These are regression anchors, not recomputed
quantities; the underlying doublet splittings U come from equilibrium
magnetization measurements and are treated as user input elsewhere.
"""

from .record import Record
from .relaxation import ArrheniusProcess, RelaxationModel


class MoleculeReference(Record):
    """Published values: ``relaxation`` holds process I (tunneling) and II (activated),
    ``threshold_field_t`` is B_Zt = U / (2 mu_y) in tesla, ``splitting_ratio`` is U/A."""

    __slots__ = ("name", "relaxation", "threshold_field_t", "reported_frequency_ghz",
                 "reported_tunneling_k", "splitting_ratio")

    def __init__(self, name, relaxation, threshold_field_t, reported_frequency_ghz,
                 reported_tunneling_k, splitting_ratio):
        self._init(name, relaxation, threshold_field_t, reported_frequency_ghz,
                   reported_tunneling_k, splitting_ratio)


DY2S_C82 = MoleculeReference(
    name="Dy2S@C82",
    relaxation=RelaxationModel(
        processes=(
            ArrheniusProcess(tau0=4.0e2, delta=0.34),
            ArrheniusProcess(tau0=2.1e-3, delta=16.1),
        )
    ),
    threshold_field_t=1.9,
    reported_frequency_ghz=6.3,
    reported_tunneling_k=0.085,
    splitting_ratio=40.0,
)

TB2SCN_C80 = MoleculeReference(
    name="Tb2ScN@C80",
    relaxation=RelaxationModel(
        processes=(
            ArrheniusProcess(tau0=1.9e1, delta=0.97),
            ArrheniusProcess(tau0=8.9e-3, delta=10.0),
        )
    ),
    threshold_field_t=1.6,
    reported_frequency_ghz=20.8,
    reported_tunneling_k=0.250,
    splitting_ratio=190.0,
)

REFERENCE_MOLECULES = (DY2S_C82, TB2SCN_C80)
