"""Device fault models for the simulated PCM array.

:mod:`repro.faults.models` is a decorator registry of
:class:`~repro.faults.models.FaultModel` classes describing how PCM cells
fail (static stuck-at snapshots, row-correlated weak rows, transient
sensing flips corrected by :mod:`repro.ecc`, wear-drift mid-replay).
Experiments select a model by name through ``TechniqueSpec.fault_model``
or the runner's ``--set fault_model=NAME``.

Every injected fault derives from :func:`repro.utils.rng.make_rng`
labels, so runs are bit-reproducible.
"""

from repro.faults.models import (
    FaultModel,
    RowCorrelatedFaults,
    StaticStuckAtFaults,
    TransientReadFaults,
    WearDriftFaults,
)
from repro.faults.registry import (
    available_fault_models,
    get_fault_model_class,
    make_fault_model,
    register_fault_model,
    unregister_fault_model,
)

__all__ = [
    "FaultModel",
    "RowCorrelatedFaults",
    "StaticStuckAtFaults",
    "TransientReadFaults",
    "WearDriftFaults",
    "available_fault_models",
    "get_fault_model_class",
    "make_fault_model",
    "register_fault_model",
    "unregister_fault_model",
]
