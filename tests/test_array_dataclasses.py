"""Frozen dataclasses that hold arrays compare and hash by identity.

Generated field-wise equality would compare arrays, whose truth value is
ambiguous, and a generated hash would hash arrays, which are unhashable.
"""

import numpy as np
import pytest

from conftest import diag_system
from efftemp import catalysis, oracle, simplex, temperatures, thermal


def _lp():
    return oracle.GibbsStochasticLP(np.array([0.6, 0.4]), np.array([0.0, 1.0]), 0.5)


FACTORIES = {
    "QuantumSystem": lambda: diag_system([0.0, 1.0], [0.5, 0.5]),
    "GibbsSolveResult": lambda: thermal.gibbs_by_beta([0.0, 1.0], 0.5),
    "GibbsStochasticLP": _lp,
    "HeatOptimum": lambda: oracle.heat_sign_oracle(diag_system([0.0, 1.0], [0.6, 0.4]), 0.5).gain,
    "PolytopeOptimum": lambda: oracle.max_energy_gain(_lp()),
    "LPResult": lambda: simplex.solve_lp([1.0, 0.0], [[1.0, 1.0]], [1.0]),
    "JCConfig": lambda: catalysis.JCConfig(steps=2),
    "CatalysisResult": lambda: catalysis.CatalysisResult(np.eye(2) / 2, 0.0),
    "TimeSeriesResult": lambda: catalysis.TimeSeriesResult(np.zeros((2, 7)), 0.0),
    "QutritCatalystSetup": lambda: catalysis.QutritCatalystSetup(lam=0.5, beta=0.0),
    "VirtualTempSpectrum": lambda: temperatures.virtual_spectrum(
        diag_system([0.0, 1.0], [0.6, 0.4])),
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_equality_is_identity_and_hash_works(name):
    a, b = FACTORIES[name](), FACTORIES[name]()
    assert type(a).__name__ == name
    assert (a == a) is True
    assert (a == b) is False
    assert (a != b) is True
    assert isinstance(hash(a), int)
    assert len({a, b, a}) == 2
