"""The independent references on systems with closed forms."""

import math

import pytest

from perfbench import reference


def _system(incidence, ratios, driving):
    return {
        "system": {"incidence": incidence},
        "maps": {"ratios": {str(i): {str(e): r for e, r in enumerate(row)} for i, row in enumerate(ratios)}},
        "driving": driving,
    }


CANTOR = _system([[1, 1], [1, 1]], [["1/3", "1/3"]], {"kind": "periodic", "states": [0]})


def test_spectral_reference_on_the_cantor_system():
    assert reference.spectral_pressure(CANTOR, 0.5) == pytest.approx(math.log(2) - 0.5 * math.log(3))
    assert reference.spectral_root(CANTOR) == pytest.approx(math.log(2) / math.log(3), abs=1e-12)
    # p(s) is affine, so the spectrum at the only exponent log 3 is the root
    assert reference.spectral_legendre(CANTOR, math.log(3)) == pytest.approx(math.log(2) / math.log(3), abs=1e-9)


def test_lyapunov_reference_matches_the_closed_form_of_iid_similarities():
    # golden-mean incidence with the same ratio everywhere: p(s) = log(phi) - s log 3
    golden = _system(
        [[1, 1], [1, 0]],
        [["1/3", "1/3"], ["1/3", "1/3"]],
        {"kind": "bernoulli", "states": [0, 1], "weights": [0.5, 0.5]},
    )
    phi = (1 + math.sqrt(5)) / 2
    got = reference.lyapunov_pressure(golden, [0.0, 1.0], 20_000, seed=3)
    assert got == pytest.approx([math.log(phi), math.log(phi) - math.log(3)], abs=1e-3)
    assert reference.lyapunov_root(golden, 20_000, seed=3) == pytest.approx(math.log(phi) / math.log(3), abs=1e-3)
