import numpy as np
import pytest

from otstereo.errors import EmptyScanlineError, InvalidIntensityError
from otstereo.measures import compare_masses, measure_from_row


def test_measure_from_row_mass_and_support():
    m = measure_from_row([0.0, 0.5, 0.5])
    assert m.dtype == np.float64
    assert m.tolist() == [0.0, 0.5, 0.5]
    assert m.sum() == pytest.approx(1.0, abs=1e-15)


def test_measure_rejects_bad_intensities():
    with pytest.raises(InvalidIntensityError):
        measure_from_row([0.2, 1.5])
    with pytest.raises(InvalidIntensityError):
        measure_from_row([0.2, -0.1])
    with pytest.raises(InvalidIntensityError):
        measure_from_row([0.2, float("nan")])
    with pytest.raises(InvalidIntensityError):
        measure_from_row([[0.2, 0.3]])


def test_empty_row_is_allowed_unless_required():
    m = measure_from_row([0.0, 0.0])
    assert m.shape == (2,)
    assert m.sum() == 0.0
    with pytest.raises(EmptyScanlineError):
        measure_from_row([0.0, 0.0], require_mass=True)


def test_compare_masses_flags_a_mass_gap():
    assert not compare_masses(1.0, 0.95)


def test_compare_masses_identical_rows_balanced():
    row = np.array([0.0, 0.3, 0.7, 0.0])
    assert compare_masses(row.sum(), row.copy().sum())


def test_compare_masses_tolerance_is_relative():
    # the same absolute gap of 5e-5 balances at mass 100 but not at mass 1
    assert compare_masses(100.0, 100.0 + 5e-5)
    assert not compare_masses(1.0, 1.0 + 5e-5)


def test_compare_masses_zero_rows():
    assert compare_masses(0.0, 0.0)
