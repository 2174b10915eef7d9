import math

import numpy as np
import pytest

from brightbeam import db_to_var, var_to_db
from brightbeam.detection import correct_electronic_noise
from brightbeam.errors import DomainError


def test_zero_db_is_unity():
    assert db_to_var(0.0) == 1.0


def test_minus_3db_is_half():
    assert db_to_var(-3.01) == pytest.approx(0.500, abs=5e-4)


def test_paper_style_squeezing_conversion():
    # 2.5 dB of squeezing below shot noise
    assert db_to_var(-2.5) == pytest.approx(0.5623, abs=1e-4)


def test_roundtrip():
    for d in (-30.0, -2.5, 0.0, 3.7, 23.0):
        assert var_to_db(db_to_var(d)) == pytest.approx(d, abs=1e-12)


def test_db_to_var_overflow_is_a_domain_error():
    with pytest.raises(DomainError, match="dB"):
        db_to_var(1e6)
    assert db_to_var(-1e6) == 0.0


def test_db_to_var_on_arrays():
    v = db_to_var(np.array([[0.0, 10.0], [-10.0, -1e6]]))
    assert v.tolist() == [[1.0, 10.0], [0.1, 0.0]]
    # The overflow names the first value that overflows, as the scalar path
    # does, and warns nothing (the suite turns a RuntimeWarning into an error).
    with pytest.raises(DomainError) as array_error:
        db_to_var(np.array([3.0, 4000.0, 5000.0]))
    with pytest.raises(DomainError) as scalar_error:
        db_to_var(4000.0)
    assert str(array_error.value) == str(scalar_error.value) == (
        "4000.0 dB is out of the representable variance range")


def test_var_to_db_rejects_nonpositive():
    with pytest.raises(DomainError):
        var_to_db(0.0)
    with pytest.raises(DomainError):
        var_to_db(-1.0)


def test_var_to_db_on_arrays():
    db = var_to_db(np.array([[0.5, 1.0], [np.nan, 100.0]]))
    assert db.shape == (2, 2)
    assert db[0, 1] == 0.0 and db[1, 1] == 20.0 and math.isnan(db[1, 0])
    assert db[0, 0] == pytest.approx(10 * math.log10(0.5), abs=1e-15)
    assert type(var_to_db(2.0)) is float
    with pytest.raises(DomainError, match="got -2.0"):
        var_to_db(np.array([1.0, -2.0, 0.0]))


class TestElectronicNoiseCorrection:
    def test_closed_form(self):
        # 10*log10(10^-8 - 10^-9)
        assert correct_electronic_noise(-80.0, -90.0) == pytest.approx(-80.4576, abs=1e-4)

    def test_no_noise_is_identity(self):
        assert correct_electronic_noise(-80.0, -math.inf) == -80.0

    def test_equal_levels_rejected(self):
        with pytest.raises(DomainError):
            correct_electronic_noise(-84.4, -84.4)

    @pytest.mark.parametrize("signal, electronic, expected", [
        (4000.0, -80.0, 4000.0),
        (4000.0, 3999.0, 3999.0 + 10.0 * math.log10(10.0 ** 0.1 - 1.0)),
        (3100.0, 3000.0, 3100.0 + 10.0 * math.log10(1.0 - 1e-10)),
    ])
    def test_powers_beyond_the_float_range(self, signal, electronic, expected):
        # 10^(signal / 10) overflows a double; the corrected power does not.
        assert correct_electronic_noise(signal, electronic) == pytest.approx(expected, abs=1e-9)

    def test_close_levels_keep_their_difference(self):
        # 10 log10(10^-6 - 10^-6.05), to 60 digits: -69.6357448083830224...
        # A plain difference of the two powers loses digits to cancellation.
        exact = -69.63574480838302
        assert abs(correct_electronic_noise(-60.0, -60.5) - exact) <= math.ulp(exact)

    def test_roundtrip_add_then_subtract(self):
        electronic = -87.8
        clean = -82.0
        total = 10.0 * math.log10(10 ** (clean / 10) + 10 ** (electronic / 10))
        assert correct_electronic_noise(total, electronic) == pytest.approx(clean, abs=1e-9)
