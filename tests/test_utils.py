import math

import pytest

from families import refine_minimizer_by_slope
from gmcvx.utils import golden_section_minimize


def test_golden_section_quadratic():
    x, fx = golden_section_minimize(lambda t: (t - 1.3) ** 2 + 0.5, -10.0, 10.0, xtol=1e-11)
    assert x == pytest.approx(1.3, abs=1e-6)
    assert fx == pytest.approx(0.5, abs=1e-10)


def test_golden_section_rejects_empty_bracket():
    with pytest.raises(ValueError):
        golden_section_minimize(lambda t: t * t, 1.0, 1.0)


def test_refine_minimizer_beats_value_flatness():
    f = lambda t: math.cosh(2.0 * (t - 0.123456789))
    x0, _ = golden_section_minimize(f, -5.0, 5.0, xtol=1e-8)
    x1 = refine_minimizer_by_slope(f, x0)
    assert abs(x1 - 0.123456789) < 1e-9

