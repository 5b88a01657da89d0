import math

import pytest

from families import refine_minimizer_by_slope
from gmcvx.utils import golden_section_minimize


def counted(f):
    calls = []

    def g(t):
        calls.append(t)
        return f(t)

    return g, calls


def test_golden_section_quadratic():
    f, calls = counted(lambda t: (t - 1.3) ** 2 + 0.5)
    x, fx = golden_section_minimize(f, -10.0, 10.0, xtol=1e-11)
    assert x == pytest.approx(1.3, abs=1e-6)
    assert fx == pytest.approx(0.5, abs=1e-10)
    # the best point evaluated, with no extra call for its value
    assert fx == f(x) and x in calls


def test_golden_section_rejects_empty_bracket():
    with pytest.raises(ValueError):
        golden_section_minimize(lambda t: t * t, 1.0, 1.0)


def test_brent_steps_beat_golden_section_on_a_smooth_bracket():
    lo, hi, xtol = -5.0, 5.0, 1e-12
    f, calls = counted(lambda t: math.cosh(2.0 * (t - 0.123456789)))
    x, fx = golden_section_minimize(f, lo, hi, xtol=xtol)
    # golden section alone shrinks the bracket by 1/phi per evaluation
    golden_evals = math.ceil(math.log((hi - lo) / xtol) / math.log((1.0 + math.sqrt(5.0)) / 2.0))
    assert golden_evals > 50
    assert len(calls) < 25
    assert abs(x - 0.123456789) < 1e-7 and fx == f(x)


def test_brent_lands_on_a_kink():
    f, _ = counted(lambda t: abs(t - 0.3))
    x, fx = golden_section_minimize(f, -1.0, 1.0, xtol=1e-12)
    assert abs(x - 0.3) < 1e-9 and fx == f(x)


def test_refine_minimizer_beats_value_flatness():
    f = lambda t: math.cosh(2.0 * (t - 0.123456789))
    x0, _ = golden_section_minimize(f, -5.0, 5.0, xtol=1e-8)
    x1 = refine_minimizer_by_slope(f, x0)
    assert abs(x1 - 0.123456789) < 1e-9
