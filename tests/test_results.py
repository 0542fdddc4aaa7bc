import math

import pytest

from gausshelp.results import Z95, wilson_interval


def wilson_reference(k, n):
    """The Wilson score interval solved as the roots of its defining quadratic."""
    p = k / n
    z2 = Z95 * Z95
    a = 1.0 + z2 / n
    b = -(2.0 * p + z2 / n)
    disc = math.sqrt(b * b - 4.0 * a * p * p)
    return (-b - disc) / (2.0 * a), (-b + disc) / (2.0 * a)


@pytest.mark.parametrize("k,n", [(1, 10), (5, 10), (3, 300), (150, 300), (0, 300), (300, 300)])
def test_wilson_values_and_exact_ordering(k, n):
    # at 0/n and n/n the ordering forces the bounds to exactly 0 and 1
    lo, hi = wilson_interval(k, n)
    ref_lo, ref_hi = wilson_reference(k, n)
    assert lo == pytest.approx(ref_lo, abs=1e-12)
    assert hi == pytest.approx(ref_hi, abs=1e-12)
    assert 0.0 <= lo <= k / n <= hi <= 1.0
