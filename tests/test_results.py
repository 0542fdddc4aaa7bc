import math
import pickle
from dataclasses import MISSING, fields

import pytest

from gausshelp.results import Z95, SimSummary, TrialRecord, wilson_interval


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


@pytest.mark.parametrize("k,n", [(-1, 10), (11, 10), (0, -1)])
def test_wilson_refuses_bad_counts(k, n):
    with pytest.raises(ValueError, match=rf"^need 0 <= successes <= trials, got {k}/{n}$"):
        wilson_interval(k, n)


def test_wilson_of_zero_trials_is_nan():
    assert all(math.isnan(bound) for bound in wilson_interval(0, 0))


def test_summary_refuses_more_errors_than_trials():
    required = {f.name: 0 for f in fields(SimSummary) if f.default is MISSING}
    assert SimSummary(**{**required, "trials": 3, "errors": 3}).errors == 3
    with pytest.raises(ValueError, match="^errors cannot exceed trials$"):
        SimSummary(**{**required, "trials": 3, "errors": 4})


def test_trial_record_has_slots_and_pickles():
    # A record holds its eight fields in slots: its fields can be reassigned
    # (simulate_feedback relabels them), an unknown attribute is refused, and
    # it survives pickling.
    rec = TrialRecord(3, 1, 0.5, 0.25, 12.0, False, 3, False)
    rec.message, rec.decoded, rec.noise_energy = 2**70, 5, rec.noise_energy + 1.0
    assert not hasattr(rec, "__dict__")
    with pytest.raises(AttributeError):
        rec.extra = 1
    back = pickle.loads(pickle.dumps(rec))
    assert back == rec and back.message == 2**70 and back.noise_energy == 13.0
