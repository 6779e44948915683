"""Property test of the closed forms: every input either raises a
ParameterError, raises a NumericsError because a finite variance overflows
once scaled by (n_th + 1/2), or gives NaN-free output whose infinities
(normalized and absolute) are flagged."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmpo.errors import NumericsError, ParameterError
from nmpo.spectra import (
    VAR_LABELS,
    negativity_map,
    variances_above_threshold_u1,
    variances_below_threshold,
)

MU = st.floats(min_value=0.0, max_value=1e300)
KAPPA = st.floats(min_value=0.0, max_value=1e308, exclude_min=True) | st.just(math.inf)
OCCUPANCY = (
    st.floats(min_value=0.0, allow_infinity=False)
    | st.floats(max_value=0.0, exclude_max=True, allow_infinity=False)
    | st.sampled_from([math.nan, math.inf, -math.inf])
)


def _check_report(call):
    try:
        rep = call()
    except ParameterError:
        return
    except NumericsError as exc:
        assert "overflows" in str(exc), exc
        return
    for lab, value in rep.normalized().items():
        assert not math.isnan(value), (lab, value)
        assert not math.isinf(value) or rep.divergent[lab], (lab, value)
    for lab in VAR_LABELS:
        value = rep.absolute[lab]
        assert not math.isnan(value), (lab, rep.absolute)
        assert not math.isinf(value) or rep.divergent[lab], (lab, rep.absolute)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(MU, KAPPA, OCCUPANCY, st.none() | OCCUPANCY, st.booleans())
# y+ is finite (2e29) just above threshold, and (n_th + 1/2) y+ overflows
@example(1.000000000000001, 0.5, 1e300, None, False)
def test_closed_forms_raise_or_give_flagged_finite_values(mu, kappa, n_th, n_th_P, extrapolate):
    _check_report(lambda: variances_below_threshold(mu, kappa, n_th, extrapolate=extrapolate))
    _check_report(lambda: variances_above_threshold_u1(mu, kappa, n_th, n_th_P))
    try:
        rows = negativity_map([mu], [kappa], n_th)
    except ParameterError:
        return
    for row in rows:
        e_n, sigma_sq_abs = row[3], row[4]
        assert math.isfinite(e_n) and e_n >= 0.0, row
        assert math.isfinite(sigma_sq_abs) and sigma_sq_abs >= 0.0, row
