"""Property test of the closed forms: every input either raises a
ParameterError or gives NaN-free output whose infinities are flagged."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from nmpo.errors import ParameterError
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
    for lab, value in rep.normalized().items():
        assert not math.isnan(value), (lab, value)
        assert not math.isinf(value) or rep.divergent[lab], (lab, value)
    assert not any(math.isnan(rep.absolute[lab]) for lab in VAR_LABELS), rep.absolute


@settings(max_examples=200, derandomize=True, deadline=None)
@given(MU, KAPPA, OCCUPANCY, st.none() | OCCUPANCY, st.booleans())
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
