"""Parameter space, validation, and memory-kernel conventions."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from nmpo.errors import (
    NegativeOccupancy,
    NonPositiveRate,
    NumericsError,
    ParameterError,
    PumpNotFast,
    SlowPumpWarning,
)
from nmpo.model import SystemParams, kappa_of, kernel_freq

# === memory kernel ============================================================


def _kernel(gamma0: float, tau_r: float) -> SystemParams:
    return SystemParams(gamma0=gamma0, gammaP=100.0 * gamma0, tau_r=tau_r, g=0.01, mu=0.0)


def test_kernel_freq_values():
    k = _kernel(gamma0=1.0, tau_r=1.0)
    assert kernel_freq(k, 0.0) == 1.0 + 0.0j
    assert kernel_freq(k, 1.0) == pytest.approx(0.5 + 0.5j)
    km = _kernel(gamma0=1.0, tau_r=0.0)
    assert kernel_freq(km, 7.0) == 1.0 + 0.0j
    assert kernel_freq(km, -123.0) == 1.0 + 0.0j


def test_kernel_freq_conjugate_symmetry_exact():
    k = _kernel(gamma0=1.7, tau_r=0.9)
    rng = np.random.default_rng(0)
    for w in rng.uniform(-30, 30, 50):
        assert kernel_freq(k, -w) == np.conj(kernel_freq(k, w))


def test_kernel_freq_real_part():
    k = _kernel(gamma0=1.0, tau_r=2.0)
    for w in (0.0, 0.3, -1.7, 10.0):
        expect = 1.0 / (1.0 + (w * 2.0) ** 2)
        assert kernel_freq(k, w).real == pytest.approx(expect, rel=1e-14)


def test_kernel_time_integral_matches_zero_frequency_weight():
    # quadrature of gamma(t) = (gamma0 / tau) e^{-t/tau} over [0, 50 tau]
    # reproduces gamma~(0), which is the total weight gamma0 exactly
    for g0, tau in ((1.0, 1.0), (2.5, 0.3), (0.4, 4.0)):
        k = _kernel(gamma0=g0, tau_r=tau)
        total, _ = quad(lambda t: g0 / tau * math.exp(-t / tau), 0.0, 50.0 * tau, limit=200)
        assert total == pytest.approx(kernel_freq(k, 0.0).real, rel=1e-8)
        assert kernel_freq(k, 0.0) == g0
    assert kernel_freq(_kernel(gamma0=0.4, tau_r=0.0), 0.0) == 0.4


# === parameter validation =====================================================


def test_valid_params_derived_fields():
    p = SystemParams(gamma0=1.0, gammaP=100.0, tau_r=2.0, g=1.0, mu=0.5)
    assert p.kappa == pytest.approx(0.5)
    assert p.F_cr == pytest.approx(100.0 * 1.0 / 4.0)
    assert not p.markovian
    # round trip: kappa * tau_r * gamma0 = 1
    assert p.kappa * p.tau_r * p.gamma0 == pytest.approx(1.0, rel=1e-12)


def test_markovian_params():
    p = SystemParams(gamma0=1.0, gammaP=100.0, tau_r=0.0, g=0.01, mu=0.2)
    assert p.markovian
    assert math.isinf(p.kappa)


def test_slow_pump_rejected():
    with pytest.raises(PumpNotFast):
        SystemParams(gamma0=1.0, gammaP=5.0, tau_r=1.0, g=0.01, mu=0.0)


def test_marginal_pump_warns():
    # The warning names the caller's file, not the dataclass-generated
    # __init__ or model.py, whichever constructor is used.
    for build in (SystemParams, SystemParams.from_kappa):
        with pytest.warns(SlowPumpWarning) as record:
            build(1.0, 20.0, 1.0, 0.01, 0.0)
        assert [w.filename for w in record] == [__file__]


@pytest.mark.parametrize("gamma0, tau_r", [(1.0, 1e-320), (1.0, 5e-324), (1e-200, 1e-200)])
def test_memory_time_whose_kappa_overflows_rejected(gamma0, tau_r):
    with pytest.raises(NonPositiveRate) as err:
        SystemParams(gamma0, 100.0 * gamma0, tau_r, 0.01, 0.5)
    assert [f for f, _ in err.value.violations] == ["tau_r"]
    with pytest.raises(NonPositiveRate):
        kappa_of(gamma0, tau_r)
    # a memory time whose kappa is finite, if huge, is accepted
    p = SystemParams(gamma0, 100.0 * gamma0, 1.0 / (gamma0 * 1e308), 0.01, 0.5)
    assert math.isfinite(p.kappa) and not p.markovian


def test_negative_memory_time_rejected():
    with pytest.raises(NonPositiveRate):
        SystemParams(gamma0=1.0, gammaP=100.0, tau_r=-1.0, g=0.01, mu=0.0)


@pytest.mark.parametrize("tau_r", [math.inf, math.nan, -1.0])
def test_memory_time_must_be_finite_and_non_negative(tau_r):
    with pytest.raises(NonPositiveRate) as err:
        SystemParams(1.0, 100.0, tau_r, 0.01, 0.5)
    assert err.value.violations == [("tau_r", f"must be non-negative and finite, got {tau_r}")]
    with pytest.raises(NonPositiveRate) as err:
        kappa_of(1.0, tau_r)
    assert str(err.value) == f"tau_r: must be non-negative and finite, got {tau_r}"


def test_negative_occupancy_rejected():
    with pytest.raises(NegativeOccupancy):
        SystemParams(gamma0=1.0, gammaP=100.0, tau_r=1.0, g=0.01, mu=0.0, n_th_i=-0.5)


def test_negative_drive_rejected():
    with pytest.raises(ParameterError):
        SystemParams(gamma0=1.0, gammaP=100.0, tau_r=1.0, g=0.01, mu=-0.1)


def test_all_violations_reported_at_once():
    with pytest.raises(ParameterError) as err:
        SystemParams(gamma0=1.0, gammaP=5.0, tau_r=1.0, g=0.01, mu=0.0, n_th_s=-1.0)
    fields = [f for f, _ in err.value.violations]
    assert "gammaP" in fields and "n_th_s" in fields


def test_from_kappa_round_trip():
    p = SystemParams.from_kappa(gamma0=2.0, gammaP=200.0, kappa=0.37, g=0.01, mu=0.1)
    assert p.kappa == pytest.approx(0.37, rel=1e-12)
    assert p.tau_r == pytest.approx(1.0 / (2.0 * 0.37), rel=1e-12)
    pm = SystemParams.from_kappa(gamma0=1.0, gammaP=100.0, kappa=math.inf, g=0.01, mu=0.1)
    assert pm.tau_r == 0.0 and pm.markovian


def test_replace_updates_fields():
    p = SystemParams(gamma0=1.0, gammaP=100.0, tau_r=1.0, g=0.01, mu=0.3)
    q = p.replace(mu=1.7)
    assert q.mu == 1.7 and q.tau_r == p.tau_r
    r = p.replace(kappa=2.0)
    assert r.tau_r == pytest.approx(0.5)
    s = p.replace(kappa=math.inf)
    assert s.markovian


def test_replace_kappa_uses_the_new_gamma0():
    p = SystemParams(gamma0=1.0, gammaP=100.0, tau_r=1.0, g=0.01, mu=0.3)
    q = p.replace(gamma0=2.0, gammaP=200.0, kappa=1.0)
    assert q.kappa == pytest.approx(1.0, rel=1e-12)
    assert q.tau_r == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(NonPositiveRate):
        p.replace(kappa=0.0)


@pytest.mark.parametrize("mu", [math.inf, math.nan])
def test_non_finite_drive_rejected(mu):
    with pytest.raises(ParameterError) as err:
        SystemParams(gamma0=1.0, gammaP=100.0, tau_r=1.0, g=0.01, mu=mu)
    assert [f for f, _ in err.value.violations] == ["mu"]


# === derived scales ===========================================================


def test_derived_scales():
    p = SystemParams(
        gamma0=2.0, gammaP=400.0, tau_r=3.0, g=0.5, mu=0.1, n_th_i=0.2, n_th_s=0.6, n_th_P=0.3
    )
    assert p.variance_scale == pytest.approx(2.0 * 0.25 / (2.0 * 400.0), rel=1e-15)
    assert p.n_avg == pytest.approx(0.4, rel=1e-15)
    assert p.pump_noise_power == pytest.approx(2.0 * 0.25 / 4.0 * 400.0 * 0.8, rel=1e-15)
    assert p.timescales == (2.0 / 400.0, 3.0)
    assert SystemParams(gamma0=2.0, gammaP=400.0, tau_r=0.0, g=0.5, mu=0.1).timescales == (
        2.0 / 400.0,
        0.5,
    )
    assert SystemParams(gamma0=1.0, gammaP=100.0, tau_r=1e-3, g=0.5, mu=0.1).timescales == (
        1e-3,
        1.0,
    )


def test_noise_scales_keep_their_formulas_bit_for_bit():
    for g, gamma0, gamma_p, n_th_p in ((0.01, 1.0, 100.0, 0.0), (0.7, 0.3, 20.0, 2.5),
                                       (1e150, 1.0, 100.0, 0.0), (1e-150, 1e-3, 1e-2, 1e9)):
        p = SystemParams(gamma0=gamma0, gammaP=gamma_p, tau_r=1.0, g=g, mu=0.3, n_th_P=n_th_p)
        assert p.variance_scale == 2.0 * g**2 / (gamma0 * gamma_p)
        assert p.pump_noise_power == 2.0 * g**2 / gamma0**2 * gamma_p * (n_th_p + 0.5)


@pytest.mark.parametrize(
    "fields, scale, named",
    [
        # g^2 overflows: float ** raises
        ({"g": 1e300}, "variance_scale", "g = 1.000e+300"),
        ({"g": 1e300}, "pump_noise_power", "g = 1.000e+300"),
        # 2 g^2 overflows to inf
        ({"g": 1e154}, "variance_scale", "g = 1.000e+154"),
        # g^2 underflows to 0
        ({"g": 1e-200}, "variance_scale", "g = 1.000e-200"),
        # gamma0^2 underflows to 0, a division by zero
        ({"gamma0": 1e-170, "gammaP": 1e-160}, "pump_noise_power", "gamma0 = 1.000e-170"),
        # the product overflows to inf
        ({"g": 1.0, "n_th_P": 1e308}, "pump_noise_power", "n_th_P = 1.000e+308"),
    ],
)
def test_noise_scale_outside_the_float_range_is_a_numerics_error(fields, scale, named):
    p = SystemParams(**{"gamma0": 1.0, "gammaP": 100.0, "tau_r": 1.0, "g": 0.01, "mu": 0.3,
                        **fields})
    with pytest.raises(NumericsError, match="outside the float range") as err:
        getattr(p, scale)
    assert named in str(err.value)


def test_derived_scales_are_not_fields():
    p = SystemParams(gamma0=1.0, gammaP=100.0, tau_r=1.0, g=0.01, mu=0.3)
    names = [f.name for f in dataclasses.fields(p)]
    assert names == [
        "gamma0", "gammaP", "tau_r", "g", "mu", "n_th_i", "n_th_s", "n_th_P", "kappa", "F_cr",
    ]
    assert "variance_scale" not in repr(p)
    assert p.replace() == p


@pytest.mark.parametrize("kappa", [5e-324, 1e-310])
def test_kappa_whose_memory_time_overflows_is_rejected(kappa):
    with pytest.raises(NonPositiveRate) as err:
        SystemParams.from_kappa(gamma0=1.0, gammaP=100.0, kappa=kappa, g=0.01, mu=0.5)
    assert str(kappa) in str(err.value)
    assert [f for f, _ in err.value.violations] == ["kappa"]
    p = SystemParams(gamma0=1.0, gammaP=100.0, tau_r=1.0, g=0.01, mu=0.3)
    with pytest.raises(NonPositiveRate):
        p.replace(kappa=kappa)
    # a kappa just above the overflow keeps a finite memory time
    assert SystemParams.from_kappa(1.0, 100.0, 1e-308, 0.01, 0.5).tau_r == 1e308
