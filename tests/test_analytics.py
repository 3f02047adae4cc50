import dataclasses
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from sqtransport import analytics as an
from sqtransport import photostatistics as ps
from sqtransport import validation
from sqtransport.errors import ThresholdReached, ValidityWarning

mp.mp.dps = 40

# each property's one copy is a fast check of ``validation``; test_cli's
# test_fast_check runs every check, and these names keep this module's test ids
test_universal_absorbing_limit = validation.check_universal_absorbing_limit
test_threshold_divergence_and_error = validation.check_threshold_divergence
test_analytic_continuation_absorbing_to_amplifying = validation.check_analytic_continuation


def _mp_bracket_absorbing(s):
    s = mp.mpf(s)
    sh, coth = mp.sinh(s), mp.cosh(s) / mp.sinh(s)
    return 3 - (2 * s + coth) / sh - (s * coth - 1) / sh**2 + s / sh**3


def _mp_bracket_amplifying(s):
    s = mp.mpf(s)
    sn, cot = mp.sin(s), mp.cos(s) / mp.sin(s)
    return 3 - (2 * s - cot) / sn + (s * cot - 1) / sn**2 - s / sn**3


def _ratios(**kwargs):
    defaults = dict(s=1.0, l_over_xi=0.1, efficiency=1.0, occupation=1e-3, fano_in=1.0)
    defaults.update(kwargs)
    return an.WaveguideRatios(**defaults)


def test_brackets_match_high_precision_oracle():
    for s in (0.3, 0.7, 1.0, 1.9, 2.6, 5.0):
        assert an.direct_bracket_absorbing(s) == pytest.approx(
            float(_mp_bracket_absorbing(s)), rel=1e-13)
    for s in (0.3, 0.7, 1.0, 1.9, 2.6, 3.0):
        assert an.direct_bracket_amplifying(s) == pytest.approx(
            float(_mp_bracket_amplifying(s)), rel=1e-12)


def test_direct_absorbing_fixture_s1():
    # high-precision evaluation of the full average at s=1, F_in=1, d=1, f=1e-3
    got = an.fano_direct_absorbing_avg(_ratios(s=1.0))
    expected = 1 + 0.5e-3 * float(_mp_bracket_absorbing(1))
    assert got == pytest.approx(expected, rel=1e-14)


def test_direct_amplifying_fixture_s1():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        got = an.fano_direct_amplifying_avg(
            _ratios(s=1.0, occupation=-1.0, fano_in=0.0))
    assert got == pytest.approx(1.240320867421548528726, rel=1e-14)


def test_direct_trivial_when_coherent_and_cold():
    for s in (0.2, 1.0, 4.0, 11.0):
        got = an.fano_direct_absorbing_avg(_ratios(s=s, occupation=0.0, fano_in=1.0))
        assert got == 1.0
    got = an.fano_direct_amplifying_avg(_ratios(s=1.5, occupation=0.0, fano_in=1.0))
    assert got == 1.0


def test_strong_absorption_forgets_input_state():
    low = an.fano_direct_absorbing_avg(_ratios(s=12.0, fano_in=0.0))
    high = an.fano_direct_absorbing_avg(_ratios(s=12.0, fano_in=3.0))
    assert abs(high - low) < 1e-5


def test_monotone_divergence_beyond_turning_point():
    # locate the minimum of the amplifying average numerically, then require
    # monotone growth from there to the threshold
    for fano_in in (0.0, 1.0, 3.0):
        grid = np.linspace(0.3, math.pi - 1e-4, 600)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            values = [an.fano_direct_amplifying_avg(
                _ratios(s=float(s), occupation=-1.0, fano_in=fano_in)) for s in grid]
        turning = int(np.argmin(values))
        tail = values[turning:]
        assert all(b > a for a, b in zip(tail, tail[1:]))


def test_homodyne_min_fixtures():
    w = an.WaveguideRatios(s=1.0, l_over_xi=0.1, efficiency=1.0, occupation=1e-3,
                           rho=0.5, coupling=0.5, n_modes=10)
    assert an.fano_homo_min_absorbing_avg(w) == pytest.approx(
        0.9967026415035652187699, rel=1e-14)
    assert an.fano_homo_fixed_phase_avg(w) == pytest.approx(
        1.003369308170231885437, rel=1e-14)


def _mp_homodyne_detuned(s, rho, offset, amplifying, l_over_xi=0.1, d=0.9, kappa=0.4,
                         f=1e-3, n_modes=20):
    s, rho, offset = mp.mpf(s), mp.mpf(rho), mp.mpf(offset)
    front = 8 * mp.mpf(l_over_xi) * mp.mpf(d) * mp.mpf(kappa) / 3
    if amplifying:
        geometry, thermal = mp.sin(s), (mp.cos(s) - 1) / mp.sin(s)
    else:
        geometry, thermal = mp.sinh(s), (mp.cosh(s) + 1) / mp.sinh(s)
    incident = mp.sinh(rho) * (mp.sinh(rho) - mp.cosh(rho) * mp.cos(2 * offset))
    return 1 + front * incident / (n_modes * geometry) + front * mp.mpf(f) * thermal


def _homodyne_ratios(s, rho, occupation=1e-3):
    return an.WaveguideRatios(s=s, l_over_xi=0.1, efficiency=0.9, occupation=occupation,
                              rho=rho, coupling=0.4, n_modes=20)


def test_detuned_average_special_cases():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        for amplifying, occupation in ((False, 1e-3), (True, -1.0)):
            minimum = (an.fano_homo_min_amplifying_avg if amplifying
                       else an.fano_homo_min_absorbing_avg)
            for s in (0.5, 1.0, 2.5):
                for rho in (0.0, 0.3, 1.2):
                    w = _homodyne_ratios(s, rho, occupation)
                    assert an.fano_homo_detuned_avg(w, 0.0, amplifying) == pytest.approx(
                        minimum(w), rel=1e-13)
                    assert an.fano_homo_detuned_avg(w, math.pi / 4, amplifying) == (
                        pytest.approx(an.fano_homo_fixed_phase_avg(w, amplifying),
                                      rel=1e-13))


@pytest.mark.parametrize("amplifying", [False, True], ids=["absorbing", "amplifying"])
def test_detuned_average_matches_high_precision(amplifying):
    occupation = -1.0 if amplifying else 1e-3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        for s, rho, offset in ((0.7, 0.5, 0.3), (1.5, 1.0, 1.9), (2.9, 0.2, 4.0),
                               (1.0, 0.8, math.pi / 3)):
            got = an.fano_homo_detuned_avg(_homodyne_ratios(s, rho, occupation), offset,
                                           amplifying)
            exact = _mp_homodyne_detuned(s, rho, offset, amplifying, f=occupation)
            assert got == pytest.approx(float(exact), rel=1e-12)


def test_homodyne_trivial_cases():
    w = an.WaveguideRatios(s=0.8, l_over_xi=0.1, efficiency=0.9, occupation=0.0,
                           rho=0.0, coupling=0.4, n_modes=12)
    assert an.fano_homo_min_absorbing_avg(w) == 1.0
    assert an.fano_homo_fixed_phase_avg(w) == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        assert an.fano_homo_min_amplifying_avg(dataclasses.replace(w, s=1.0)) == 1.0


def test_homodyne_amplifying_inverted_thermal_term_identity():
    # at f = -1 the thermal bracket cotan s - 1/sin s equals -tan(s/2)
    for s in (0.4, 1.0, 2.2, 3.0):
        w = an.WaveguideRatios(s=s, l_over_xi=0.1, efficiency=1.0, occupation=-1.0,
                               rho=0.0, coupling=0.5, n_modes=10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            got = an.fano_homo_min_amplifying_avg(w)
        front = 8 * 0.1 * 1.0 * 0.5 / 3.0
        assert got == pytest.approx(1 + front * math.tan(s / 2), rel=1e-12)


def test_fixed_phase_never_below_minimum():
    # empirical scan; the difference is front * sinh(rho) (sinh(rho)+exp(-rho)) >= 0
    violations = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        for rho in np.linspace(0.0, 1.5, 7):
            for s in np.linspace(0.2, 3.0, 12):
                w = an.WaveguideRatios(s=float(s), l_over_xi=0.1, efficiency=1.0,
                                       occupation=1e-3, rho=float(rho), coupling=0.5,
                                       n_modes=10)
                if (an.fano_homo_fixed_phase_avg(w)
                        < an.fano_homo_min_absorbing_avg(w) - 1e-14):
                    violations.append((rho, s, "absorbing"))
                if s < math.pi:
                    wa = dataclasses.replace(w, occupation=-1.0)
                    if (an.fano_homo_fixed_phase_avg(wa, amplifying=True)
                            < an.fano_homo_min_amplifying_avg(wa) - 1e-14):
                        violations.append((rho, s, "amplifying"))
    assert violations == []


def test_zero_length_limits():
    state = ps.SqueezedInput(0.8, 1.0, 0.4, incident_mode=2)
    same = ps.DetectionConfig(1.0, homodyne=ps.HomodyneConfig(0.5, 2))
    other = ps.DetectionConfig(1.0, homodyne=ps.HomodyneConfig(0.5, 0))
    direct, homodyne = an.zero_length_limits(state, same)
    fano_in = ps.fano_in_squeezed(state)
    assert direct == pytest.approx(1 + (fano_in - 1), rel=1e-14)
    assert homodyne == pytest.approx(1 - 2 * 0.5 * math.exp(-1.0) * math.sinh(1.0),
                                     rel=1e-14)
    assert an.zero_length_limits(state, other)[1] == 1.0
    coherent = ps.SqueezedInput(2.0, 0.0, 0.0)
    d0, _ = an.zero_length_limits(coherent, ps.DetectionConfig(0.0))
    assert d0 == 1.0
    punched = ps.SqueezedInput(1.0, 0.9, 0.0)
    d1, _ = an.zero_length_limits(punched, ps.DetectionConfig(1.0))
    assert d1 == pytest.approx(ps.fano_in_squeezed(punched), rel=1e-14)


def test_validity_warning_for_short_media():
    with pytest.warns(ValidityWarning):
        an.fano_direct_absorbing_avg(_ratios(s=0.2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", ValidityWarning)
        an.fano_direct_absorbing_avg(_ratios(s=1.0))  # L = 10 l: silent


def test_ratio_validation():
    with pytest.raises(ValueError):
        an.WaveguideRatios(s=0.0, l_over_xi=0.1)
    with pytest.raises(ValueError):
        an.WaveguideRatios(s=1.0, l_over_xi=-0.1)
    with pytest.raises(ValueError):
        an.fano_direct_absorbing_avg(an.WaveguideRatios(s=6.0, l_over_xi=0.1))


# the figure closed forms, each with the other ratios of one curve: short media
# below s = 0.5, localization from s = 0.2 at N = 10 and from s = 20 at N = 1000
_FIGURE_FORMULAS = [
    ("fano_direct_absorbing_avg", dict(occupation=1e-3, fano_in=0.5)),
    ("fano_direct_amplifying_avg", dict(occupation=-1.0, fano_in=0.5)),
    ("fano_homo_min_absorbing_avg", dict(occupation=1e-3, rho=0.5, coupling=0.5, n_modes=10)),
    ("fano_homo_min_amplifying_avg", dict(occupation=-1.0, rho=0.5, coupling=0.5, n_modes=10)),
]
_FIGURE_IDS = [formula for formula, _ in _FIGURE_FORMULAS]


def _outcome(call):
    """The value of ``call()`` or its error as (type, message), and the warning messages."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except (ValueError, ThresholdReached) as exc:
            result = (type(exc), str(exc))
    assert all(w.category is ValidityWarning for w in caught)
    return result, [str(w.message) for w in caught]


def _assert_curve_equals_points(formula, s_values, **fields):
    curve, curve_warnings = _outcome(lambda: an.fano_curve(formula, s_values, **fields))
    points, point_warnings = _outcome(lambda: [
        getattr(an, formula)(an.WaveguideRatios(s=s, **fields)) for s in s_values])
    assert curve == points
    # once per curve: the first warning of each kind that the points issue
    short = [message for message in point_warnings if message.startswith("L = ")]
    localization = [message for message in point_warnings if "localization" in message]
    assert curve_warnings == short[:1] + localization[:1]
    return curve, curve_warnings


@pytest.mark.parametrize("formula, fields", _FIGURE_FORMULAS, ids=_FIGURE_IDS)
def test_curve_equals_per_point_calls(formula, fields):
    s_max = 3.12 if "amplifying" in formula else 12.0
    grids = [np.linspace(0.05, s_max, 240).tolist(),  # the figures' default grid
             np.linspace(0.6, 3.0, 25).tolist(),  # inside the diffusive window
             [2.0, 0.7, 1.3]]
    for s_values in grids:
        for l_over_xi, n_modes in ((0.1, 10), (0.1, 1000), (0.01, 1000)):
            ratios = dict(fields, l_over_xi=l_over_xi, efficiency=0.8)
            if "n_modes" in ratios:
                ratios["n_modes"] = n_modes
            curve, _ = _assert_curve_equals_points(formula, s_values, **ratios)
            assert len(curve) == len(s_values)
    # inside the window the curve is silent; the short grid warns
    inside = dict(fields, l_over_xi=0.1, n_modes=1000) if "n_modes" in fields else dict(
        fields, l_over_xi=0.1)
    assert _assert_curve_equals_points(formula, grids[1], **inside)[1] == []
    assert _assert_curve_equals_points(formula, grids[0], **inside)[1] == [
        "L = 0.50 l is not large compared to the mean free path"]
    assert an.fano_curve(formula, [], **inside) == []


@pytest.mark.parametrize("formula, fields", _FIGURE_FORMULAS, ids=_FIGURE_IDS)
def test_curve_raises_as_the_first_failing_point(formula, fields):
    amplifying = "amplifying" in formula
    base = dict(fields, l_over_xi=0.1)
    cases = [
        ([0.2, 1.0, 0.0, 2.0], base),  # s <= 0 after warnings
        ([1.0, 0.0, 0.2], base),  # no warnings from the points after it
        ([-1.0, 1.0], base),
        ([0.2, 1.0, 3.5, -1.0], base),  # beyond pi: raises only when amplifying
        ([math.pi], base),
        ([1.0, 2.0], dict(base, l_over_xi=-0.1)),
        ([0.0, 2.0], dict(base, l_over_xi=-0.1)),  # the s check comes first
        ([1.0, 2.0], dict(base, efficiency=1.5)),
        ([0.3, 4.0], dict(base, **{name: None for name in fields if name != "occupation"})),
    ]
    if "n_modes" in fields:
        cases.append(([1.0], dict(base, n_modes=0)))
    for s_values, ratios in cases:
        curve, _ = _assert_curve_equals_points(formula, s_values, **ratios)
        if amplifying or min(s_values) <= 0 or ratios is not base:
            assert isinstance(curve, tuple), (s_values, ratios)


def test_validity_warnings_point_at_the_caller():
    short = dict(s=0.2, l_over_xi=0.1, efficiency=1.0, occupation=1e-3)
    homodyne = dict(rho=0.5, coupling=0.5, n_modes=10)
    direct_w = an.WaveguideRatios(**short, fano_in=1.0)
    homodyne_w = an.WaveguideRatios(**short, **homodyne)
    calls = [
        lambda: an.fano_direct_absorbing_avg(direct_w),
        lambda: an.fano_direct_amplifying_avg(direct_w),
        lambda: an.fano_homo_min_absorbing_avg(homodyne_w),
        lambda: an.fano_homo_min_amplifying_avg(homodyne_w),
        lambda: an.fano_homo_fixed_phase_avg(homodyne_w, amplifying=True),
        lambda: an.fano_homo_detuned_avg(homodyne_w, 0.3),
        lambda: an.fano_curve("fano_direct_absorbing_avg", [0.2, 0.3], l_over_xi=0.1,
                              fano_in=1.0),
        lambda: an.fano_curve("fano_homo_min_amplifying_avg", [0.2, 0.3], l_over_xi=0.1,
                              occupation=-1.0, **homodyne),
    ]
    for call in calls:
        with pytest.warns(ValidityWarning) as record:
            call()
        assert {warning.filename for warning in record} == {__file__}
