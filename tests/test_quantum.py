import math
from fractions import Fraction

import numpy as np
import pytest

from pslocal.core import CHSH, Efficiencies, to_cg
from pslocal.errors import InvalidSetup, OffSlice, PreconditionFailed, TooCoarse
from pslocal.inequalities import ch
from pslocal.polytope import membership, local_polytope
from pslocal.quantum import (
    FloatTable,
    QubitSetup,
    appendix_b_values,
    bell_state_setup,
    circle_max,
    correlation,
    eberhard_scan,
    rationalize,
    slice_coords,
    xz,
)

F = Fraction

TSIRELSON = 1 / math.sqrt(2) - 0.5


def _tsirelson_setup() -> QubitSetup:
    return QubitSetup(
        bell_state_setup().state,
        (xz(0.0), xz(math.pi / 2)),
        (xz(math.pi / 4), xz(-math.pi / 4)),
    )


class TestCorrelation:
    def test_tsirelson_value(self):
        t = correlation(_tsirelson_setup())
        value = float(ch().evaluate(to_cg(rationalize(t, 10 ** 9))))
        assert abs(value - TSIRELSON) < 1e-9

    def test_output_is_normalized_and_nonsignaling(self):
        t = correlation(_tsirelson_setup())
        for x in range(2):
            for y in range(2):
                assert abs(sum(
                    t.p[x][y][a][b] for a in range(2) for b in range(2)
                ) - 1) < 1e-12
        assert t.max_signaling() < 1e-12

    def test_setup_normalization_enforced(self):
        with pytest.raises(InvalidSetup):
            QubitSetup(
                np.array([1.0, 1.0, 0.0, 0.0]),
                (xz(0.0), xz(1.0)),
                (xz(0.0), xz(1.0)),
            )


class TestSlice:
    def test_tsirelson_point_on_quantum_circle(self):
        x, y = slice_coords(correlation(_tsirelson_setup()))
        assert abs(x ** 2 + y ** 2 - 0.5) < 1e-9

    def test_off_slice_rejected(self):
        setup = QubitSetup(
            bell_state_setup().state,
            (xz(0.0), xz(0.3)),
            (xz(1.1), xz(2.3)),
        )
        with pytest.raises(OffSlice):
            slice_coords(correlation(setup), tol=1e-12)


class TestCircleMax:
    def test_sign_straddles_circle_threshold(self):
        threshold = 2 * math.sqrt(2) - 2
        for eta in (0.82, 0.83, 0.84):
            value = circle_max(Efficiencies.of(*(F(round(eta * 100), 100),) * 2))
            assert (value > 0) == (eta > threshold)

    def test_unit_efficiency_recovers_tsirelson(self):
        assert abs(circle_max(Efficiencies.of(1, 1)) - TSIRELSON) < 1e-12


class TestOneSidedClosedForms:
    def test_closed_forms(self):
        for k in range(11, 20):
            eta = k / 20
            vals = appendix_b_values(eta)
            closed = math.sqrt((eta ** 2 + (1 - eta) ** 2) / 2) - 0.5
            assert abs(vals["ch_eta_value"] - closed) < 1e-12
            assert abs(vals["i3223_value"] - (eta + closed)) < 1e-12
            assert vals["i3223_value"] > vals["i3223_bound"]

    def test_domain_check(self):
        with pytest.raises(PreconditionFailed):
            appendix_b_values(0.5)


class TestEberhardScan:
    def test_violation_below_symmetric_threshold_fails(self):
        with pytest.raises(PreconditionFailed):
            eberhard_scan(Efficiencies.of(F(3, 5), F(3, 5)))

    def test_zero_restarts_rejected(self):
        with pytest.raises(PreconditionFailed):
            eberhard_scan(Efficiencies.of(F(7, 10), F(7, 10)), restarts=0)

    def test_violation_found_at_seventy_percent(self):
        scan = eberhard_scan(Efficiencies.of(F(7, 10), F(7, 10)), restarts=16)
        assert scan["violation_found"]
        assert scan["best_value"] > 0


class TestRationalize:
    def test_round_trip_is_close_and_local_point_stays_local(self):
        t = correlation(_tsirelson_setup())
        mixed = FloatTable(
            CHSH,
            0.5 * t.p + 0.125 * np.ones_like(t.p),
        )
        q = rationalize(mixed, 10 ** 6)
        assert membership(to_cg(q), local_polytope(CHSH)).inside

    def test_too_coarse_rejected(self):
        t = correlation(_tsirelson_setup())
        with pytest.raises(TooCoarse):
            rationalize(t, 3)
