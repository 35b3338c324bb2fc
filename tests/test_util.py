"""Unit tests for the util helpers (validation, RNG, float totals,
logging)."""

import logging
import math
from fractions import Fraction

import numpy as np
import pytest

from repro.util import (
    check_finite,
    check_in_range,
    check_non_negative,
    check_positive,
    check_type,
    get_logger,
    left_sum,
    resolve_rng,
)


class TestValidation:
    def test_check_type_passthrough_and_error(self):
        assert check_type("x", 5, int) == 5
        with pytest.raises(TypeError, match="x must be int"):
            check_type("x", "no", int)
        with pytest.raises(TypeError, match="int or float"):
            check_type("x", "no", (int, float))

    def test_check_finite(self):
        assert check_finite("x", 1.5) == 1.5
        with pytest.raises(ValueError):
            check_finite("x", math.nan)
        with pytest.raises(ValueError):
            check_finite("x", math.inf)
        with pytest.raises(TypeError):
            check_finite("x", "1.0")
        with pytest.raises(TypeError):
            check_finite("x", True)  # bools are not numbers here

    def test_check_non_negative(self):
        assert check_non_negative("x", 0.0) == 0.0
        with pytest.raises(ValueError):
            check_non_negative("x", -1e-9)

    def test_check_positive(self):
        assert check_positive("x", 1e-9) == 1e-9
        with pytest.raises(ValueError):
            check_positive("x", 0.0)

    def test_check_in_range(self):
        assert check_in_range("x", 5, 0, 10) == 5
        check_in_range("x", 0, 0, 10)
        check_in_range("x", 10, 0, 10)
        with pytest.raises(ValueError):
            check_in_range("x", -1, 0, 10)
        with pytest.raises(ValueError):
            check_in_range("x", 11, 0, 10)
        with pytest.raises(ValueError):
            check_in_range("x", 0, 0, 10, low_inclusive=False)
        with pytest.raises(ValueError):
            check_in_range("x", 10, 0, 10, high_inclusive=False)
        # open-ended sides
        check_in_range("x", 1e9, low=0)
        check_in_range("x", -1e9, high=0)


class TestRng:
    def test_none_is_deterministic_default(self):
        a = resolve_rng(None).random(3)
        b = resolve_rng(None).random(3)
        np.testing.assert_array_equal(a, b)

    def test_int_seed(self):
        a = resolve_rng(7).random(3)
        b = resolve_rng(7).random(3)
        c = resolve_rng(8).random(3)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_generator_passthrough(self):
        g = np.random.default_rng(1)
        assert resolve_rng(g) is g

    def test_bad_seed_type(self):
        with pytest.raises(TypeError):
            resolve_rng("seed")


class TestLeftSum:
    def test_is_the_uncompensated_left_fold(self):
        # Python 3.12's compensated sum() gives 1.0 for both
        assert left_sum([0.1] * 10) == 0.9999999999999999
        assert left_sum([1e16, 1.0, -1e16]) == 0.0
        assert left_sum(x for x in (0.1, 0.2, 0.3)) == (0.1 + 0.2) + 0.3

    def test_start_and_exact_totals(self):
        assert left_sum([]) == 0 and type(left_sum([])) is int
        assert left_sum([1, 2, 3], 10) == 16
        assert left_sum([Fraction(1, 3)] * 3, Fraction(0)) == 1
        assert left_sum([0.5], 1.0) == 1.5


class TestLogger:
    def test_namespacing(self):
        assert get_logger("sim.engine").name == "repro.sim.engine"
        assert get_logger("repro.core").name == "repro.core"

    def test_null_handler_attached(self):
        logger = get_logger("test.nullhandler")
        assert any(
            isinstance(h, logging.NullHandler) for h in logger.handlers
        )
