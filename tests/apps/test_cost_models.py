"""The chare cost models, pinned bit for bit.

Every digest and golden result rests on the exact floats ``work()``
returns, and IEEE-754 addition and multiplication are not associative.
The expressions below are the models as first written, operation for
operation; any reordering of the models' float arithmetic (or of the
per-chare constants they precompute) changes some of these values.
"""

import math

import pytest

from repro.apps import Jacobi2D, Mol3D, Wave2D
from repro.apps.base import LJ_FLOPS_PER_PAIR
from repro.apps.mol3d import MDCellChare

ITERATIONS = range(1000)


def stencil_work(ch, iteration):
    base = ch.rows * ch.cols * ch.flops_per_cell / ch.core_speed
    amp = ch.jitter_amp
    if amp == 0.0:
        return base
    jitter_phase = ((ch.jitter_seed * 2654435761 + ch.index * 40503) % 6283) / 1000.0
    phase = 0.7 * iteration + 2.3 * ch.index + jitter_phase
    return base * (1.0 + amp * math.sin(phase))


def md_work(ch, iteration):
    factor = 1.0 + ch.drift_amp * math.sin(
        2.0 * math.pi * iteration / ch.drift_period + ch.drift_phase
    )
    n = ch.particles * factor
    pairs = 0.5 * n * (n / ch.avg_particles) * MDCellChare.NEIGHBORS_AT_AVG_DENSITY
    return pairs * LJ_FLOPS_PER_PAIR / ch.core_speed


def _bits(values):
    return [float.hex(v) for v in values]


@pytest.mark.parametrize(
    "model",
    [
        Jacobi2D(grid_size=512),
        Jacobi2D(grid_size=300, odf=3, jitter_seed=7, core_speed=1.3e9),
        Wave2D(grid_size=512, jitter_amp=0.02, jitter_seed=3),
        Jacobi2D(grid_size=512, jitter_amp=0.0),
        Wave2D(grid_size=200, odf=5, jitter_amp=0.0, core_speed=0.7e9),
    ],
    ids=["jacobi", "jacobi-odd", "wave-wide-jitter", "jacobi-flat", "wave-flat"],
)
def test_stencil_work_is_the_written_expression(model):
    chares = list(model.build_array(4))
    assert len({ch.index for ch in chares}) >= 12
    for ch in chares:
        assert _bits(ch.work(i) for i in ITERATIONS) == _bits(
            stencil_work(ch, i) for i in ITERATIONS
        ), ch.key


@pytest.mark.parametrize(
    "model",
    [
        Mol3D(),
        Mol3D(total_particles=7_001, odf=3, density_cv=0.9, drift_amp=0.3,
              drift_period=7, core_speed=1.3e9, seed=5),
    ],
    ids=["default", "fast-drift"],
)
def test_md_work_is_the_written_expression(model):
    chares = list(model.build_array(4))
    assert len(chares) >= 12
    for ch in chares:
        assert _bits(ch.work(i) for i in ITERATIONS) == _bits(
            md_work(ch, i) for i in ITERATIONS
        ), ch.key
