"""Property tests pinning the vectorized vertex enumeration.

``LinearConstraints.enumerate_vertices`` solves its candidate systems in
blocks (batched ``slogdet`` / ``solve`` and array-mask feasibility checks)
and ``WeightRatioConstraints.enumerate_vertices`` normalises all rectangle
vertices at once.  The per-subset / per-vertex loops they replaced are kept
below, verbatim, as the scalar references (kernel contract, rule 2): the
vectorized enumerators must return the *same bits in the same order*,
because vertex order and values feed every score-space mapping downstream,
and must raise exactly where the references raise.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import LinearConstraints, WeightRatioConstraints
from repro.core.preference import _FEASIBILITY_ATOL

#: Largest ``C(c + d, d - 1)`` drawn, so the scalar reference stays cheap
#: (a d = 8 partial weak ranking has C(14, 7) = 3432 subsets).
_MAX_SUBSETS = 3432


def _deduplicate_reference(vertices: np.ndarray,
                           atol: float = _FEASIBILITY_ATOL) -> np.ndarray:
    """Remove (near-)duplicate rows while keeping a stable order."""
    unique: List[np.ndarray] = []
    for row in vertices:
        if not any(np.allclose(row, kept, atol=atol) for kept in unique):
            unique.append(row)
    return np.asarray(unique)


def linear_vertices_reference(self: LinearConstraints) -> np.ndarray:
    """The per-subset loop: one ``np.linalg.solve`` per active set."""
    d = self.dimension
    if d == 1:
        vertex = np.array([[1.0]])
        if self.num_constraints and np.any(
                self.matrix @ vertex[0] > self.rhs + _FEASIBILITY_ATOL):
            raise ValueError("infeasible constraints for d=1")
        return vertex

    # Build the pool of inequality constraints: rows of A plus -ω_i <= 0.
    rows: List[np.ndarray] = [self.matrix[i] for i in range(self.num_constraints)]
    bounds: List[float] = [float(self.rhs[i]) for i in range(self.num_constraints)]
    for i in range(d):
        row = np.zeros(d)
        row[i] = -1.0
        rows.append(row)
        bounds.append(0.0)

    pool = np.asarray(rows)
    pool_rhs = np.asarray(bounds)
    ones = np.ones((1, d))

    candidates: List[np.ndarray] = []
    for subset in itertools.combinations(range(len(rows)), d - 1):
        system = np.vstack([ones, pool[list(subset)]])
        rhs = np.concatenate([[1.0], pool_rhs[list(subset)]])
        try:
            solution = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(solution)):
            continue
        if self.feasible(solution):
            candidates.append(solution)

    if not candidates:
        raise ValueError("the preference region is empty "
                         "(infeasible constraint system)")
    return _deduplicate_reference(np.asarray(candidates))


def ratio_vertices_reference(self: WeightRatioConstraints) -> np.ndarray:
    """The per-vertex loop: one 1-D ``weight.sum()`` per rectangle vertex."""
    vertices = []
    for k in range(self.num_rectangle_vertices()):
        ratios = self.rectangle_vertex(k)
        weight = np.concatenate([ratios, [1.0]])
        vertices.append(weight / weight.sum())
    return _deduplicate_reference(np.asarray(vertices))


def _outcome(enumerate_fn, constraints):
    """``("ok", vertices)`` or ``("raise", message)``."""
    try:
        return "ok", enumerate_fn(constraints)
    except ValueError as error:
        return "raise", str(error)


def assert_bit_identical(constraints, reference_fn) -> str:
    """Compare the library enumerator with its reference; returns the
    shared outcome kind (``"ok"`` or ``"raise"``)."""
    kind, got = _outcome(type(constraints).enumerate_vertices, constraints)
    ref_kind, expected = _outcome(reference_fn, constraints)
    assert kind == ref_kind, (got, expected)
    if kind == "raise":
        assert got == expected
        return kind
    assert got.dtype == expected.dtype == np.float64
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    return kind


@st.composite
def constraint_shapes(draw, min_dimension: int = 2, max_dimension: int = 8,
                      extra_rows: int = 0):
    """``(d, c)`` with at most ``_MAX_SUBSETS`` candidate systems once
    ``extra_rows`` more rows join the ``c`` drawn ones."""
    d = draw(st.integers(min_value=min_dimension, max_value=max_dimension))
    limit = max(c for c in range(d + 2)
                if comb(c + extra_rows + d, d - 1) <= _MAX_SUBSETS)
    return d, draw(st.integers(min_value=0, max_value=limit))


_GAUSSIAN = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False,
                      allow_infinity=False, width=64)
_GRID = st.integers(min_value=-2, max_value=2).map(float)


@st.composite
def gaussian_systems(draw):
    """Real-valued ``A``, ``b`` (mostly feasible, some empty regions)."""
    d, c = draw(constraint_shapes())
    matrix = draw(arrays(np.float64, (c, d), elements=_GAUSSIAN))
    rhs = draw(arrays(np.float64, (c,), elements=_GAUSSIAN))
    return LinearConstraints(d, matrix, rhs)


@st.composite
def duplicated_row_systems(draw):
    """Integer ``A``, ``b`` with repeated rows: every subset holding two
    copies of a row is singular, and integer data makes exact ties (and
    exact repeats among the candidate vertices) common."""
    d, c = draw(constraint_shapes(min_dimension=3, extra_rows=2))
    c = max(c, 1)
    matrix = draw(arrays(np.float64, (c, d), elements=_GRID))
    rhs = draw(arrays(np.float64, (c,), elements=_GRID))
    copies = draw(st.lists(st.integers(min_value=0, max_value=c - 1),
                           min_size=1, max_size=2))
    matrix = np.vstack([matrix, matrix[copies]])
    rhs = np.concatenate([rhs, rhs[copies]])
    return LinearConstraints(d, matrix, rhs)


@st.composite
def infeasible_systems(draw):
    """A random system plus ``ω_j >= 1 + margin`` on one coordinate: no
    simplex weight satisfies it, so both enumerators must raise."""
    d, c = draw(constraint_shapes(extra_rows=1))
    matrix = draw(arrays(np.float64, (c, d), elements=_GAUSSIAN))
    rhs = draw(arrays(np.float64, (c,), elements=_GAUSSIAN))
    j = draw(st.integers(min_value=0, max_value=d - 1))
    margin = draw(st.floats(min_value=0.01, max_value=2.0))
    row = np.zeros(d)
    row[j] = -1.0
    return LinearConstraints(d, np.vstack([matrix, row]),
                             np.concatenate([rhs, [-1.0 - margin]]))


class TestLinearVerticesMatchTheSubsetLoop:
    @settings(max_examples=60, deadline=None)
    @given(gaussian_systems())
    def test_random_systems(self, constraints):
        assert_bit_identical(constraints, linear_vertices_reference)

    @settings(max_examples=60, deadline=None)
    @given(duplicated_row_systems())
    def test_duplicated_rows_and_singular_subsets(self, constraints):
        assert_bit_identical(constraints, linear_vertices_reference)

    @settings(max_examples=30, deadline=None)
    @given(infeasible_systems())
    def test_infeasible_systems_raise_the_same_error(self, constraints):
        assert assert_bit_identical(
            constraints, linear_vertices_reference) == "raise"

    @pytest.mark.parametrize("dimension", range(2, 9))
    @pytest.mark.parametrize("full", [False, True])
    def test_weak_rankings(self, dimension, full):
        """The workload shape: partial and full weak rankings over a
        shuffled attribute order (C(15, 7) = 6435 systems at d = 8, more
        than one block)."""
        order = np.random.default_rng(dimension).permutation(dimension)
        ranked = order if full else order[:-1]
        rows = []
        for better, worse in zip(ranked[:-1], ranked[1:]):
            row = np.zeros(dimension)
            row[better], row[worse] = -1.0, 1.0
            rows.append(row)
        constraints = LinearConstraints(dimension, rows or None,
                                        [0.0] * len(rows) or None)
        assert assert_bit_identical(
            constraints, linear_vertices_reference) == "ok"

    def test_the_one_dimensional_simplex(self):
        assert_bit_identical(LinearConstraints(1), linear_vertices_reference)
        assert assert_bit_identical(
            LinearConstraints(1, [[1.0]], [0.5]),
            linear_vertices_reference) == "raise"


@st.composite
def ratio_boxes(draw):
    """Weight-ratio boxes for d = 2..9, some with degenerate (``l = h``)
    ranges that produce exactly repeated vertices."""
    d = draw(st.integers(min_value=2, max_value=9))
    bounds = st.floats(min_value=0.05, max_value=20.0, allow_nan=False,
                       allow_infinity=False)
    ranges = []
    for _ in range(d - 1):
        low, high = sorted((draw(bounds), draw(bounds)))
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            high = low
        ranges.append((low, high))
    return WeightRatioConstraints(ranges)


class TestRatioVerticesMatchTheVertexLoop:
    @settings(max_examples=60, deadline=None)
    @given(ratio_boxes())
    def test_row_sums_match_the_one_dimensional_sum(self, constraints):
        assert assert_bit_identical(
            constraints, ratio_vertices_reference) == "ok"
