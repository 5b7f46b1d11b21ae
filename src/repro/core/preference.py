"""Preference model: linear scoring functions with constrained weights.

The paper considers scoring functions ``S_ω(t) = sum_i ω[i] t[i]`` whose
weight vectors live on the unit ``(d-1)``-simplex and are additionally
constrained.  Two families of constraints are supported:

* :class:`LinearConstraints` — an arbitrary system ``A ω <= b`` (Section III
  of the paper).  The key object derived from it is the set of *vertices* of
  the preference region, because Theorem 2 reduces the F-dominance test to a
  comparison of the scores under those vertices.
* :class:`WeightRatioConstraints` — the weight-ratio constraints
  ``l_i <= ω[i]/ω[d] <= h_i`` of Section IV.  These admit the O(d)
  F-dominance test of Theorem 5 and are the constraint class used by the
  eclipse query.

Both expose the same interface (:meth:`vertices`, :meth:`preference_region`)
so the general-constraint algorithms work for either family.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .numeric import SCORE_ATOL

#: Tolerance used when checking feasibility of candidate vertices and when
#: de-duplicating vertices of the preference region.
_FEASIBILITY_ATOL = 1e-9

#: Elements per vectorized block of vertex enumeration: ``_CHUNK_BUDGET //
#: d²`` candidate systems are built and solved at once (256 at ``d = 8``),
#: and de-duplication compares at most this many row entries at a time
#: (kernel contract, rule 4).
_CHUNK_BUDGET = 1 << 14


class PreferenceRegion:
    """The convex polytope ``Ω ⊆ S^{d-1}`` of admissible weight vectors.

    The region is represented by its vertex set ``V`` (a ``(d', d)`` array).
    By Theorem 2, instance ``t`` F-dominates ``s`` iff ``S_ω(t) <= S_ω(s)``
    for every vertex ``ω ∈ V``; mapping instances to their score vectors
    under ``V`` therefore turns F-dominance into classical dominance in a
    ``d'``-dimensional space.
    """

    def __init__(self, vertices: Sequence[Sequence[float]]):
        array = np.asarray(vertices, dtype=float)
        if array.ndim != 2:
            raise ValueError("vertices must form a 2-D array")
        if array.shape[0] == 0:
            raise ValueError("the preference region is empty "
                             "(infeasible constraints)")
        self._vertices = array

    @property
    def vertices(self) -> np.ndarray:
        """Vertex matrix of shape ``(d', d)``."""
        return self._vertices

    @property
    def dimension(self) -> int:
        """Dimensionality ``d`` of the data space."""
        return self._vertices.shape[1]

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``d'`` (the dimensionality of the score space)."""
        return self._vertices.shape[0]

    def score(self, point: Sequence[float]) -> np.ndarray:
        """Score vector ``S_V(t) = (S_ω1(t), ..., S_ωd'(t))`` of one point."""
        return self._vertices @ np.asarray(point, dtype=float)

    def score_matrix(self, points: np.ndarray) -> np.ndarray:
        """Score vectors for a batch of points: ``(n, d) -> (n, d')``."""
        return np.asarray(points, dtype=float) @ self._vertices.T

    def contains(self, weight: Sequence[float],
                 atol: float = _FEASIBILITY_ATOL) -> bool:
        """Check whether ``weight`` lies in the convex hull of the vertices.

        Solved as a small non-negative least squares feasibility problem; the
        method is only used by tests and the interactive constraint
        generator, never on a hot path.
        """
        weight = np.asarray(weight, dtype=float)
        verts = self._vertices
        if verts.shape[0] == 1:
            return bool(np.allclose(verts[0], weight, atol=atol))
        # Solve min ||V^T λ - w|| s.t. λ >= 0, sum λ = 1 with a projected
        # gradient loop (small dimensions, small vertex counts).
        lam = np.full(verts.shape[0], 1.0 / verts.shape[0])
        gram = verts @ verts.T
        target = verts @ weight
        step = 1.0 / (np.linalg.norm(gram, 2) + 1e-12)
        for _ in range(2000):
            grad = gram @ lam - target
            lam = lam - step * grad
            lam = np.clip(lam, 0.0, None)
            total = lam.sum()
            lam = lam / total if total > 0 else np.full_like(lam, 1.0 / len(lam))
        residual = np.linalg.norm(verts.T @ lam - weight)
        return bool(residual <= 1e-6)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "PreferenceRegion(d=%d, vertices=%d)" % (self.dimension,
                                                        self.num_vertices)


@dataclass
class LinearConstraints:
    """Linear constraints ``A ω <= b`` on weights of the unit simplex.

    Attributes
    ----------
    dimension:
        Dimensionality ``d`` of the data space (and of the weight vectors).
    matrix:
        The ``(c, d)`` constraint matrix ``A``.  May be empty (``c = 0``),
        in which case the preference region is the whole simplex and
        F-dominance coincides with classical dominance.
    rhs:
        The ``(c,)`` right-hand side vector ``b``.
    """

    dimension: int
    matrix: np.ndarray
    rhs: np.ndarray

    def __init__(self, dimension: int,
                 matrix: Optional[Sequence[Sequence[float]]] = None,
                 rhs: Optional[Sequence[float]] = None):
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        self.dimension = int(dimension)
        if matrix is None:
            self.matrix = np.zeros((0, dimension))
            self.rhs = np.zeros(0)
        else:
            self.matrix = np.asarray(matrix, dtype=float).reshape(-1, dimension)
            if rhs is None:
                self.rhs = np.zeros(self.matrix.shape[0])
            else:
                self.rhs = np.asarray(rhs, dtype=float).reshape(-1)
            if self.matrix.shape[0] != self.rhs.shape[0]:
                raise ValueError("matrix has %d rows but rhs has %d entries"
                                 % (self.matrix.shape[0], self.rhs.shape[0]))

    # ------------------------------------------------------------------
    # Constructors for the constraint families used in the experiments
    # ------------------------------------------------------------------
    @classmethod
    def unconstrained(cls, dimension: int) -> "LinearConstraints":
        """The whole simplex: F contains all linear scoring functions."""
        return cls(dimension)

    @classmethod
    def weak_ranking(cls, dimension: int,
                     num_constraints: Optional[int] = None) -> "LinearConstraints":
        """The WR constraint generator of the paper.

        ``ω[i] >= ω[i+1]`` for ``1 <= i <= c``, i.e. earlier attributes are
        at least as important as later ones.  The default number of
        constraints is ``d - 1`` which is also the paper's default.
        """
        if num_constraints is None:
            num_constraints = dimension - 1
        if not 0 <= num_constraints <= dimension - 1:
            raise ValueError("weak ranking supports 0..d-1 constraints")
        rows = []
        for i in range(num_constraints):
            row = np.zeros(dimension)
            row[i] = -1.0
            row[i + 1] = 1.0
            rows.append(row)
        if not rows:
            return cls(dimension)
        return cls(dimension, np.vstack(rows), np.zeros(len(rows)))

    @classmethod
    def from_halfspaces(cls, dimension: int,
                        halfspaces: Sequence[Tuple[Sequence[float], float]]
                        ) -> "LinearConstraints":
        """Build from explicit ``(row, bound)`` pairs meaning ``row·ω <= bound``."""
        if not halfspaces:
            return cls(dimension)
        matrix = np.asarray([row for row, _ in halfspaces], dtype=float)
        rhs = np.asarray([bound for _, bound in halfspaces], dtype=float)
        return cls(dimension, matrix, rhs)

    # ------------------------------------------------------------------
    # Vertex enumeration
    # ------------------------------------------------------------------
    @property
    def num_constraints(self) -> int:
        return self.matrix.shape[0]

    def feasible(self, weight: Sequence[float],
                 atol: float = _FEASIBILITY_ATOL) -> bool:
        """Check whether a weight vector satisfies simplex + constraints."""
        weight = np.asarray(weight, dtype=float)
        if weight.shape != (self.dimension,):
            return False
        if np.any(weight < -atol):
            return False
        if abs(weight.sum() - 1.0) > atol:
            return False
        if self.num_constraints and np.any(
                self.matrix @ weight > self.rhs + atol):
            return False
        return True

    def enumerate_vertices(self) -> np.ndarray:
        """Enumerate the vertices of ``Ω = {ω ∈ S^{d-1} | Aω <= b}``.

        A vertex is the unique solution of a system consisting of the simplex
        equality and ``d - 1`` active inequality constraints drawn from the
        rows of ``A`` and the non-negativity constraints, that additionally
        satisfies all remaining inequalities.  The constraint counts used in
        the paper (``c <= d``, ``d <= 8``) make brute-force enumeration over
        all ``C(c + d, d - 1)`` subsets perfectly adequate.

        Subsets are solved in blocks of ``_CHUNK_BUDGET // d²`` systems, in
        ``combinations`` order.  ``slogdet``'s sign masks the singular ones
        (the ``getrf`` zero-pivot test that makes a lone ``solve`` raise),
        one batched ``solve`` runs one ``gesv`` per remaining system, and
        :meth:`feasible`'s checks run as array masks on the same operands,
        so the result is bit-identical to solving each subset on its own
        (pinned by ``tests/properties/test_property_preference.py``).
        """
        d = self.dimension
        if d == 1:
            vertex = np.array([[1.0]])
            if self.num_constraints and np.any(
                    self.matrix @ vertex[0] > self.rhs + _FEASIBILITY_ATOL):
                raise ValueError("infeasible constraints for d=1")
            return vertex

        # The pool of inequality constraints: rows of A plus -ω_i <= 0
        # (``np.diag`` keeps +0.0 off the diagonal; ``-np.eye`` has -0.0).
        pool = np.vstack([self.matrix, np.diag(np.full(d, -1.0))])
        pool_rhs = np.concatenate([self.rhs, np.zeros(d)])
        subsets = itertools.combinations(range(pool.shape[0]), d - 1)
        per_block = max(1, _CHUNK_BUDGET // (d * d))

        candidates: List[np.ndarray] = []
        while True:
            block = np.fromiter(
                itertools.chain.from_iterable(
                    itertools.islice(subsets, per_block)),
                dtype=np.intp).reshape(-1, d - 1)
            if not block.shape[0]:
                break
            systems = np.empty((block.shape[0], d, d))
            systems[:, 0] = 1.0
            systems[:, 1:] = pool[block]
            rhs = np.empty((block.shape[0], d, 1))
            rhs[:, 0] = 1.0
            rhs[:, 1:, 0] = pool_rhs[block]
            # Singular systems make slogdet take log(0), and non-finite
            # solutions (masked out below) meet inf - inf in the checks.
            with np.errstate(divide="ignore", invalid="ignore",
                             over="ignore"):
                regular = np.linalg.slogdet(systems)[0] != 0
                solutions = np.linalg.solve(systems[regular],
                                            rhs[regular])[..., 0]
                keep = np.isfinite(solutions).all(axis=1)
                keep &= ~(solutions < -_FEASIBILITY_ATOL).any(axis=1)
                keep &= ~(np.abs(solutions.sum(axis=1) - 1.0)
                          > _FEASIBILITY_ATOL)
                if self.num_constraints:
                    # One matrix-vector product per solution (``gemv``, as
                    # in :meth:`feasible`); one ``gemm`` rounds differently.
                    products = np.matmul(self.matrix, solutions[..., None])
                    keep &= ~(products[..., 0]
                              > self.rhs + _FEASIBILITY_ATOL).any(axis=1)
            candidates.append(solutions[keep])

        vertices = np.concatenate(candidates)
        if not vertices.shape[0]:
            raise ValueError("the preference region is empty "
                             "(infeasible constraint system)")
        return _deduplicate(vertices)

    def preference_region(self) -> PreferenceRegion:
        """Vertex enumeration wrapped into a :class:`PreferenceRegion`."""
        return PreferenceRegion(self.enumerate_vertices())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "LinearConstraints(d=%d, c=%d)" % (self.dimension,
                                                  self.num_constraints)


@dataclass
class WeightRatioConstraints:
    """Weight ratio constraints ``l_i <= ω[i]/ω[d] <= h_i`` (Section IV).

    ``ranges[i] = (l_i, h_i)`` for the first ``d - 1`` attributes; the last
    attribute acts as the reference dimension with ``ω[d] > 0``.
    """

    ranges: Tuple[Tuple[float, float], ...]

    def __init__(self, ranges: Sequence[Tuple[float, float]]):
        converted = []
        for low, high in ranges:
            low = float(low)
            high = float(high)
            if low <= 0.0 or high <= 0.0:
                raise ValueError("weight ratio bounds must be positive")
            if low > high:
                raise ValueError("lower bound %g exceeds upper bound %g"
                                 % (low, high))
            converted.append((low, high))
        if not converted:
            raise ValueError("at least one ratio range is required")
        self.ranges = tuple(converted)

    @property
    def dimension(self) -> int:
        """Dimensionality ``d`` of the data space."""
        return len(self.ranges) + 1

    @property
    def lows(self) -> np.ndarray:
        return np.asarray([low for low, _ in self.ranges], dtype=float)

    @property
    def highs(self) -> np.ndarray:
        return np.asarray([high for _, high in self.ranges], dtype=float)

    # ------------------------------------------------------------------
    # Vertex view (compatible with the general-constraint algorithms)
    # ------------------------------------------------------------------
    def num_rectangle_vertices(self) -> int:
        """Number of vertices of the ratio hyper-rectangle, ``2^(d-1)``."""
        return 1 << (self.dimension - 1)

    def rectangle_vertex(self, k: int) -> np.ndarray:
        """The ``k``-vertex of ``R`` in the paper's lexicographic order.

        ``k = 0`` is ``(l_1, ..., l_{d-1})`` and ``k = 2^{d-1} - 1`` is
        ``(h_1, ..., h_{d-1})``; bit ``i`` of ``k`` (most significant bit
        first) selects ``h_i`` over ``l_i``.
        """
        d_minus_1 = self.dimension - 1
        if not 0 <= k < (1 << d_minus_1):
            raise ValueError("vertex index %d out of range" % k)
        vertex = np.empty(d_minus_1)
        for i, (low, high) in enumerate(self.ranges):
            bit = (k >> (d_minus_1 - 1 - i)) & 1
            vertex[i] = high if bit else low
        return vertex

    def enumerate_vertices(self) -> np.ndarray:
        """Vertices of the induced preference region on the simplex.

        Each vertex ``r`` of the ratio hyper-rectangle maps to the simplex
        weight ``ω = (r, 1) / (sum(r) + 1)`` (the normalisation used in the
        proof of Lemma 1).
        """
        d_minus_1 = self.dimension - 1
        # Bit i of k (most significant first) selects h_i over l_i, as in
        # :meth:`rectangle_vertex`.
        codes = np.arange(self.num_rectangle_vertices())[:, None]
        bits = (codes >> np.arange(d_minus_1 - 1, -1, -1)) & 1
        weights = np.ones((codes.shape[0], d_minus_1 + 1))
        weights[:, :-1] = np.where(bits == 1, self.highs, self.lows)
        return _deduplicate(weights / weights.sum(axis=1, keepdims=True))

    def preference_region(self) -> PreferenceRegion:
        return PreferenceRegion(self.enumerate_vertices())

    def to_linear_constraints(self) -> LinearConstraints:
        """Express the ratio constraints as ``A ω <= b`` rows.

        ``l_i <= ω[i]/ω[d]`` becomes ``l_i ω[d] - ω[i] <= 0`` and
        ``ω[i]/ω[d] <= h_i`` becomes ``ω[i] - h_i ω[d] <= 0``.
        """
        d = self.dimension
        rows = []
        for i, (low, high) in enumerate(self.ranges):
            lower = np.zeros(d)
            lower[i] = -1.0
            lower[d - 1] = low
            rows.append(lower)
            upper = np.zeros(d)
            upper[i] = 1.0
            upper[d - 1] = -high
            rows.append(upper)
        return LinearConstraints(d, np.vstack(rows), np.zeros(len(rows)))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "WeightRatioConstraints(%s)" % (list(self.ranges),)


def _deduplicate(vertices: np.ndarray,
                 atol: float = _FEASIBILITY_ATOL) -> np.ndarray:
    """Remove (near-)duplicate rows while keeping a stable order.

    A row is kept unless it is ``np.allclose`` (``atol``, default
    ``rtol``) to an earlier kept row.  Exact repeats can never be kept, so
    ``np.unique`` drops them first (keeping first occurrences in order);
    the closeness test then runs on the few distinct rows, in row chunks
    bounded by ``_CHUNK_BUDGET``.
    """
    _, first = np.unique(vertices, axis=0, return_index=True)
    rows = vertices[np.sort(first)]
    count, width = rows.shape
    chunk = max(1, _CHUNK_BUDGET // (count * width))
    keep = np.zeros(count, dtype=bool)
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        close = np.isclose(rows[start:stop, None, :], rows[None, :stop, :],
                           atol=atol).all(axis=2)
        for i in range(start, stop):
            keep[i] = not close[i - start, :i][keep[:i]].any()
    return rows[keep]


def resolve_preference_region(constraints) -> PreferenceRegion:
    """Return a :class:`PreferenceRegion` for any supported constraint type.

    Accepts :class:`LinearConstraints`, :class:`WeightRatioConstraints`,
    an existing :class:`PreferenceRegion`, or a raw vertex array.
    """
    if isinstance(constraints, PreferenceRegion):
        return constraints
    if isinstance(constraints, (LinearConstraints, WeightRatioConstraints)):
        return constraints.preference_region()
    try:
        array = np.asarray(constraints, dtype=float)
    except (TypeError, ValueError):
        array = None
    if array is not None and array.ndim == 2:
        return PreferenceRegion(array)
    raise TypeError("unsupported constraint specification: %r"
                    % (type(constraints),))
