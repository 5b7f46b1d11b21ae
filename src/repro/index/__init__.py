"""Spatial index substrate used by the ARSP and eclipse algorithms.

Everything here is implemented from scratch on top of numpy arrays:

* :mod:`repro.index.kdtree` — a bulk-built kd-tree with weighted aggregate
  queries driven by caller-supplied node classifiers (used by the DUAL
  algorithms and the eclipse DUAL-S algorithm).
* :mod:`repro.index.quadtree` — a region quadtree (used by the QUAD eclipse
  baseline).
* :mod:`repro.index.rtree` — aggregated R-trees with window aggregate
  queries, used by the branch-and-bound algorithm: the struct-of-arrays
  :class:`FlatRTree` (STR bulk load, batched level-order traversals) is
  its static index, and the insert-only :class:`RTreeForest` packs the
  per-object trees ``R_1 … R_m`` into one shared array block.  The
  pointer-based :class:`RTree` is the scalar reference the property tests
  pin the flat layer against; nothing in the package calls it.
"""

from .kdtree import KDTree
from .quadtree import QuadTree
from .rtree import FlatRTree, RTree, RTreeForest

__all__ = ["FlatRTree", "KDTree", "QuadTree", "RTree", "RTreeForest"]
