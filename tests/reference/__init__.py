"""Frozen parent algorithms, and the one harness that holds the engine to them.

``src/`` keeps one code path.  When a kernel, a generator or an engine is
rewritten, the version it replaced moves here verbatim and the rewrite is
tested against it.  Nothing here may be "modernised": its value is that it
is the algorithm the pinned answers were first produced by.

* :mod:`tests.reference.nn_ops` — the gather-based conv / max-pool
  kernels, the composed BatchNorm and the composed dense-head chains;
* :mod:`tests.reference.data` — the per-sample GTSRB generator and the
  per-item batching loop;
* :mod:`tests.reference.link` — the per-flow-arming dense link engine;
* :mod:`tests.reference.aggregation` — the stacked FedAvg GEMV and the
  running FedAvg sum.

:func:`assert_same` compares what the engine returned with what the
reference returned.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

__all__ = ["assert_same"]


def assert_same(got, want, name: str = "", *, by_value: bool = False, contiguous: bool = False):
    """Assert ``got`` (the engine's) equals ``want`` (the reference's) and
    return ``got``.

    Mappings (same keys, same order) and lists / tuples (same type and
    length) are compared entry by entry; each array must have the same
    dtype, shape and bytes; anything else must be ``==``.  ``name`` prefixes
    the path of the first entry that differs.

    ``by_value`` compares arrays by their values (``==`` on every element;
    NaNs match) instead of their bytes, for kernels where the sign of a
    zero may differ.  ``contiguous`` also requires every array of ``got``
    to be C-contiguous.
    """
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), name
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert not contiguous or got.flags.c_contiguous, name
        if by_value:
            np.testing.assert_array_equal(got, want, err_msg=name)
        else:
            assert got.tobytes() == want.tobytes(), name
    elif isinstance(want, Mapping):
        assert list(got) == list(want), name
        for key in want:
            assert_same(got[key], want[key], f"{name}[{key!r}]",
                        by_value=by_value, contiguous=contiguous)
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want), name
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{name}[{i}]", by_value=by_value, contiguous=contiguous)
    else:
        assert got == want, name
    return got
