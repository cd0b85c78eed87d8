"""The reference checker's value model and its kind-first comparison.

Expected outcomes are built by the workload generators in plain Python
(see :mod:`workloads`); this module turns both sides into one tagged,
hashable form and compares them.  The tag comes first, so the AQL values
``1``, ``1.0`` and ``true`` (which Python's ``==`` would equate) never
match each other, and a set of nats never matches a set of reals.

Reference arrays are :class:`RArray` (dims + row-major values); large
homogeneous ones are turned into :class:`DenseExpect` so a result array
backed by a dense block is checked with one numpy comparison instead of
a Python walk.  Reading a result never probes or materializes it: the
check must not change what the next statement finds in the session.
"""

from __future__ import annotations

import math
from typing import Any, Optional, Tuple

#: arrays at least this large are compared through numpy
DENSE_EXPECT_CELLS = 1024

#: real scalars may differ from the reference by this relative amount
REAL_RTOL = 1e-12


class Bottom:
    """The expected outcome ⊥: the statement must raise ``BottomError``.

    The reason text is deliberately not compared.
    """

    def __repr__(self) -> str:
        return "BOTTOM"

    def __reduce__(self) -> str:
        return "BOTTOM"      # unpickles as the module's singleton


class WriteOk:
    """The expected outcome of a statement that returns no value."""

    def __repr__(self) -> str:
        return "WRITE_OK"

    def __reduce__(self) -> str:
        return "WRITE_OK"    # unpickles as the module's singleton


BOTTOM = Bottom()
WRITE_OK = WriteOk()


class Bot(Exception):
    """Raised by reference code where AQL evaluates to ⊥."""


class RArray:
    """A reference array: its dims and its row-major values."""

    __slots__ = ("dims", "flat")

    def __init__(self, dims: Tuple[int, ...], flat: list):
        self.dims = tuple(dims)
        self.flat = list(flat)
        size = 1
        for extent in self.dims:
            size *= extent
        if size != len(self.flat):
            raise ValueError(f"dims {self.dims} do not fit "
                             f"{len(self.flat)} values")


class DenseExpect:
    """A large reference array of one scalar kind, held as an ndarray."""

    __slots__ = ("dims", "kind", "data")

    def __init__(self, dims: Tuple[int, ...], kind: str, data: Any):
        self.dims = dims
        self.kind = kind
        self.data = data


_BLOCK_KIND = {"int": "n", "real": "r", "bool": "b"}


def _scalar_tag(value: Any) -> Optional[str]:
    kind = type(value)
    if kind is bool:
        return "b"
    if kind is int:
        return "n"
    if kind is float:
        return "r"
    if kind is str:
        return "s"
    return None


def _array_parts(value: Any) -> Optional[Tuple[Tuple[int, ...], Any, Any]]:
    """``(dims, block, flat)`` of an engine or reference array, else None.

    An engine array with a dense block is read through the block (its
    ``flat`` would box every element and count a materialization).
    """
    if isinstance(value, RArray):
        return value.dims, None, value.flat
    if type(value).__name__ == "Array" and hasattr(value, "block"):
        block = value.block
        if block is not None:
            return tuple(value.dims), block, None
        return tuple(value.dims), None, value.flat
    return None


def canon(value: Any) -> Any:
    """The tagged, hashable form of a value (kind before content)."""
    tag = _scalar_tag(value)
    if tag is not None:
        return (tag, value)
    if isinstance(value, tuple):
        return ("t",) + tuple(canon(item) for item in value)
    if isinstance(value, frozenset):
        return ("set", frozenset(canon(item) for item in value))
    parts = _array_parts(value)
    if parts is not None:
        dims, block, flat = parts
        if block is not None:
            kind = _BLOCK_KIND[block.tag]
            items = block.data.ravel().tolist()
            return ("arr", dims, tuple((kind, item) for item in items))
        return ("arr", dims, tuple(canon(item) for item in flat))
    raise TypeError(f"no canonical form for {type(value).__name__}")


def expect(value: Any) -> Any:
    """Freeze a reference outcome into the form :func:`mismatch` takes."""
    if isinstance(value, (Bottom, WriteOk)):
        return value
    if isinstance(value, RArray) and len(value.flat) >= DENSE_EXPECT_CELLS:
        tags = {_scalar_tag(item) for item in value.flat}
        if len(tags) == 1 and tags <= {"n", "r", "b"}:
            import numpy as np

            kind = tags.pop()
            dtype = {"n": np.int64, "r": np.float64, "b": np.bool_}[kind]
            data = np.asarray(value.flat, dtype=dtype).reshape(value.dims)
            return DenseExpect(value.dims, kind, data)
    return canon(value)


def _dense_mismatch(expected: DenseExpect, actual: Any) -> Optional[str]:
    import numpy as np

    parts = _array_parts(actual)
    if parts is None:
        return f"expected an array, got {type(actual).__name__}"
    dims, block, flat = parts
    if dims != expected.dims:
        return f"dims {dims} != expected {expected.dims}"
    if block is not None:
        kind = _BLOCK_KIND[block.tag]
        data = block.data
    else:
        kinds = {_scalar_tag(item) for item in flat}
        if len(kinds) != 1:
            return f"element kinds {sorted(map(str, kinds))}"
        kind = kinds.pop()
        if kind not in ("n", "r", "b"):
            return f"element kind {kind}"
        data = np.asarray(flat).reshape(dims)
    if kind != expected.kind:
        return f"element kind {kind} != expected {expected.kind}"
    if kind == "r":
        same = np.allclose(data, expected.data, rtol=REAL_RTOL, atol=0.0)
    else:
        same = np.array_equal(data, expected.data)
    return None if same else "array values differ"


def mismatch(expected: Any, actual: Any) -> Optional[str]:
    """Why ``actual`` fails ``expected`` (from :func:`expect`), or None.

    Reals are compared with a relative tolerance of :data:`REAL_RTOL`
    when they are the whole result; inside sets they must be exact.
    """
    if isinstance(expected, DenseExpect):
        return _dense_mismatch(expected, actual)
    try:
        got = canon(actual)
    except TypeError as exc:
        return str(exc)
    if got == expected:
        return None
    if (got[0] == "r" and expected[0] == "r"
            and math.isclose(got[1], expected[1], rel_tol=REAL_RTOL)):
        return None
    if got[0] != expected[0]:
        return f"kind {got[0]} != expected {expected[0]}"
    text = repr(got)
    return f"value {text[:120]} != expected {repr(expected)[:120]}"
