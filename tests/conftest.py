"""Shared fixtures."""

import pytest

from finslerlab import _kernels


@pytest.fixture
def on_both_kernels(monkeypatch):
    """``run(fn) -> (via_bincount, via_loop)``: ``fn()`` under each jet kernel.

    ``via_bincount`` comes from the numpy kernel ``_mul_table_numpy``;
    ``via_loop`` from the table-loop kernel ``_mul_table_njit``. With numba
    the loop runs compiled, selected by ``set_backend("numba")``. Without
    numba the module's no-op ``njit`` leaves the same loop as plain Python,
    and ``multiply`` is routed to it for the run, so it runs interpreted.
    While the loop runs, the numpy kernel fails if called and the loop
    kernel counts its calls: the two results never come from one kernel.
    """

    def bincount_forbidden(*args):
        raise AssertionError("numpy kernel called during the loop-kernel run")

    def run(fn):
        prev = _kernels.set_backend("numpy")
        try:
            via_bincount = fn()
            loop = _kernels._mul_table_njit
            calls = []

            def counted_loop(*args):
                calls.append(1)
                return loop(*args)

            with monkeypatch.context() as m:
                m.setattr(_kernels, "_mul_table_numpy", bincount_forbidden)
                m.setattr(_kernels, "_mul_table_njit", counted_loop)
                if _kernels.HAVE_NUMBA:
                    _kernels.set_backend("numba")
                else:
                    m.setattr(_kernels, "_ACTIVE", "numba")
                via_loop = fn()
        finally:
            _kernels.set_backend(prev)
        assert calls, "the loop kernel was never called"
        return via_bincount, via_loop

    return run
