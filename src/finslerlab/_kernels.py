"""Hot kernels for truncated-polynomial (jet) coefficient arithmetic.

Two interchangeable backends compute the same convolution:

* ``numba``  -- @njit compiled loop over the precomputed multiplication
  table (default when numba imports cleanly).
* ``numpy``  -- pure-numpy fallback built on np.bincount.

Selection: environment variable ``FINSLER_LAB_BACKEND`` set to ``numba`` or
``numpy``; anything else (or unset) picks numba when available.  Benchmarks
live in benchmarks/bench_kernels.py.
"""

import os

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only on numba-free installs
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        # signature-compatible no-op decorator
        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap


# Both kernels return the ``size`` slots of the product, each slot the sum
# of its table entries taken in table order.


@njit(cache=True, nogil=True)
def _mul_table_njit(a, b, mul_i, mul_j, mul_k, size):  # pragma: no cover - compiled
    out = np.zeros(size)
    for t in range(mul_i.shape[0]):
        out[mul_k[t]] += a[mul_i[t]] * b[mul_j[t]]
    return out


def _mul_table_numpy(a, b, mul_i, mul_j, mul_k, size):
    # bincount accumulates duplicate target slots correctly
    return np.bincount(mul_k, weights=a[mul_i] * b[mul_j], minlength=size)


def _pick_backend():
    env = os.environ.get("FINSLER_LAB_BACKEND", "").strip().lower()
    if env == "numpy":
        return "numpy"
    if env == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError(
                "FINSLER_LAB_BACKEND=numba requested but numba is not importable"
            )
        return "numba"
    return "numba" if HAVE_NUMBA else "numpy"


_ACTIVE = _pick_backend()


def active_backend():
    return _ACTIVE


def set_backend(name):
    """Programmatic backend switch (used by benchmarks and equivalence tests)."""
    global _ACTIVE
    name = name.strip().lower()
    if name not in ("numba", "numpy"):
        raise ValueError(f"unknown backend {name!r}; expected 'numba' or 'numpy'")
    if name == "numba" and not HAVE_NUMBA:
        raise RuntimeError("numba backend requested but numba is not importable")
    previous = _ACTIVE
    _ACTIVE = name
    return previous


# products per kernel call on a batch, so that the flat tables and the
# per-product temporaries of one call stay in the CPU cache (kernel rows of
# BENCH_batch.json)
CHUNK_PRODUCTS = 24576

_flat_cache = {}


def _flat_tables(mul_i, mul_j, mul_k, n_terms, states):
    """The table repeated for ``rows`` stacked states, row r shifted by
    r * n_terms, with ``rows`` = min(states, one chunk); a prefix of
    r * len(mul_i) entries serves r states. Kept per table, grown on demand."""
    rows = max(1, min(states, CHUNK_PRODUCTS // mul_i.shape[0]))
    key = (id(mul_i), id(mul_j), id(mul_k), n_terms)
    hit = _flat_cache.get(key)
    if (hit is None or hit[0] is not mul_i or hit[1] is not mul_j
            or hit[2] is not mul_k or hit[3] < rows):
        shift = n_terms * np.arange(rows, dtype=np.int64)[:, None]
        flat = tuple((t[None, :] + shift).ravel() for t in (mul_i, mul_j, mul_k))
        hit = (mul_i, mul_j, mul_k, rows, flat)
        _flat_cache[key] = hit
    return rows, hit[4]


def multiply(a, b, mul_i, mul_j, mul_k, n_terms):
    """Coefficient array of the truncated product of two jets.

    ``a`` and ``b`` hold one state, shape ``(n_terms,)``, or a batch,
    shape ``(B, n_terms)``. A batch is flattened into chunks of
    ``CHUNK_PRODUCTS // len(mul_i)`` states and each chunk runs the kernel
    once on the shifted table; every state's products still land in its own
    slots in table order, so each row equals the one-state product bit for
    bit.
    """
    kernel = _mul_table_njit if _ACTIVE == "numba" else _mul_table_numpy
    if a.ndim == 1 and b.ndim == 1:
        return kernel(a, b, mul_i, mul_j, mul_k, n_terms)
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    shape = a.shape
    a = np.ascontiguousarray(a).reshape(-1, n_terms)
    b = np.ascontiguousarray(b).reshape(-1, n_terms)
    rows, (flat_i, flat_j, flat_k) = _flat_tables(mul_i, mul_j, mul_k, n_terms,
                                                  a.shape[0])
    per_state = mul_i.shape[0]
    out = np.empty(a.shape)
    for lo in range(0, a.shape[0], rows):
        hi = min(lo + rows, a.shape[0])
        used = (hi - lo) * per_state
        out[lo:hi] = kernel(a[lo:hi].reshape(-1), b[lo:hi].reshape(-1),
                            flat_i[:used], flat_j[:used], flat_k[:used],
                            (hi - lo) * n_terms).reshape(hi - lo, n_terms)
    return out.reshape(shape)
