"""The jet multiply kernel: truncated-polynomial coefficient products.

One pure-numpy kernel, built on np.bincount, computes a product from a
context's multiplication table (see ``JetContext.product_table``).
``multiply`` runs it on one state or on a chunked stack of states.
It calls bincount's C function, as np.bincount's dispatcher costs more
than the count itself on one state.
"""

import numpy as np

# perfbench records these two names; the package has one numpy kernel and
# no numba kernel
HAVE_NUMBA = False


def active_backend():
    """The kernel's name, always ``"numpy"`` (recorded by perfbench)."""
    return "numpy"


_bincount = np.bincount._implementation  # the C function, bound once

# The kernel returns the ``size`` slots of the product, each slot the sum
# of its table entries taken in table order. ``a`` and ``b`` are one state,
# ``(n_terms,)``, or a C-contiguous stack of ``rows`` states,
# ``(rows, n_terms)``: ``mul_i`` and ``mul_j`` index a state's coefficients
# and ``mul_k`` holds the target slots of all rows in turn, row r's shifted
# by r * n_terms, so ``size`` is rows * n_terms.


def _mul_table_numpy(a, b, mul_i, mul_j, mul_k, size):
    if a.ndim == 1:
        weights = a[mul_i] * b[mul_j]
    else:  # the (rows, len(mul_i)) products, read row by row
        weights = (a.take(mul_i, axis=1) * b.take(mul_j, axis=1)).ravel()
    # bincount accumulates duplicate target slots correctly, in input order
    return _bincount(mul_k, weights, size)


# products per kernel call on a batch, so that a chunk's target index and
# per-product temporaries stay in the CPU cache (kernel rows of
# BENCH_batch.json)
CHUNK_PRODUCTS = 24576

_targets_cache = {}


def _flat_targets(mul_k, n_terms, states):
    """``mul_k`` repeated for ``rows`` stacked states, row r shifted by
    r * n_terms, with ``rows`` = min(states, one chunk); a prefix of
    r * len(mul_k) entries serves r states. Kept per table, grown on demand."""
    rows = max(1, min(states, CHUNK_PRODUCTS // mul_k.shape[0]))
    hit = _targets_cache.get(id(mul_k))
    if hit is None or hit[0] is not mul_k or hit[1] < rows:
        shift = n_terms * np.arange(rows, dtype=np.int64)[:, None]
        hit = (mul_k, rows, (mul_k[None, :] + shift).ravel())
        _targets_cache[id(mul_k)] = hit
    return rows, hit[2]


def multiply(a, b, mul_i, mul_j, mul_k, n_terms):
    """Coefficient array of the truncated product of two jets.

    ``a`` and ``b`` hold one state, shape ``(n_terms,)``, or a batch,
    shape ``(B, n_terms)``. The table may be any part of a context's table
    kept in table order (see ``JetContext.product_table``). A batch runs
    the kernel once per chunk of ``CHUNK_PRODUCTS // len(mul_i)`` states
    (once in all, when one chunk holds it) with the shifted target index;
    every state's products still land in its own slots in table order, so
    each row equals the one-state product bit for bit.
    """
    if a.ndim == 1 and b.ndim == 1:  # _mul_table_numpy's line, a call less
        return _bincount(mul_k, a[mul_i] * b[mul_j], n_terms)
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    shape = a.shape
    states = a.size // n_terms
    rows, flat_k = _flat_targets(mul_k, n_terms, states)
    per_state = mul_k.shape[0]
    if rows >= states:  # one chunk holds the batch: one kernel call
        return _mul_table_numpy(
            a.reshape(states, n_terms), b.reshape(states, n_terms), mul_i, mul_j,
            flat_k[:states * per_state], states * n_terms).reshape(shape)
    a = np.ascontiguousarray(a).reshape(-1, n_terms)
    b = np.ascontiguousarray(b).reshape(-1, n_terms)
    out = np.empty(a.shape)
    for lo in range(0, a.shape[0], rows):
        hi = min(lo + rows, a.shape[0])
        out[lo:hi] = _mul_table_numpy(
            a[lo:hi], b[lo:hi], mul_i, mul_j, flat_k[:(hi - lo) * per_state],
            (hi - lo) * n_terms).reshape(hi - lo, n_terms)
    return out.reshape(shape)
