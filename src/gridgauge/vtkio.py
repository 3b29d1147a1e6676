"""Legacy (ASCII, version 2.0) VTK unstructured-grid writer with cell data.

Every float is written as ``"%.17g" % x`` writes it: 17 significant
digits, correctly rounded, trailing zeros dropped. ``_format`` produces
that text for a whole array with NumPy alone, bit for bit:

* Fast range, 1e-4 <= |x| < 1e16: ``%.17g`` is fixed-point notation with
  17 digits of N = round(|x| * 10^(16-k)), 10^k <= |x| < 10^(k+1), and
  10^(16-k) (k in -4..15) is an exact double. Dekker's TwoProduct (Numer.
  Math. 18, 1971) gives the product exactly as p + e: each NumPy ufunc
  rounds once, so no fused multiply-add is needed. k comes from ``log10``
  and is corrected by one step when p + e falls outside [1e16, 1e17).
  Since p >= 1e16 > 2^53, p is an even integer, so N = p + rint(e)
  rounds half to even exactly as ``%`` does. No double below 10^(k+1) is
  within half a unit of the 17th digit of it, so N stays below 1e17.
* The digits of N are read four at a time from a table and placed in a
  fixed row, "-0.000" + d0 + "." + four "d.d.d.d." groups + the suffix;
  a mask picked by (sign, k, last nonzero digit) keeps the bytes of the
  token, and the rest are zeroed and deleted.
* Every other value (0, -0, subnormals, |x| < 1e-4 or >= 1e16, inf,
  nan) is formatted by one ``%`` call over its distinct bit patterns and
  written into its own row.
"""

import numpy as np

from .grid import _dl_split, cell_lines

_VTK_TRIANGLE = 5
_VTK_QUAD = 9

_BLOCK = 1 << 14                    # values per block: bounds the temporaries
_KMIN, _NK = -4, 20                 # fast-range decimal exponents -4..15
_POW = np.array([float(10 ** (16 - k)) for k in range(_KMIN, _KMIN + _NK)])
_POW_HI, _POW_LO = _dl_split(_POW)
_NDIG = 17

# A row is six 8-byte words: "-0.000" + digit 0 + ".", then digits 1-16 as
# four "d.d.d.d." groups, then the suffix. So byte 0 is the sign, bytes 1-5
# the "0.000" of |x| < 1, and digit i sits at byte 6 + 2i with a candidate
# dot after it.
_GROUP_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, -1).T
_GROUP = np.full((10000, 8), ord("."), np.uint8)
_GROUP[:, ::2] = _GROUP_DIGITS + np.uint8(ord("0"))
_GROUP = _GROUP.view(np.uint64).ravel()
_HEAD = np.frombuffer(b"".join(b"-0.000%d." % d for d in range(10)),
                      np.uint64)
# _LAST[j][g]: index among the 17 digits of the last nonzero digit of group
# j (digits 4j+1..4j+4) when it holds g, else 0.
_q = ((_GROUP_DIGITS != 0) * np.arange(1, 5, dtype=np.int8)).max(1)
_LAST = [np.where(_q, _q + np.int8(4 * j), np.int8(0)) for j in range(4)]

# Masks of the 40 bytes before the suffix: first the fast-range states
# (sign, k, last nonzero digit r), then one state per fallback length.
_NFAST = 2 * _NK * _NDIG
_NSTATE = _NFAST + 25
_col = np.arange(40)
_digit = (_col - 6) // 2
_neg = np.arange(_NFAST)[:, None] >= _NK * _NDIG
_k = np.arange(_NFAST)[:, None] // _NDIG % _NK + _KMIN
_r = np.arange(_NFAST)[:, None] % _NDIG
_MASK = np.vstack([
    (_col == 0) & _neg | (_col >= 1) & (_col <= 1 - _k) & (_k < 0)
    | (_col >= 6) & np.where(_col % 2 == 0, _digit <= np.maximum(_r, _k),
                             (_digit == _k) & (_r > _k)),
    _col < np.arange(25)[:, None],
])
del _q, _col, _neg, _k, _r, _digit


def write_vtk(target, grid, cell_data=None, title="gridgauge export"):
    """Write the grid and optional per-cell scalar fields.

    cell_data maps field names to sequences with one value per cell.
    ``target`` may be a path or a writable text stream.
    """
    if hasattr(target, "write"):
        _write(target, grid, cell_data or {}, title)
    else:
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            _write(fh, grid, cell_data or {}, title)


def _write(out, grid, cell_data, title):
    n, nverts = grid.n_cells, grid.cell_nverts
    out.write(f"# vtk DataFile Version 2.0\n{title}\nASCII\n"
              f"DATASET UNSTRUCTURED_GRID\nPOINTS {grid.n_nodes} double\n")
    out.write(_format(grid.nodes, (" ", " 0\n")))
    out.write(f"CELLS {n} {int(nverts.sum()) + n}\n")
    out.write(cell_lines(grid))
    out.write(f"CELL_TYPES {n}\n")
    out.write("".join(np.where(nverts == 3, f"{_VTK_TRIANGLE}\n",
                               f"{_VTK_QUAD}\n").tolist()))

    if cell_data:
        out.write(f"CELL_DATA {n}\n")
        for name, values in cell_data.items():
            if len(values) != n:
                raise ValueError(
                    f"cell field {name!r} has {len(values)} values for "
                    f"{n} cells"
                )
            out.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            out.write(_format(values, ("\n",)))


def _format(values, suffixes):
    """The ``%.17g`` text of each value, followed by the suffixes in turn:
    ``"".join("%.17g" % x + suffixes[i % len(suffixes)] for i, x in ...)``
    for the values in C order, with suffixes of at most 8 ASCII bytes."""
    values = np.asarray(values, dtype=np.float64).ravel()
    period = len(suffixes)
    suffix = np.zeros((period, 8), np.uint8)
    for j, s in enumerate(suffixes):
        suffix[j, :len(s)] = np.frombuffer(s.encode("ascii"), np.uint8)
    # One mask table per suffix, as 0x00/0xff bytes viewed as row words.
    masks = np.vstack([np.hstack([_MASK, np.repeat(t[None] != 0, _NSTATE, 0)])
                       for t in suffix]).astype(np.uint8) * np.uint8(255)
    masks = masks.view(np.uint64)
    block = _BLOCK - _BLOCK % period
    which = np.arange(block) % period
    suffix_word, table = suffix.view(np.uint64)[which, 0], which * _NSTATE
    parts = []
    for start in range(0, values.size, block):
        x = values[start:start + block]
        rows = np.empty((x.size, 6), np.uint64)
        rows[:, 5] = suffix_word[:x.size]
        state = _digits(x, rows)
        state += table[:x.size]
        rows &= masks[state]
        parts.append(rows.tobytes().translate(None, b"\0"))
    return b"".join(parts).decode("ascii")


def _digits(x, rows):
    """Fill words 0-4 of each row with the token of x and return its mask
    state (before the suffix offset). k holds decimal exponents - _KMIN."""
    a = np.abs(x)
    slow = ~((a >= 1e-4) & (a < 1e16))
    a[slow] = 1.0
    k = np.floor(np.log10(a)).astype(np.intp)
    np.clip(k - _KMIN, 0, _NK - 1, out=k)
    p, e = _two_product(a, k)
    low = (p < 1e16) | ((p == 1e16) & (e < 0))
    high = (p > 1e17) | ((p == 1e17) & (e >= 0))
    step = high.astype(np.intp) - low
    fix = np.flatnonzero(step)
    if fix.size:
        k[fix] += step[fix]
        p[fix], e[fix] = _two_product(a[fix], k[fix])
    num = p.astype(np.int64) + np.rint(e).astype(np.int64)
    top = num // 10 ** 8
    low8 = num - top * 10 ** 8
    d0 = top // 10 ** 8
    top -= d0 * 10 ** 8
    g1 = top // 10 ** 4
    g3 = low8 // 10 ** 4
    groups = (g1, top - g1 * 10 ** 4, g3, low8 - g3 * 10 ** 4)
    rows[:, 0] = _HEAD[d0]
    for j, g in enumerate(groups):
        rows[:, 1 + j] = _GROUP[g]
    last = np.maximum(np.maximum(_LAST[0][groups[0]], _LAST[1][groups[1]]),
                      np.maximum(_LAST[2][groups[2]], _LAST[3][groups[3]]))
    state = (np.signbit(x) * _NK + k) * _NDIG + last
    if slow.any():
        idx = np.flatnonzero(slow)
        bits, inv = np.unique(x[idx].view(np.uint64), return_inverse=True)
        text = ("%-24.17g" * bits.size) % tuple(bits.view(np.float64).tolist())
        text = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, 24)
        inv = inv.ravel()
        words = text.view(np.uint64)
        for j in range(3):          # faster than one 2-D fancy assignment
            rows[idx, j] = words[inv, j]
        state[idx] = _NFAST + (text != ord(" ")).sum(1)[inv]
    return state


def _two_product(a, k):
    """p, e with p = fl(a * c) and p + e = a * c exactly, for c = 10^(16 -
    k - _KMIN): Dekker's product of Veltkamp-split halves."""
    c, c_hi, c_lo = _POW[k], _POW_HI[k], _POW_LO[k]
    p = a * c
    a_hi, a_lo = _dl_split(a)
    return p, ((a_hi * c_hi - p) + a_hi * c_lo + a_lo * c_hi) + a_lo * c_lo
