"""Affine-gap (Gotoh) alignment kernels: native tier and Python reference.

The inter-anchor fill stage of piecewise alignment (paper Fig. 1(d);
the DP GenPIP's alignment units execute in-memory) solves a global
affine-gap alignment per segment. The cell recurrence is

.. code-block:: text

    E[i,j] = max(E[i,j-1] + ge, H[i,j-1] + go + ge)   # gap in ref
    V[i,j] = max(V[i-1,j] + ge, H[i-1,j] + go + ge)   # gap in read
    H[i,j] = max(H[i-1,j-1] + sub(i,j), E[i,j], V[i,j])

Two Python implementations of it exist, and they break score ties
differently (same scores, different CIGARs on tied paths):
:func:`gotoh_scalar` here (full tables, value-comparing traceback) and
the lazy-E row pipeline ``repro.mapping.alignment._align_core`` (stored
pointers). Both tie rules are part of the output contract, so the
native tier (``_gotoh.c``, loaded through :mod:`ctypes`) ports each bit
for bit: :meth:`NativeGotoh.value` mirrors :func:`gotoh_scalar` and
:meth:`NativeGotoh.rows` mirrors ``_align_core``. Both return the final
run-length CIGAR with ``=``/``X`` already classified.

**Build.** The C source is compiled on first use (never at import)
with ``cc -O2 -ffp-contract=off -shared -fPIC``: no fused multiply-add
and no fast-math, so every float64 expression keeps the Python
association order. The library is cached under
``$XDG_CACHE_HOME/genpip-repro`` (else ``~/.cache/genpip-repro``, else
a per-user directory in the temp dir), named by the sha256 of source,
flags and platform, and written through a temp file plus
:func:`os.replace` so concurrent pool workers never see a partial file.
An unloadable cached library is rebuilt. Without a compiler, or if the
build fails, :func:`native_gotoh` warns once and returns ``None``, and
callers run the Python references, which produce the same bytes.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import platform
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from repro.kernels.mapping_ops import record_mapping_ops

#: Selectable Gotoh kernels: ``"native"`` runs the compiled tier (falling
#: back to the Python references when it cannot be built); ``"scalar"``
#: forces the Python references.
ALIGN_KERNELS = ("native", "scalar")

_SOURCE = Path(__file__).with_name("_gotoh.c")
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
#: Op codes of the native run encoding ``(length << 3) | op``.
_NATIVE_OPS = ("=", "X", "I", "D")


def merge_cigar(parts: list[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    """Merge adjacent runs of the same op and drop zero-length runs."""
    merged: list[tuple[str, int]] = []
    for op, length in parts:
        if length <= 0:
            continue
        if merged and merged[-1][0] == op:
            merged[-1] = (op, merged[-1][1] + length)
        else:
            merged.append((op, length))
    return tuple(merged)


def _traceback_tables(h, e, v, n: int, m: int, ge: float) -> tuple[tuple[str, int], ...]:
    """Value-comparing traceback over completed H/E/V tables.

    Ties resolve in the order E, then V, then the diagonal.
    """
    parts: list[tuple[str, int]] = []
    i, j = n, m
    state = "H"
    while i > 0 or j > 0:
        if state == "H":
            if j == 0:
                state = "V"
            elif i == 0 or h[i][j] == e[i][j]:
                state = "E"
            elif h[i][j] == v[i][j]:
                state = "V"
            else:
                parts.append(("M", 1))
                i -= 1
                j -= 1
        elif state == "E":
            parts.append(("I", 1))
            if e[i][j] != e[i][j - 1] + ge:
                state = "H"
            j -= 1
        else:
            parts.append(("D", 1))
            if v[i][j] != v[i - 1][j] + ge:
                state = "H"
            i -= 1
    parts.reverse()
    return merge_cigar(parts)


def gotoh_scalar(
    a: np.ndarray,
    b: np.ndarray,
    match: float,
    mismatch: float,
    gap_open: float,
    gap_extend: float,
) -> tuple[float, tuple[tuple[str, int], ...]]:
    """Pure-Python Gotoh reference; returns ``(score, raw 'M'-run cigar)``.

    The ground truth :meth:`NativeGotoh.value` is checked against, and
    the small-segment path whenever the native tier is off or missing.
    """
    n, m = int(a.size), int(b.size)
    if n and m:
        record_mapping_ops("align-cell", n * m)
    av = a.tolist()
    bv = b.tolist()
    go, ge = gap_open, gap_extend
    neg = -1e18

    h = [[0.0] * (m + 1) for _ in range(n + 1)]
    e = [[neg] * (m + 1) for _ in range(n + 1)]
    v = [[neg] * (m + 1) for _ in range(n + 1)]
    for j in range(1, m + 1):
        e[0][j] = go + ge * j
        h[0][j] = e[0][j]
    for i in range(1, n + 1):
        v[i][0] = go + ge * i
        h[i][0] = v[i][0]
    for i in range(1, n + 1):
        ai = av[i - 1]
        hi = h[i]
        hp = h[i - 1]
        ei = e[i]
        vi = v[i]
        vp = v[i - 1]
        for j in range(1, m + 1):
            ei[j] = max(ei[j - 1] + ge, hi[j - 1] + go + ge)
            vi[j] = max(vp[j] + ge, hp[j] + go + ge)
            diag = hp[j - 1] + (match if ai == bv[j - 1] else mismatch)
            hi[j] = max(diag, ei[j], vi[j])

    cigar = _traceback_tables(h, e, v, n, m, ge)
    return float(h[n][m]), cigar


class NativeGotoh:
    """The compiled kernels of ``_gotoh.c``, bound through :mod:`ctypes`.

    Inputs are base-code arrays (values 0..255); each call charges the
    ``align-cell`` ledger exactly as its Python reference does and
    returns ``(score, cigar)`` with ``=``/``X``/``I``/``D`` runs.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        # Codes travel as bytes and the runs come back in a string
        # buffer: both cross ctypes without numpy's per-call overhead.
        common = [
            ctypes.c_char_p, ctypes.c_int64, ctypes.c_char_p, ctypes.c_int64,
            ctypes.c_double, ctypes.c_double, ctypes.c_double, ctypes.c_double,
        ]
        out = [ctypes.POINTER(ctypes.c_double), ctypes.c_char_p]
        self._value = lib.gotoh_value
        self._value.argtypes = [*common, *out]
        self._value.restype = ctypes.c_int64
        self._rows = lib.gotoh_rows
        self._rows.argtypes = [*common, ctypes.c_int, *out]
        self._rows.restype = ctypes.c_int64

    def value(self, a, b, match, mismatch, gap_open, gap_extend):
        """Bit-identical to :func:`gotoh_scalar` (with ``=``/``X`` runs)."""
        return self._call(self._value, a, b, (match, mismatch, gap_open, gap_extend))

    def rows(self, a, b, match, mismatch, gap_open, gap_extend, free_ref_tail=False):
        """Bit-identical to the unbanded ``_align_core`` (with ``=``/``X`` runs)."""
        scoring = (match, mismatch, gap_open, gap_extend, int(free_ref_tail))
        return self._call(self._rows, a, b, scoring)

    @staticmethod
    def _call(fn, a, b, args) -> tuple[float, tuple[tuple[str, int], ...]]:
        a_bytes = np.asarray(a, dtype=np.uint8).tobytes()
        b_bytes = np.asarray(b, dtype=np.uint8).tobytes()
        n, m = len(a_bytes), len(b_bytes)
        runs = ctypes.create_string_buffer(8 * (n + m + 1))
        score = ctypes.c_double()
        count = fn(a_bytes, n, b_bytes, m, *args, ctypes.byref(score), runs)
        if count < 0:
            raise MemoryError(f"native Gotoh could not allocate a {n} x {m} table")
        if n and m:
            record_mapping_ops("align-cell", n * m)
        return score.value, tuple(
            (_NATIVE_OPS[x & 7], x >> 3) for x in struct.unpack_from(f"={count}q", runs)
        )


def _library_name() -> str:
    digest = hashlib.sha256(_SOURCE.read_bytes())
    digest.update(" ".join(_CFLAGS).encode())
    digest.update(f"{sys.platform}-{platform.machine()}".encode())
    return f"gotoh-{digest.hexdigest()[:24]}.so"


def _compile(target: Path) -> None:
    """Build into a temp file beside ``target``, then rename it into place."""
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".", suffix=".tmp")
    os.close(fd)
    try:
        build = subprocess.run(
            ["cc", *_CFLAGS, "-o", tmp, str(_SOURCE)],
            capture_output=True, text=True, timeout=120,
        )
        if build.returncode:
            raise OSError(f"cc exited with {build.returncode}: {build.stderr.strip()[-400:]}")
        os.replace(tmp, target)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _cache_dir() -> Path:
    """The first of $XDG_CACHE_HOME, ~/.cache, the temp dir that is ours and writable."""
    candidates = []
    if os.environ.get("XDG_CACHE_HOME"):
        candidates.append(Path(os.environ["XDG_CACHE_HOME"]) / "genpip-repro")
    with contextlib.suppress(RuntimeError):  # no resolvable home directory
        candidates.append(Path.home() / ".cache" / "genpip-repro")
    candidates.append(Path(tempfile.gettempdir()) / f"genpip-repro-{os.getuid()}")
    errors = []
    for directory in candidates:
        try:
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
            if directory.stat().st_uid != os.getuid() or not os.access(directory, os.W_OK):
                raise PermissionError("not owned by this user or not writable")
            return directory
        except OSError as exc:
            errors.append(f"{directory}: {exc}")
    raise OSError("no usable cache directory: " + "; ".join(errors))


def _load_native() -> NativeGotoh:
    """Load the cached library, building it (again, if unloadable) as needed."""
    target = _cache_dir() / _library_name()
    with contextlib.suppress(OSError, AttributeError):  # missing or corrupt
        return NativeGotoh(ctypes.CDLL(str(target)))
    _compile(target)
    return NativeGotoh(ctypes.CDLL(str(target)))


@functools.cache
def native_gotoh() -> NativeGotoh | None:
    """The process's native Gotoh kernels, or ``None`` (after one warning)."""
    try:
        return _load_native()
    except (OSError, AttributeError, subprocess.SubprocessError) as exc:
        warnings.warn(
            f"native Gotoh kernel unavailable, using the Python references: {exc}",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
