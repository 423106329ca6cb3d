"""Build, cache and load the native kernels as one library.

Three C sources go into it: the forest traversal ``ml/_traverse.c``,
which serves :mod:`repro.ml.backend`, the histogram tree growth
``ml/_grow.c``, which serves :func:`repro.ml.training.grow_tree_binned`,
and the DVFS featurization ``hmd/_features.c``, which serves
:meth:`repro.hmd.features.DvfsFeatureExtractor.extract_windows`.  On
first use they are compiled with the host compiler
(``cc -O2 -ffp-contract=off -fno-math-errno -shared -fPIC``, about
1 s) into a per-user cache directory (``~/.cache/repro``, mode
``0o700``), under a name hashed from every source, the flags and the
machine type, and loaded with :mod:`ctypes`.  ``-ffp-contract=off``
keeps a compiler from fusing a multiply and an add on FMA targets,
which would break the featurization's bitwise equality with numpy;
``-fno-math-errno`` lets ``sqrt`` compile to the (correctly rounded)
instruction, so the library needs no ``libm``.
Later loads, in this process or in any other, reuse the cached
library.  A build goes to a temporary file that
``os.replace`` moves into place, so concurrent builds never load a
half-written library.

:func:`library` never raises: when no compiler is found, the build
fails or the library does not load, it returns ``None`` and the numpy
kernels serve.  Tests force that fallback by setting ``_handle`` to
``None``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

_SOURCES = (
    Path(__file__).with_name("_traverse.c"),
    Path(__file__).with_name("_grow.c"),
    Path(__file__).parent.parent / "hmd" / "_features.c",
)
_FLAGS = ("-O2", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")

_UNSET = object()
_handle = _UNSET  # the loaded CDLL, or None once a build or load failed


def library():
    """The loaded kernel library, or ``None`` when numpy serves."""
    global _handle
    if _handle is _UNSET:
        try:
            _handle = build_and_load()
        except (OSError, RuntimeError, subprocess.SubprocessError):
            _handle = None
    return _handle


def _cache_dir() -> Path:
    return Path.home() / ".cache" / "repro"


def build_and_load() -> ctypes.CDLL:
    """Load the cached library, compiling it first if needed (raises on
    any failure: a missing compiler, a failed build, an unsafe cache)."""
    sources = [source.read_bytes() for source in _SOURCES]
    key = hashlib.sha256(
        b"\0".join([*sources, " ".join(_FLAGS).encode(), platform.machine().encode()])
    ).hexdigest()[:16]
    cache = _cache_dir()
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    status = cache.stat()
    # Only load code from a directory no other user can write to.
    if status.st_uid != os.getuid() or status.st_mode & 0o022:
        raise PermissionError(f"{cache} is writable by other users.")
    path = cache / f"_kernels-{key}.so"
    if not path.exists():
        _build(path)
    lib = ctypes.CDLL(str(path))
    _declare(lib)
    return lib


def _build(path: Path) -> None:
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        raise FileNotFoundError("no C compiler (cc or gcc) on PATH.")
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".so")
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *_FLAGS, "-o", tmp, *map(str, _SOURCES)],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


#: States dtype → featurization entry point in ``_features.c``.
FEATURE_ENTRIES = {
    np.dtype(t): f"dvfs_features_{np.dtype(t).name}"
    for t in (np.int8, np.int16, np.int32, np.int64, np.uint8)
}


def _array(dtype):
    return np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS")


_I64 = ctypes.c_int64
_POINTER = ctypes.c_void_p
# The walk's arguments after each layout's node tables.
_WALK = (
    _array(np.int64),  # roots
    _I64,  # n_trees
    _I64,  # max_depth
    _array(np.int64),  # leaf_is_second
)

#: Every entry point of the library, as ``(name, argtypes, restype)``.
#: :func:`_declare` sets each one, so a load fails when a symbol is
#: missing.  The traversal entries (one per node record layout) check
#: their arrays' dtype and C-contiguity on every call.  The
#: featurization and tree-growth entries take raw addresses: the caller
#: checks dtypes and layout first, which costs less per call than
#: ``ndpointer``.
ENTRIES = (
    (
        "count_second_u8",
        [
            _array(np.int64),  # packed
            _array(np.float64),  # edges
            _array(np.int64),  # edge_offset
            *_WALK,
            _array(np.float64),  # x
            _array(np.uint8),  # codes (scratch, n_rows x n_features)
            _I64,  # n_rows
            _I64,  # n_features
            _array(np.int64),  # counts (out)
        ],
        None,
    ),
    (
        "count_second_f64",
        [
            _array(np.int64),  # fg
            _array(np.float64),  # threshold
            *_WALK,
            _array(np.float64),  # x
            _I64,  # n_rows
            _I64,  # n_features
            _array(np.int64),  # counts (out)
        ],
        None,
    ),
    *(
        (
            name,
            [
                _POINTER,  # plan
                _POINTER,  # lut
                _POINTER,  # states
                _I64,  # row_stride (bytes)
                _I64,  # col_stride (bytes)
                _POINTER,  # temperature
                _I64,  # n_windows
                _POINTER,  # centered (out)
                _POINTER,  # out
            ],
            _I64,
        )
        for name in FEATURE_ENTRIES.values()
    ),
    ("hist_grow_new", [], _POINTER),
    ("hist_grow_free", [_POINTER], None),
    ("hist_grow_resume", [_POINTER], _I64),
    (
        "hist_grow_start",
        [
            _POINTER,  # grower
            _POINTER,  # codes
            _I64,  # d
            _POINTER,  # y
            _POINTER,  # weights (or NULL)
            _POINTER,  # rows
            _I64,  # n_rows
            _I64,  # n_classes
            _POINTER,  # cut_limit
            _POINTER,  # edges
            _POINTER,  # edge_offset
            _I64,  # n_bins_max
            _I64,  # max_depth
            _I64,  # min_samples_split
            _I64,  # min_samples_leaf
            ctypes.c_double,  # min_impurity_decrease
            _I64,  # candidate features
            _POINTER,  # draw buffer
        ],
        _I64,
    ),
    ("hist_grow_take", [_POINTER] * 8, None),
)


def _declare(lib: ctypes.CDLL) -> None:
    """Set ``argtypes``/``restype`` of every entry in :data:`ENTRIES`."""
    for name, argtypes, restype in ENTRIES:
        entry = getattr(lib, name)
        entry.argtypes = argtypes
        entry.restype = restype
