"""The stores' crc32: ``zlib.crc32``'s values from libdeflate's vectorized kernel.

:func:`crc32` returns exactly what ``zlib.crc32(buf, value)`` returns,
so frames, chunk indexes and journals are unchanged; only the CPU per
byte is (≈ 56 instead of ≈ 320 µs/MiB).  ``ctypes.CDLL`` releases the
GIL for the call, as ``zlib.crc32`` does above 5 KiB, so a lane worker's
checksum still runs beside the training thread on a second CPU.
``c_char.from_buffer`` passes the address without a copy and dies as the
call returns, leaving no buffer export behind.  zlib still runs without
the library and for empty or read-only buffers; :data:`KERNEL` names
the kernel in use.
"""

import ctypes
import zlib

try:
    _kernel = ctypes.CDLL("libdeflate.so.0").libdeflate_crc32
    _kernel.argtypes = (ctypes.c_uint32, ctypes.c_void_p, ctypes.c_size_t)
    _kernel.restype = ctypes.c_uint32
except (OSError, AttributeError):  # no library, or one without the symbol
    _kernel = None
KERNEL = "zlib" if _kernel is None else "libdeflate"
_anchor, _byref = ctypes.c_char.from_buffer, ctypes.byref


def crc32(buf, value: int = 0) -> int:
    """``zlib.crc32(buf, value)`` for any C-contiguous buffer."""
    with memoryview(buf) as view:
        nbytes = view.nbytes
        if _kernel is None or not nbytes or view.readonly:
            return zlib.crc32(view, value)
        return _kernel(value, _byref(_anchor(view)), nbytes)
