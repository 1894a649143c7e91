"""Allocator setting of the timed benchmark processes."""

import ctypes
import ctypes.util

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 32 * 2**20     # glibc's ceiling on 64-bit systems
_TRIM_THRESHOLD = 2**30


def retain_freed_memory() -> str:
    """Keep freed heap memory in the process instead of returning it to the OS.

    By default glibc serves large numpy temporaries from fresh pages and
    hands them back when they are freed, so every pass faults them in
    again (about 750k page faults per large_pow2 pass).  On a virtual
    machine the cost of such a fault varies with the host's state by up to
    2x on some operations, which dominated the run-to-run spread.  The
    traced run keeps the default allocator, so this churn still shows in
    ``process.minor_faults``.  Returns the allocator setting in effect.
    """
    try:
        mallopt = ctypes.CDLL(ctypes.util.find_library("c")).mallopt
    except (OSError, AttributeError):
        return "default"
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX) and mallopt(_M_TRIM_THRESHOLD,
                                                                  _TRIM_THRESHOLD):
        return "retain-freed"
    return "default"
