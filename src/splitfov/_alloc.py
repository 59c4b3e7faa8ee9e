"""The C allocator's policy, pinned once per process at package import.

glibc serves a large `malloc` from a private `mmap` and, after a large
`free`, trims the heap top back to the kernel. Its thresholds for both
slide with the sizes it sees, so the renderer's 0.7-1.9 MB numpy
temporaries and the 7.8 MB display frame (at 2400x1080) go back to the
kernel after every frame and fault back in, page by page, on the next.
On a 2-vCPU host that cost a loopback server about 1,170 minor faults
and 3 ms of kernel CPU per frame at 2400x1080 with 768x540 foveae at
scale 0.3, and the client 4,450 faults and 10-12 ms at the default
geometry.

Pinning both thresholds keeps every per-frame buffer in the heap and the
heap mapped, so the next frame reuses the pages. The setting is
process-wide: it holds for every allocation of the process that imports
`splitfov`, not only this package's. It is a no-op on a C library
without `mallopt` (macOS, Windows).
"""

from __future__ import annotations

import ctypes

# glibc's mallopt parameter numbers (malloc.h).
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

# The most glibc's own sliding mmap threshold reaches on 64-bit hosts
# (DEFAULT_MMAP_THRESHOLD_MAX). Every per-frame buffer at the benchmark's
# geometries is smaller, so each comes from the heap.
MMAP_THRESHOLD = 32 << 20
# Far above a frame loop's free heap top, so the loop never trims.
TRIM_THRESHOLD = 1 << 30


def pin(libc) -> None:
    """Sets the mmap and trim thresholds through `libc.mallopt`, once
    each; does nothing if `libc` has no `mallopt`."""
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def _process_libc():
    """The symbols the process has loaded, libc's among them; None where
    they cannot be opened that way (Windows)."""
    try:
        return ctypes.CDLL(None)
    except (OSError, TypeError):
        return None


pin(_process_libc())
