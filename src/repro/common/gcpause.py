"""Pausing the cyclic garbage collector around bulk allocation.

Building a large acyclic object graph (a day's trace records, a decoded
artifact) triggers generation-0 collections every few hundred
allocations, each of which scans the young objects for cycles that
cannot exist.  Pausing the collector for the build skips that work;
reference counting still frees everything as usual.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause cyclic GC while allocating large acyclic object graphs.

    Leaves the collector as it found it: a caller that already disabled
    it keeps it disabled.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
