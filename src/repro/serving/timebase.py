"""The serving time base: the running event loop's ``time()``."""

from __future__ import annotations

import asyncio
import time
from typing import Callable


def loop_time() -> Callable[[], float]:
    """The running loop's bound ``time``, else ``time.monotonic``.

    Components bind this once when they start, so no per-request path looks
    the loop up.  ``time.monotonic`` is what asyncio's default loop returns.
    """
    try:
        return asyncio.get_running_loop().time
    except RuntimeError:
        return time.monotonic
