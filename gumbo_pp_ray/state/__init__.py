"""Shared-state helpers: the per-worker broadcast cache
(``state.broadcast``), stage sizing (``state.sizing``) and the bucketed
exchange (``state.exchange``)."""

from .broadcast import broadcast_state
from .sizing import default_pool_size, default_concurrency

__all__ = ["broadcast_state", "default_pool_size", "default_concurrency"]
