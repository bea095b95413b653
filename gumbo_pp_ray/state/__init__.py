"""Shared-state helpers: broadcast lookups, pool sizing and the
bucketed exchange (``state.exchange``)."""

from .broadcast import broadcast, Broadcast
from .sizing import default_pool_size, default_concurrency

__all__ = ["broadcast", "Broadcast", "default_pool_size", "default_concurrency"]
