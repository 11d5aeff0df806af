"""The pluggable shard execution plane (see :mod:`repro.exec.base`).

Importing this package registers the three built-in executors —
``serial``, ``thread`` and ``process`` — with the
:data:`~repro.exec.base.EXECUTORS` registry.
"""

from .base import (
    DEFAULT_EXECUTOR,
    ENV_EXECUTOR,
    EXECUTORS,
    ShardExecutor,
    available_executors,
    make_executor,
    register_executor,
    resolve_executor_name,
)
from .process import ProcessExecutor
from .serial import SerialExecutor
from .threaded import ThreadExecutor

__all__ = [
    "DEFAULT_EXECUTOR",
    "ENV_EXECUTOR",
    "EXECUTORS",
    "ShardExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "available_executors",
    "make_executor",
    "register_executor",
    "resolve_executor_name",
]
