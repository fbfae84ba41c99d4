"""Shared synchronization primitives.

Home of :class:`ReadWriteLock`, which guards page I/O in
:class:`~repro.storage.heapfile.HeapFile`: page reads hold the *read*
side and may overlap freely, while a write takes the *write* side and
excludes them all.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager


class ReadWriteLock:
    """Many concurrent readers xor one writer, writer-preferring.

    ``read()`` sections share the lock; ``write()`` excludes
    everything.  A waiting writer blocks *new* readers, so a steady
    read stream cannot starve the writer — at the cost that a thread
    already holding the read side must not re-acquire it (a writer
    arriving in between would deadlock both).  Keep read sections
    non-reentrant.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writing = False
        self._writers_waiting = 0

    @contextmanager
    def read(self):
        with self._cond:
            while self._writing or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write(self):
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writing or self._readers:
                    self._cond.wait()
                self._writing = True
            finally:
                self._writers_waiting -= 1
        try:
            yield
        finally:
            with self._cond:
                self._writing = False
                self._cond.notify_all()
