"""A pause of CPython's cyclic garbage collector.

Building a large curve graph, a verify sweep or a command's JSON document
allocates many objects and frees few.  Each allocation burst can start a
collection, and a full collection walks every tracked object again,
including the part of the result already built.  These results hold no
reference cycles, so the collections free nothing.  Reference counting
still frees all acyclic garbage at once while the collector is paused.
"""

import gc


class collector_paused:
    """Context manager that keeps the cyclic collector disabled in its
    body, as :mod:`timeit` does around a timed statement.

    On exit, however the body ends, it enables the collector again only
    if it was enabled on entry, so a nested pause leaves it disabled and a
    caller that disabled it keeps it so.  The collector is process-wide:
    cyclic garbage made meanwhile by any thread waits until the outermost
    pause ends, and the next collection then frees it.
    """

    __slots__ = ("_was_enabled",)

    def __enter__(self):
        self._was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info):
        if self._was_enabled:
            gc.enable()
