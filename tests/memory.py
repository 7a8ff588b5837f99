"""The suite's one way to measure the memory a call takes."""
import tracemalloc


def traced_peak(func, *args, **kwargs):
    """``func(*args, **kwargs)`` and the peak of the allocations that
    ``tracemalloc`` traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        result = func(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
