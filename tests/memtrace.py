"""Memory tracing shared by the test modules (a helper, not a test file)."""

import tracemalloc


def traced(fn):
    """Bytes at the peak of fn() and still held once its result is dropped,
    both above what was held before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
        del result
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return peak, held
