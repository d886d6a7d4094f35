import resource
import threading
import tracemalloc

import pytest


def traced_peak(fn):
    """Peak bytes that tracemalloc traces while fn() runs; tracing stops even when fn raises."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def minor_faults(fn):
    """Minor page faults of the process while fn() runs: pages it touched for the
    first time since the allocator took them from, or gave them back to, the system."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fn()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


class CountingOperator:
    """A matrix whose products with vectors, by @ or by dot, are counted in
    count; threads names the thread that made each, in order."""

    def __init__(self, matrix):
        self.matrix, self.count, self.threads = matrix, 0, []

    def __matmul__(self, v):
        self.count += 1
        self.threads.append(threading.current_thread().name)
        return self.matrix @ v

    def dot(self, v):
        self.count += 1
        self.threads.append(threading.current_thread().name)
        return self.matrix.dot(v)

    def __getattr__(self, name):
        return getattr(self.matrix, name)


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves a thread running: the package starts none, so such a thread is a leak."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads still running after the test: {left}")


@pytest.fixture(autouse=True)
def no_test_leaves_tracemalloc_tracing():
    """Fail a test that starts tracemalloc and does not stop it: tracing slows every later allocation."""
    yield
    if tracemalloc.is_tracing():
        tracemalloc.stop()
        pytest.fail("tracemalloc is still tracing after the test")
