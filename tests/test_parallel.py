import threading

import pytest

from specnet3d import parallel


@pytest.fixture
def serial(monkeypatch):
    """fan_out with no way to set OpenBLAS's thread count, and more
    workers than one; returns the real count's reader, or None."""
    blas = parallel._openblas()
    monkeypatch.setattr(parallel, "_openblas", lambda: None)
    monkeypatch.setattr(parallel, "workers", lambda: 4)
    return None if blas is None else blas[0]


class TestSerialFanOut:
    def test_runs_every_shard_on_the_caller_in_order(self, serial):
        before = serial and serial()
        ran = []

        def square(i):
            ran.append((i, threading.get_ident(), parallel._pins))
            return i * i

        assert parallel.fan_out(5, square) == [0, 1, 4, 9, 16]
        assert ran == [(i, threading.get_ident(), 0) for i in range(5)]
        assert parallel.fan_out(0, square) == []
        assert (serial and serial()) == before

    def test_raising_shard_stops_the_later_ones(self, serial):
        before = serial and serial()
        ran = []

        def failing_at_2(i):
            ran.append(i)
            if i == 2:
                raise RuntimeError("shard 2 failed")
            return i

        with pytest.raises(RuntimeError, match="shard 2 failed"):
            parallel.fan_out(5, failing_at_2)
        assert ran == [0, 1, 2]
        assert (serial and serial()) == before
