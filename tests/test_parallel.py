import os
import subprocess
import sys
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


needs_openblas = pytest.mark.skipif(
    parallel._openblas() is None,
    reason="OpenBLAS's thread count cannot be set here, so jobs never leave "
           "the calling thread")


@needs_openblas
class TestDeal:
    @pytest.fixture(autouse=True)
    def three_workers(self, monkeypatch):
        monkeypatch.setattr(parallel, "workers", lambda: 3)

    def test_jobs_dealt_round_robin_over_the_workers(self):
        # each job waits until every worker holds one, so all three run at once
        started = threading.Barrier(3, timeout=30)
        ran = {}

        def job(i):
            if i < 3:
                started.wait()
            ran[i] = threading.get_ident()
            return i

        assert parallel.fan_out(7, job) == list(range(7))
        assert ran[0] == threading.get_ident()
        assert len(set(ran.values())) == 3
        for i in range(7):
            assert ran[i] == ran[i % 3], i

    def test_no_jobs(self):
        assert parallel.fan_out(0, lambda i: i) == []

    def test_raising_helper_job_stops_later_jobs(self):
        # job 0 holds the caller until job 1 has raised on a helper and that
        # worker has stopped, so no later job starts on either worker
        started, helper = threading.Event(), []
        ran = []

        def job(i):
            ran.append(i)
            if i == 0:
                assert started.wait(timeout=30)
                helper[0].join(timeout=30)
                assert not helper[0].is_alive()
            if i == 1:
                helper.append(threading.current_thread())
                started.set()
                raise RuntimeError("job 1 failed")
            return i

        with pytest.raises(RuntimeError, match="^job 1 failed$"):
            parallel.fan_out(8, job)
        # workers 0 and 1 hold jobs 0, 3, 6 and 1, 4, 7; worker 2 may run 5
        assert {0, 1} <= set(ran) and not {3, 4, 6, 7} & set(ran)


class TestSteadyHeap:
    def test_mallopt_takes_both_settings_on_glibc(self):
        if parallel._glibc("libc.so.6") is None:
            pytest.skip("the heap policy is set through glibc's mallopt only")
        assert parallel.steady_heap() is True

    def test_only_the_network_sets_it(self, tmp_path):
        # a process that only moves cubes keeps the allocator's defaults;
        # the first network pass sets the policy
        script = "\n".join([
            "import numpy as np",
            "from specnet3d import HsiCube, load_cube, network, parallel, save_cube",
            "save_cube(HsiCube(np.ones((4, 5, 12), np.float32)), 'scene.hsc.json')",
            "load_cube('scene.hsc.json')",
            "print(parallel.steady_heap.cache_info().currsize)",
            "model = network.build_model(network.ModelConfig(12, 2, 7), 0)",
            "network.forward(model, np.ones((1, 1, 7, 7, 12), np.float32))",
            "print(parallel.steady_heap.cache_info().currsize)",
        ])
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                             env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                             text=True, timeout=120, check=False)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["0", "1"]
