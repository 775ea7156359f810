"""The thread pool: its size from HCB_THREADS, result order, nesting, fork."""

import multiprocessing
import os
import sys
import threading

import pytest

from hcbounds._runtime import thread_cap, thread_map


class TestThreadCap:
    def test_defaults_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("HCB_THREADS", raising=False)
        assert thread_cap() == os.cpu_count()

    def test_clamped_to_cpu_count(self, monkeypatch):
        # only the returned value is checked; no pool is started at this setting
        monkeypatch.setenv("HCB_THREADS", "1000000")
        assert thread_cap() == os.cpu_count()

    @pytest.mark.parametrize("raw", ["0", "-2", "two", "1.5"])
    def test_invalid_values_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("HCB_THREADS", raw)
        with pytest.raises(ValueError, match="HCB_THREADS"):
            thread_cap()


class TestThreadMap:
    @pytest.mark.parametrize("threads, pooled", [("1", False), ("2", True)])
    def test_results_in_item_order(self, monkeypatch, threads, pooled):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("HCB_THREADS", threads)
        main = threading.get_ident()
        got = thread_map(lambda i: (i * i, threading.get_ident() != main), range(7))
        assert [v for v, _ in got] == [i * i for i in range(7)]
        assert {off_main for _, off_main in got} == {pooled}

    def test_nested_call_runs_inline_on_the_worker(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("HCB_THREADS", "2")
        main = threading.get_ident()

        def outer(i):
            me = threading.get_ident()
            return me != main and thread_map(lambda j: threading.get_ident(), range(4)) == [me] * 4

        assert thread_map(outer, range(3)) == [True] * 3

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_makes_its_own_pool(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("HCB_THREADS", "2")
        assert thread_map(lambda i: i, range(4)) == [0, 1, 2, 3]  # the parent's pool exists

        def child():  # the parent's workers do not exist here; a map on them would hang
            sys.exit(0 if thread_map(lambda i: i * i, range(4)) == [0, 1, 4, 9] else 1)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=60)
        if proc.is_alive():
            proc.kill()
        assert proc.exitcode == 0

    def test_empty_and_single_item_run_inline(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("HCB_THREADS", "2")
        main = threading.get_ident()
        assert thread_map(lambda i: i, []) == []
        assert thread_map(lambda i: threading.get_ident() == main, ["only"]) == [True]
