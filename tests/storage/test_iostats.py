"""Tests for I/O counters and the cost model."""

import pytest

from repro.storage.iostats import IOCostModel, IOCounter


class TestIOCounter:
    def test_record_and_reset(self):
        c = IOCounter()
        c.record_read(5)
        c.record_read(3)
        c.record_read(1)
        c.record_open()
        assert c.blocks_read == 3
        assert c.entries_read == 9
        assert c.tables_opened == 1
        c.reset()
        assert (c.blocks_read, c.entries_read, c.tables_opened) == (0, 0, 0)

    def test_record_many_blocks_at_once(self):
        c = IOCounter()
        c.record_read(130, blocks=3)
        assert c.blocks_read == 3
        assert c.entries_read == 130

    def test_snapshot_is_independent(self):
        c = IOCounter()
        c.record_read(2)
        snap = c.snapshot()
        c.record_read(2)
        assert snap.blocks_read == 1
        assert c.blocks_read == 2

    def test_delta_since(self):
        c = IOCounter()
        c.record_read(2)
        snap = c.snapshot()
        c.record_read(4)
        c.record_open()
        delta = c.delta_since(snap)
        assert delta.blocks_read == 1
        assert delta.entries_read == 4
        assert delta.tables_opened == 1


class TestCostModel:
    def test_io_seconds(self):
        c = IOCounter()
        for _ in range(10):
            c.record_read(1)
        c.record_open()
        model = IOCostModel(seconds_per_block=0.001, seconds_per_open=0.01)
        assert model.io_seconds(c) == pytest.approx(0.02)

    def test_zero_traffic(self):
        assert IOCostModel().io_seconds(IOCounter()) == 0.0
