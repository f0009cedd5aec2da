"""Tests for the simulated block storage layer."""

import pytest

from repro.exceptions import StorageError
from repro.storage.blocks import BlockTable, TableDirectory
from repro.storage.iostats import IOCounter


class TestBlockTable:
    def make(self, n=10, block_size=4):
        counter = IOCounter()
        table = BlockTable("t", list(range(n)), counter, block_size=block_size)
        return table, counter

    def test_block_count(self):
        table, _ = self.make(10, 4)
        assert table.num_blocks == 3
        assert table.num_entries == 10
        assert len(table) == 10

    def test_empty_table(self):
        table, _ = self.make(0, 4)
        assert table.num_blocks == 0
        assert table.read_all() == ()

    def test_read_block_contents(self):
        table, _ = self.make(10, 4)
        assert table.read_block(0) == (0, 1, 2, 3)
        assert table.read_block(2) == (8, 9)

    def test_read_block_meters(self):
        table, counter = self.make(10, 4)
        table.read_block(1)
        assert counter.blocks_read == 1
        assert counter.entries_read == 4
        table.read_block(2)
        assert counter.blocks_read == 2
        assert counter.entries_read == 6

    def test_read_all(self):
        table, counter = self.make(10, 4)
        assert table.read_all() == tuple(range(10))
        assert counter.blocks_read == 3

    def test_out_of_range(self):
        table, _ = self.make(10, 4)
        with pytest.raises(StorageError):
            table.read_block(3)
        with pytest.raises(StorageError):
            table.read_block(-1)

    def test_bad_block_size(self):
        with pytest.raises(StorageError):
            BlockTable("t", [1], IOCounter(), block_size=0)

    def test_peek_unmetered(self):
        table, counter = self.make(10, 4)
        assert table.peek_unmetered() == tuple(range(10))
        assert counter.blocks_read == 0


class TestTableDirectory:
    def test_create_and_open(self):
        d = TableDirectory(block_size=2)
        d.create("a", [1, 2, 3])
        table = d.open("a")
        assert table.num_entries == 3
        assert d.counter.tables_opened == 1

    def test_open_missing_is_empty(self):
        d = TableDirectory()
        table = d.open("ghost")
        assert table.num_entries == 0
        assert not d.exists("ghost")

    def test_totals(self):
        d = TableDirectory(block_size=2)
        d.create("a", [1, 2, 3])
        d.create("b", [1])
        assert d.total_entries() == 4
        assert d.total_blocks() == 3
        assert d.names() == ["a", "b"]

    def test_shared_counter(self):
        counter = IOCounter()
        d = TableDirectory(counter=counter)
        d.create("a", [1, 2])
        d.open("a").read_all()
        assert counter.blocks_read == 1
        assert counter.entries_read == 2
