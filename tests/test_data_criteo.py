"""Tests for the real-Criteo TSV parser (on synthetic fixture files)."""

import numpy as np
import pytest

from repro.data import KAGGLE, CriteoTSVReader, DatasetSpec
from repro.data.criteo import parse_criteo_line, scan_criteo_tsv


def make_line(label=1, ints=None, cats=None):
    ints = ints if ints is not None else ["1"] * 13
    cats = cats if cats is not None else ["05db9164"] * 26
    return "\t".join([str(label)] + ints + cats)


class TestParseLine:
    def test_basic(self):
        label, dense, cats = parse_criteo_line(make_line(), KAGGLE.table_sizes)
        assert label == 1.0
        np.testing.assert_allclose(dense, np.log1p(1.0))
        assert cats.shape == (26,)
        assert all(0 <= cats[i] < KAGGLE.table_sizes[i] for i in range(26))

    def test_missing_fields_default_to_zero(self):
        line = make_line(0, ints=[""] * 13, cats=[""] * 26)
        label, dense, cats = parse_criteo_line(line, KAGGLE.table_sizes)
        assert label == 0.0
        assert not dense.any()
        assert not cats.any()

    def test_negative_ints_clamped(self):
        ints = ["-5"] + ["2"] * 12
        _, dense, _ = parse_criteo_line(make_line(ints=ints), KAGGLE.table_sizes)
        assert dense[0] == 0.0
        np.testing.assert_allclose(dense[1], np.log1p(2.0))

    def test_hex_modulo_mapping(self):
        cats = ["ffffffff"] + ["0000000a"] * 25
        _, _, out = parse_criteo_line(make_line(cats=cats), KAGGLE.table_sizes)
        assert out[0] == 0xFFFFFFFF % KAGGLE.table_sizes[0]
        assert out[1] == 10 % KAGGLE.table_sizes[1]

    def test_rejects_wrong_field_count(self):
        with pytest.raises(ValueError):
            parse_criteo_line("1\t2\t3", KAGGLE.table_sizes)


class TestReader:
    def write_fixture(self, tmp_path, n=10):
        rng = np.random.default_rng(0)
        lines = []
        for i in range(n):
            ints = [str(int(v)) if v >= 0 else "" for v in rng.integers(-2, 100, 13)]
            cats = [f"{int(v):08x}" for v in rng.integers(0, 2 ** 32, 26)]
            lines.append(make_line(i % 2, ints, cats))
        p = tmp_path / "criteo.tsv"
        p.write_text("\n".join(lines) + "\n")
        return p

    def test_batches(self, tmp_path):
        path = self.write_fixture(tmp_path, n=10)
        reader = CriteoTSVReader(path, KAGGLE)
        batches = list(reader.batches(4))
        assert [b.size for b in batches] == [4, 4, 2]
        for b in batches:
            assert b.dense.shape[1] == 13
            assert len(b.sparse) == 26
            for idx, off in b.sparse:
                np.testing.assert_array_equal(np.diff(off), 1)

    def test_max_samples(self, tmp_path):
        path = self.write_fixture(tmp_path, n=10)
        reader = CriteoTSVReader(path, KAGGLE)
        batches = list(reader.batches(4, max_samples=5))
        assert sum(b.size for b in batches) == 5

    def test_labels_preserved(self, tmp_path):
        path = self.write_fixture(tmp_path, n=6)
        reader = CriteoTSVReader(path, KAGGLE)
        labels = np.concatenate([b.labels for b in reader.batches(3)])
        np.testing.assert_array_equal(labels, [0, 1, 0, 1, 0, 1])

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "x.tsv"
        p.write_text(make_line() + "\n\n" + make_line(0) + "\n")
        batches = list(CriteoTSVReader(p, KAGGLE).batches(10))
        assert sum(b.size for b in batches) == 2

    def test_rejects_wrong_spec_layout(self, tmp_path):
        bad = DatasetSpec(name="bad", table_sizes=(10, 20), num_dense=13)
        with pytest.raises(ValueError):
            CriteoTSVReader(tmp_path / "x.tsv", bad)

    def test_rejects_bad_batch_size(self, tmp_path):
        path = self.write_fixture(tmp_path, n=2)
        with pytest.raises(ValueError):
            list(CriteoTSVReader(path, KAGGLE).batches(0))


class TestCriteoScan:
    def make_file(self, tmp_path, rows):
        lines = []
        for label, cats in rows:
            ints = ["1"] * 13
            lines.append("\t".join([str(label)] + ints + cats))
        p = tmp_path / "raw.tsv"
        p.write_text("\n".join(lines) + "\n")
        return p

    def test_cardinalities_and_frequencies(self, tmp_path):
        rows = [
            (1, ["0000000a"] + ["0000000b"] * 25),
            (0, ["0000000a"] + ["0000000c"] * 25),
            (0, ["0000000d"] + ["0000000b"] * 25),
        ]
        path = self.make_file(tmp_path, rows)
        scan = scan_criteo_tsv(path)
        assert scan.num_samples == 3
        assert scan.positives == 1
        assert scan.click_rate == pytest.approx(1 / 3)
        cards = scan.cardinalities()
        assert cards[0] == 2  # values a, d
        assert cards[1] == 2  # values b, c
        top_vals, top_counts = scan.top_values(0, 1)
        assert top_vals[0] == 0xA
        assert top_counts[0] == 2

    def test_missing_values_not_counted(self, tmp_path):
        rows = [(0, [""] * 26)]
        scan = scan_criteo_tsv(self.make_file(tmp_path, rows))
        assert scan.cardinalities() == tuple([0] * 26)

    def test_max_samples(self, tmp_path):
        rows = [(0, ["00000001"] * 26)] * 5
        scan = scan_criteo_tsv(self.make_file(tmp_path, rows), max_samples=2)
        assert scan.num_samples == 2

    def test_malformed_line_raises(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("1\t2\t3\n")
        with pytest.raises(ValueError, match="expected"):
            scan_criteo_tsv(p)
