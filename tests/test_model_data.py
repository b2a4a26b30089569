import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eivgmm.covariance import estimate_covariances
from eivgmm.errors import CsvParseError, ValidationError
from eivgmm.model_data import (
    CsvSchema,
    ParamVector,
    build_design,
    load_csv,
    make_dataset,
    write_csv,
)
from test_covariance import estimate_sigma_j, pairwise_oracle


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadCsv:
    def test_direct_ingestion(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, [
            "y,w1_r1,w1_r2",
            "1.0,0.5,0.7",
            "2.0,1.5,1.7",
            "3.0,2.5,2.7",
            "4.0,3.5,3.7",
        ])
        d = load_csv(f, CsvSchema(y="y"))
        assert (d.n, d.p, d.q) == (4, 1, 0)
        assert np.array_equal(d.n_rep, [2, 2, 2, 2])
        assert np.array_equal(d.y, [1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(d.z, np.ones((4, 1)))

    def test_missing_cell_drops_replicate(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, [
            "y,w1_r1,w1_r2,w1_r3",
            "1.0,0.5,,0.9",
            "2.0,1.5,1.6,1.7",
            "3.0,2.5,2.6,2.7",
            "4.0,3.5,3.6,3.7",
        ])
        d = load_csv(f, CsvSchema(y="y"))
        assert d.n_rep.tolist() == [2, 3, 3, 3]
        # replicates 1 and 3 are the ones kept for the first row
        assert np.array_equal(d.w_reps[0], [[0.5], [0.9]])

    def test_single_replicate_column_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["y,w1_r1", "1.0,0.5", "2.0,1.5"])
        with pytest.raises(ValidationError, match="n_j<2"):
            load_csv(f, CsvSchema(y="y"))

    def test_row_with_too_few_replicates_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, [
            "y,w1_r1,w1_r2",
            "1.0,0.5,",
            "2.0,1.5,1.7",
            "3.0,2.5,2.7",
            "4.0,3.5,3.7",
        ])
        with pytest.raises(ValidationError, match=r"rows \[0\]"):
            load_csv(f, CsvSchema(y="y"))

    def test_malformed_cell_reports_row_and_column(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, [
            "y,w1_r1,w1_r2",
            "1.0,0.5,0.7",
            "2.0,oops,1.7",
            "3.0,2.5,2.7",
            "4.0,3.5,3.7",
        ])
        with pytest.raises(CsvParseError) as err:
            load_csv(f, CsvSchema(y="y"))
        assert err.value.row == 1
        assert err.value.column == "w1_r1"

    def test_column_order_free(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, [
            "w2_r1,y,w1_r2,age,w1_r1,w2_r2",
            "10.0,1.0,0.7,30,0.5,10.2",
            "11.0,2.0,1.7,40,1.5,11.2",
            "12.0,3.0,2.7,50,2.5,12.2",
            "13.0,4.0,3.7,60,3.5,13.2",
            "14.0,5.0,4.7,70,4.5,14.2",
        ])
        d = load_csv(f, CsvSchema(y="y", z=("age",)))
        assert (d.n, d.p, d.q) == (5, 2, 1)
        assert np.array_equal(d.w_reps[0], [[0.5, 10.0], [0.7, 10.2]])
        assert np.array_equal(d.z[:, 1], [30, 40, 50, 60, 70])

    def test_empty_and_header_only_files_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["y,w1_r1,w1_r2"])
        with pytest.raises(ValidationError, match="no data rows"):
            load_csv(f, CsvSchema(y="y"))
        f.write_text("", encoding="utf-8")
        with pytest.raises(ValidationError, match="empty file"):
            load_csv(f, CsvSchema(y="y"))

    def test_short_row_reports_row_and_column(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, [
            "w1_r1,w1_r2,y",
            "0.5,0.7,1.0",
            "1.5,1.7,2.0",
            "2.5,2.7",
            "3.5,3.7,4.0",
        ])
        with pytest.raises(CsvParseError) as err:
            load_csv(f, CsvSchema(y="y"))
        assert (err.value.row, err.value.column) == (2, "y")

    def test_long_row_reports_row_and_cell(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, [
            "y,w1_r1,w1_r2",
            "1.0,0.5,0.7",
            "2.0,1.5,1.7,9.9",
            "3.0,2.5,2.7",
            "4.0,3.5,3.7",
        ])
        with pytest.raises(CsvParseError) as err:
            load_csv(f, CsvSchema(y="y"))
        # the first extra cell, by its 0-based position in the row
        assert (err.value.row, err.value.column) == (1, 3)

    def test_duplicate_column_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, [
            "y,w1_r1,w1_r2,w1_r2",
            "1.0,0.5,0.7,0.9",
            "2.0,1.5,1.7,1.9",
            "3.0,2.5,2.7,2.9",
            "4.0,3.5,3.7,3.9",
        ])
        with pytest.raises(ValidationError, match=r"duplicate column names \['w1_r2'\]"):
            load_csv(f, CsvSchema(y="y"))


class TestRoundTrip:
    def test_write_then_load_bit_identical(self, tmp_path, rng):
        n = 30
        y = rng.normal(size=n)
        z = rng.normal(size=(n, 2))
        w = [rng.normal(size=(3, 2)) for _ in range(n)]
        d = make_dataset(y, z, w)
        f = tmp_path / "out.csv"
        write_csv(d, f)
        d2 = load_csv(f, CsvSchema(y="y", z=("z1", "z2")))
        assert np.array_equal(d.y, d2.y)
        assert np.array_equal(d.z, d2.z)
        for a, b in zip(d.w_reps, d2.w_reps):
            assert np.array_equal(a, b)

    def test_ragged_replicates_round_trip(self, tmp_path, rng):
        y = rng.normal(size=10)
        w = [rng.normal(size=(2 + (j % 2), 1)) for j in range(10)]
        d = make_dataset(y, np.empty((10, 0)), w)
        f = tmp_path / "out.csv"
        write_csv(d, f)
        d2 = load_csv(f, CsvSchema(y="y"))
        assert d2.n_rep.tolist() == d.n_rep.tolist()
        for a, b in zip(d.w_reps, d2.w_reps):
            assert np.array_equal(a, b)

    def test_schema_with_wrong_z_count_rejected(self, tmp_path, rng):
        # a one-name z schema for q=2 data would shift every row by a column
        d = make_dataset(rng.normal(size=10), rng.normal(size=(10, 2)),
                         rng.normal(size=(10, 3, 1)))
        with pytest.raises(ValidationError, match="q = 2"):
            write_csv(d, tmp_path / "out.csv", CsvSchema(y="y", z=("a",)))


class TestValidation:
    def test_nonfinite_rejected(self, rng):
        y = np.array([1.0, 2.0, np.nan, 4.0, 5.0])
        w = [np.ones((2, 1))] * 5
        with pytest.raises(ValidationError, match="non-finite"):
            make_dataset(y, np.empty((5, 0)), w)

    def test_too_small_n_rejected(self, rng):
        y = rng.normal(size=3)
        w = [rng.normal(size=(2, 2)) for _ in range(3)]
        with pytest.raises(ValidationError, match="p\\+q\\+2"):
            make_dataset(y, np.empty((3, 0)), w)

    def test_intercept_synthesized(self, small_dataset):
        assert np.all(small_dataset.z[:, 0] == 1.0)

    def test_zero_rows_rejected(self):
        with pytest.raises(ValidationError, match="no observations"):
            make_dataset(np.empty(0), np.empty((0, 0)), [])

    def test_z_with_other_row_count_rejected(self, rng):
        # (5, 4) has the 20 cells of a (10, 2) block but not its rows
        with pytest.raises(ValidationError, match=r"shape \(5, 4\), expected \(10, q\)"):
            make_dataset(rng.normal(size=10), np.arange(20.0).reshape(5, 4),
                         rng.normal(size=(10, 2, 1)))

    def test_mixed_width_blocks_rejected(self, rng):
        w = [rng.normal(size=(2, 2)) for _ in range(5)] + [rng.normal(size=(2, 3))]
        with pytest.raises(ValidationError, match=r"row 5: replicate block has shape \(2, 3\)"):
            make_dataset(rng.normal(size=6), np.empty((6, 0)), w)


@st.composite
def ragged_samples(draw):
    """(y, z, replicate blocks, gap slots): n rows with p, q and counts
    n_j in 2..5 drawn, values from a drawn seed, and for each row a slot
    1..n_j-1 where a CSV file holds an incomplete replicate vector."""
    p, q = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    counts = draw(st.lists(st.integers(2, 5), min_size=p + q + 2, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = len(counts)
    blocks = [rng.normal(size=(c, p)) for c in counts]
    gaps = [int(rng.integers(1, c)) for c in counts]
    return rng.normal(size=n), rng.normal(size=(n, q)), blocks, gaps


def write_with_gaps(path, y, z, blocks, gaps):
    """Wide CSV whose row j has an incomplete vector (first cell only when
    p > 1) in replicate slot gaps[j], between complete replicates."""
    p, r_cols = blocks[0].shape[1], max(len(b) for b in blocks) + 1
    header = ["y", *(f"z{i + 1}" for i in range(z.shape[1]))]
    header += [f"w{k}_r{r}" for r in range(1, r_cols + 1) for k in range(1, p + 1)]
    lines = [",".join(header)]
    for j, block in enumerate(blocks):
        gap = ["7.5"] + [""] * (p - 1) if p > 1 else [""]
        vectors = [[repr(float(v)) for v in row] for row in block]
        vectors.insert(gaps[j], gap)
        vectors += [[""] * p] * (r_cols - len(vectors))
        cells = [repr(float(y[j])), *(repr(float(v)) for v in z[j])]
        lines.append(",".join(cells + [c for vec in vectors for c in vec]))
    write_lines(path, lines)


class TestDenseLayout:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(sample=ragged_samples())
    def test_dense_matches_ragged_blocks(self, sample):
        y, z, blocks, gaps = sample
        d = make_dataset(y, z, blocks)
        assert d.w.shape == (len(blocks), max(len(b) for b in blocks), blocks[0].shape[1])
        assert d.n_rep.tolist() == [len(b) for b in blocks]
        views = d.w_reps
        assert len(views) == len(blocks)
        assert all(a.shape == b.shape and a.tobytes() == b.tobytes()
                   for a, b in zip(views, blocks))
        assert np.array_equal(d.w_bar, [b.mean(axis=0) for b in blocks])
        sigma_j = estimate_covariances(d)
        for j, block in enumerate(blocks):
            np.testing.assert_allclose(sigma_j[j], estimate_sigma_j(d, j), rtol=0, atol=1e-12)
            np.testing.assert_allclose(sigma_j[j], pairwise_oracle(block), rtol=0, atol=1e-12)

        with tempfile.TemporaryDirectory() as tmp:
            schema = CsvSchema(y="y", z=tuple(f"z{i + 1}" for i in range(z.shape[1])))
            path = Path(tmp) / "d.csv"
            write_csv(d, path, schema)
            loaded = load_csv(path, schema)
            write_with_gaps(path, y, z, blocks, gaps)
            gapped = load_csv(path, schema)
        for other in (loaded, gapped):
            for name in ("y", "z", "w", "n_rep", "w_bar"):
                a, b = getattr(d, name), getattr(other, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    def test_dense_array_input_matches_block_list(self, rng):
        w = rng.normal(size=(9, 3, 2))
        d1 = make_dataset(rng.normal(size=9), np.empty((9, 0)), w)
        d2 = make_dataset(d1.y, np.empty((9, 0)), list(w))
        assert d1.w.tobytes() == d2.w.tobytes() == w.tobytes()
        assert d1.w_bar.tobytes() == d2.w_bar.tobytes()

    def test_arrays_read_only(self, small_dataset):
        d = small_dataset
        for arr in (d.y, d.z, d.w, d.n_rep, d.w_bar, d.w_reps[0]):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    def test_inputs_not_aliased(self, rng):
        y, z, w = rng.normal(size=6), rng.normal(size=(6, 1)), rng.normal(size=(6, 2, 1))
        d = make_dataset(y, z, w)
        before = [a.copy() for a in (d.y, d.z, d.w)]
        for a in (y, z, w):
            a[0] = 99.0
        assert all(np.array_equal(a, b) for a, b in zip((d.y, d.z, d.w), before))


class TestAverageReplicates:
    def test_arithmetic_mean(self):
        y = np.arange(5.0)
        w = [np.array([[1.0, 3.0], [3.0, 1.0]])] * 5
        d = make_dataset(y, np.empty((5, 0)), w)
        assert np.allclose(d.w_bar, 2.0)

    def test_identical_replicates_idempotent(self, rng):
        row = rng.normal(size=2)
        w = [np.tile(row, (3, 1))] * 6
        d = make_dataset(rng.normal(size=6), np.empty((6, 0)), w)
        assert np.allclose(d.w_bar, row)

    def test_permutation_invariant(self, rng):
        w = [rng.normal(size=(4, 2)) for _ in range(8)]
        y = rng.normal(size=8)
        d1 = make_dataset(y, np.empty((8, 0)), w)
        d2 = make_dataset(y, np.empty((8, 0)), [wj[::-1] for wj in w])
        assert np.allclose(d1.w_bar, d2.w_bar)


class TestParamVector:
    def test_round_trip(self):
        pv = ParamVector(beta=[1.0, 2.0], gamma=[3.0, 4.0, 5.0])
        assert np.array_equal(pv.theta, [1, 2, 3, 4, 5])
        pv2 = ParamVector.from_theta(pv.theta, p=2)
        assert np.array_equal(pv2.beta, pv.beta)
        assert np.array_equal(pv2.gamma, pv.gamma)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            ParamVector(beta=[np.inf], gamma=[0.0])

    def test_design_layout(self, small_dataset):
        design = build_design(small_dataset)
        assert design.v.shape == (small_dataset.n, small_dataset.p + small_dataset.q + 1)
        assert np.array_equal(design.v[:, :small_dataset.p], small_dataset.w_bar)
        assert np.array_equal(design.v[:, small_dataset.p:], small_dataset.z)
