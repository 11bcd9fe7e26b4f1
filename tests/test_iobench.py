import numpy as np
import pytest

from outstream import (DatasetSpec, GaussianMixtureSpec, MicroClusterProcessor,
                       TopologyConfig, assign_artificial_timestamps,
                       brute_force_oracle, check_against_oracle,
                       count_window_config, generate_gaussian_values,
                       read_csv_stream, read_csv_values, run_topology)
from outstream.bench import RunRecord, load_run_record, write_run_record
from outstream.cli import main, parse_slide

from conftest import clustered_values


class TestCsv:
    def write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_three_rows_one_column(self, tmp_path):
        path = self.write(tmp_path, "1.0\n2.0\n3.0\n")
        vals = read_csv_values(DatasetSpec(path=path))
        assert vals.tolist() == [[1.0], [2.0], [3.0]]
        src = read_csv_stream(DatasetSpec(path=path), 3, 3)
        assert src.ids.tolist() == [0, 1, 2]

    def test_column_selection_on_wide_rows(self, tmp_path):
        row = ",".join(str(float(i)) for i in range(55))
        path = self.write(tmp_path, f"{row}\n{row}\n")
        vals = read_csv_values(DatasetSpec(path=path, columns=(2, 5)))
        assert vals.shape == (2, 2)
        assert vals[0].tolist() == [2.0, 5.0]

    def test_malformed_row_names_position(self, tmp_path):
        path = self.write(tmp_path, "1.0\nbogus\n3.0\n")
        with pytest.raises(ValueError, match="row 1, column 0"):
            read_csv_values(DatasetSpec(path=path))

    def test_missing_column_names_position(self, tmp_path):
        path = self.write(tmp_path, "1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="row 1: column 1"):
            read_csv_values(DatasetSpec(path=path, columns=(1,)))

    def test_normalization(self, tmp_path):
        path = self.write(tmp_path, "0.0,10.0\n5.0,20.0\n10.0,30.0\n")
        vals = read_csv_values(DatasetSpec(path=path, normalize=True))
        assert vals.min() == 0.0 and vals.max() == 1.0
        assert vals[1].tolist() == [0.5, 0.5]

    def test_constant_dimension_cannot_normalize(self, tmp_path):
        path = self.write(tmp_path, "1.0,5.0\n2.0,5.0\n")
        with pytest.raises(ValueError, match="dimension 1"):
            read_csv_values(DatasetSpec(path=path, normalize=True))


class TestGaussian:
    def test_same_seed_identical_stream(self):
        a = generate_gaussian_values(GaussianMixtureSpec(seed=42), 500)
        b = generate_gaussian_values(GaussianMixtureSpec(seed=42), 500)
        assert np.array_equal(a, b)

    def test_single_component_weights(self):
        spec = GaussianMixtureSpec(weights=(1.0, 0.0, 0.0), seed=1)
        vals = generate_gaussian_values(spec, 300)
        assert abs(float(vals.mean()) - spec.means[0][0]) < 0.2

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GaussianMixtureSpec(weights=(0.5, 0.2, 0.2))

    def test_dims_scale_mean_separation(self):
        spec = GaussianMixtureSpec(dims=4)
        sep = np.linalg.norm(np.array(spec.means[2]) - np.array(spec.means[1]))
        assert sep == pytest.approx(10.0)


class TestOracle:
    def test_hand_checked_window(self):
        assert brute_force_oracle([[0.0], [0.1], [0.2], [10.0]], 0.5, 2) == {3}

    def test_k_zero_is_vacuous(self):
        assert brute_force_oracle([[0.0], [5.0]], 0.5, 0) == set()

    def test_single_point_is_its_own_outlier(self):
        assert brute_force_oracle([[7.0]], 0.5, 1) == {0}

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(0, 1, size=(80, 2))
        ids = list(range(80))
        base = brute_force_oracle(vals, 0.4, 3, ids=ids)
        perm = rng.permutation(80)
        shuffled = brute_force_oracle(vals[perm], 0.4, 3, ids=[ids[i] for i in perm])
        assert base == shuffled

    def test_verification_catches_an_injected_fault(self):
        vals = clustered_values(9, 240, 1)
        src = assign_artificial_timestamps(vals, 60, 12)
        cfg = count_window_config(60, 12, R=0.5, k=3, dims=1, partitions=2)
        topo = TopologyConfig(window=cfg, algorithm="pmcod", partitioner="grid",
                              sample_size=240)
        res = run_topology(src, topo)
        assert not check_against_oracle(res.reports, src, cfg)
        tampered = list(res.reports)
        victim = tampered[7]
        flipped = (set(victim.outliers) ^ {int(src.ids[5])})
        tampered[7] = type(victim)(interval=victim.interval,
                                   outliers=frozenset(flipped),
                                   slide_wall_time=victim.slide_wall_time,
                                   arrivals=victim.arrivals,
                                   delivered=victim.delivered,
                                   alive=victim.alive)
        problems = check_against_oracle(tampered, src, cfg)
        assert len(problems) == 1 and problems[0]["slide"] == 7


class TestRunRecord:
    def test_round_trip(self, tmp_path):
        vals = clustered_values(12, 240, 1)
        src = assign_artificial_timestamps(vals, 60, 12)
        cfg = count_window_config(60, 12, R=0.5, k=3, dims=1, partitions=2)
        topo = TopologyConfig(window=cfg, algorithm="advanced", partitioner="grid",
                              sample_size=240)
        res = run_topology(src, topo)
        record = RunRecord.from_result(res, {"algorithm": "advanced", "W": 60})
        prefix = str(tmp_path / "run")
        write_run_record(record, prefix)
        assert load_run_record(prefix) == record


class TestCli:
    def test_slide_spec_parsing(self):
        assert parse_slide("500", 10_000) == 500
        assert parse_slide("5%", 10_000) == 500
        with pytest.raises(ValueError):
            parse_slide("0", 100)
        with pytest.raises(ValueError):
            parse_slide("250%", 100)

    def base_args(self):
        return ["--W", "400", "--S", "10%", "--R", "0.28", "--k", "5",
                "--gaussian", "--seed", "3", "--slides", "15"]

    def test_pmcod_grid_run_with_verification(self, tmp_path, capsys):
        out = str(tmp_path / "rec")
        rc = main(["--algorithm", "pmcod", "--partitioning", "grid",
                   "--partitions", "4", "--verify", "--out", out]
                  + self.base_args())
        assert rc == 0
        captured = capsys.readouterr()
        assert "verified" in captured.out
        assert (tmp_path / "rec.summary.csv").exists()
        assert (tmp_path / "rec.slides.csv").exists()

    def test_baseline_multi_partition_is_usage_error(self, capsys):
        rc = main(["--algorithm", "baseline", "--partitions", "4"] + self.base_args())
        assert rc == 2
        assert "single-partition" in capsys.readouterr().err

    def test_naive_grid_is_usage_error(self, capsys):
        rc = main(["--algorithm", "naive", "--partitioning", "grid",
                   "--partitions", "4"] + self.base_args())
        assert rc == 2
        assert "random" in capsys.readouterr().err

    def test_exactly_one_source_required(self, capsys):
        rc = main(["--algorithm", "baseline", "--W", "100", "--S", "50%",
                   "--R", "0.5", "--k", "2"])
        assert rc == 2

    def test_window_must_tile_by_slide(self, capsys):
        rc = main(["--algorithm", "baseline", "--partitions", "1", "--W", "100",
                   "--S", "33", "--R", "0.5", "--k", "2", "--gaussian"])
        assert rc == 2

    def test_slicing_flag_selects_the_sliced_variant(self, capsys):
        rc = main(["--algorithm", "advanced", "--slicing", "on",
                   "--partitioning", "vptree", "--partitions", "2",
                   "--verify"] + self.base_args())
        assert rc == 0
        rc = main(["--algorithm", "pmcod", "--slicing", "on",
                   "--partitioning", "grid", "--partitions", "2"] + self.base_args())
        assert rc == 2

    def test_non_finite_dataset_cell_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "stream.csv"
        rows = [f"{0.01 * i},{0.02 * i}" for i in range(400)]
        rows[7] = "0.5,nan"
        path.write_text("\n".join(rows) + "\n")
        rc = main(["--algorithm", "pmcod", "--partitioning", "grid",
                   "--partitions", "2", "--dataset", str(path), "--W", "100",
                   "--S", "25%", "--R", "0.3", "--k", "3", "--slides", "16"])
        assert rc == 2
        assert "row 7" in capsys.readouterr().err

    def test_dataset_run(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        path = tmp_path / "stream.csv"
        np.savetxt(path, rng.normal(0, 1, size=(400, 1)), delimiter=",")
        rc = main(["--algorithm", "advanced", "--partitioning", "grid",
                   "--partitions", "2", "--dataset", str(path), "--W", "100",
                   "--S", "25%", "--R", "0.3", "--k", "3", "--slides", "16",
                   "--verify"])
        assert rc == 0

    def run_dataset(self, tmp_path, values, partitioning):
        path = tmp_path / "stream.csv"
        np.savetxt(path, values, delimiter=",")
        return main(["--algorithm", "pmcod", "--partitioning", partitioning,
                     "--partitions", "4", "--dataset", str(path), "--W", "100",
                     "--S", "25%", "--R", "0.3", "--k", "3", "--slides", "16"])

    def test_constant_column_for_the_grid_is_usage_error(self, tmp_path, capsys):
        values = np.column_stack([0.01 * np.arange(400), np.full(400, 5.0)])
        assert self.run_dataset(tmp_path, values, "grid") == 2
        err = capsys.readouterr().err
        assert err == ("error: degenerate sample in dimension 1: cannot place 1 "
                       "distinct quantile cuts (spread=0.0)\n")

    def test_duplicate_heavy_sample_for_the_vptree_is_usage_error(self, tmp_path, capsys):
        values = np.ones((400, 2))
        values[::40] = np.random.default_rng(0).normal(0, 1, size=(10, 2))
        assert self.run_dataset(tmp_path, values, "vptree") == 2
        assert capsys.readouterr().err == (
            "error: tree too shallow for level 2; grow the build sample\n")

    def test_worker_failures_are_not_usage_errors(self, tmp_path, monkeypatch):
        def fail(self, batch):
            raise ValueError("boom")

        monkeypatch.setattr(MicroClusterProcessor, "process_slide", fail)
        values = np.random.default_rng(1).normal(0, 1, size=(400, 2))
        with pytest.raises(RuntimeError, match="worker failed at slide 0, partition 0"):
            self.run_dataset(tmp_path, values, "grid")
