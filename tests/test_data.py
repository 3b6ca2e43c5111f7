import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sngp.data import (CsvFormatError, Dataset2D, dataset_from_csv, dataset_to_csv,
                       gen_grid, gen_two_moons, gen_two_ovals,
                       surface_from_csv, surface_to_csv, surface_to_pgm,
                       CSV_CHUNK_ROWS, OOD_CENTER)

from oracles import min_distance_to_set


class TestTwoOvals:
    def test_counts(self):
        ds = gen_two_ovals(500, seed=1)
        assert len(ds.labels) == 1000
        assert (ds.labels == 0).sum() == 500
        assert (ds.labels == 1).sum() == 500

    def test_deterministic(self):
        a = gen_two_ovals(100, seed=2)
        b = gen_two_ovals(100, seed=2)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.ood_points, b.ood_points)

    def test_class_means_mirrored_in_x(self):
        ds = gen_two_ovals(2000, seed=3)
        mean0 = ds.points[ds.labels == 0].mean(axis=0)
        mean1 = ds.points[ds.labels == 1].mean(axis=0)
        assert abs(mean0[0] + mean1[0]) <= 0.1
        assert abs(mean0[1]) <= 0.05 and abs(mean1[1]) <= 0.05

    def test_ovals_are_flat(self):
        ds = gen_two_ovals(2000, seed=4)
        spread = ds.points[ds.labels == 0].std(axis=0)
        assert spread[0] > 4 * spread[1]


class TestTwoMoons:
    def test_noiseless_points_on_half_circles(self):
        ds = gen_two_moons(200, noise_sd=0.0, seed=5)
        upper = ds.points[ds.labels == 0]
        assert np.max(np.abs(np.linalg.norm(upper, axis=1) - 1.0)) <= 1e-12
        lower = ds.points[ds.labels == 1]
        centered = lower - np.array([1.0, 0.5])
        assert np.max(np.abs(np.linalg.norm(centered, axis=1) - 1.0)) <= 1e-12

    def test_balanced_counts(self):
        ds = gen_two_moons(500, 0.1, seed=6)
        assert len(ds.labels) == 1000
        assert (ds.labels == 1).sum() == 500

    def test_analytic_envelope(self):
        # construction is bounded by [-1, 2] x [-1, 1] plus a 4-sigma noise margin
        noise = 0.1
        ds = gen_two_moons(5000, noise_sd=noise, seed=7)
        margin = 4.0 * noise
        assert ds.points[:, 0].min() >= -1.0 - margin
        assert ds.points[:, 0].max() <= 2.0 + margin
        assert ds.points[:, 1].min() >= -1.0 - margin
        assert ds.points[:, 1].max() <= 1.0 + margin

    def test_deterministic(self):
        a = gen_two_moons(50, 0.1, seed=8)
        b = gen_two_moons(50, 0.1, seed=8)
        assert np.array_equal(a.points, b.points)

    def test_ood_cluster_is_far_from_labeled_data(self):
        ds = gen_two_moons(500, 0.1, seed=9)
        d = min_distance_to_set(ds.ood_points, ds.points)
        assert d.min() > 0.5

    def test_ood_cluster_near_declared_center(self):
        ds = gen_two_moons(500, 0.1, seed=10)
        center = ds.ood_points.mean(axis=0)
        assert np.linalg.norm(center - np.array(OOD_CENTER)) <= 0.1


class TestGrid:
    def test_two_by_two_corners(self):
        grid = gen_grid((0.0, 1.0, 0.0, 1.0), (2, 2))
        expected = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert np.array_equal(grid.points(), expected)

    def test_row_major_count(self):
        grid = gen_grid((-1.0, 1.0, -1.0, 1.0), (100, 100))
        pts = grid.points()
        assert pts.shape == (10_000, 2)
        # row-major: x1 varies fastest
        assert pts[1, 1] == pts[0, 1]
        assert pts[1, 0] > pts[0, 0]

    def test_bad_resolution(self):
        with pytest.raises(ValueError):
            gen_grid((0.0, 1.0, 0.0, 1.0), (1, 5))
        with pytest.raises(ValueError):
            gen_grid((1.0, 0.0, 0.0, 1.0), (2, 2))


class TestCsvRoundTrip:
    def test_dataset_bit_exact(self, tmp_path):
        ds = gen_two_moons(50, 0.1, seed=11)
        path = tmp_path / "ds.csv"
        dataset_to_csv(ds, path)
        back = dataset_from_csv(path)
        assert np.array_equal(back.points, ds.points)
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.ood_points, ds.ood_points)

    def test_rewrite_is_byte_identical(self, tmp_path):
        ds = gen_two_ovals(40, seed=12)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        dataset_to_csv(ds, p1)
        dataset_to_csv(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_meta_comments_survive_roundtrip(self, tmp_path):
        ds = gen_two_moons(10, 0.1, seed=13)
        path = tmp_path / "ds.csv"
        dataset_to_csv(ds, path, meta={"format_version": 1, "seed": 13})
        back = dataset_from_csv(path)
        assert np.array_equal(back.points, ds.points)

    def test_malformed_csv_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,label\n1.0,2.0,0\nnot,a,row,extra\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            dataset_from_csv(path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(header=st.sampled_from(["x1,x2,label", "x1,x2,value"]),
           rows=st.lists(st.one_of(st.text(max_size=20), st.lists(st.one_of(
               st.integers().map(str), st.floats().map(str), st.text(max_size=4)),
               min_size=1, max_size=4).map(",".join)), max_size=4))
    def test_random_rows_parse_or_raise_value_error(self, tmp_path, header, rows):
        path = tmp_path / "fuzz.csv"
        path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
        try:
            (dataset_from_csv if header.endswith("label") else surface_from_csv)(path)
        except ValueError:
            pass

    def test_out_of_range_label_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        for label in (-2, 2**63):
            path.write_text(f"x1,x2,label\n1.0,2.0,0\n1.0,2.0,{label}\n")
            with pytest.raises(CsvFormatError, match=f"line 3: label {label} is neither"):
                dataset_from_csv(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(CsvFormatError, match="header"):
            dataset_from_csv(path)

    def test_rows_are_written_as_formatted(self, tmp_path):
        # More rows than one chunk, so rows on both sides of its edge are checked.
        n = CSV_CHUNK_ROWS + 3
        rng = np.random.default_rng(14)
        pts = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-300, 300, size=(n, 2))
        labels = rng.integers(0, 2, size=n)
        ds = Dataset2D(points=pts, labels=labels, ood_points=pts[:5] / 3.0)
        dataset_to_csv(ds, tmp_path / "ds.csv", meta={"seed": 14})
        values = np.concatenate([[np.inf, -0.0, 5e-324], rng.normal(size=n - 3)])
        surface_to_csv(pts, values, tmp_path / "surf.csv")
        ds_rows = [f"{x1:.17g},{x2:.17g},{lab}" for (x1, x2), lab in zip(pts, labels)]
        ds_rows += [f"{x1:.17g},{x2:.17g},-1" for x1, x2 in pts[:5] / 3.0]
        assert (tmp_path / "ds.csv").read_text() == "\n".join(
            ["# seed=14", "x1,x2,label"] + ds_rows) + "\n"
        surf_rows = [f"{x1:.17g},{x2:.17g},{v:.17g}" for (x1, x2), v in zip(pts, values)]
        assert (tmp_path / "surf.csv").read_text() == "\n".join(
            ["x1,x2,value"] + surf_rows) + "\n"

    def test_surface_of_40k_rows_is_written_within_1_mib(self, tmp_path):
        # Written a chunk at a time, never as one text of ≈2.3 MB.
        pts = gen_grid((-2.5, 3.5, -2.0, 3.0), (200, 200)).points()
        values = np.sin(pts[:, 0]) * pts[:, 1]
        tracemalloc.start()
        try:
            surface_to_csv(pts, values, tmp_path / "surf.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    def test_surface_roundtrip(self, tmp_path):
        grid = gen_grid((0.0, 1.0, 0.0, 1.0), (5, 4))
        pts = grid.points()
        values = np.sin(pts[:, 0] * 7.0) + pts[:, 1] / 3.0
        path = tmp_path / "surf.csv"
        surface_to_csv(pts, values, path)
        back_pts, back_vals = surface_from_csv(path)
        assert np.array_equal(back_pts, pts)
        assert np.array_equal(back_vals, values)


class TestPgm:
    def test_header_and_range(self, tmp_path):
        grid = gen_grid((0.0, 1.0, 0.0, 1.0), (3, 2))
        values = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 4.0])
        path = tmp_path / "surf.pgm"
        surface_to_pgm(values, grid, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "3 2"
        assert lines[2] == "255"
        cells = [int(v) for row in lines[3:] for v in row.split()]
        assert min(cells) == 0 and max(cells) == 255

    def test_constant_surface(self, tmp_path):
        grid = gen_grid((0.0, 1.0, 0.0, 1.0), (2, 2))
        path = tmp_path / "flat.pgm"
        surface_to_pgm(np.ones(4), grid, path)
        assert "0 0" in path.read_text()


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset2D(points=np.zeros((3, 2)), labels=np.zeros(2, dtype=int),
                  ood_points=None)
    with pytest.raises(ValueError):
        Dataset2D(points=np.array([[np.inf, 0.0]]), labels=np.zeros(1, dtype=int),
                  ood_points=None)
