import errno
import hashlib
import json
import os
import re
import shlex
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import hsadapt.cli
import hsadapt.metrics
from hsadapt.cli import _paired_masks, main
from hsadapt.cube_io import CubeReader, HyperCube, LabelMask, read_cube, write_cube, write_mask
from hsadapt.synth import AbsorptionFeatureSpec, gen_absorption_cube, gen_flat_cube, gen_random_cube
from hsadapt.spectral import WavelengthGrid

REPO = Path(__file__).resolve().parents[1]
SENSOR = str(REPO / "configs" / "sentinel2_l2a_12band.json")
SRF = str(REPO / "configs" / "sentinel2_l2a_gaussian_srf.csv")

GRID_202 = WavelengthGrid(tuple(420.0 + 10.0 * i for i in range(202)))


@pytest.fixture
def cube_file(tmp_path):
    cube = gen_random_cube(16, 16, GRID_202, seed=0)
    path = tmp_path / "chip.hsc"
    path.write_bytes(write_cube(cube))
    return path


class TestAdapt:
    def test_naive_produces_12_bands(self, tmp_path, cube_file):
        out = tmp_path / "out.hsc"
        rc = main(["adapt", "--method", "naive", "--sensor", SENSOR,
                   "--input", str(cube_file), "--output", str(out)])
        assert rc == 0
        cube = read_cube(out.read_bytes())
        assert cube.bands == 12
        manifest = json.loads((tmp_path / "out.hsc.manifest.json").read_text())
        assert manifest["subcommand"] == "adapt"
        assert "selection_plan" in manifest

    def test_srf_produces_12_bands(self, tmp_path, cube_file):
        out = tmp_path / "out.hsc"
        rc = main(["adapt", "--method", "srf", "--srf", SRF, "--sensor", SENSOR,
                   "--input", str(cube_file), "--output", str(out)])
        assert rc == 0
        assert read_cube(out.read_bytes()).bands == 12

    def test_srf_allow_nan_takes_a_signalling_nan_quietly(self, tmp_path):
        """A signalling NaN in a supported band is a value like any NaN: no
        warning (an error under the test configuration), and the output NaNs
        are all 0x7FC00000."""
        data = gen_random_cube(4, 4, GRID_202, seed=0).data.copy()
        data.view(np.uint32)[1, 2, 14] = 0x7FA00001  # 560 nm, inside B3
        src, out = tmp_path / "snan.hsc", tmp_path / "out.hsc"
        src.write_bytes(write_cube(HyperCube(data=data, wavelengths=GRID_202.values)))
        assert main(["adapt", "--method", "srf", "--srf", SRF, "--sensor", SENSOR,
                     "--allow-nan", "--input", str(src), "--output", str(out)]) == 0
        got = read_cube(out.read_bytes(), allow_non_finite=True).data
        nan = np.isnan(got)
        assert nan[1, 2].any() and not nan[0].any()
        assert np.all(got[nan].view(np.uint32) == 0x7FC00000)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_refusing_a_non_finite_cube_names_the_cli_flag(self, tmp_path, capsys, value):
        """Without --allow-nan, both methods refuse a NaN or infinite pixel,
        leave no output, and name the option a user can pass; with it, both
        run."""
        data = gen_random_cube(4, 4, GRID_202, seed=0).data.copy()
        data[2, 1, 30] = value
        src = tmp_path / "bad.hsc"
        src.write_bytes(write_cube(HyperCube(data=data, wavelengths=GRID_202.values)))
        for srf in (None, SRF):
            assert main(adapt_argv(tmp_path, src, srf=srf)) == 1
            err = capsys.readouterr().err
            assert err == "hsadapt: error: cube contains non-finite values (pass --allow-nan to accept)\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == [src.name]
        for srf in (None, SRF):
            assert main(adapt_argv(tmp_path, src, srf=srf) + ["--allow-nan"]) == 0

    def test_a_sensor_in_descending_band_order_is_refused(
        self, tmp_path, cube_file, capsys, monkeypatch
    ):
        """Output bands follow the sensor's order and a written cube's
        wavelengths may not decrease, so both methods refuse a reversed
        sensor before reading a payload strip, write nothing and leave no
        temporary file."""
        spec = json.loads(Path(SENSOR).read_text(encoding="utf-8"))
        spec["bands"].reverse()
        sensor = put(tmp_path, "reversed.json", json.dumps(spec))
        before = sorted(p.name for p in tmp_path.iterdir())
        reads, read_strip = [], CubeReader._read_strip

        def counting(self, *args):
            reads.append(args)
            return read_strip(self, *args)

        monkeypatch.setattr(CubeReader, "_read_strip", counting)
        for srf in (None, SRF):
            assert main(adapt_argv(tmp_path, cube_file, sensor=sensor, srf=srf)) == 1
            err = capsys.readouterr().err
            assert err == "hsadapt: error: wavelengths_nm must be monotone non-decreasing\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == before
            assert reads == []

    def test_srf_without_table_is_usage_error(self, tmp_path, cube_file):
        with pytest.raises(SystemExit) as e:
            main(["adapt", "--method", "srf", "--sensor", SENSOR,
                  "--input", str(cube_file), "--output", str(tmp_path / "o.hsc")])
        assert e.value.code == 2

    def test_unknown_method_is_usage_error(self, tmp_path, cube_file):
        with pytest.raises(SystemExit) as e:
            main(["adapt", "--method", "magic", "--sensor", SENSOR,
                  "--input", str(cube_file), "--output", str(tmp_path / "o.hsc")])
        assert e.value.code == 2

    def test_missing_input_is_data_error(self, tmp_path):
        rc = main(["adapt", "--method", "naive", "--sensor", SENSOR,
                   "--input", str(tmp_path / "nope.hsc"), "--output", str(tmp_path / "o.hsc")])
        assert rc == 1

    def test_srf_table_with_naive_is_usage_error(self, tmp_path, cube_file, capsys):
        """naive reads no SRF table, so naming one is a usage error, not a
        manifest that records a file that was never read."""
        with pytest.raises(SystemExit) as e:
            main(["adapt", "--method", "naive", "--srf", str(tmp_path / "missing.csv"),
                  "--sensor", SENSOR, "--input", str(cube_file),
                  "--output", str(tmp_path / "o.hsc")])
        assert e.value.code == 2
        assert "--srf" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [cube_file.name]

    @pytest.mark.parametrize("flag, value", [("--threads", "2"), ("--tile", "64")])
    @pytest.mark.parametrize("method", ["naive", "srf"])
    def test_retired_speed_options_are_usage_errors(
        self, tmp_path, cube_file, capsys, method, flag, value
    ):
        """adapt runs the kernel at the library defaults: no option sets its
        thread count or run length."""
        argv = adapt_argv(tmp_path, cube_file, srf=SRF if method == "srf" else None)
        with pytest.raises(SystemExit) as e:
            main(argv + [flag, value])
        assert e.value.code == 2
        assert flag in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [cube_file.name]

    def test_thread_count_environment_variable_is_ignored(self, tmp_path, cube_file, monkeypatch):
        argv = ["adapt", "--method", "srf", "--srf", SRF, "--sensor", SENSOR,
                "--input", str(cube_file), "--output"]
        assert main(argv + [str(tmp_path / "a.hsc")]) == 0
        monkeypatch.setenv("HSADAPT_THREADS", "many")
        assert main(argv + [str(tmp_path / "b.hsc")]) == 0
        assert (tmp_path / "a.hsc").read_bytes() == (tmp_path / "b.hsc").read_bytes()

    @pytest.mark.parametrize("method", ["naive", "srf"])
    def test_manifest_parameters(self, tmp_path, cube_file, method):
        """Every path in the manifest is spelled as `Path` spells it, however
        it was given (`dir//in.hsc` as `dir/in.hsc`, `dir/./o.hsc` as
        `dir/o.hsc`); only `srf` in `parameters` keeps the spelling given."""
        d, cfg = str(tmp_path), str(REPO / "configs")
        out = str(tmp_path / "o.hsc")
        named = [str(cube_file), SENSOR] + ([SRF] if method == "srf" else [])  # in manifest order
        digests = [(p, hashlib.sha256(Path(p).read_bytes()).hexdigest()) for p in named]
        for sep in ("/", "//", "/./"):
            srf = cfg + sep + Path(SRF).name if method == "srf" else None
            argv = ["adapt", "--method", method, "--sensor", cfg + sep + Path(SENSOR).name,
                    "--input", d + sep + cube_file.name, "--output", d + sep + "o.hsc"]
            assert main(argv + (["--srf", srf] if srf else [])) == 0
            manifest = json.loads((tmp_path / "o.hsc.manifest.json").read_text())
            assert manifest["parameters"] == {
                "method": method,
                "sensor": SENSOR,
                "input": str(cube_file),
                "output": out,
                "srf": srf,
                "allow_nan": False,
            }
            assert list(manifest["input_digests"].items()) == digests
            assert manifest["output_digests"] == {out: hashlib.sha256(Path(out).read_bytes()).hexdigest()}

    def test_flat_cube_methods_agree_byte_identical(self, tmp_path):
        cube = gen_flat_cube(8, 8, GRID_202, 0.7)
        src = tmp_path / "flat.hsc"
        src.write_bytes(write_cube(cube))
        a = tmp_path / "naive.hsc"
        b = tmp_path / "srf.hsc"
        assert main(["adapt", "--method", "naive", "--sensor", SENSOR,
                     "--input", str(src), "--output", str(a)]) == 0
        assert main(["adapt", "--method", "srf", "--srf", SRF, "--sensor", SENSOR,
                     "--input", str(src), "--output", str(b)]) == 0
        assert read_cube(a.read_bytes()).data.tobytes() == read_cube(b.read_bytes()).data.tobytes()

    def test_rerun_byte_identical_and_threads_invariant(self, tmp_path, cube_file, monkeypatch):
        """Reruns give the same bytes, and no thread count set in the
        environment changes them."""
        outs = []
        for name, threads in (("a.hsc", None), ("b.hsc", None), ("c.hsc", "4")):
            if threads is not None:
                monkeypatch.setenv("HSADAPT_THREADS", threads)
            out = tmp_path / name
            assert main(["adapt", "--method", "srf", "--srf", SRF, "--sensor", SENSOR,
                         "--input", str(cube_file), "--output", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]


class TestMetricsSeg:
    def write_masks(self, d, arrays, ignore=-1):
        d.mkdir(exist_ok=True)
        for name, arr in arrays.items():
            mask = LabelMask(labels=np.asarray(arr, dtype=np.int16), ignore_value=ignore)
            (d / f"{name}.hsm").write_bytes(write_mask(mask))

    def test_perfect_predictions(self, tmp_path, capsys):
        chips = {f"chip{i}": np.random.default_rng(i).integers(0, 3, (8, 8)) for i in range(3)}
        self.write_masks(tmp_path / "pred", chips)
        self.write_masks(tmp_path / "truth", chips)
        rc = main(["metrics", "seg", "--pred-dir", str(tmp_path / "pred"),
                   "--truth-dir", str(tmp_path / "truth"), "--classes", "3"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["miou"] == 1.0
        assert report["chips"] == 3

    def test_unpaired_chip_is_error(self, tmp_path, capsys):
        chips = {"a": np.zeros((2, 2), dtype=int), "b": np.zeros((2, 2), dtype=int)}
        self.write_masks(tmp_path / "pred", chips)
        self.write_masks(tmp_path / "truth", {"a": chips["a"]})
        rc = main(["metrics", "seg", "--pred-dir", str(tmp_path / "pred"),
                   "--truth-dir", str(tmp_path / "truth"), "--classes", "1"])
        assert rc == 1
        assert "b" in capsys.readouterr().err

    def seg_argv(self, d, classes="2", *flags):
        return ["metrics", "seg", "--pred-dir", str(d / "pred"), "--truth-dir", str(d / "truth"),
                "--classes", classes, *flags]

    def test_errors_name_the_chip_file(self, tmp_path, capsys):
        ok = np.asarray([[0, 1], [1, 0]])
        self.write_masks(tmp_path / "pred", {"a": ok, "b": ok, "c": ok})
        self.write_masks(tmp_path / "truth", {"a": ok, "b": [[0, 7], [1, 0]], "c": ok})
        (tmp_path / "pred" / "c.hsm").write_bytes(b"HSM1\0\0")
        assert main(self.seg_argv(tmp_path)) == 1
        err = capsys.readouterr().err
        assert str(tmp_path / "truth" / "b.hsm") in err
        assert "truth label 7 outside [0, 2)" in err
        self.write_masks(tmp_path / "truth", {"b": ok})
        assert main(self.seg_argv(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"hsadapt: error: {tmp_path / 'pred' / 'c.hsm'}: stream too short")

    def test_a_bad_chip_at_the_most_classes_is_refused(self, tmp_path, capsys):
        """A truth -1 that --ignore does not drop is refused at 32768 classes
        before any chip's 2**30-bin histogram is allocated."""
        truth = np.zeros((8, 8), dtype=int)
        truth[2, 3] = -1
        self.write_masks(tmp_path / "pred", {"a": np.zeros((8, 8), dtype=int)})
        self.write_masks(tmp_path / "truth", {"a": truth})
        assert main(self.seg_argv(tmp_path, "32768", "--ignore", "7")) == 1
        pair = f"{tmp_path / 'pred' / 'a.hsm'} vs {tmp_path / 'truth' / 'a.hsm'}"
        assert capsys.readouterr().err == (
            f"hsadapt: error: {pair}: truth label -1 outside [0, 32768)\n"
        )

    @pytest.mark.parametrize("classes", ["0", "-1", "32769", "3000000"])
    def test_classes_outside_int16_labels_is_usage_error(self, tmp_path, capsys, classes):
        ok = np.zeros((2, 2), dtype=int)
        self.write_masks(tmp_path / "pred", {"a": ok})
        self.write_masks(tmp_path / "truth", {"a": ok})
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as e:
                main(self.seg_argv(tmp_path, classes))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert e.value.code == 2
        assert "argument --classes: must be" in capsys.readouterr().err
        assert peak < 1_000_000

    @pytest.mark.parametrize("per_chip", [False, True])
    def test_scoring_calls_go_through_cli_names(self, tmp_path, capsys, monkeypatch, per_chip):
        """The benchmark's tracer wraps `read_mask` in hsadapt.cli, where the CLI
        imported it, and `accumulate_confusion` in hsadapt.metrics, which the
        CLI imports when it scores; if the CLI stopped calling them there, its
        per-layer spans would read 0."""
        calls = Counter()
        for module, name in ((hsadapt.cli, "read_mask"), (hsadapt.metrics, "accumulate_confusion")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        chips = {f"c{i}": np.random.default_rng(i).integers(0, 2, (4, 4)) for i in range(5)}
        self.write_masks(tmp_path / "pred", chips)
        self.write_masks(tmp_path / "truth", chips)
        assert main(self.seg_argv(tmp_path, "2", *(["--per-chip"] if per_chip else []))) == 0
        assert calls == {"read_mask": 10, "accumulate_confusion": 5}

    def test_pairs_are_the_files_glob_finds(self, tmp_path):
        names = ["a.hsm", "b.c.hsm", ".hidden.hsm", ".hsm", "x.HSM", "y.hsm.bak", "z.hsmx"]
        for d in (tmp_path / "pred", tmp_path / "truth"):
            d.mkdir()
            for name in names:
                (d / name).write_bytes(b"")
            (d / "dir.hsm").mkdir()
        found = (tmp_path / "pred").glob("*.hsm")
        want = [p.name for p in sorted(found, key=lambda p: p.name.removesuffix(".hsm"))]
        assert _paired_masks(str(tmp_path / "pred"), str(tmp_path / "truth")) == want

    def test_names_that_share_a_stem_are_two_chips(self, tmp_path, capsys):
        """`.hsm` and `.hsm.hsm` both have the stem `.hsm`; each is its own
        chip, named by its file name without `.hsm`."""
        self.write_masks(tmp_path / "pred", {"": [[0, 1]], ".hsm": [[1, 1]]})
        self.write_masks(tmp_path / "truth", {"": [[0, 1]], ".hsm": [[1, 0]]})
        assert main(self.seg_argv(tmp_path, "2", "--per-chip")) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["chips"] == 2
        assert [c["chip"] for c in report["per_chip"]] == ["", ".hsm"]
        assert [c["miou"] for c in report["per_chip"]] == [1.0, 0.25]

    def test_per_chip_row_of_a_chip_with_no_scored_pixel_is_null(self, tmp_path, capsys):
        """A chip whose truth is all ignore value has no mIoU of its own: its
        row says null, the per-chip mean leaves it out, and the run succeeds."""
        self.write_masks(tmp_path / "pred", {"a": [[0, 1], [1, 1]], "b": [[0, 1]]})
        self.write_masks(tmp_path / "truth", {"a": [[0, 1], [1, 0]], "b": [[-1, -1]]})
        assert main(self.seg_argv(tmp_path)) == 0
        pooled = json.loads(capsys.readouterr().out)
        assert main(self.seg_argv(tmp_path, "2", "--per-chip")) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["per_chip"] == [{"chip": "a", "miou": pytest.approx(7 / 12)},
                                      {"chip": "b", "miou": None}]
        assert report["per_chip_mean_miou"] == report["per_chip"][0]["miou"]
        assert report["miou"] == pooled["miou"]
        assert report["ignored_pixels"] == pooled["ignored_pixels"] == 2

    def test_pairing_holds_names_not_paths(self, tmp_path):
        """Pairing 1,000 chips keeps their names and little else."""
        for d in (tmp_path / "pred", tmp_path / "truth"):
            d.mkdir()
            for i in range(1000):
                (d / f"chip_{i:04d}.hsm").write_bytes(b"")
        dirs = (str(tmp_path / "pred"), str(tmp_path / "truth"))
        _paired_masks(*dirs)  # once first, so one-time allocations are not counted
        tracemalloc.start()
        try:
            names = _paired_masks(*dirs)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert names == [f"chip_{i:04d}.hsm" for i in range(1000)]
        assert retained <= 120 * 1024
        assert peak <= 350 * 1024

    def test_truth_header_ignore_value_is_the_default(self, tmp_path, capsys):
        """Without --ignore each truth chip's own ignore_value is dropped; an
        explicit --ignore applies to every chip instead."""
        self.write_masks(tmp_path / "pred", {"a": [[0, 1], [1, 1]]})
        self.write_masks(tmp_path / "truth", {"a": [[0, 255], [1, 255]]}, ignore=255)
        assert main(self.seg_argv(tmp_path)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ignored_pixels"] == 2
        assert report["miou"] == 1.0
        assert main(self.seg_argv(tmp_path, "2", "--ignore", "-1")) == 1
        assert "truth label 255 outside [0, 2)" in capsys.readouterr().err

    def test_a_mask_file_is_checked_against_its_own_header(self, tmp_path, capsys):
        """A mask read from a file refuses any negative label other than its
        own header's ignore_value, before the pair is scored: a prediction -7
        on a pixel the truth ignores, and a truth -5 under `--ignore -5` when
        that truth's header says -1."""
        def written_with_header_ignore_minus_1(side, labels, ignore):
            self.write_masks(tmp_path / side, {"a": [labels]}, ignore=ignore)
            path = tmp_path / side / "a.hsm"
            path.write_bytes(path.read_bytes().replace(b'"ignore_value":%d' % ignore,
                                                       b'"ignore_value":-1', 1))
            return path

        pred = written_with_header_ignore_minus_1("pred", [-7, 1], ignore=-7)
        self.write_masks(tmp_path / "truth", {"a": [[-1, 1]]})
        assert main(self.seg_argv(tmp_path)) == 1
        assert capsys.readouterr().err == (
            f"hsadapt: error: {pred}: mask contains out-of-range label -7 "
            "(negative labels other than ignore_value -1)\n")
        self.write_masks(tmp_path / "pred", {"a": [[0, 1]]})
        truth = written_with_header_ignore_minus_1("truth", [-5, 1], ignore=-5)
        assert main(self.seg_argv(tmp_path, "2", "--ignore", "-5")) == 1
        assert capsys.readouterr().err == (
            f"hsadapt: error: {truth}: mask contains out-of-range label -5 "
            "(negative labels other than ignore_value -1)\n")
        self.write_masks(tmp_path / "truth", {"a": [[-5, 1]]}, ignore=-5)
        assert main(self.seg_argv(tmp_path, "2", "--ignore", "-5")) == 0
        assert json.loads(capsys.readouterr().out)["ignored_pixels"] == 1

    def test_per_chip_peak_is_no_higher_than_pooled(self, tmp_path, capsys):
        """Every chip is pooled one way, so --per-chip holds the pool and one
        chip's histogram at a time, as a pooled run does. Its rows so far are
        all it holds beyond that (under 1 KiB here); at 2048 classes a second
        and a third classes² matrix would add 64 MiB, and a chip still held
        while the next is counted 32 MiB."""
        rng = np.random.default_rng(5)
        truth = {f"c{i}": rng.integers(0, 12, (32, 32)) for i in range(8)}
        pred = {k: np.where(rng.random(t.shape) < 0.3, (t + 1) % 12, t) for k, t in truth.items()}
        self.write_masks(tmp_path / "pred", pred)
        self.write_masks(tmp_path / "truth", truth)
        peaks = {}
        for flags in ((), ("--per-chip",)):
            assert main(self.seg_argv(tmp_path, "2048", *flags)) == 0  # builds the label tables
            tracemalloc.start()
            try:
                assert main(self.seg_argv(tmp_path, "2048", *flags)) == 0
                peaks[flags] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        histogram = (2048 + 2) * (2048 + 1) * 8  # a little larger than the pool
        assert peaks[()] <= 2 * histogram + 2**20
        assert peaks[("--per-chip",)] <= peaks[()] + 64 * 1024

    def test_per_chip_flag(self, tmp_path, capsys):
        chips = {"a": np.asarray([[0, 1], [1, 1]])}
        self.write_masks(tmp_path / "pred", {"a": np.asarray([[0, 0], [1, 1]])})
        self.write_masks(tmp_path / "truth", chips)
        rc = main(["metrics", "seg", "--pred-dir", str(tmp_path / "pred"),
                   "--truth-dir", str(tmp_path / "truth"), "--classes", "2", "--per-chip"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["per_chip"][0]["miou"] == pytest.approx(7 / 12)


class TestMetricsReg:
    def test_mean_predictor_nmse_is_4(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        train = rng.normal(size=(20, 4))
        header = "sample_id,K,P2O5,Mg,pH\n"
        rows = lambda tbl: "".join(
            f"s{i}," + ",".join(repr(float(v)) for v in row) + "\n" for i, row in enumerate(tbl)
        )
        (tmp_path / "train.csv").write_text(header + rows(train))
        (tmp_path / "truth.csv").write_text(header + rows(train))
        mean_pred = np.tile(train.mean(axis=0), (20, 1))
        (tmp_path / "pred.csv").write_text(header + rows(mean_pred))
        rc = main(["metrics", "reg", "--pred", str(tmp_path / "pred.csv"),
                   "--truth", str(tmp_path / "truth.csv"), "--train", str(tmp_path / "train.csv")])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["nmse"] == pytest.approx(4.0, abs=1e-12)

    def test_rows_align_by_sample_id(self, tmp_path, capsys):
        """Prediction rows in a shuffled order are matched to truth by id."""
        rng = np.random.default_rng(1)
        truth = rng.normal(size=(200, 2))
        pred = truth + rng.normal(size=truth.shape)
        header = "sample_id,K,pH\n"
        line = lambda i, row: f"s{i}," + ",".join(repr(float(v)) for v in row) + "\n"
        (tmp_path / "truth.csv").write_text(header + "".join(line(i, r) for i, r in enumerate(truth)))
        shuffled = rng.permutation(len(pred))
        (tmp_path / "pred.csv").write_text(header + "".join(line(i, pred[i]) for i in shuffled))
        rc = main(["metrics", "reg", "--pred", str(tmp_path / "pred.csv"),
                   "--truth", str(tmp_path / "truth.csv"), "--train", str(tmp_path / "truth.csv")])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        want = ((pred - truth) ** 2).mean(axis=0) / truth.var(axis=0)
        assert report["nmse"] == pytest.approx(want.sum(), rel=1e-12)

    def test_degenerate_baseline_is_data_error(self, tmp_path, capsys):
        (tmp_path / "train.csv").write_text("sample_id,K\na,2\nb,2\n")
        (tmp_path / "t.csv").write_text("sample_id,K\na,1\nb,2\n")
        (tmp_path / "p.csv").write_text("sample_id,K\na,1\nb,2\n")
        rc = main(["metrics", "reg", "--pred", str(tmp_path / "p.csv"),
                   "--truth", str(tmp_path / "t.csv"), "--train", str(tmp_path / "train.csv")])
        assert rc == 1


class TestSynthInspect:
    def test_flat_then_inspect(self, tmp_path, capsys):
        out = tmp_path / "flat.hsc"
        rc = main(["synth", "flat", "--height", "4", "--width", "4", "--value", "0.7",
                   "--bands", "3", "--output", str(out)])
        assert rc == 0
        rc = main(["inspect", str(out)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert all(b["min"] == b["max"] == pytest.approx(0.7) for b in report["per_band"])

    def test_absorption_min_at_center(self, tmp_path, capsys):
        out = tmp_path / "abs.hsc"
        rc = main(["synth", "absorption", "--height", "2", "--width", "2",
                   "--continuum", "0.7", "--depth", "0.2", "--fwhm", "10",
                   "--center", "700", "--grid-start", "400", "--grid-step", "5",
                   "--bands", "121", "--output", str(out)])
        assert rc == 0
        cube = read_cube(out.read_bytes())
        j = cube.wavelengths.index(700.0)
        assert cube.data.min() == np.float32(0.5)
        assert cube.data[0, 0, j] == np.float32(0.5)

    def test_a_very_narrow_line_is_written_without_a_warning(self, tmp_path, capsys):
        out = tmp_path / "n.hsc"
        rc = main(["synth", "absorption", "--height", "2", "--width", "2", "--bands", "50",
                   "--grid-start", "400", "--grid-step", "5", "--center", "500",
                   "--fwhm", "1e-300", "--output", str(out)])
        assert rc == 0
        assert capsys.readouterr().err == ""
        cube = read_cube(out.read_bytes())
        assert cube.data.min() == np.float32(0.5)
        assert np.count_nonzero(cube.data == np.float32(0.5)) == 4

    @pytest.mark.parametrize("generator, option", [("flat", "value"), ("absorption", "continuum")])
    def test_a_value_beyond_float32_is_a_data_error(self, tmp_path, capsys, generator, option):
        """Exit 1 with one error line naming the option; no overflow warning
        (an error under the test configuration) and no output."""
        out = tmp_path / "o.hsc"
        argv = ["synth", generator, "--height", "2", "--width", "2", f"--{option}", "1e39",
                "--output", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"hsadapt: error: {option} must be finite as float32\n"
        assert list(tmp_path.iterdir()) == []

    def test_a_header_over_the_limit_is_a_data_error(self, tmp_path, capsys):
        """A grid whose header inspect would refuse is refused before a
        payload byte is written: one error line, and no output, manifest or
        temporary file."""
        out = tmp_path / "wide.hsc"
        assert main(["synth", "flat", "--height", "1", "--width", "1", "--bands", "120000",
                     "--grid-start", "400", "--grid-step", "0.0123456789",
                     "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("hsadapt: error: declared header length ") and err.count("\n") == 1
        assert "exceeds the limit of 1048576 bytes" in err
        assert list(tmp_path.iterdir()) == []

    def test_random_deterministic_across_runs(self, tmp_path):
        a, b = tmp_path / "a.hsc", tmp_path / "b.hsc"
        args = ["synth", "random", "--height", "4", "--width", "4", "--bands", "5", "--seed", "3"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        args = ["synth", "random", "--height", "2", "--width", "2", "--output", str(tmp_path / "x.hsc")]
        with pytest.raises(SystemExit) as e:
            main(args + ["--seed", "-1"])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert "argument --seed: must be >= 0, got -1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.hsc").exists()
        assert main(args + ["--seed", "0", "--bands", "3"]) == 0
        grid = WavelengthGrid((400.0, 405.0, 410.0))
        assert (tmp_path / "x.hsc").read_bytes() == write_cube(gen_random_cube(2, 2, grid, seed=0))

    def test_random_cube_is_written_without_copies(self, tmp_path):
        out = tmp_path / "x.hsc"
        payload = 64 * 64 * 202 * 4
        tracemalloc.start()
        try:
            assert main(["synth", "random", "--height", "64", "--width", "64",
                         "--output", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * payload, f"peak {peak / payload:.2f}x the payload"
        stream = out.read_bytes()
        grid = WavelengthGrid(tuple(400.0 + 5.0 * i for i in range(202)))
        assert stream == write_cube(gen_random_cube(64, 64, grid, seed=0))
        manifest = json.loads((tmp_path / "x.hsc.manifest.json").read_text())
        assert manifest["output_digests"] == {str(out): hashlib.sha256(stream).hexdigest()}

    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 74.3 TiB for an array", "Unable to allocate 74.3 TiB for an array"),
        ("", "out of memory"),
    ], ids=["numpy-message", "empty-message"])
    def test_out_of_memory_is_data_error(self, tmp_path, capsys, monkeypatch, message, shown):
        def exhausted(*args):
            raise MemoryError(message)

        monkeypatch.setattr("hsadapt.synth.gen_random_cube", exhausted)
        rc = main(["synth", "random", "--height", "100000", "--width", "100000",
                   "--output", str(tmp_path / "x.hsc")])
        assert rc == 1
        assert capsys.readouterr().err == f"hsadapt: error: {shown}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("generator, own, cube", [
        ("flat", {"value": 0.25}, lambda grid: gen_flat_cube(3, 2, grid, 0.25)),
        ("absorption", {"continuum": 0.6, "center": 650.0, "depth": 0.1, "fwhm": 20.0},
         lambda grid: gen_absorption_cube(3, 2, grid, AbsorptionFeatureSpec(0.6, 650.0, 0.1, 20.0))),
        ("random", {"seed": 7}, lambda grid: gen_random_cube(3, 2, grid, seed=7)),
    ], ids=["flat", "absorption", "random"])
    def test_manifest_records_only_the_options_its_generator_reads(
        self, tmp_path, generator, own, cube
    ):
        out = tmp_path / "x.hsc"
        flags = [f"--{k}={v}" for k, v in own.items()]
        assert main(["synth", generator, "--height", "3", "--width", "2", "--bands", "121",
                     *flags, "--output", str(out)]) == 0
        grid = WavelengthGrid(tuple(400.0 + 5.0 * i for i in range(121)))
        assert out.read_bytes() == write_cube(cube(grid))
        manifest = json.loads((tmp_path / "x.hsc.manifest.json").read_text())
        assert manifest["parameters"] == {
            "command": "synth", "generator": generator, "height": 3, "width": 2,
            "grid_start": 400.0, "grid_step": 5.0, "bands": 121, "output": str(out), **own}

    @pytest.mark.parametrize("generator, option", [
        (generator, option)
        for generator, others in (
            ("flat", ["--continuum", "--center", "--depth", "--fwhm", "--seed"]),
            ("absorption", ["--value", "--seed"]),
            ("random", ["--value", "--continuum", "--center", "--depth", "--fwhm"]),
        )
        for option in others
    ])
    def test_an_option_of_another_generator_is_a_usage_error(
        self, tmp_path, capsys, generator, option
    ):
        """Each generator takes only the options it reads: another's is
        refused, not ignored and recorded in the manifest."""
        with pytest.raises(SystemExit) as e:
            main(["synth", generator, "--height", "2", "--width", "2", option, "1",
                  "--output", str(tmp_path / "x.hsc")])
        assert e.value.code == 2
        assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_unknown_generator_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["synth", "perlin", "--height", "2", "--width", "2",
                  "--output", str(tmp_path / "x.hsc")])
        assert e.value.code == 2

    def test_inspect_unreadable_file(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\x00\x01\x02garbage")
        assert main(["inspect", str(bad)]) == 1

    def test_inspect_band_with_opposite_infinities_has_nan_mean(self, tmp_path, capsys):
        data = np.full((1, 2, 2), 0.5, dtype=np.float32)
        data[0, :, 1] = (np.inf, -np.inf)
        path = tmp_path / "inf.hsc"
        path.write_bytes(write_cube(HyperCube(data=data, wavelengths=(500.0, 510.0))))
        assert main(["inspect", str(path)]) == 0  # a RuntimeWarning would be an error here
        first, second = json.loads(capsys.readouterr().out)["per_band"]
        assert first["mean"] == np.float32(0.5)
        assert (second["min"], second["max"]) == (-np.inf, np.inf)
        assert np.isnan(second["mean"])

    def test_inspect_mask(self, tmp_path, capsys):
        path = tmp_path / "m.hsm"
        path.write_bytes(write_mask(LabelMask(labels=np.asarray([[0, 2], [2, -1]], dtype=np.int16))))
        assert main(["inspect", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["label_counts"] == {"-1": 1, "0": 1, "2": 2}
        assert report["ignored_fraction"] == 0.25


def put(d: Path, name: str, data: str | bytes) -> str:
    path = d / name
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data, encoding="utf-8")
    return str(path)


def adapt_argv(d: Path, cube: Path, sensor: str = SENSOR, srf: str | None = None) -> list[str]:
    method = ["--method", "srf", "--srf", srf] if srf else ["--method", "naive"]
    return ["adapt", *method, "--sensor", sensor, "--input", str(cube), "--output", str(d / "o.hsc")]


def reg_argv(d: Path, pred: str) -> list[str]:
    good = put(d, "good.csv", "sample_id,K\na,1\nb,2\n")
    return ["metrics", "reg", "--pred", pred, "--truth", good, "--train", good]


def spec_with_center(center: str) -> str:
    return '{"sensor": "s", "bands": [{"name": "B", "center_nm": ' + center + "}]}"


def spec_with_name(name: str, sensor: str = '"s"') -> str:
    return '{"sensor": ' + sensor + ', "bands": [{"name": ' + name + ', "center_nm": 490}]}'


PLAN = {"indices": [1, 0], "distances_nm": [0.0, 0.0], "source_grid_hash": "ab"}
BAD_INPUTS = {
    "srf-huge-cell": lambda d, cube: adapt_argv(
        d, cube, srf=put(d, "srf.csv", "wavelength_nm,B01\n" + "1" * 200_000 + ",0\n")),
    "targets-huge-cell": lambda d, cube: reg_argv(
        d, put(d, "p.csv", "sample_id,K\n" + "a" * 200_000 + ",1\n")),
    "spec-huge-center": lambda d, cube: adapt_argv(
        d, cube, sensor=put(d, "s.json", spec_with_center("1" + "0" * 400))),
    "spec-over-long-integer": lambda d, cube: adapt_argv(
        d, cube, sensor=put(d, "s.json", spec_with_center("1" * 5000))),
    "spec-deeply-nested": lambda d, cube: adapt_argv(
        d, cube, sensor=put(d, "s.json", "[" * 100_000)),
    "spec-not-utf8": lambda d, cube: adapt_argv(
        d, cube, sensor=put(d, "s.json", b'{"sensor": "\xff"}')),
    "targets-not-utf8": lambda d, cube: reg_argv(d, put(d, "p.csv", b"sample_id,K\n\xff,1\n")),
    "spec-band-name-null": lambda d, cube: adapt_argv(
        d, cube, sensor=put(d, "s.json", spec_with_name("null"))),
    "spec-band-name-list": lambda d, cube: adapt_argv(
        d, cube, sensor=put(d, "s.json", spec_with_name("[1]"))),
    "spec-band-name-number": lambda d, cube: adapt_argv(
        d, cube, sensor=put(d, "s.json", spec_with_name("3"))),
    "spec-sensor-name-null": lambda d, cube: adapt_argv(
        d, cube, sensor=put(d, "s.json", spec_with_name('"B"', sensor="null"))),
    "adapt-input-dir": lambda d, cube: adapt_argv(d, d),
    "inspect-dir": lambda d, cube: ["inspect", str(d)],
    "inspect-plan-json": lambda d, cube: ["inspect", put(d, "plan.json", json.dumps(PLAN))],
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_is_data_error(tmp_path, cube_file, capsys, name):
    """Each malformed input exits 1 with a one-line error, never a traceback."""
    assert main(BAD_INPUTS[name](tmp_path, cube_file)) == 1
    assert capsys.readouterr().err.startswith("hsadapt: error:")
    assert not (tmp_path / "o.hsc").exists()


def seg_dirs_argv(d: Path) -> list[str]:
    ok = LabelMask(labels=np.asarray([[0, 1], [1, 0]], dtype=np.int16))
    for side in ("pred", "truth"):
        (d / side).mkdir()
        put(d / side, "a.hsm", write_mask(ok))
    return ["metrics", "seg", "--pred-dir", str(d / "pred"), "--truth-dir", str(d / "truth"),
            "--classes", "2"]


REPORTS = {
    "metrics-seg": lambda d, cube: seg_dirs_argv(d),
    "metrics-reg": lambda d, cube: reg_argv(d, put(d, "p.csv", "sample_id,K\nb,1\na,2\n")),
    "inspect": lambda d, cube: ["inspect", str(cube)],
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_out_is_written_atomically(tmp_path, cube_file, monkeypatch, name):
    """A report that fails to commit leaves an existing --out file as it was
    and no temporary file beside it."""
    reports = tmp_path / "reports"
    reports.mkdir()
    out = reports / "report.json"
    argv = REPORTS[name](tmp_path, cube_file) + ["--out", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_bytes())
    old = b"an older report"
    out.write_bytes(old)

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    assert main(argv) == 1
    assert out.read_bytes() == old
    assert [p.name for p in reports.iterdir()] == ["report.json"]


UNWRITABLE = {
    "missing-dir": lambda d: d / "no" / "such" / "out",
    "a-dir": lambda d: d / "out",
}
WRITERS = {
    "adapt": lambda d, cube, target: adapt_argv(d, cube)[:-1] + [str(target)],
    "synth": lambda d, cube, target: [
        "synth", "random", "--height", "2", "--width", "2", "--output", str(target)],
    "inspect": lambda d, cube, target: ["inspect", str(cube), "--out", str(target)],
    "metrics-seg": lambda d, cube, target: seg_dirs_argv(d) + ["--out", str(target)],
}


@pytest.mark.parametrize("where", sorted(UNWRITABLE))
@pytest.mark.parametrize("name", sorted(WRITERS))
def test_unwritable_output_names_the_given_path(
    tmp_path, cube_file, capsys, monkeypatch, name, where
):
    """An output in a missing directory, or one that is a directory, exits 1
    with an error that names the path given, not the temporary file beside
    it, and leaves no temporary file. adapt fails before it reads a strip."""
    target = UNWRITABLE[where](tmp_path)
    if where == "a-dir":
        target.mkdir()

    def unread(self, *args):
        raise AssertionError("the input payload was read")

    if name == "adapt":
        monkeypatch.setattr(CubeReader, "strips", unread)
    assert main(WRITERS[name](tmp_path, cube_file, target)) == 1
    err = capsys.readouterr().err
    assert err.startswith("hsadapt: error: ") and err.endswith(f": {str(target)!r}\n")
    assert not list(tmp_path.rglob("*.tmp"))


def clobber_cases(d: Path, cube: Path) -> dict[str, tuple[list[str], str, str]]:
    """Each command line that names one of its inputs as an output, with the
    two names the refusal must give. The sensor spec, the SRF table and the
    CSVs are copies in `d`, and the masks are in it, so only `d` is at stake."""
    sensor = put(d, "sensor.json", Path(SENSOR).read_text(encoding="utf-8"))
    srf = put(d, "srf.csv", Path(SRF).read_text(encoding="utf-8"))
    os.link(cube, d / "link.hsc")
    manifest_named = put(d, "m.hsc.manifest.json", cube.read_bytes())
    csv = {name: put(d, f"{name}.csv", "sample_id,K\na,1\nb,2\n") for name in ("p", "t", "tr")}
    reg = ["metrics", "reg", "--pred", csv["p"], "--truth", csv["t"], "--train", csv["tr"]]
    seg = seg_dirs_argv(d)
    os.link(d / "truth" / "a.hsm", d / "seg.json")
    naive = ["adapt", "--method", "naive", "--sensor", sensor, "--input", str(cube)]
    return {
        "adapt-input": (naive + ["--output", f"{d}/./{cube.name}"], "--output", "--input"),
        "adapt-input-hard-link": (naive + ["--output", str(d / "link.hsc")], "--output", "--input"),
        "adapt-sensor": (naive + ["--output", sensor], "--output", "--sensor"),
        "adapt-srf": (["adapt", "--method", "srf", "--srf", srf, "--sensor", sensor, "--input",
                       str(cube), "--output", srf], "--output", "--srf"),
        "adapt-manifest": (["adapt", "--method", "naive", "--sensor", sensor, "--input",
                            manifest_named, "--output", str(d / "m.hsc")],
                           "--output's manifest", "--input"),
        "inspect": (["inspect", str(cube), "--out", f"{d}//{cube.name}"], "--out", "path"),
        "metrics-reg-pred": (reg + ["--out", csv["p"]], "--out", "--pred"),
        "metrics-reg-truth": (reg + ["--out", csv["t"]], "--out", "--truth"),
        "metrics-reg-train": (reg + ["--out", csv["tr"]], "--out", "--train"),
        "metrics-seg-pred": (seg + ["--out", str(d / "pred" / "a.hsm")],
                             "--out", "--pred-dir's a.hsm"),
        "metrics-seg-truth": (seg + ["--out", str(d / "truth" / "a.hsm")],
                              "--out", "--truth-dir's a.hsm"),
        "metrics-seg-dot": (seg + ["--out", f"{d}/pred/./a.hsm"], "--out", "--pred-dir's a.hsm"),
        "metrics-seg-hard-link": (seg + ["--out", str(d / "seg.json")],
                                  "--out", "--truth-dir's a.hsm"),
    }


@pytest.mark.parametrize("case", [
    "adapt-input", "adapt-input-hard-link", "adapt-sensor", "adapt-srf", "adapt-manifest",
    "inspect", "metrics-reg-pred", "metrics-reg-truth", "metrics-reg-train",
    "metrics-seg-pred", "metrics-seg-truth", "metrics-seg-dot", "metrics-seg-hard-link",
])
def test_an_output_that_names_an_input_is_a_usage_error(tmp_path, cube_file, capsys, case):
    """An output path that is an input file, however spelled, is refused with
    exit 2 naming both options, before anything is read or written."""
    argv, written, read = clobber_cases(tmp_path, cube_file)[case]
    files = lambda: {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    before = files()
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert f"{written} and {read} name the same file" in capsys.readouterr().err
    assert files() == before


@pytest.mark.parametrize("argv, usage", [
    (["synth", "random", "--height", "2", "--width", "2", "--value", "0.3"],
     "usage: hsadapt synth random"),
    (["adapt", "--bogus", "1", "--method", "naive", "--sensor", SENSOR, "--input", "chip.hsc"],
     "usage: hsadapt adapt"),
    (["adapt", "--method", "srf", "--sensor", SENSOR, "--input", "chip.hsc"],
     "usage: hsadapt adapt"),
    (["--bogus", "synth", "random", "--height", "2", "--width", "2"], "usage: hsadapt [-h]"),
    (["--bogus", "adapt"], "usage: hsadapt [-h]"),
    (["--bogus", "metrics"], "usage: hsadapt [-h]"),
], ids=["synth-foreign-option", "adapt-unknown-option", "adapt-srf-without-table",
        "top-level-unknown-option", "top-level-unknown-option-adapt",
        "top-level-unknown-option-metrics"])
def test_a_usage_error_prints_the_usage_of_the_subcommand_run(tmp_path, capsys, argv, usage):
    """An option the subcommand does not take and `adapt`'s `--srf` rules are
    reported with that subcommand's usage, not the top-level one; an option
    before the subcommand, which only the top-level parser reads, with the
    top-level usage."""
    with pytest.raises(SystemExit) as e:
        main(argv + ["--output", str(tmp_path / "x.hsc")])
    assert e.value.code == 2
    assert capsys.readouterr().err.splitlines()[0].startswith(usage)
    assert not list(tmp_path.iterdir())


def readme_commands() -> list[str]:
    """Every `hsadapt ...` line of the README's shell blocks, with backslash
    continuations joined."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("hsadapt ")]


def test_readme_commands_parse(monkeypatch):
    """Every README command passes all of `main`'s checks up to the command
    it runs: the parser's and `adapt`'s rules for `--srf`. The commands
    themselves are stubbed out."""
    ran = []
    for name in [n for n in vars(hsadapt.cli) if n.startswith("cmd_")]:
        monkeypatch.setattr(hsadapt.cli, name, lambda args, name=name: ran.append(name) or 0)
    commands = readme_commands()
    assert {shlex.split(c)[1] for c in commands} == {"synth", "adapt", "inspect", "metrics"}
    for command in commands:
        try:
            rc = main(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command is a usage error: {command}")
        assert rc == 0, command
    assert len(ran) == len(commands)


PAIR_WRITERS = {
    "adapt": lambda d, cube, seed: adapt_argv(d, cube),
    "synth": lambda d, cube, seed: [
        "synth", "random", "--height", "2", "--width", "2", "--seed", str(seed),
        "--output", str(d / "o.hsc")],
}


def write_pair(name: str, d: Path, cube: Path, seed: int) -> list[str]:
    """The argv of a run of `name` whose output depends on `seed`; for adapt
    the input cube is rewritten from it."""
    if name == "adapt":
        cube.write_bytes(write_cube(gen_random_cube(16, 16, GRID_202, seed=seed)))
    return PAIR_WRITERS[name](d, cube, seed)


def pair(d: Path) -> tuple[bytes | None, bytes | None]:
    """The output's and its manifest's bytes, None for a missing file."""
    out, manifest = d / "o.hsc", d / "o.hsc.manifest.json"
    return tuple(p.read_bytes() if p.exists() else None for p in (out, manifest))


def failing_replace(monkeypatch, fail_at: int) -> list[str]:
    """Make the `fail_at`-th os.replace (from 1) raise; record every target."""
    targets, replace = [], os.replace

    def counted(src, dst):
        targets.append(Path(dst).name)
        if len(targets) == fail_at:
            raise OSError(errno.EIO, "rename failed")
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", counted)
    return targets


def failing_manifest(monkeypatch) -> None:
    def full_disk(f, *args):
        f.write(b'{"tool": "hsad')
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(hsadapt.cli, "_write_manifest", full_disk)


@pytest.mark.parametrize("fail_at", ["manifest-write", "output-rename", "manifest-rename"])
@pytest.mark.parametrize("name", sorted(PAIR_WRITERS))
def test_output_and_manifest_commit_as_a_pair(tmp_path, cube_file, monkeypatch, name, fail_at):
    """Both files are written and closed before either is renamed; then the
    old manifest is removed, the output renamed, and the manifest renamed
    last. So a failure leaves the old pair, an output with no manifest, or
    the new pair, never an output beside another run's manifest, and no
    temporary file."""
    assert main(write_pair(name, tmp_path, cube_file, seed=1)) == 0
    old = pair(tmp_path)
    assert None not in old
    argv = write_pair(name, tmp_path, cube_file, seed=2)
    with monkeypatch.context() as m:
        if fail_at == "manifest-write":
            failing_manifest(m)
        else:
            targets = failing_replace(m, fail_at=1 if fail_at == "output-rename" else 2)
        assert main(argv) == 1
    failed = pair(tmp_path)
    assert not list(tmp_path.glob(".*.tmp"))
    if fail_at != "manifest-write":
        assert targets == ["o.hsc", "o.hsc.manifest.json"][: len(targets)]
    assert main(argv) == 0
    new = pair(tmp_path)
    assert new[0] != old[0]
    assert failed == {
        "manifest-write": old,
        "output-rename": (old[0], None),
        "manifest-rename": (new[0], None),
    }[fail_at]


@pytest.mark.parametrize("name", sorted(PAIR_WRITERS))
def test_a_manifest_path_that_is_a_directory_is_refused_first(
    tmp_path, cube_file, capsys, monkeypatch, name
):
    """The manifest path is checked with the output path: a directory there
    exits 1 naming it, before adapt reads a strip, and the old output stays."""
    assert main(write_pair(name, tmp_path, cube_file, seed=1)) == 0
    old = (tmp_path / "o.hsc").read_bytes()
    manifest = tmp_path / "o.hsc.manifest.json"
    manifest.unlink()
    manifest.mkdir()

    def unread(self, *args):
        raise AssertionError("the input payload was read")

    monkeypatch.setattr(CubeReader, "strips", unread)
    assert main(write_pair(name, tmp_path, cube_file, seed=2)) == 1
    assert capsys.readouterr().err.endswith(f"Is a directory: {str(manifest)!r}\n")
    assert (tmp_path / "o.hsc").read_bytes() == old
    assert not list(tmp_path.glob(".*.tmp"))
