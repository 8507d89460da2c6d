"""Command-line behavior: exit codes, output formats, and atomicity."""

import dataclasses
import math
import os
import re
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hetquant
from hetquant import (
    MeasureConfig,
    ProbabilityDistribution,
    SegmentedGeneratorConfig,
    SweepConfig,
    TimeSeries,
    format_float,
    generate_segmented,
    measure,
    read_csv,
    write_csv,
    write_distribution_csv,
)
from hetquant import series as series_module
from hetquant.cli import _build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_deterministic_output_bytes(self, tmp_path, capsys):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for target in (first, second):
            code, _, _ = run_cli(
                capsys,
                "generate",
                "--samples", "1024", "--num-sigmas", "4", "--seed", "7",
                "--out", str(target),
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes().startswith(b"value\n")

    def test_matches_library_generation(self, tmp_path, capsys):
        target = tmp_path / "series.csv"
        code, _, _ = run_cli(
            capsys,
            "generate",
            "--samples", "512", "--num-sigmas", "8", "--seed", "3",
            "--sigma-min", "0.5", "--sigma-max", "4", "--spacing", "logarithmic",
            "--out", str(target),
        )
        assert code == 0
        expected = generate_segmented(
            SegmentedGeneratorConfig(
                total_samples=512,
                num_sigmas=8,
                sigma_min=0.5,
                sigma_max=4.0,
                spacing="logarithmic",
                seed=3,
            )
        )
        assert read_csv(target) == expected

    def test_invalid_config_exits_one_without_output(self, tmp_path, capsys):
        target = tmp_path / "never.csv"
        code, _, err = run_cli(
            capsys,
            "generate", "--samples", "4", "--num-sigmas", "9", "--out", str(target),
        )
        assert code == 1
        assert "error: configuration:" in err
        assert not target.exists()

    def test_unwritable_directory_exits_two(self, tmp_path, capsys):
        target = tmp_path / "missing" / "out.csv"
        code, _, err = run_cli(
            capsys, "generate", "--samples", "16", "--out", str(target)
        )
        assert code == 2
        assert "error: io:" in err

    @pytest.mark.skipif(os.name != "posix", reason="POSIX permission bits")
    def test_output_mode_matches_plain_open(self, tmp_path, capsys):
        target = tmp_path / "series.csv"
        argv = ("generate", "--samples", "16", "--out", str(target))
        old_umask = os.umask(0o022)
        try:
            assert run_cli(capsys, *argv)[0] == 0
            assert stat.S_IMODE(target.stat().st_mode) == 0o644
            target.chmod(0o640)
            assert run_cli(capsys, *argv)[0] == 0
            assert stat.S_IMODE(target.stat().st_mode) == 0o640
        finally:
            os.umask(old_umask)

    def test_directory_target_exits_two_and_leaves_no_temporary(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.mkdir()
        (target / "keep.txt").write_bytes(b"kept")
        code, _, err = run_cli(
            capsys, "generate", "--samples", "16", "--out", str(target)
        )
        assert code == 2
        assert "error: io:" in err
        assert [p.name for p in target.iterdir()] == ["keep.txt"]
        assert (target / "keep.txt").read_bytes() == b"kept"
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]


class TestAnalyze:
    def test_round_trip_matches_library(self, tmp_path, capsys):
        target = tmp_path / "series.csv"
        run_cli(
            capsys,
            "generate",
            "--samples", "4096", "--num-sigmas", "8", "--seed", "11",
            "--out", str(target),
        )
        code, out, _ = run_cli(
            capsys,
            "analyze", "--input", str(target), "--window", "64", "--bins", "32",
        )
        assert code == 0
        report = measure(read_csv(target), MeasureConfig(window=64, bins=32))
        lines = out.strip().split("\n")
        assert lines[0] == "variant,score,window,bins,n_variances"
        assert lines[1] == f"bhattacharyya,{format_float(report.score)},64,32,4033"

    def test_readme_example(self, tmp_path, capsys):
        target = tmp_path / "series.csv"
        code, _, _ = run_cli(
            capsys,
            "generate", "--samples", "65536", "--num-sigmas", "8", "--seed", "7",
            "--out", str(target),
        )
        assert code == 0
        analyze = ("analyze", "--input", str(target), "--window", "128", "--bins", "64")
        code, out, _ = run_cli(capsys, *analyze)
        assert code == 0
        assert out == (
            "variant,score,window,bins,n_variances\n"
            "bhattacharyya,0.726304848010942,128,64,65409\n"
        )
        code, out, _ = run_cli(capsys, *analyze, "--binning", "linear")
        assert code == 0
        assert out.split("\n")[1] == "bhattacharyya,0.8551967094167768,128,64,65409"

    def test_score_is_bounded(self, tmp_path, capsys):
        target = tmp_path / "series.csv"
        run_cli(capsys, "generate", "--samples", "600", "--out", str(target))
        code, out, _ = run_cli(
            capsys,
            "analyze", "--input", str(target), "--window", "16", "--bins", "8",
            "--variant", "hellinger",
        )
        assert code == 0
        score = float(out.strip().split("\n")[1].split(",")[1])
        assert 0.0 <= score <= 1.0

    def test_two_column_input(self, tmp_path, capsys):
        target = tmp_path / "timed.csv"
        rng = np.random.default_rng(2)
        rows = "".join(
            f"{i},{format_float(x)}\n" for i, x in enumerate(rng.normal(0, 1, 64))
        )
        target.write_bytes(b"t,value\n" + rows.encode())
        code, out, _ = run_cli(
            capsys, "analyze", "--input", str(target), "--window", "4", "--bins", "4"
        )
        assert code == 0
        assert out.startswith("variant,score")

    def test_emit_distribution(self, tmp_path, capsys):
        target = tmp_path / "series.csv"
        hist = tmp_path / "dist.csv"
        run_cli(capsys, "generate", "--samples", "2000", "--num-sigmas", "4", "--out", str(target))
        code, _, _ = run_cli(
            capsys,
            "analyze", "--input", str(target), "--window", "32", "--bins", "16",
            "--emit-distribution", str(hist),
        )
        assert code == 0
        lines = hist.read_bytes().decode().strip().split("\n")
        assert lines[0] == "bin_midpoint,mass"
        masses = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(masses) == 16
        assert math.isclose(sum(masses), 1.0, abs_tol=1e-12)

    def test_emitted_distribution_reads_back_through_divergence(self, tmp_path, capsys):
        target = tmp_path / "series.csv"
        hist = tmp_path / "dist.csv"
        run_cli(capsys, "generate", "--samples", "4096", "--num-sigmas", "8", "--out", str(target))
        code, _, _ = run_cli(
            capsys,
            "analyze", "--input", str(target), "--window", "32", "--bins", "64",
            "--emit-distribution", str(hist),
        )
        assert code == 0
        code, _, _ = run_cli(
            capsys, "divergence", "--p", str(hist), "--metric", "shannon_entropy"
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "divergence", "--p", str(hist), "--q", str(hist), "--metric", "bc"
        )
        assert code == 0
        assert out.strip().split("\n")[1] == "bc,1,,"

    @pytest.mark.parametrize("binning", ["log", "linear"])
    def test_binning_flag_matches_library(self, tmp_path, capsys, binning):
        target = tmp_path / "series.csv"
        run_cli(capsys, "generate", "--samples", "2048", "--num-sigmas", "4", "--seed", "3", "--out", str(target))
        code, out, _ = run_cli(
            capsys, "analyze", "--input", str(target), "--window", "32", "--bins", "16",
            "--binning", binning,
        )
        assert code == 0
        expected = measure(
            generate_segmented(SegmentedGeneratorConfig(total_samples=2048, num_sigmas=4, seed=3)),
            MeasureConfig(window=32, bins=16, binning=binning),
        )
        assert out.strip().split("\n")[1].split(",")[1] == format_float(expected.score)

    def test_malformed_row_exits_one_and_names_the_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"value\n1.0\noops\n3.0\n")
        hist = tmp_path / "dist.csv"
        code, _, err = run_cli(
            capsys,
            "analyze", "--input", str(bad), "--window", "2",
            "--emit-distribution", str(hist),
        )
        assert code == 1
        assert "error: ingestion:" in err
        assert "row 2" in err
        assert not hist.exists()

    def test_invalid_utf8_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"value\n1\n\xff\n")
        code, out, err = run_cli(capsys, "analyze", "--input", str(bad), "--window", "2")
        assert code == 1
        assert out == ""
        assert err == (
            "error: ingestion: input is not valid UTF-8: 'utf-8' codec can't decode "
            "byte 0xff in position 8: invalid start byte\n"
        )

    def test_overflowing_samples_exit_one_without_warnings(self, tmp_path, capsys):
        big = tmp_path / "big.csv"
        big.write_bytes(b"value\n" + b"1e200\n-1e200\n" * 64)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "analyze", "--input", str(big), "--window", "8")
        assert code == 1
        assert out == ""
        assert err == (
            "error: parameter: samples are too large: "
            "their window sums of squares overflow float64\n"
        )
        assert caught == []

    @pytest.mark.parametrize("scale", [5.62e-162, 1e-162])
    def test_subnormal_variances_exit_one_for_linear_bins(self, tmp_path, capsys, scale):
        config = SegmentedGeneratorConfig(total_samples=4096, num_sigmas=4, seed=1)
        tiny = tmp_path / "tiny.csv"
        write_csv(TimeSeries(generate_segmented(config).samples * scale), tiny)
        code, out, err = run_cli(
            capsys, "analyze", "--input", str(tiny),
            "--window", "32", "--bins", "64", "--binning", "linear",
        )
        assert code == 1
        assert out == ""
        assert re.fullmatch(
            r"error: parameter: the largest variance, \S+, is too small to split into 64 linear bins\n",
            err,
        )

    def test_standard_input_scores_like_the_path(self, tmp_path, capsys):
        target = tmp_path / "series.csv"
        run_cli(
            capsys,
            "generate", "--samples", "4096", "--num-sigmas", "8", "--seed", "11",
            "--out", str(target),
        )
        flags = ("--window", "64", "--bins", "32")
        code, expected, _ = run_cli(capsys, "analyze", "--input", str(target), *flags)
        assert code == 0
        cli = "import sys\nfrom hetquant.cli import main\nsys.exit(main(sys.argv[1:]))"
        out = run_fresh(cli, "analyze", "--input", "-", *flags, stdin=target.read_text())
        assert out == expected

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin here")
    def test_dev_stdin_redirected_from_a_file_is_split_like_the_file(self, tmp_path, capsys):
        """``/dev/stdin`` opened from a file is that file in this process
        only: workers must open the file itself."""
        target = tmp_path / "series.csv"
        main(["generate", "--samples", "4096", "--num-sigmas", "4", "--out", str(target)])
        flags = ("--window", "32", "--bins", "16")
        code, expected, _ = run_cli(capsys, "analyze", "--input", str(target), *flags)
        assert code == 0
        script = (
            "import sys\nfrom hetquant import series\n"
            "series._RANGE_BYTES, series.usable_cpus = 1024, lambda: 2\n"
            "split, ranges = series.ordered_map, []\n"
            "series.ordered_map = lambda fn, items, w: ranges.append(len(items)) or split(fn, items, w)\n"
            "from hetquant.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print(len(ranges) == 1 and ranges[0] > 1)"
        )
        with open(target, "rb") as stdin:
            out = run_fresh(script, "analyze", "--input", "/dev/stdin", *flags, stdin=stdin)
        assert out == expected + "True\n"

    @pytest.mark.parametrize("change", ["replaced", "removed"])
    def test_input_changed_while_split_exits_two(self, tmp_path, capsys, monkeypatch, change):
        """A worker that cannot open the file the reader has open fails the
        read as an I/O error rather than parse another file."""
        target = tmp_path / "series.csv"
        main(["generate", "--samples", "4096", "--out", str(target)])
        other = tmp_path / "other.csv"
        other.write_bytes(target.read_bytes())
        monkeypatch.setattr(series_module, "_RANGE_BYTES", 1024)
        monkeypatch.setattr(series_module, "usable_cpus", lambda: 2)
        ranges = series_module._ranges

        def then_change(handle, start):
            spans = ranges(handle, start)
            if change == "replaced":
                os.replace(other, target)
            else:
                target.unlink()
            return spans

        monkeypatch.setattr(series_module, "_ranges", then_change)
        code, out, err = run_cli(capsys, "analyze", "--input", str(target), "--window", "32")
        assert (code, out) == (2, "")
        assert err.startswith("error: io: ")
        if change == "replaced":
            assert err.endswith("was replaced while it was read\n")

    def test_missing_input_exits_two(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "analyze", "--input", str(tmp_path / "absent.csv")
        )
        assert code == 2
        assert "error: io:" in err

    def test_sparse_histogram_warning(self, tmp_path, capsys):
        target = tmp_path / "short.csv"
        run_cli(capsys, "generate", "--samples", "200", "--out", str(target))
        code, out, err = run_cli(
            capsys, "analyze", "--input", str(target), "--window", "64", "--bins", "64"
        )
        assert code == 0
        assert "warning" in err
        assert out.startswith("variant,score")

    @pytest.mark.parametrize(
        "flags",
        [
            ("--window", "1"),
            ("--bins", "1"),
        ],
    )
    def test_invalid_parameters_exit_one(self, tmp_path, capsys, flags):
        target = tmp_path / "series.csv"
        run_cli(capsys, "generate", "--samples", "64", "--out", str(target))
        code, _, err = run_cli(
            capsys, "analyze", "--input", str(target), *flags
        )
        assert code == 1
        assert "error: configuration:" in err


class TestDivergence:
    @pytest.fixture
    def dist_files(self, tmp_path):
        edges = np.linspace(0.0, 1.0, 5)
        p = ProbabilityDistribution(edges, np.array([0.5, 0.25, 0.125, 0.125]))
        q = ProbabilityDistribution(edges, np.array([0.25, 0.25, 0.25, 0.25]))
        p_path = tmp_path / "p.csv"
        q_path = tmp_path / "q.csv"
        write_distribution_csv(p, p_path)
        write_distribution_csv(q, q_path)
        return str(p_path), str(q_path)

    def test_self_coefficient_is_one(self, dist_files, capsys):
        p_path, _ = dist_files
        code, out, _ = run_cli(
            capsys, "divergence", "--p", p_path, "--q", p_path, "--metric", "bc"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "metric,value,alpha,log_base"
        assert lines[1] == "bc,1,,"

    def test_renyi_line_format(self, dist_files, capsys):
        p_path, q_path = dist_files
        code, out, _ = run_cli(
            capsys,
            "divergence", "--p", p_path, "--q", q_path,
            "--metric", "renyi", "--alpha", "0.5", "--log-base", "base2",
        )
        assert code == 0
        fields = out.strip().split("\n")[1].split(",")
        assert fields[0] == "renyi"
        assert float(fields[1]) > 0
        assert fields[2] == "0.5"
        assert fields[3] == "base2"

    def test_entropy_needs_no_second_distribution(self, dist_files, capsys):
        p_path, _ = dist_files
        code, out, _ = run_cli(
            capsys, "divergence", "--p", p_path, "--metric", "shannon_entropy"
        )
        assert code == 0
        assert out.strip().split("\n")[1].startswith("shannon_entropy,")

    def test_missing_q_for_pairwise_metric(self, dist_files, capsys):
        p_path, _ = dist_files
        code, _, err = run_cli(
            capsys, "divergence", "--p", p_path, "--metric", "kl"
        )
        assert code == 1
        assert "error: parameter:" in err

    def test_alpha_validation(self, dist_files, capsys):
        p_path, q_path = dist_files
        code, _, err = run_cli(
            capsys,
            "divergence", "--p", p_path, "--q", q_path,
            "--metric", "tsallis", "--alpha", "1",
        )
        assert code == 1
        assert "error: parameter:" in err

    def test_binning_mismatch(self, tmp_path, dist_files, capsys):
        p_path, _ = dist_files
        other = ProbabilityDistribution(
            np.linspace(0.0, 2.0, 5), np.array([0.25, 0.25, 0.25, 0.25])
        )
        other_path = tmp_path / "other.csv"
        write_distribution_csv(other, other_path)
        code, _, err = run_cli(
            capsys,
            "divergence", "--p", p_path, "--q", str(other_path), "--metric", "bc",
        )
        assert code == 1
        assert "error: binning:" in err

    def test_too_large_alpha_exits_one_without_warnings(self, tmp_path, capsys):
        path = tmp_path / "uniform.csv"
        write_distribution_csv(
            ProbabilityDistribution(np.linspace(0.0, 1.0, 17), np.full(16, 1 / 16)), path
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys,
                "divergence", "--p", str(path), "--metric", "renyi_entropy", "--alpha", "1000",
            )
        assert code == 1
        assert out == ""
        assert err == "error: parameter: alpha = 1000.0 takes the power sum out of float64 range\n"
        assert caught == []

    @pytest.mark.parametrize(
        "rows",
        ["1e308,0.5\n1.7e308,0.5", "-1.7e308,0.5\n1.7e308,0.5", "1.7976931348623157e308,1"],
    )
    def test_overflowing_edges_exit_one_without_warnings(self, tmp_path, capsys, rows):
        path = tmp_path / "huge.csv"
        path.write_text(f"bin_midpoint,mass\n{rows}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, "divergence", "--p", str(path), "--metric", "shannon_entropy"
            )
        assert code == 1
        assert out == ""
        assert err == "error: ingestion: edges must be finite\n"
        assert caught == []

    def test_unknown_metric_is_a_usage_error(self, dist_files, capsys):
        p_path, _ = dist_files
        code, _, err = run_cli(
            capsys, "divergence", "--p", p_path, "--metric", "cosine"
        )
        assert code == 1
        assert "error: usage:" in err


class TestSweepCli:
    ARGS = (
        "sweep",
        "--sigma-counts", "1,4",
        "--windows", "16,32",
        "--bins", "8",
        "--samples", "1024",
        "--seeds", "1,2",
    )

    def test_report_and_summary_files(self, tmp_path, capsys):
        out_path = tmp_path / "report.csv"
        summary_path = tmp_path / "summary.csv"
        code, _, _ = run_cli(
            capsys, *self.ARGS, "--out", str(out_path), "--summary", str(summary_path)
        )
        assert code == 0
        report_lines = out_path.read_bytes().decode().strip().split("\n")
        assert report_lines[0] == "k,window,seed,metric,score"
        assert len(report_lines) == 1 + 2 * 2 * 2 * 3
        summary_lines = summary_path.read_bytes().decode().strip().split("\n")
        assert summary_lines[0] == "window,metric,spearman,mean_score_k1,mean_score_k4"

    def test_byte_identical_across_worker_counts(self, tmp_path, capsys):
        solo = tmp_path / "solo.csv"
        pooled = tmp_path / "pooled.csv"
        assert run_cli(capsys, *self.ARGS, "--out", str(solo))[0] == 0
        assert run_cli(capsys, *self.ARGS, "--workers", "3", "--out", str(pooled))[0] == 0
        assert solo.read_bytes() == pooled.read_bytes()

    def test_grid_flags_are_sets(self, tmp_path, capsys):
        def files(tag, sigma_counts, seeds):
            out, summary = tmp_path / f"{tag}.csv", tmp_path / f"{tag}-summary.csv"
            args = ("--sigma-counts", sigma_counts, "--seeds", seeds, "--windows", "16,32")
            code, _, _ = run_cli(
                capsys, "sweep", *args, "--bins", "8", "--samples", "1024",
                "--out", str(out), "--summary", str(summary),
            )
            assert code == 0
            return out.read_bytes(), summary.read_bytes()

        assert files("repeated", "4,1,2,2", "3,1,3") == files("set", "1,2,4", "1,3")

    def test_bad_sigma_counts_flag(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "sweep", "--sigma-counts", "1,x", "--out", str(tmp_path / "r.csv"),
        )
        assert code == 1
        assert "error: usage:" in err

    def test_oversized_window_is_a_configuration_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "sweep", "--windows", "2048", "--samples", "1024",
            "--out", str(tmp_path / "r.csv"),
        )
        assert code == 1
        assert "error: configuration:" in err


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "error: usage:" in err

    def test_unknown_flag_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--samples", "8", "--frobnicate")
        assert code == 1
        assert "error: usage:" in err

    @pytest.mark.parametrize("command", [("generate", "--samples", "64"), ("sweep",)])
    def test_infinite_sigma_max_exits_one_without_warnings(self, tmp_path, capsys, command):
        target = tmp_path / "out.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, *command, "--sigma-max", "inf", "--out", str(target)
            )
        assert code == 1
        assert out == ""
        assert err == "error: configuration: sigma_max must be finite\n"
        assert caught == []
        assert not target.exists()


class TestFlagsMatchConfigs:
    """Each command builds its config from the flags named after its fields."""

    @pytest.mark.parametrize(
        "argv, config_class",
        [
            (["generate", "--samples", "8", "--out", "s.csv"], SegmentedGeneratorConfig),
            (["analyze", "--input", "s.csv"], MeasureConfig),
            (["sweep", "--out", "r.csv"], SweepConfig),
        ],
    )
    def test_every_config_field_has_a_flag(self, argv, config_class):
        args = _build_parser().parse_args(argv)
        fields = {field.name for field in dataclasses.fields(config_class)}
        assert fields <= set(vars(args))

    @pytest.mark.parametrize("command", ["generate", "sweep"])
    def test_samples_flag_keeps_its_metavar(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--samples SAMPLES" in capsys.readouterr().out


def run_fresh(script: str, *argv: str, stdin=None) -> str:
    """Run ``script`` with ``argv`` in a new interpreter that imports this
    package, piping ``stdin`` to it, or giving it ``stdin`` when that is an
    open file; this process has already imported scipy for the test
    oracles."""
    src = str(Path(hetquant.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    feed = {"stdin": stdin} if hasattr(stdin, "fileno") else {"input": stdin}
    result = subprocess.run(
        [sys.executable, "-c", script, *argv],
        **feed, env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return result.stdout


class TestStartup:
    def test_import_loads_no_scipy_or_process_pool(self):
        loaded = run_fresh(
            "import sys, hetquant.cli\n"
            "heavy = ('scipy', 'concurrent.futures', 'multiprocessing')\n"
            "print([m for m in heavy if m in sys.modules])"
        )
        assert loaded.strip() == "[]"

    def test_one_block_generate_loads_no_process_pool(self, tmp_path):
        loaded = run_fresh(
            "import sys\nfrom hetquant.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])",
            "generate", "--samples", "4096", "--out", str(tmp_path / "s.csv"),
        )
        assert loaded.strip() == "[]"

    def test_one_range_analyze_loads_no_process_pool(self, tmp_path):
        target = tmp_path / "s.csv"
        assert main(["generate", "--samples", "4096", "--out", str(target)]) == 0
        loaded = run_fresh(
            "import sys\nfrom hetquant.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])",
            "analyze", "--input", str(target), "--window", "32", "--bins", "16",
        )
        assert loaded.strip().splitlines()[-1] == "[]"

    def test_two_workers_match_one_after_lean_import(self, tmp_path):
        """The process pool's deferred import works in a fresh CLI process."""
        cli = "import sys\nfrom hetquant.cli import main\nsys.exit(main(sys.argv[1:]))"
        for workers in ("1", "2"):
            out = str(tmp_path / f"{workers}.csv")
            run_fresh(cli, *TestSweepCli.ARGS, "--workers", workers, "--out", out)
        assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()
