"""The package root exports exactly the public names of its modules."""

import importlib

import hetquant

PUBLIC_NAMES = [
    "BinningMismatchError",
    "ConfigurationError",
    "CorrelationUndefinedError",
    "DivergenceResult",
    "HetquantError",
    "IngestionError",
    "InternalError",
    "LocalVarianceSeries",
    "METRICS",
    "METRIC_ORDER",
    "MeasureConfig",
    "MeasureReport",
    "ParameterError",
    "ProbabilityDistribution",
    "SegmentedGeneratorConfig",
    "SummaryRow",
    "SweepConfig",
    "SweepReport",
    "SweepRow",
    "TimeSeries",
    "bhattacharyya_coefficient",
    "bhattacharyya_distance",
    "distribution_csv_bytes",
    "estimate_pdf",
    "evaluate",
    "format_float",
    "generate_segmented",
    "hellinger_affinity",
    "hellinger_standard",
    "jensen_shannon_divergence",
    "kl_divergence",
    "local_variance",
    "measure",
    "measure_from_distribution",
    "read_csv",
    "read_distribution_csv",
    "renyi_divergence",
    "renyi_entropy",
    "run_sweep",
    "segment_lengths",
    "series_csv_bytes",
    "shannon_entropy",
    "sigma_values",
    "spearman",
    "tsallis_divergence",
    "uniform_reference",
    "write_csv",
    "write_distribution_csv",
]


def test_public_names_are_pinned():
    assert sorted(hetquant.__all__) == PUBLIC_NAMES
    assert len(set(hetquant.__all__)) == len(hetquant.__all__)
    for name in hetquant.__all__:
        assert hasattr(hetquant, name), name


def test_functions_shadow_their_modules():
    for name in ("measure", "local_variance"):
        module = importlib.import_module(f"hetquant.{name}")
        assert getattr(hetquant, name) is getattr(module, name)
