"""The benchmark in ``bench/`` wraps and patches library functions by name.

A rename or deletion in ``src/`` that drops such a name breaks the benchmark
but no unit test, so this test installs the benchmark's tracer table and
checks the names its self-tests patch.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_name_the_benchmark_wraps_or_patches_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import workloads
    from palette import agent_pipeline, align_trainer, data_synth, tensor_store

    tracer = tracing.Tracer()
    try:
        workloads.install_tracing(tracer)  # AttributeError or KeyError for a name that is gone
    finally:
        tracer.restore()
    for module, name in [(align_trainer, "mean_margin"), (agent_pipeline, "option_distribution_from_scores"),
                         (data_synth, "load_synth_records"), (tensor_store, "save_checkpoint")]:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
