"""Public API surface: everything exported actually imports and exists.

Guards against __all__ drift as the library grows.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.tech",
    "repro.spice",
    "repro.analog",
    "repro.core",
    "repro.dse",
    "repro.harvest",
    "repro.fleet",
    "repro.riscv",
    "repro.runtimes",
    "repro.soc",
    "repro.experiments",
    "repro.obs",
    "repro.batch",
    "repro.serve",
    "repro.api",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", [])
    for name in exported:
        assert hasattr(module, name), f"{package}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("package", PACKAGES)
def test_package_has_docstring(package):
    module = importlib.import_module(package)
    assert module.__doc__ and len(module.__doc__.strip()) > 40


def test_version_string():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)


def test_experiment_registry_complete():
    """Every experiment module with a run() is registered in the runner."""
    import pkgutil

    import repro.experiments as exp_pkg
    from repro.experiments.runner import EXPERIMENTS

    modules = [
        name
        for _, name, _ in pkgutil.iter_modules(exp_pkg.__path__)
        if name not in ("tables", "runner")
    ]
    for name in modules:
        module = importlib.import_module(f"repro.experiments.{name}")
        if hasattr(module, "run"):
            assert name in EXPERIMENTS, f"experiment {name} not registered in runner"


def test_workload_registry_consistent():
    from repro.riscv.workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        assert workload.name == name
        assert workload.approx_instructions > 0
        assert callable(workload.reference)


class TestSolverSignatureStability:
    """The fast-path rework must not move the public solver entry
    points: positional call shapes from pre-1.2 code keep working, the
    early-exit knob is keyword-only, and the retired Jacobian and
    adaptive-step selectors stay gone."""

    def test_dc_operating_point_signature(self):
        import inspect

        from repro.spice import dc_operating_point

        params = inspect.signature(dc_operating_point).parameters
        assert list(params) == ["circuit", "initial"]
        assert params["initial"].default is None

    def test_transient_signature(self):
        import inspect

        from repro.spice import transient

        params = inspect.signature(transient).parameters
        assert list(params)[:6] == [
            "circuit", "t_stop", "dt", "probes", "initial", "on_step",
        ]
        assert list(params)[6:] == ["until"]
        assert params["until"].kind is inspect.Parameter.KEYWORD_ONLY

    def test_newton_internal_shim_signature(self):
        # tests and downstream instrumentation monkeypatch/wrap
        # solver._newton; its calling convention is load-bearing.
        import inspect

        from repro.spice import solver

        params = inspect.signature(solver._newton).parameters
        assert list(params) == ["circuit", "nodes", "x0", "max_iter"]

    def test_legacy_positional_calls_still_work(self):
        from repro.spice import (
            Capacitor, Circuit, GROUND, Resistor, VoltageSource,
            dc_operating_point, transient,
        )

        c = Circuit()
        c.add(VoltageSource("V1", "in", GROUND, 1.0))
        c.add(Resistor("R", "in", "out", 1e3))
        c.add(Capacitor("C", "out", GROUND, 1e-9))
        op = dc_operating_point(c, {"in": 1.0})
        transient(c, 1e-6, 1e-7, None, {"in": 1.0, "out": 0.0}, None)
        assert op["out"] > 0.99


class TestCharlibSurface:
    def test_api_exports_characterization(self):
        import repro.api as api

        for name in (
            "characterize_many", "RingSweep", "DividerSweep",
            "SweepResult", "CharacterizationCache", "CHARLIB_RTOL",
        ):
            assert hasattr(api, name)

    def test_spice_package_lazy_exports(self):
        import repro.spice as spice

        assert callable(spice.characterize_many)
        assert spice.charlib.SCHEMA_VERSION >= 1
        with pytest.raises(AttributeError):
            spice.not_a_real_name

    def test_top_level_lazy_exports(self):
        import repro

        assert callable(repro.characterize_many)
        assert repro.RingSweep is repro.api.RingSweep

    def test_characterize_many_engine_signature(self):
        # The 1.6 front door: engine/tolerance are keyword-only, the
        # default engine is auto, and the engine names are published.
        import inspect

        import repro.api as api

        params = inspect.signature(api.characterize_many).parameters
        assert params["engine"].kind is inspect.Parameter.KEYWORD_ONLY
        assert params["engine"].default == "auto"
        assert params["tolerance"].kind is inspect.Parameter.KEYWORD_ONLY
        assert api.CHAR_ENGINES == ("auto", "exact", "surrogate")


class TestSurrogateSurface:
    def test_api_exports_surrogates(self):
        import repro.api as api

        for name in (
            "fit_surrogate", "SurrogateModel",
            "SURROGATE_TOLERANCE", "CHAR_ENGINES",
        ):
            assert hasattr(api, name)

    def test_spice_package_lazy_surrogate_exports(self):
        import repro.spice as spice

        assert callable(spice.fit_surrogate)
        assert spice.surrogate.SURROGATE_SCHEMA_VERSION >= 1
        assert spice.DEFAULT_TOLERANCE == spice.CHARLIB_RTOL

    def test_top_level_lazy_surrogate_exports(self):
        import repro

        assert callable(repro.fit_surrogate)
        assert repro.SurrogateModel is repro.api.SurrogateModel
