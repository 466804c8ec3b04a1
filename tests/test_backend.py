"""Unit tests for the array-backend layer: dispatch, dtypes, workspaces."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import (
    ARRAY_OPS,
    BACKEND_ENV_VAR,
    COMPACT_POLICY,
    COMPACT_STAT_RTOL,
    DTYPE_POLICY_ENV_VAR,
    NumpyBackend,
    Workspace,
    backend_specs,
    get_backend,
    get_dtype_policy,
    list_backends,
    list_dtype_policies,
    register_backend,
    use_backend,
    use_dtype_policy,
)
from repro.backend.dispatch import DEFAULT_BACKEND
from repro.backend.dtypes import DtypePolicy
from repro.errors import BackendError, BackendUnavailableError
from repro.params import parameters_from_c
from repro.simulation import BatchSimulation, ScenarioSimulation


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
class TestDispatch:
    def test_default_backend_is_numpy(self):
        backend = get_backend()
        assert isinstance(backend, NumpyBackend)
        assert backend.name == DEFAULT_BACKEND == "numpy"

    def test_instances_are_cached(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_every_declared_op_exists_on_numpy_backend(self):
        backend = get_backend("numpy")
        missing = [op for op in ARRAY_OPS if not callable(getattr(backend, op, None))]
        assert not missing

    def test_env_var_selection(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert get_backend().name == "numpy"
        monkeypatch.setenv(BACKEND_ENV_VAR, "no_such_backend")
        with pytest.raises(BackendError, match="unknown backend"):
            get_backend()

    def test_empty_env_var_means_default(self, monkeypatch):
        """CI matrices export REPRO_BACKEND=\"\" on baseline legs; empty must
        behave exactly like unset (same for the dtype-policy variable)."""
        monkeypatch.setenv(BACKEND_ENV_VAR, "")
        assert get_backend().name == DEFAULT_BACKEND
        monkeypatch.setenv(DTYPE_POLICY_ENV_VAR, "")
        assert get_dtype_policy().name == "wide"

    def test_unknown_backend_error_lists_registry(self):
        with pytest.raises(BackendError, match="registered backends"):
            get_backend("definitely_not_registered")

    def test_context_manager_nesting(self):
        outer = get_backend("numpy")

        class Marker(NumpyBackend):
            name = "marker"

        marker = Marker()
        with use_backend(outer):
            assert get_backend() is outer
            with use_backend(marker):
                assert get_backend() is marker
            assert get_backend() is outer
        # The stack fully unwinds: ambient selection is back in charge.
        assert get_backend().name == "numpy"

    def test_context_overrides_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "no_such_backend")
        with use_backend("numpy"):
            assert get_backend().name == "numpy"

    def test_register_refuses_silent_redefinition(self):
        with pytest.raises(BackendError, match="already registered"):
            register_backend("numpy", NumpyBackend)

    def test_instance_passthrough(self):
        backend = NumpyBackend()
        assert get_backend(backend) is backend

    def test_list_and_specs(self):
        names = list_backends()
        assert "numpy" in names and "array_api" not in names
        specs = backend_specs()
        assert specs["numpy"]["available"] is True

    def test_unknown_backend_is_unavailable(self):
        """An unregistered name raises the skippable BackendUnavailableError,
        so probing scripts can skip instead of failing."""
        with pytest.raises(BackendUnavailableError, match="unknown backend"):
            get_backend("array_api")


# ----------------------------------------------------------------------
# Dtype policies
# ----------------------------------------------------------------------
class TestDtypePolicy:
    def test_wide_is_default_and_matches_history(self):
        policy = get_dtype_policy()
        backend = get_backend("numpy")
        assert policy.name == "wide"
        assert policy.index_dtype(backend) is np.int64
        assert policy.mask_dtype(backend) is np.bool_
        assert policy.stat_dtype(backend) is np.float64

    def test_compact_mapping(self):
        backend = get_backend("numpy")
        assert COMPACT_POLICY.index_dtype(backend) is np.int32
        assert COMPACT_POLICY.mask_dtype(backend) is np.uint8
        assert COMPACT_POLICY.stat_dtype(backend) is np.float32

    def test_env_var_and_context(self, monkeypatch):
        monkeypatch.setenv(DTYPE_POLICY_ENV_VAR, "compact")
        assert get_dtype_policy().name == "compact"
        with use_dtype_policy("wide"):
            assert get_dtype_policy().name == "wide"
        assert get_dtype_policy().name == "compact"

    def test_unknown_policy_errors(self):
        with pytest.raises(BackendError, match="registered policies"):
            get_dtype_policy("nope")

    def test_invalid_field_rejected(self):
        with pytest.raises(BackendError, match="must be one of"):
            DtypePolicy(name="bad", index="complex128")

    def test_listing(self):
        assert {"wide", "compact"} <= set(list_dtype_policies())

    def test_compact_rejects_overflowable_round_counts(self):
        with pytest.raises(BackendError, match="int32"):
            COMPACT_POLICY.check_rounds(2**30)
        COMPACT_POLICY.check_rounds(10_000)  # fine

    def test_compact_batch_integers_exact_floats_within_tolerance(self):
        """Compact results: integer outputs exact, statistics within the
        documented float32 tolerance."""
        params = parameters_from_c(c=4.0, n=400, delta=3, nu=0.2)
        wide = BatchSimulation(params, rng=7).run(16, 1_200)
        with use_dtype_policy("compact"):
            compact = BatchSimulation(params, rng=7).run(16, 1_200)
            compact_ci = compact.convergence_rate_ci95
        assert np.array_equal(
            wide.convergence_opportunities, compact.convergence_opportunities
        )
        assert np.array_equal(wide.honest_blocks, compact.honest_blocks)
        assert np.array_equal(wide.adversary_blocks, compact.adversary_blocks)
        assert np.array_equal(wide.worst_deficits, compact.worst_deficits)
        wide_ci = wide.convergence_rate_ci95
        assert compact_ci == pytest.approx(wide_ci, rel=COMPACT_STAT_RTOL)

    def test_compact_scenario_integers_exact(self):
        params = parameters_from_c(c=1.0, n=400, delta=3, nu=0.4)
        wide = ScenarioSimulation(params, "private_chain", rng=7).run(
            8, 1_000, record_rounds=True
        )
        with use_dtype_policy("compact"):
            compact = ScenarioSimulation(params, "private_chain", rng=7).run(
                8, 1_000, record_rounds=True
            )
        assert np.array_equal(wide.public_heights, compact.public_heights)
        assert np.array_equal(wide.private_heights, compact.private_heights)
        assert np.array_equal(wide.deepest_forks, compact.deepest_forks)
        assert np.array_equal(wide.releases, compact.releases)
        assert np.array_equal(wide.release_mask, compact.release_mask)
        assert np.array_equal(wide.worst_deficits, compact.worst_deficits)


# ----------------------------------------------------------------------
# Workspace
# ----------------------------------------------------------------------
class TestWorkspace:
    def test_same_tag_same_shape_reuses_buffer(self):
        workspace = Workspace()
        first = workspace.empty("tag", (8, 4), np.int64)
        second = workspace.empty("tag", (8, 4), np.int64)
        assert first is second

    def test_shape_or_dtype_change_reallocates(self):
        workspace = Workspace()
        first = workspace.empty("tag", (8, 4), np.int64)
        assert workspace.empty("tag", (8, 5), np.int64) is not first
        assert workspace.empty("tag", (8, 5), np.int32).dtype == np.int32

    def test_zeros_clears_reused_buffer(self):
        workspace = Workspace()
        buffer = workspace.zeros("tag", (4,), np.int64)
        buffer += 5
        again = workspace.zeros("tag", (4,), np.int64)
        assert again is buffer
        assert (again == 0).all()

    def test_binding_is_lazy_and_exclusive(self):
        workspace = Workspace()
        assert workspace.backend is None
        workspace.zeros("tag", (2,), np.int64)
        assert workspace.backend is get_backend("numpy")

        class Other(NumpyBackend):
            name = "other"

        with pytest.raises(BackendError, match="bound to backend"):
            workspace.bind(Other())

    def test_tags_nbytes_clear(self):
        workspace = Workspace()
        workspace.zeros("a", (4,), np.int64)
        workspace.zeros("b", (2, 2), np.int64)
        assert workspace.tags == ("a", "b")
        assert workspace.nbytes == 4 * 8 + 4 * 8
        workspace.clear()
        assert workspace.tags == ()
        assert workspace.backend is not None  # binding survives clear()

    def test_engine_results_do_not_alias_workspace(self):
        """Back-to-back runs through one workspace must not corrupt earlier
        results — everything escaping the engine is copied out."""
        params = parameters_from_c(c=1.0, n=400, delta=3, nu=0.4)
        workspace = Workspace()
        engine = ScenarioSimulation(
            params, "private_chain", rng=3, workspace=workspace
        )
        first = engine.run(8, 800)
        snapshot = first.deepest_forks.copy()
        engine.run(8, 800)  # reuses every scan buffer
        assert np.array_equal(first.deepest_forks, snapshot)

    def test_engine_built_in_context_runs_outside_it(self):
        """Engines bind backend and policy at construction; a run issued
        after the `use_backend` context closed must use that binding
        throughout (the kernels must not re-consult the ambient selection
        mid-run)."""
        params = parameters_from_c(c=4.0, n=400, delta=3, nu=0.2)
        baseline = BatchSimulation(params, rng=5).run(8, 700)
        with use_backend(NumpyBackend()):  # fresh instance, not the singleton
            engine = BatchSimulation(params, rng=5)
        result = engine.run(8, 700)  # outside the context
        assert np.array_equal(
            baseline.convergence_opportunities, result.convergence_opportunities
        )
        assert np.array_equal(baseline.worst_deficits, result.worst_deficits)
