"""Lint-style guard: no direct NumPy tensor-op call sites in engine hot paths.

The backend abstraction only holds if nobody quietly reintroduces a
module-level ``np.`` call into a refactored kernel.  This test parses the
engine modules and the NumPy backend's binomial kernel and asserts that
every designated hot-path function touches ``np``/``numpy`` only through
the allowlisted host-boundary names (type annotations and the
:class:`numpy.random.Generator` seeding surface).
Everything tensor-shaped must go through the dispatched backend handle or
Python operators, which dispatch through the array type itself.

Failing this test means a new ``np.<op>`` crept into a hot path — route it
through :func:`repro.backend.get_backend` (adding the op to
:data:`repro.backend.ARRAY_OPS` if it is genuinely new) instead of widening
the allowlist.

The guard also pins the observability layer's cost model: hot paths may
touch instrumentation only through the module-level no-op handles
(``_TRACE`` / ``_METRICS`` — one ``None`` check when disabled), never
through the public names or a live tracer object, and never from inside a
``for``/``while`` loop, so steady-state kernels stay instrumentation-free
per iteration even when tracing is on.
"""

from __future__ import annotations

import ast
import inspect

import pytest

import repro.backend.numpy_backend as numpy_backend
import repro.simulation.batch as batch
import repro.simulation.dynamics as dynamics
import repro.simulation.rare_events as rare_events
import repro.simulation.scenarios as scenarios
import repro.simulation.streaming as streaming
import repro.simulation.topology as topology

#: Names the engines may import NumPy under.
NUMPY_ALIASES = {"np", "numpy"}

#: ``np.<attr>`` accesses that remain legitimate inside hot paths: type
#: annotations (``np.ndarray``) and the host RNG surface
#: (``np.random.Generator`` annotations — all *draws* go through the
#: backend's host-seeded bridge).
ALLOWED_ATTRS = {"ndarray", "random"}

#: The hot-path functions the guard covers, as (module, qualname) pairs.
HOT_PATHS = [
    (numpy_backend, "NumpyBackend.binomial"),
    (batch, "draw_mining_traces"),
    (batch, "draw_traces"),
    (batch, "_bernoulli_counts"),
    (batch, "count_convergence_opportunities_batch"),
    (batch, "fixed_delta_opportunity_mask"),
    (batch, "worst_window_deficits"),
    (batch, "BatchSimulation.run"),
    (batch, "BatchSimulation.run_traces"),
    (scenarios, "_max_window_successes"),
    (scenarios, "ScenarioSimulation.run"),
    (scenarios, "ScenarioSimulation.run_traces"),
    (scenarios, "ScenarioSimulation._scan"),
    (topology, "convergence_opportunity_mask_with_delays"),
    (topology, "PeerGraphTopology.distances"),
    (topology, "FixedDeltaDelayModel.draw_delays"),
    (topology, "UniformDelayModel.draw_delays"),
    (topology, "TruncatedGeometricDelayModel.draw_delays"),
    (topology, "PeerGraphDelayModel.draw_delays"),
    (dynamics, "compile_eclipse_offsets"),
    (dynamics, "_epoch_distances"),
    (dynamics, "_masked_min_plus"),
    (dynamics, "compile_schedule"),
    (dynamics, "TimeVaryingDelayModel.draw_delays"),
    (rare_events, "draw_tilted_traces"),
    (streaming, "_SeedBlockStream._stream"),
    (streaming, "_SeedBlockStream._draw_block"),
    (streaming, "StreamingAccumulator.update"),
    (streaming, "ScenarioStreamingAccumulator.update"),
    (streaming, "OnlineMoments.update"),
    (streaming, "OnlineMoments.combine"),
    (streaming, "DeficitHistogram.update"),
]


def _resolve_function_node(module, qualname: str) -> ast.FunctionDef:
    """The AST node for ``qualname`` (``Class.method`` or plain function)."""
    tree = ast.parse(inspect.getsource(module))
    parts = qualname.split(".")
    scope = tree.body
    node = None
    for part in parts:
        node = next(
            (
                child
                for child in scope
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                )
                and child.name == part
            ),
            None,
        )
        assert node is not None, f"{module.__name__}.{qualname} not found"
        scope = getattr(node, "body", [])
    assert isinstance(node, ast.FunctionDef)
    return node


def _numpy_violations(node: ast.FunctionDef) -> list:
    violations = []
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Attribute)
            and isinstance(child.value, ast.Name)
            and child.value.id in NUMPY_ALIASES
            and child.attr not in ALLOWED_ATTRS
        ):
            violations.append(f"np.{child.attr} at line {child.lineno}")
        # A bare `np`/`numpy` passed around (e.g. as a backend stand-in)
        # defeats the abstraction just as thoroughly as an attribute call.
        if (
            isinstance(child, ast.Name)
            and child.id in NUMPY_ALIASES
            and isinstance(child.ctx, ast.Load)
            and not _is_attribute_base(child, node)
        ):
            violations.append(f"bare {child.id} at line {child.lineno}")
    return violations


def _is_attribute_base(name: ast.Name, root: ast.FunctionDef) -> bool:
    return any(
        isinstance(parent, ast.Attribute) and parent.value is name
        for parent in ast.walk(root)
    )


@pytest.mark.parametrize(
    "module,qualname",
    HOT_PATHS,
    ids=[f"{module.__name__.split('.')[-1]}:{name}" for module, name in HOT_PATHS],
)
def test_hot_path_has_no_direct_numpy_tensor_ops(module, qualname):
    node = _resolve_function_node(module, qualname)
    violations = _numpy_violations(node)
    assert not violations, (
        f"{module.__name__}.{qualname} bypasses the backend layer: "
        + ", ".join(violations)
    )


def test_guard_actually_detects_violations():
    """The guard must flag a representative smuggled ``np.`` call (meta-test
    so allowlist edits cannot quietly blind it)."""
    source = (
        "def bad(x):\n"
        "    return np.cumsum(x) + np.asarray(x) + len(np.ndarray.__mro__)\n"
    )
    node = ast.parse(source).body[0]
    found = _numpy_violations(node)
    assert any("np.cumsum" in item for item in found)
    assert any("np.asarray" in item for item in found)
    assert not any("np.ndarray" in item for item in found)


# ----------------------------------------------------------------------
# Observability hygiene: handle-only dispatch, no per-iteration calls
# ----------------------------------------------------------------------

#: The module-level no-op handles hot paths may dispatch through.
INSTRUMENTATION_HANDLES = {"_TRACE", "_METRICS"}

#: Public observability names whose appearance inside a hot path means the
#: function bypassed the handle pattern (and with it the zero-overhead
#: disabled path).
FORBIDDEN_INSTRUMENTATION_NAMES = {
    "TRACE",
    "METRICS",
    "Tracer",
    "Metrics",
    "use_tracer",
    "use_metrics",
    "install_from_env",
}


def _instrumentation_violations(node: ast.FunctionDef) -> list:
    """Hot-path instrumentation must go through ``_TRACE``/``_METRICS``."""
    violations = []
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Name)
            and child.id in FORBIDDEN_INSTRUMENTATION_NAMES
        ):
            violations.append(f"{child.id} at line {child.lineno}")
    return violations


def _loop_instrumentation_violations(node: ast.FunctionDef) -> list:
    """No ``_TRACE.span`` / ``_METRICS.*`` call inside a for/while body.

    Spans and counters belong at call boundaries; a per-iteration dispatch
    would execute trials-times-rounds handle checks and, with tracing on,
    allocate a span per round — exactly the overhead the layer promises
    not to add.
    """
    violations = []
    for loop in ast.walk(node):
        if not isinstance(loop, (ast.For, ast.While, ast.AsyncFor)):
            continue
        for child in ast.walk(loop):
            if child is loop:
                continue
            if (
                isinstance(child, ast.Attribute)
                and isinstance(child.value, ast.Name)
                and child.value.id in INSTRUMENTATION_HANDLES
            ):
                violations.append(
                    f"{child.value.id}.{child.attr} inside loop at line "
                    f"{child.lineno}"
                )
    return violations


@pytest.mark.parametrize(
    "module,qualname",
    HOT_PATHS,
    ids=[f"{module.__name__.split('.')[-1]}:{name}" for module, name in HOT_PATHS],
)
def test_hot_path_instrumentation_is_handle_only_and_loop_free(module, qualname):
    node = _resolve_function_node(module, qualname)
    violations = _instrumentation_violations(node)
    violations += _loop_instrumentation_violations(node)
    assert not violations, (
        f"{module.__name__}.{qualname} breaks the zero-overhead "
        "instrumentation contract: " + ", ".join(violations)
    )


#: Runner orchestration paths covered by the instrumentation guard only
#: (they legitimately use NumPy for seeding/persistence, so the tensor-op
#: guard does not apply): spans/counters at call boundaries, and — since
#: grid loops run once per *point* — never from inside a loop body.  All
#: per-item telemetry merging is delegated to
#: :func:`repro.observability.distributed.merge_worker_telemetry`.
INSTRUMENTED_ORCHESTRATION_PATHS = [
    "ExperimentRunner.run",
    "ExperimentRunner.run_many",
]


@pytest.mark.parametrize("qualname", INSTRUMENTED_ORCHESTRATION_PATHS)
def test_runner_orchestration_instrumentation_is_handle_only_and_loop_free(
    qualname,
):
    import repro.simulation.runner as runner

    node = _resolve_function_node(runner, qualname)
    violations = _instrumentation_violations(node)
    violations += _loop_instrumentation_violations(node)
    assert not violations, (
        f"{runner.__name__}.{qualname} breaks the zero-overhead "
        "instrumentation contract: " + ", ".join(violations)
    )


def test_instrumented_modules_bind_private_handles():
    """Engine modules must hold the handles under the private names the
    loop guard inspects — a differently-named import would blind it."""
    import repro.backend.workspace as workspace

    engine_modules = (
        batch,
        scenarios,
        topology,
        dynamics,
        rare_events,
        streaming,
    )
    for module in (*engine_modules, workspace):
        bound = INSTRUMENTATION_HANDLES & set(vars(module))
        assert "_METRICS" in bound, f"{module.__name__} lacks _METRICS handle"
    from repro.observability import METRICS, TRACE

    for module in engine_modules:
        assert vars(module)["_TRACE"] is TRACE
        assert vars(module)["_METRICS"] is METRICS


def test_instrumentation_guard_actually_detects_violations():
    """Meta-test: the two new detectors must flag planted violations."""
    source = (
        "def bad(x):\n"
        "    with use_tracer() as t:\n"
        "        for item in x:\n"
        "            with _TRACE.span('per-item'):\n"
        "                _METRICS.increment('items')\n"
        "    return TRACE\n"
    )
    node = ast.parse(source).body[0]
    names = _instrumentation_violations(node)
    assert any("use_tracer" in item for item in names)
    assert any("TRACE at" in item for item in names)
    loops = _loop_instrumentation_violations(node)
    assert any("_TRACE.span inside loop" in item for item in loops)
    assert any("_METRICS.increment inside loop" in item for item in loops)

    clean = (
        "def good(x):\n"
        "    with _TRACE.span('call'):\n"
        "        for item in x:\n"
        "            total = item\n"
        "    _METRICS.increment('calls')\n"
        "    return total\n"
    )
    clean_node = ast.parse(clean).body[0]
    assert not _instrumentation_violations(clean_node)
    assert not _loop_instrumentation_violations(clean_node)
