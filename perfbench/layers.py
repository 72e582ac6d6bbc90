"""The measured package's layers: which functions are timed, and the
per-layer metrics derived from their spans.

Span names are ``<layer>.<function>``; spans the benchmark opens around its
own steps start with ``bench.`` and belong to no layer.
"""

from __future__ import annotations

from collections import defaultdict

from spans import self_times

LAYERS = ("cli", "butterfly", "graphs", "invariant", "realization", "cone",
          "selection", "oracle", "verify")
GRAPHS = ("butterfly", "K4", "star", "windmill")
MC_CASES = ("full_sym_p2", "ray_p3", "hub")
CLI_COMMANDS = ("select", "fit", "constants", "verify")
NS_PER = {"s": 1e9, "ms": 1e6, "us": 1e3}


def _psi_iterations(tracer, result):
    tracer.values["cone.psi_iterations"].append(result.iterations)


# (module, qualified name, span name, hook on the result)
TIMED = (
    ("homcone.butterfly", "butterfly_registry", "butterfly.registry", None),
    ("homcone.butterfly", "butterfly_subgroups", "butterfly.subgroups", None),
    ("homcone.graphs", "automorphism_group", "graphs.automorphism_group", None),
    ("homcone.graphs", "enumerate_subgroups", "graphs.enumerate_subgroups", None),
    ("homcone.graphs", "is_homogeneous_graph", "graphs.is_homogeneous", None),
    ("homcone.invariant", "build_invariant_space", "invariant.build_space", None),
    ("homcone.invariant", "InvariantSpace.project", "invariant.project", None),
    ("homcone.invariant", "same_space", "invariant.same_space", None),
    ("homcone.selection", "dedupe_models", "selection.dedupe", None),
    ("homcone.selection", "log_I", "selection.log_I", None),
    ("homcone.selection", "posterior", "selection.posterior", None),
    ("homcone.selection", "fit_concentration_mle", "selection.fit_mle", None),
    ("homcone.realization", "factor_T", "realization.factor_T", None),
    ("homcone.realization", "log_gamma_v", "realization.log_gamma_v", None),
    ("homcone.realization", "delta_phi_fast", "realization.delta_phi_fast", None),
    ("homcone.realization", "conjugate_space", "realization.conjugate_space", None),
    ("homcone.realization", "validate_vstructure", "realization.validate_vstructure", None),
    ("homcone.cone", "psi", "cone.psi", _psi_iterations),
    ("homcone.cone", "metric_matrix", "cone.metric_matrix", None),
    ("homcone.cone", "log_phi", "cone.log_phi", None),
    ("homcone.oracle", "mc_cone_integral", "oracle.mc", None),
    ("homcone.verify", "check_registry", "verify.check_registry", None),
    ("homcone.verify", "check_cross_path", "verify.check_cross_path", None),
    ("homcone.verify", "check_siegel", "verify.check_siegel", None),
)

# (metric, span name, unit): mean time per call, plus calls per operation
# under the metric name with the unit replaced by "calls".
PER_CALL = (
    *((f"cli.main_ms.{c}", f"cli.main.{c}", "ms") for c in CLI_COMMANDS),
    ("butterfly.registry_ms", "butterfly.registry", "ms"),
    ("butterfly.subgroups_ms", "butterfly.subgroups", "ms"),
    ("graphs.is_homogeneous_ms", "graphs.is_homogeneous", "ms"),
    ("invariant.build_space_ms", "invariant.build_space", "ms"),
    ("invariant.project_us", "invariant.project", "us"),
    ("selection.dedupe_ms", "selection.dedupe", "ms"),
    ("selection.log_I_us", "selection.log_I", "us"),
    ("selection.fit_mle_ms", "selection.fit_mle", "ms"),
    ("realization.factor_T_us", "realization.factor_T", "us"),
    ("realization.log_gamma_v_us", "realization.log_gamma_v", "us"),
    ("realization.delta_phi_fast_us", "realization.delta_phi_fast", "us"),
    ("realization.conjugate_space_ms", "realization.conjugate_space", "ms"),
    ("realization.validate_vstructure_ms", "realization.validate_vstructure", "ms"),
    ("cone.psi_ms", "cone.psi", "ms"),
    ("cone.log_phi_us", "cone.log_phi", "us"),
    ("verify.check_registry_ms", "verify.check_registry", "ms"),
    ("verify.check_cross_path_ms", "verify.check_cross_path", "ms"),
    ("verify.check_siegel_ms", "verify.check_siegel", "ms"),
)

# (metric, span name, unit): mean time per call within each lattice graph
PER_GRAPH = (
    ("graphs.automorphism_group_ms", "graphs.automorphism_group", "ms"),
    ("graphs.enumerate_subgroups_s", "graphs.enumerate_subgroups", "s"),
)

# calls per operation of functions whose time is not reported per call
CALL_COUNTS = (
    ("invariant.same_space_calls", "invariant.same_space"),
    ("selection.posterior_calls", "selection.posterior"),
    ("cone.metric_matrix_calls", "cone.metric_matrix"),
)


def calls_name(metric: str, unit: str) -> str:
    return metric.replace(f"_{unit}", "_calls", 1)


def metric_units() -> dict[str, str]:
    """Every per-layer metric this module and the benchmark report, with its unit."""
    units = {f"import.{p}_s": "s" for p in ("python", "homcone", "numpy", "scipy")}
    for metric, _, unit in PER_CALL:
        units[metric] = unit
        units[calls_name(metric, unit)] = "count"
    for metric, _, unit in PER_GRAPH:
        units.update({f"{metric}.{g}": unit for g in GRAPHS})
    units.update({f"graphs.subgroups.{g}": "count" for g in GRAPHS})
    units.update({f"graphs.spaces.{g}": "count" for g in GRAPHS})
    units.update({metric: "count" for metric, _ in CALL_COUNTS})
    units["selection.posterior_self_us"] = "us"
    units["cone.psi_iterations"] = "count"
    for c in MC_CASES:
        units[f"oracle.mc_draws_per_s.{c}"] = "1/s"
        units[f"oracle.ess_frac.{c}"] = "frac"
        units[f"oracle.mc_s.{c}"] = "s"
    units.update({f"self_ms.{layer}": "ms" for layer in LAYERS})
    units["trace.overhead_frac"] = "frac"
    return units


def from_spans(tracer) -> dict[str, float]:
    """Per-layer metrics from recorded spans; a function never called reads 0.

    Times per call average every span of the function, set-up included.
    Counts per operation and self time per operation use the spans of
    operations only (op id >= 0), one ``bench.op`` span per traced operation.
    """
    spans = tracer.spans()
    selfs = self_times(spans)
    total = defaultdict(int)  # key -> summed duration; key is a span name or (name, graph)
    self_total = defaultdict(int)
    calls = defaultdict(int)
    op_calls = defaultdict(int)
    layer_self = defaultdict(int)
    for s in spans:
        keys = [s.name]
        if s.name.startswith("graphs."):
            up = s.parent
            while up >= 0 and not spans[up].name.startswith("bench.graph."):
                up = spans[up].parent
            if up >= 0:
                keys.append((s.name, spans[up].name[len("bench.graph."):]))
        for key in keys:
            total[key] += s.end - s.start
            calls[key] += 1
        self_total[s.name] += selfs[s.id]
        if s.op >= 0:
            op_calls[s.name] += 1
            layer_self[s.name.split(".", 1)[0]] += selfs[s.id]

    def per_call(sums, key, unit):
        return sums[key] / calls[key] / NS_PER[unit] if calls[key] else 0.0

    ops = op_calls["bench.op"] or 1
    out = {}
    for metric, span, unit in PER_CALL:
        out[metric] = per_call(total, span, unit)
        out[calls_name(metric, unit)] = op_calls[span] / ops
    for metric, span, unit in PER_GRAPH:
        for g in GRAPHS:
            out[f"{metric}.{g}"] = per_call(total, (span, g), unit)
    for metric, span in CALL_COUNTS:
        out[metric] = op_calls[span] / ops
    out["selection.posterior_self_us"] = per_call(self_total, "selection.posterior", "us")
    iterations = tracer.values["cone.psi_iterations"]
    out["cone.psi_iterations"] = sum(iterations) / len(iterations) if iterations else 0.0
    for layer in LAYERS:
        out[f"self_ms.{layer}"] = layer_self[layer] / ops / NS_PER["ms"]
    return out
