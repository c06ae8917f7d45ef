"""What the benchmark measures: workloads, metrics and spans.

`BENCHMARK.json` at the repository root is generated from this module
(`python3 perfbench/run.py --write-manifest`), so the names printed by a
run and the names in the manifest cannot drift apart.
"""

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 35

# One line each: why the workload exists and which layers' changes should
# move its wall_s (the full prediction table is in perfbench/README.md).
WORKLOADS = {
    "verify_sweep": (
        "verify-all --format json over n=12..52, the headline command: "
        "wall_s moves with find_roots, check_rh, verify_root_pairing, "
        "zeta_oracle, solve_linear, a little with exact layers"),
    "exact_certify": (
        "extremal, check, zeta, divisibility round trip at n=12..108 step 24 "
        "and 196, table to 196, bad inputs; no roots or oracle: wall_s moves "
        "with G8, substitute_linear, macwilliams, divisibility"),
    "rh_mixed": (
        "rh on RH-true W12, W8 W12, W8^2 W12, RH-false W12^3 and RH-true "
        "extremals n=36,60,84: wall_s moves with find_roots, check_rh on both "
        "paths; exact layers predict no change"),
}

# name -> (unit, better, bound as a share of the parent's median)
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# (module, function): every public function a span is recorded around,
# rebound in the modules that call it (perfbench/tracing.py).
SPANS = [
    ("cli", "main"),
    ("files", "read_enumerator_file"),
    ("files", "write_enumerator_file"),
    ("files", "load_golden_table"),
    ("fwe", "build_extremal"),
    ("fwe", "is_formal_weight_enumerator"),
    ("fwe", "symmetry_checks"),
    ("fwe", "check_invariance_g8"),
    ("zeta", "compute_zeta"),
    ("zeta", "zeta_oracle"),
    ("zeta", "macwilliams_transform"),
    ("zeta", "functional_equation_sign"),
    ("analysis", "find_roots"),
    ("analysis", "check_rh"),
    ("analysis", "verify_root_pairing"),
    ("analysis", "exact_sqrt2_multiplicities"),
    ("analysis", "check_divisibility"),
    ("algebra", "substitute_linear"),
    ("algebra", "solve_linear"),
    ("algebra", "exact_divide"),
    ("algebra", "apply_diff_operator"),
]

SPAN_NAMES = [f"{module}.{func}" for module, func in SPANS]

# every per-layer value counts work or time, so lower is better for all
PER_LAYER = {}
for _name in SPAN_NAMES:
    PER_LAYER[f"{_name}.self_s"] = "s"
    PER_LAYER[f"{_name}.calls"] = "count"
PER_LAYER.update({
    "analysis.find_roots.iterations": "count",
    "analysis.find_roots.degree_sum": "count",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
})

# Counts that must repeat exactly between the two traced passes of a run.
EXACT_COUNTS = ([f"{name}.calls" for name in SPAN_NAMES]
                + ["analysis.find_roots.iterations",
                   "analysis.find_roots.degree_sum"])


def manifest() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, (unit, better, bound) in END_TO_END.items()],
        "per_layer": [{"name": name, "unit": unit, "better": "lower"}
                      for name, unit in PER_LAYER.items()],
    }
