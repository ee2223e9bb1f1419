"""The ps12splines benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace {0,1}

W is one of search, library_exact, library_float, library_assembly, cli.

Run it from the root of a checkout; it puts ``src`` on the path and needs
no install.  With --trace 0 it prints the end-to-end metrics, measured with
tracing off; with --trace 1 it runs the same operations untraced and then
traced, and prints the per-layer metrics from the spans plus the tracing
overhead.  Human-readable lines come first (every metric by name with its
unit, and the per-workload figures the README names); the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  A results file with the run record goes to
``.perfbench_out/``.

Load is a closed loop: one process, one operation in flight at a time, no
thread or process pool.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

WORKLOADS = ("search", "library_exact", "library_float", "library_assembly", "cli")
SETUP_RUNS = 2          # set-ups per run; setup_s is their median
#: Operations per process at least, whatever --seconds says (cli: one round).
MIN_OPS = {"search": 3, "library_exact": 2, "library_float": 2, "library_assembly": 4,
           "cli": 1}
WORKER_TIMEOUT = 170

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ref_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER_SPANS = (
    # (metric, span name, quantity)
    ("basis_search.compute_weights.s", "basis_search.compute_weights", "s"),
    ("basis_search.compute_weights.calls", "basis_search.compute_weights", "calls"),
    ("linalg.solve.s", "linalg.solve", "s"),
    ("linalg.solve.calls", "linalg.solve", "calls"),
    ("basis_search.candidate_has_full_rank.s", "basis_search.candidate_has_full_rank", "s"),
    ("basis_search.candidate_has_full_rank.calls", "basis_search.candidate_has_full_rank", "calls"),
    ("linalg.bareiss.s", "linalg.bareiss", "s"),
    ("basis_search.compute_dual_polys.s", "basis_search.compute_dual_polys", "s"),
    ("basis_search.compute_dual_polys.calls", "basis_search.compute_dual_polys", "calls"),
    ("basis_search.domain_point.s", "basis_search.domain_point", "s"),
    ("basis_search.split_linear_factors.s", "basis_search.split_linear_factors", "s"),
    ("basis_search.split_linear_factors.calls", "basis_search.split_linear_factors", "calls"),
    ("basis_search.filter_pipeline.self_s", "basis_search.filter_pipeline", "self_s"),
    ("basis_search.enumerate_candidates.s", "basis_search.enumerate_candidates", "s"),
    ("simplex_spline.per_face_bernstein.s", "simplex_spline.per_face_bernstein", "s"),
    ("simplex_spline.per_face_bernstein.calls", "simplex_spline.per_face_bernstein", "calls"),
    ("dual_functionals.lambda_vector.s", "dual_functionals.lambda_vector", "s"),
    ("dual_functionals.lambda_vector.calls", "dual_functionals.lambda_vector", "calls"),
    ("spline_fn.scaled_basis_tables.s", "spline_fn.scaled_basis_tables", "s"),
    ("spline_fn.collocation_at_domain_points.s", "spline_fn.collocation_at_domain_points", "s"),
    ("assembly.edge_restriction_tables.s", "assembly.edge_restriction_tables", "s"),
    ("assembly.nodal_q_coefficients.s", "assembly.nodal_q_coefficients", "s"),
    ("spline_fn.eval_spline.exact.s", "spline_fn.eval_spline.exact", "s"),
    ("spline_fn.eval_spline.exact.calls", "spline_fn.eval_spline.exact", "calls"),
    ("spline_fn.eval_spline.float.s", "spline_fn.eval_spline.float", "s"),
    ("spline_fn.eval_spline.float.calls", "spline_fn.eval_spline.float", "calls"),
    ("spline_fn.eval_many.s", "spline_fn.eval_many", "s"),
    ("geometry.locate_face_bary.s", "geometry.locate_face_bary", "s"),
    ("spline_fn.lagrange_interpolate.s", "spline_fn.lagrange_interpolate", "s"),
    ("spline_fn.lagrange_interpolate.calls", "spline_fn.lagrange_interpolate", "calls"),
    ("assembly.hermite_interpolate.s", "assembly.hermite_interpolate", "s"),
    ("assembly.verify_smoothness.s", "assembly.verify_smoothness", "s"),
    ("assembly.verify_smoothness.edges", "assembly.verify_smoothness", "calls"),
)
PER_LAYER_RATIOS = (
    # (metric, counter, span name whose calls are the base)
    ("basis_search.compute_weights.nonneg_ratio", "basis_search.compute_weights.nonneg",
     "basis_search.compute_weights"),
    ("basis_search.compute_weights.positive_ratio", "basis_search.compute_weights.positive",
     "basis_search.compute_weights"),
    ("basis_search.candidate_has_full_rank.accept_ratio",
     "basis_search.candidate_has_full_rank.accept", "basis_search.candidate_has_full_rank"),
    ("basis_search.split_linear_factors.split_ratio", "basis_search.split_linear_factors.split",
     "basis_search.split_linear_factors"),
)
PER_LAYER_COUNTS = (
    ("spline_fn.eval_many.points", "spline_fn.eval_many.points"),
    ("assembly.hermite_interpolate.triangles", "assembly.hermite_interpolate.triangles"),
)
CLI_SUBCOMMANDS = ("eval", "sample", "export-obj", "assemble", "nodal", "tables")
MODULES = ("basis_search", "linalg", "simplex_spline", "dual_functionals", "spline_fn",
           "geometry", "assembly", "serialize", "cli")


def per_layer_names() -> list:
    """(name, unit, better) of every per-layer metric, in output order."""
    out = []
    for metric, _, quantity in PER_LAYER_SPANS:
        out.append((metric, "count" if quantity == "calls" else "s",
                    "higher" if quantity == "calls" else "lower"))
    out += [(m, "ratio", "higher") for m, _, _ in PER_LAYER_RATIOS]
    out += [(m, "count", "higher") for m, _ in PER_LAYER_COUNTS]
    out += [("cli.import.s", "s", "lower")]
    out += [(f"cli.{sub}.p50_s", "s", "lower") for sub in CLI_SUBCOMMANDS]
    out += [("serialize.s", "s", "lower")]
    out += [(f"{mod}.self_s", "s", "lower") for mod in MODULES]
    out += [("tracing.overhead_s", "s", "lower")]
    return out


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------

def run_worker(workload: str, seed: int, tag: str, extra: list) -> dict:
    """Start one worker interpreter, wait for it, and read its result."""
    out = os.path.join(OUT_DIR, f"{workload}-{seed}-{tag}-{os.getpid()}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", out]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)] + extra, stdout=sys.stderr,
                          timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker ({tag}) exited {proc.returncode}")
    with open(out) as fh:
        result = json.load(fh)
    os.remove(out)
    return result


def end_to_end_runs(w: str, seed: int, seconds: float) -> dict:
    """The untraced measurement.  search and library start SETUP_RUNS fresh
    processes one after another; each sets up and then runs its share of
    one sequence of seeded operations for its share of the seconds, so the
    set-up is sampled SETUP_RUNS times and the operations are spread over
    the whole run.  cli repeats its own set-up inside one process."""
    if w == "cli":
        return run_worker(w, seed, "main", ["--seconds", repr(seconds),
                                            "--min-ops", str(MIN_OPS[w])])
    parts = [run_worker(w, seed, f"main{k}",
                        ["--seconds", repr(seconds / SETUP_RUNS), "--min-ops", str(MIN_OPS[w]),
                         "--op-start", str(k), "--op-stride", str(SETUP_RUNS)])
             for k in range(SETUP_RUNS)]
    merged = dict(parts[0])
    for key in ("latencies", "ref_latencies", "attempted", "failed", "ops"):
        merged[key] = sum((p[key] for p in parts[1:]), parts[0][key])
    merged["setup_samples"] = [p["setup_s"] for p in parts]
    merged["peak_rss_mb"] = max(p["peak_rss_mb"] for p in parts)
    if "rates" in merged:
        merged["rates"] = {k: sum((p["rates"][k] for p in parts), []) for k in merged["rates"]}
    return merged


def tail(values: list) -> tuple:
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, sample count), or None below eleven samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11
    return sorted(values)[k], 100.0 * (k + 1) / n, n


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

def layer_metrics(workload: str, traced: dict, spans_path: str) -> dict:
    from tracer import busy_and_self, outermost_with_prefix

    values = {name: 0.0 for name, _, _ in per_layer_names()}
    if workload == "cli":
        values.update(cli_layer_metrics(traced, spans_path + ".d"))
        return values
    with open(spans_path) as fh:
        data = json.load(fh)
    spans, counts = data["spans"], data["counts"]
    busy, self_t, calls = busy_and_self(spans)
    table = {"s": busy, "self_s": self_t, "calls": calls}
    for metric, span, quantity in PER_LAYER_SPANS:
        values[metric] = table[quantity].get(span, 0)
    for metric, counter, base in PER_LAYER_RATIOS:
        if calls.get(base):
            values[metric] = counts.get(counter, 0) / calls[base]
    for metric, counter in PER_LAYER_COUNTS:
        values[metric] = counts.get(counter, 0)
    for mod in MODULES:
        values[f"{mod}.self_s"] = sum(v for k, v in self_t.items() if k.startswith(mod + "."))
    values["serialize.s"] = outermost_with_prefix(spans, "serialize.")
    return values


def cli_layer_metrics(traced: dict, spans_dir: str) -> dict:
    """Per-invocation figures, as medians over the invocations that enter
    the layer (each invocation is a cold process)."""
    from tracer import busy_and_self, outermost_with_prefix

    per = {}
    for fname in sorted(os.listdir(spans_dir)):
        with open(os.path.join(spans_dir, fname)) as fh:
            spans = json.load(fh)["spans"]
        sub = fname.split("-", 1)[1].rsplit(".", 1)[0].split("_")[0]
        busy, self_t, _ = busy_and_self(spans)

        def add(key, v):
            per.setdefault(key, []).append(v)

        add("cli.import.s", busy["cli.import"])
        add("serialize.s", outermost_with_prefix(spans, "serialize."))
        if "spline_fn.scaled_basis_tables" in busy:
            add("spline_fn.scaled_basis_tables.s", busy["spline_fn.scaled_basis_tables"])
        if sub == "assemble":
            add("assembly.hermite_interpolate.s", busy["assembly.hermite_interpolate"])
        for mod in MODULES:
            own = sum(v for k, v in self_t.items() if k.startswith(mod + ".") and k != "cli.import")
            if own:
                add(f"{mod}.self_s", own)
    out = {k: median(v) for k, v in per.items()}
    for sub in CLI_SUBCOMMANDS:
        lat = [dt for name, dt in traced["samples"] if name.split(" ")[0] == sub]
        out[f"cli.{sub}.p50_s"] = median(lat)
    return out


# ---------------------------------------------------------------------------
# Run record and output
# ---------------------------------------------------------------------------

def run_record(args) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": version("numpy"),
            "sympy": version("sympy"), "platform": platform.platform(),
            "load": "closed loop, one process, one operation in flight"}


def derived_lines(workload: str, main: dict) -> dict:
    """The workload's own figures by name: value, unit and sample count."""
    lat = main["latencies"]
    out = {"error_rate": (main["failed"] / max(1, main["attempted"]), "ratio",
                          main["attempted"]),
           "op_p50_s": (median(lat), "s", len(lat))}
    if workload == "search":
        out["search_s"] = (median(lat), "s", len(lat))
    elif workload == "cli":
        calls = [dt for _, dt in main["samples"]]
        out["cli_p50_s"] = (median(calls), "s", len(calls))
        t = tail(calls)
        if t is not None:
            out[f"cli_tail_s@p{t[1]:.0f}"] = (t[0], "s", t[2])
    else:
        for k, v in main["rates"].items():
            out[k] = (median(v), "1/s", len(v))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "ps12splines", "__init__.py")):
        print("error: no ps12splines source under src/; run from a checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    w, seed = args.workload, args.seed
    loop = ["--seconds", repr(args.seconds), "--min-ops", str(MIN_OPS[w])]
    record = run_record(args)
    try:
        if args.trace == 0:
            main_res = end_to_end_runs(w, seed, args.seconds)
            setup = main_res["setup_samples"]
            metrics = {"setup_s": median(setup), "op_p50_ref_s": median(main_res["ref_latencies"]),
                       "peak_rss_mb": main_res["peak_rss_mb"]}
            units = dict(END_TO_END)
            ops = main_res
        else:
            plain = run_worker(w, seed, "plain", loop)
            spans = os.path.join(OUT_DIR, f"spans-{w}-{seed}-{os.getpid()}.json")
            traced = run_worker(w, seed, "traced", ["--ops", str(plain["ops"]), "--trace", spans])
            metrics = layer_metrics(w, traced, spans)
            metrics["tracing.overhead_s"] = traced["main_s"] - plain["main_s"]
            units = {name: unit for name, unit, _ in per_layer_names()}
            setup = [plain["setup_s"]] if w != "cli" else plain["setup_samples"]
            ops = {k: plain[k] + traced[k] for k in ("attempted", "failed")}
            main_res = plain
            record["spans"] = os.path.relpath(spans, ROOT)
        if not main_res["latencies"]:
            raise RuntimeError("no operation completed")
    except (RuntimeError, subprocess.TimeoutExpired, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record.update(main_res["record"])
    record["ops"] = main_res["ops"]
    record["setup_samples"] = len(setup)
    derived = derived_lines(w, main_res)
    for name, (value, unit, n) in derived.items():
        print(f"{w} {name} = {value:.6g} {unit} (n={n})")
    for name, value in metrics.items():
        print(f"{w} {name} = {value:.6g} {units[name]}")
    result = {"correct": ops["failed"] == 0, "attempted": ops["attempted"],
              "failed": ops["failed"],
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    with open(os.path.join(OUT_DIR, f"{w}-seed{seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"record": record, "derived": {k: list(v) for k, v in derived.items()},
                   "latencies": main_res["latencies"], **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
