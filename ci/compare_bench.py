#!/usr/bin/env python3
"""Gates the query-bench output and the other bench documents.

Reads BENCH_queries.json written by bench_fig4_query_times (run with
--threads=N, N > 1), prints a summary, and exits non-zero when:

  * the N-thread batch results are not bit-identical to the 1-thread
    ones, or the document lacks that comparison (a run without a
    second thread count proves nothing), or
  * the engine's semantic kernel is not "flat-lin" — the Lin measure
    of the bench silently fell back to virtual semantics.

With --metrics SNAPSHOT.json it additionally validates the metrics
snapshot written by --metrics-out (DESIGN.md §8): the JSON document has
the expected structure, the required instrumentation series exist, every
histogram is coherent (ascending bounds, count == sum of buckets), and
the Prometheus sibling (.prom) agrees with the JSON on every value.

With --coldstart BENCH_coldstart.json it instead validates the
cold-start document written by bench_preprocessing (DESIGN.md §10):
the mapped and heap-loaded replicas must be bit-identical, every
parallel-build fingerprint must match the serial build, the mapped
open path must hold zero heap bytes, and opening via Map must be at
least --min-map-speedup times faster than Load (default 5.0).
--coldstart runs standalone: the query-bench files are not required.

With --walkbuild BENCH_walkbuild.json it instead validates the
weighted walk-build document written by bench_preprocessing
--build-only (DESIGN.md §11): the alias-sampled build must be
bit-identical across thread counts and at least --min-walkbuild-speedup
times faster than the legacy scan sampler (default 3.0) on the dense
weighted graph. --walkbuild also runs standalone.

With --service BENCH_service.json it instead validates the serving
document written by bench_service (DESIGN.md §12): undegraded service
responses must be bit-identical to direct engine calls, the nominal
closed-loop phase must admit everything, the overload burst must keep
admitted-request p99 within --max-service-p99-ratio of nominal (or
within the per-request deadline — a successful response always
finishes inside its deadline), and the overload must be visibly shed
through rejections, degradations, or deadline failures rather than
silently queued. --service also runs standalone.

Usage: ci/compare_bench.py [--dir DIR]
                           [--metrics SNAPSHOT.json]
                           [--coldstart BENCH_coldstart.json]
                           [--min-map-speedup X]
                           [--walkbuild BENCH_walkbuild.json]
                           [--min-walkbuild-speedup X]
                           [--service BENCH_service.json]
                           [--max-service-p99-ratio X]
"""

import argparse
import json
import os
import sys


def load_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


# The bench serves the Lin measure, which the estimator must run through
# its devirtualized kernel.
EXPECTED_KERNEL = "flat-lin"


def check_queries(doc):
    failures = []
    identical = doc.get("results_identical_across_thread_counts")
    if identical is None:
        failures.append("no cross-thread comparison in the document; run "
                        "bench_fig4_query_times with --threads=N, N > 1")
    elif identical != 1:
        failures.append("N-thread batch results differ from the 1-thread "
                        "ones")
    kernel = doc.get("engine_kernel_name")
    if kernel != EXPECTED_KERNEL:
        failures.append(f"engine semantic kernel is {kernel!r}, expected "
                        f"{EXPECTED_KERNEL!r}")
    return failures


# Series every instrumented bench run must have registered: the trace
# spans around engine construction and the batch entry point, the
# query-stage counters, the walk-index build, and the pool/caches.
REQUIRED_COUNTERS = [
    "semsim_batch_engine_create_total",
    "semsim_batch_query_batch_total",
    "semsim_batch_query_items_total",
    "semsim_query_published_total",
    "semsim_query_met_walks_total",
    "semsim_walk_index_build_total",
    "semsim_graph_transition_table_build_total",
    "semsim_pool_parallel_for_total",
    "semsim_pool_chunks_total",
    "semsim_cache_normalizer_hits_total",
    "semsim_cache_normalizer_misses_total",
]
REQUIRED_HISTOGRAMS = [
    "semsim_batch_engine_create_seconds",
    "semsim_batch_query_batch_seconds",
    "semsim_walk_index_build_seconds",
    "semsim_pool_chunk_seconds",
]
REQUIRED_GAUGES = [
    "semsim_pool_queue_depth",
    "semsim_pool_active_jobs",
]


def parse_prometheus(path):
    """Parses a Prometheus text exposition into {series: value}."""
    values = {}
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            series, value = line.rsplit(" ", 1)
            if series in values:
                raise ValueError(f"duplicate series {series!r} in {path}")
            values[series] = float(value)
    return values


def check_metrics(json_path):
    """Validates a --metrics-out snapshot; returns a list of failures."""
    failures = []
    doc = load_json(json_path)
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(doc.get(section), dict):
            failures.append(f"metrics JSON lacks a {section!r} object")
            return failures

    for name in REQUIRED_COUNTERS:
        if name not in doc["counters"]:
            failures.append(f"missing counter {name!r}")
    for name in REQUIRED_GAUGES:
        if name not in doc["gauges"]:
            failures.append(f"missing gauge {name!r}")
    for name in REQUIRED_HISTOGRAMS:
        if name not in doc["histograms"]:
            failures.append(f"missing histogram {name!r}")

    # The bench ran real queries, so the spans must have fired.
    for name in ("semsim_batch_query_batch_total",
                 "semsim_query_published_total"):
        if doc["counters"].get(name, 0) == 0:
            failures.append(f"counter {name!r} is zero after a bench run")

    for name, h in doc["histograms"].items():
        bounds, counts = h["bounds"], h["counts"]
        if len(counts) != len(bounds) + 1:
            failures.append(f"{name}: expected {len(bounds) + 1} buckets "
                            f"(incl. overflow), got {len(counts)}")
            continue
        if any(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:])):
            failures.append(f"{name}: bounds are not strictly ascending")
        if h["count"] != sum(counts):
            failures.append(f"{name}: count {h['count']} != bucket sum "
                            f"{sum(counts)}")

    # Cross-check the Prometheus sibling: every JSON value must reappear.
    prom_path = (json_path[:-len(".json")] if json_path.endswith(".json")
                 else json_path) + ".prom"
    if not os.path.exists(prom_path):
        failures.append(f"missing Prometheus sibling {prom_path!r}")
        return failures
    prom = parse_prometheus(prom_path)
    for name, value in doc["counters"].items():
        if prom.get(name) != float(value):
            failures.append(f"{name}: JSON {value} != Prometheus "
                            f"{prom.get(name)}")
    for name, value in doc["gauges"].items():
        if prom.get(name) != float(value):
            failures.append(f"{name}: JSON {value} != Prometheus "
                            f"{prom.get(name)}")
    for name, h in doc["histograms"].items():
        # Key the .prom buckets by their parsed le value: both exporters
        # print round-trip precision, so float equality is exact, while
        # the C and Python "%.17g" spellings may differ.
        prefix = f"{name}_bucket{{le=\""
        prom_buckets = {}
        for series, value in prom.items():
            if series.startswith(prefix) and series.endswith("\"}"):
                le = series[len(prefix):-2]
                prom_buckets[float("inf") if le == "+Inf" else float(le)] = \
                    value
        cumulative = 0
        for bound, count in zip(h["bounds"], h["counts"]):
            cumulative += count
            if prom_buckets.get(bound) != float(cumulative):
                failures.append(f"{name}_bucket le={bound}: JSON cumulative "
                                f"{cumulative} != Prometheus "
                                f"{prom_buckets.get(bound)}")
        if prom_buckets.get(float("inf")) != float(h["count"]):
            failures.append(f"{name}_bucket le=+Inf: JSON {h['count']} != "
                            f"Prometheus {prom_buckets.get(float('inf'))}")
        if prom.get(f"{name}_count") != float(h["count"]):
            failures.append(f"{name}_count disagrees with JSON")
        if prom.get(f"{name}_sum") != h["sum"]:
            failures.append(f"{name}_sum disagrees with JSON")
    return failures


def check_coldstart(json_path, min_map_speedup):
    """Validates a BENCH_coldstart.json; returns a list of failures."""
    failures = []
    doc = load_json(json_path)
    for key in ("map_speedup", "bit_identical",
                "single_source_fingerprints_match", "mapped_owned_bytes",
                "mapped_mapped_bytes", "load_ms", "map_ms", "records"):
        if key not in doc:
            failures.append(f"coldstart JSON lacks {key!r}")
    if failures:
        return failures, doc

    if not doc["bit_identical"]:
        failures.append("mapped replica is not bit-identical to the "
                        "heap-loaded replica")
    if not doc["single_source_fingerprints_match"]:
        failures.append("single-source sweeps over Load and Map disagree")
    # The zero-copy claim: a mapped open must not hold a heap copy of the
    # artifact, and the mapping must cover the whole file.
    if doc["mapped_owned_bytes"] != 0:
        failures.append(f"Map holds {doc['mapped_owned_bytes']} heap bytes "
                        "(expected 0 for the zero-copy path)")
    if doc["mapped_mapped_bytes"] < doc["artifact_bytes"]:
        failures.append("mapping smaller than the artifact")
    if doc["map_speedup"] < min_map_speedup:
        failures.append(f"map open speedup {doc['map_speedup']:.1f}x is "
                        f"below the required {min_map_speedup:.1f}x")
    for record in doc["records"]:
        if not record.get("fingerprint_matches", 0):
            failures.append(f"parallel build with {record.get('threads')} "
                            "thread(s) does not reproduce the serial index")
    return failures, doc


def check_walkbuild(json_path, min_speedup):
    """Validates a BENCH_walkbuild.json; returns a list of failures."""
    failures = []
    doc = load_json(json_path)
    for key in ("scan_walks_per_sec", "alias_walks_per_sec", "alias_speedup",
                "alias_threads_bit_identical", "sampler_table_bytes"):
        if key not in doc:
            failures.append(f"walkbuild JSON lacks {key!r}")
    if failures:
        return failures, doc

    if not doc["alias_threads_bit_identical"]:
        failures.append("alias-sampled walk build is not bit-identical "
                        "across thread counts")
    if doc["alias_speedup"] < min_speedup:
        failures.append(f"alias walk-build speedup {doc['alias_speedup']:.1f}x "
                        f"is below the required {min_speedup:.1f}x")
    if doc["sampler_table_bytes"] <= 0:
        failures.append("sampler index reports zero table bytes on the "
                        "dense weighted graph")
    return failures, doc


def check_service(json_path, max_p99_ratio):
    """Validates a BENCH_service.json; returns a list of failures."""
    failures = []
    doc = load_json(json_path)
    for key in ("determinism_ok", "nominal_rejected", "nominal_p99_ms",
                "burst_p99_ms", "p99_ratio", "deadline_ms", "burst_ok",
                "burst_rejected", "burst_degraded",
                "burst_deadline_exceeded", "reload_requests",
                "reload_failed", "reload_swaps", "reload_swap_failed",
                "reload_versions_ok", "reload_p99_ms"):
        if key not in doc:
            failures.append(f"service JSON lacks {key!r}")
    if failures:
        return failures, doc

    if not doc["determinism_ok"]:
        failures.append("undegraded service responses are not bit-identical "
                        "to direct engine calls")
    if doc["nominal_rejected"] != 0:
        failures.append(f"{doc['nominal_rejected']} rejection(s) at nominal "
                        "closed-loop load (expected 0)")
    if doc["burst_ok"] <= 0:
        failures.append("no request succeeded during the overload burst")
    # Admitted-request latency must stay bounded under 2x-capacity
    # overload: within the ratio bar, or within the per-request deadline
    # (a successful response always completes inside its deadline, so
    # the deadline is the honest bound when nominal p99 is tiny).
    bound = max(max_p99_ratio * doc["nominal_p99_ms"], doc["deadline_ms"])
    if doc["burst_p99_ms"] > bound:
        failures.append(f"burst admitted p99 {doc['burst_p99_ms']:.3f} ms "
                        f"exceeds the bound {bound:.3f} ms "
                        f"(ratio {doc['p99_ratio']:.2f}x, limit "
                        f"{max_p99_ratio:.2f}x)")
    shed = (doc["burst_rejected"] + doc["burst_degraded"] +
            doc["burst_deadline_exceeded"])
    if shed == 0:
        failures.append("overload burst shed no load (no rejections, "
                        "degradations, or deadline failures) — the queue "
                        "must have absorbed 2x capacity silently")
    # Hot reload under load: at least one background swap must have
    # published during closed-loop traffic, with zero failed queries or
    # publishes, and every response tagged with a published snapshot
    # version. The latency bound is deliberately lenient — snapshot
    # builds run concurrently with traffic on a shared small machine —
    # but a reload must never stall the serving path outright.
    if doc["reload_swaps"] < 1:
        failures.append("no snapshot swap published during the reload phase")
    if doc["reload_swap_failed"] != 0:
        failures.append(f"{doc['reload_swap_failed']} snapshot build/publish "
                        "failure(s) during the reload phase")
    if doc["reload_failed"] != 0:
        failures.append(f"{doc['reload_failed']} failed query(ies) during "
                        "the reload phase (expected 0: a hot swap must not "
                        "drop or fail traffic)")
    if not doc["reload_versions_ok"]:
        failures.append("a response reported a snapshot version that was "
                        "never published (torn or mixed-version read)")
    reload_bound = max(4.0 * max_p99_ratio * doc["nominal_p99_ms"], 10.0)
    if doc["reload_p99_ms"] > reload_bound:
        failures.append(f"reload p99 {doc['reload_p99_ms']:.3f} ms exceeds "
                        f"the lenient bound {reload_bound:.3f} ms — the "
                        "swap stalled the serving path")
    return failures, doc


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dir", default=".",
                    help="directory holding the BENCH_*.json files")
    ap.add_argument("--metrics", default=None,
                    help="also validate this --metrics-out JSON snapshot "
                         "(and its .prom sibling)")
    ap.add_argument("--coldstart", default=None,
                    help="validate this BENCH_coldstart.json instead of "
                         "the query-bench files")
    ap.add_argument("--min-map-speedup", type=float, default=5.0,
                    help="required Load-vs-Map open-latency ratio for "
                         "--coldstart")
    ap.add_argument("--walkbuild", default=None,
                    help="validate this BENCH_walkbuild.json instead of "
                         "the query-bench files")
    ap.add_argument("--min-walkbuild-speedup", type=float, default=3.0,
                    help="required alias-vs-scan walk-build throughput "
                         "ratio for --walkbuild")
    ap.add_argument("--service", default=None,
                    help="validate this BENCH_service.json instead of "
                         "the query-bench files")
    ap.add_argument("--max-service-p99-ratio", type=float, default=1.5,
                    help="allowed burst/nominal admitted-request p99 ratio "
                         "for --service")
    args = ap.parse_args()

    if args.service is not None:
        failures, doc = check_service(args.service,
                                      args.max_service_p99_ratio)
        print(f"service ({args.service})")
        if "nominal_p99_ms" in doc and "burst_p99_ms" in doc:
            print(f"  admitted-request p99: nominal "
                  f"{doc['nominal_p99_ms']:.3f} ms, burst "
                  f"{doc['burst_p99_ms']:.3f} ms  ->  "
                  f"{doc.get('p99_ratio', 0):.2f}x "
                  f"(deadline {doc.get('deadline_ms', 0):.2f} ms)")
            print(f"  burst outcome: ok {doc.get('burst_ok', 0)} "
                  f"(degraded {doc.get('burst_degraded', 0)}), rejected "
                  f"{doc.get('burst_rejected', 0)}, deadline-exceeded "
                  f"{doc.get('burst_deadline_exceeded', 0)}")
            print(f"  reload: {doc.get('reload_swaps', 0)} swap(s) over "
                  f"{doc.get('reload_requests', 0)} request(s), "
                  f"{doc.get('reload_versions_served', 0)} version(s) "
                  f"served, failed {doc.get('reload_failed', 0)}, "
                  f"p99 {doc.get('reload_p99_ms', 0):.3f} ms, publish "
                  f"mean {doc.get('swap_publish_mean_ms', 0):.3f} ms")
        for failure in failures:
            print(f"FAIL: service: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("OK: service is deterministic when undegraded, admits all "
              "nominal traffic, bounds p99 under overload by shedding "
              "load, and hot-swaps snapshots without failing a query")
        return 0

    if args.walkbuild is not None:
        failures, doc = check_walkbuild(args.walkbuild,
                                        args.min_walkbuild_speedup)
        print(f"walkbuild ({args.walkbuild})")
        if "scan_walks_per_sec" in doc and "alias_walks_per_sec" in doc:
            print(f"  weighted build throughput: scan "
                  f"{doc['scan_walks_per_sec']:.0f} walks/s, alias "
                  f"{doc['alias_walks_per_sec']:.0f} walks/s  ->  "
                  f"{doc.get('alias_speedup', 0):.1f}x")
            print(f"  sampler tables: {doc.get('sampler_table_bytes', 0)} "
                  f"bytes, {doc.get('sampler_uniform_nodes', 0)} uniform "
                  f"node(s)")
        for failure in failures:
            print(f"FAIL: walkbuild: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("OK: alias sampler meets the walk-build speedup bar and is "
              "thread-count deterministic")
        return 0

    if args.coldstart is not None:
        failures, doc = check_coldstart(args.coldstart, args.min_map_speedup)
        print(f"coldstart ({args.coldstart})")
        if "load_ms" in doc and "map_ms" in doc:
            print(f"  open latency: Load {doc['load_ms']:.3f} ms, "
                  f"Map {doc['map_ms']:.3f} ms  ->  "
                  f"{doc.get('map_speedup', 0):.1f}x")
            print(f"  memory: mapped {doc.get('mapped_mapped_bytes', 0)} "
                  f"bytes, owned {doc.get('mapped_owned_bytes', 0)} bytes")
        for failure in failures:
            print(f"FAIL: coldstart: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("OK: mapped serving is bit-identical and meets the open-"
              "latency bar")
        return 0

    path = os.path.join(args.dir, "BENCH_queries.json")
    if not os.path.exists(path):
        print(f"error: no bench output found in {args.dir!r}; run "
              "bench_fig4_query_times --threads=2 first", file=sys.stderr)
        return 2
    doc = load_json(path)

    print(f"query bench ({path})")
    print(f"  semantic kernel: {doc.get('engine_kernel_name')}")
    print(f"  1-thread qps: cold "
          f"{doc.get('cold_queries_per_sec_1thread', 0):.0f}, warm "
          f"{doc.get('warm_queries_per_sec_1thread', 0):.0f}")
    print(f"  threads: requested {doc.get('requested_threads')}, resolved "
          f"{doc.get('resolved_threads')}")

    failed = False
    for failure in check_queries(doc):
        print(f"FAIL: queries: {failure}", file=sys.stderr)
        failed = True

    if args.metrics is not None:
        metric_failures = check_metrics(args.metrics)
        doc = load_json(args.metrics)
        print(f"metrics snapshot ({args.metrics}): "
              f"{len(doc['counters'])} counters, {len(doc['gauges'])} gauges, "
              f"{len(doc['histograms'])} histograms")
        for failure in metric_failures:
            print(f"FAIL: metrics: {failure}", file=sys.stderr)
            failed = True
        if not metric_failures:
            print("  required series present, histograms coherent, "
                  "JSON == Prometheus")

    if failed:
        return 1
    print("OK: batch results are thread-count invariant and the flat Lin "
          "kernel served them")
    return 0


if __name__ == "__main__":
    sys.exit(main())
