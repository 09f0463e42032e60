// perfbench — the repository's end-to-end benchmark.
//
//   perfbench --workload storm-durable|flood-sharded|serve-mixed
//             --seed N --seconds S --trace 0|1
//
// Builds the workload's inputs from the seed, runs it, checks the
// program's outputs and prints, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end set, with --trace 1 the per-layer set;
// every workload prints every metric of its set (a layer a workload does
// not exercise reads 0). The traced run also writes its spans to
// .bench_build/run/trace-<workload>-<seed>.jsonl and prints a self-time
// summary on stderr. Human-readable progress goes to stderr.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>

#include "common.h"
#include "workloads.h"

namespace {

using perfbench::result;

struct metric_def {
    const char* name;
    const char* unit;
};

constexpr metric_def kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"alerts_per_s", "alerts/s"},
    {"seq_alerts_per_s", "alerts/s"},
    {"barrier_p50_ms", "ms"},
    {"barrier_p99_ms", "ms"},
};

constexpr metric_def kPerLayer[] = {
    {"setup.topology_s", "s"},
    {"setup.simulate_s", "s"},
    {"setup.synthesize_s", "s"},
    {"overload.admit_ms", "ms"},
    {"overload.shed_alerts", "alerts"},
    {"core.ingest_ms", "ms"},
    {"core.tick_ms", "ms"},
    {"core.open_reports_ms", "ms"},
    {"core.preprocessor.busy_ms", "ms"},
    {"core.locator.busy_ms", "ms"},
    {"core.evaluator.busy_ms", "ms"},
    {"core.preprocessor.out_per_in", "ratio"},
    {"core.preprocessor.peak_live_entries", "count"},
    {"core.detect_delay_s", "sim_s"},
    {"lifecycle.on_barrier_ms", "ms"},
    {"persist.journal.append_ms", "ms"},
    {"persist.journal.bytes", "bytes"},
    {"persist.journal.flushes", "count"},
    {"persist.snapshot.write_ms", "ms"},
    {"persist.snapshot.count", "count"},
    {"persist.snapshot.bytes", "bytes"},
    {"persist.durable_mb", "MB"},
    {"persist.recovery.recover_s", "s"},
    {"persist.recovery.journal_scan_ms", "ms"},
    {"persist.recovery.snapshot_load_ms", "ms"},
    {"persist.recovery.records_replayed", "count"},
    {"core.sharded_engine.ingest_ms", "ms"},
    {"core.sharded_engine.barrier_ms", "ms"},
    {"core.sharded_engine.queue_full_waits", "count"},
    {"core.sharded_engine.shard_busy_skew", "ratio"},
    {"core.sharded_engine.batches_stolen", "count"},
    {"core.sharded_engine.owner_waits", "count"},
    {"core.sharded_engine.worker_parks", "count"},
    {"sketch.sketched_decisions", "count"},
    {"topology.intern_contention", "count"},
    {"core.seq.preprocessor.busy_ms", "ms"},
    {"core.seq.locator.busy_ms", "ms"},
    {"serve.wire.stream_ms", "ms"},
    {"serve.query_p50_us", "us"},
    {"serve.query_p99_us", "us"},
    {"serve.http.health_us", "us"},
    {"serve.http.incidents_us", "us"},
    {"serve.http.report_us", "us"},
    {"serve.render.health_us", "us"},
    {"serve.render.incidents_us", "us"},
    {"serve.render.report_us", "us"},
    {"serve.incident_store.incidents", "count"},
};

int usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload storm-durable|flood-sharded|serve-mixed "
                 "--seed N --seconds S --trace 0|1\n",
                 why);
    return 2;
}

/// Renders the metric set `defs` from `got`, in the order of `defs`.
/// False when a workload reported a name or unit outside the set, or a
/// value that is not finite.
template <std::size_t N>
bool render_metrics(const metric_def (&defs)[N], const std::vector<result::metric>& got,
                    std::string& out) {
    for (const result::metric& m : got) {
        bool known = false;
        for (const metric_def& d : defs) known = known || (m.name == d.name && m.unit == d.unit);
        if (!known || !std::isfinite(m.value)) {
            std::fprintf(stderr, "perfbench: bad metric %s = %g %s\n", m.name.c_str(), m.value,
                         m.unit.c_str());
            return false;
        }
    }
    char buf[256];
    for (std::size_t i = 0; i < N; ++i) {
        double value = 0.0;  // a layer this workload does not exercise
        for (const result::metric& m : got) {
            if (m.name == defs[i].name) value = m.value;
        }
        std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", defs[i].name, value, defs[i].unit);
        out += buf;
    }
    return true;
}

void print_span_summary(const perfbench::tracer& tr) {
    std::fprintf(stderr, "%-36s %10s %14s %14s\n", "span", "count", "total_ms", "self_ms");
    for (const auto& [name, s] : tr.summarize()) {
        std::fprintf(stderr, "%-36s %10llu %14.3f %14.3f\n", name.c_str(),
                     static_cast<unsigned long long>(s.count), s.total_ms, s.self_ms);
    }
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::run_options opts;
    bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view flag = argv[i];
        if (i + 1 >= argc) return usage("missing value");
        const char* value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            opts.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            opts.seed = std::strtoull(value, &end, 10);
            if (*value == '\0' || *end != '\0') return usage("--seed: expected an integer");
            have_seed = true;
        } else if (flag == "--seconds") {
            opts.seconds = std::strtod(value, &end);
            if (*value == '\0' || *end != '\0' || !(opts.seconds > 0.0)) {
                return usage("--seconds: expected a positive number");
            }
            have_seconds = true;
        } else if (flag == "--trace") {
            if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
                return usage("--trace: expected 0 or 1");
            }
            opts.trace = value[0] == '1';
            have_trace = true;
        } else {
            return usage("unknown flag");
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace) {
        return usage("--workload, --seed, --seconds and --trace are all required");
    }

    result res;
    try {
        std::filesystem::create_directories(opts.out_dir);
        if (opts.workload == "storm-durable") {
            perfbench::run_storm_durable(opts, res);
        } else if (opts.workload == "flood-sharded") {
            perfbench::run_flood_sharded(opts, res);
        } else if (opts.workload == "serve-mixed") {
            perfbench::run_serve_mixed(opts, res);
        } else {
            return usage("unknown workload");
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    res.end_to_end("peak_rss_mb", perfbench::peak_rss_mb(), "MB");

    std::string metrics;
    const bool ok = opts.trace ? render_metrics(kPerLayer, res.per_layer(), metrics)
                               : render_metrics(kEndToEnd, res.end_to_end(), metrics);
    if (!ok) return 1;
    if (opts.trace) {
        // The end-to-end figures of this traced run; compared with an
        // untraced run of the same seed they give the tracing overhead.
        for (const result::metric& m : res.end_to_end()) {
            std::fprintf(stderr, "traced %s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
        }
        print_span_summary(res.spans);
        const std::string path = opts.out_dir + "/trace-" + opts.workload + "-" +
                                 std::to_string(opts.seed) + ".jsonl";
        if (!res.spans.write_jsonl(path)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
            return 1;
        }
        std::fprintf(stderr, "wrote %zu spans to %s\n", res.spans.records().size(), path.c_str());
    }
    std::fflush(stderr);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
                res.correct ? "true" : "false", static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed), metrics.c_str());
    return 0;
}
