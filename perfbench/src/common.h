// Shared plumbing for the benchmark's workloads: run options, the result
// every run prints, the static world a workload runs against, and small
// stats / filesystem / memory helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "skynet/alert/type_registry.h"
#include "skynet/core/engine_metrics.h"
#include "skynet/syslog/classifier.h"
#include "skynet/telemetry/customer.h"
#include "skynet/topology/generator.h"
#include "tracer.h"

namespace perfbench {

using bench_clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(bench_clock::time_point t0) {
    return std::chrono::duration<double>(bench_clock::now() - t0).count();
}

/// When the process started running C++ code; setup_s counts from here.
[[nodiscard]] bench_clock::time_point process_start();

struct run_options {
    std::string workload;
    std::uint64_t seed{1};
    /// Length of the measured section; whole rounds run until it passes.
    double seconds{20.0};
    bool trace{false};
    /// Scratch directory for checkpoint directories, sockets and the
    /// span file (relative to the working directory).
    std::string out_dir{".bench_build/run"};
};

/// What one run prints: correctness, operation counts and the metrics of
/// the selected mode (end-to-end untraced, per-layer traced).
class result {
public:
    struct metric {
        std::string name;
        double value{0.0};
        std::string unit;
    };

    bool correct{true};
    std::uint64_t attempted{0};
    std::uint64_t failed{0};
    /// The traced run's spans, written out at exit.
    tracer spans;

    void end_to_end(std::string name, double value, std::string unit);
    void per_layer(std::string name, double value, std::string unit);
    /// Records a failed correctness check (reported on stderr).
    void check(bool ok, const std::string& what);

    [[nodiscard]] const std::vector<metric>& end_to_end() const noexcept { return e2e_; }
    [[nodiscard]] const std::vector<metric>& per_layer() const noexcept { return layers_; }

private:
    std::vector<metric> e2e_;
    std::vector<metric> layers_;
};

/// Static inputs every workload builds once: topology, customers, the
/// alert type registry and the trained syslog classifier.
struct world {
    skynet::topology topo;
    skynet::customer_registry customers;
    skynet::alert_type_registry registry = skynet::alert_type_registry::with_builtin_catalog();
    skynet::syslog_classifier syslog = skynet::syslog_classifier::train_from_catalog();

    world(const skynet::generator_params& params, int n_customers);
};

/// Set-up phases, reported separately in the traced run.
struct setup_times {
    double topology_s{0.0};
    double simulate_s{0.0};
    double synthesize_s{0.0};
};

/// Linear-interpolated percentile, p in [0, 100]; 0 for an empty set.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] inline double median(std::vector<double> values) {
    return percentile(std::move(values), 50.0);
}

/// A stage's total busy time in ms, divided by `passes`.
[[nodiscard]] inline double busy_ms(const skynet::stage_metrics& stage, double passes) {
    return static_cast<double>(stage.latency.total_ns()) / 1e6 / passes;
}

/// Preprocessor events (new + update) handed to the locator per alert in.
[[nodiscard]] inline double out_per_in(const skynet::engine_metrics& m) {
    if (m.alerts_in == 0) return 0.0;
    return static_cast<double>(m.locate.items) / static_cast<double>(m.alerts_in);
}

/// Peak resident set size of this process (VmHWM), in MB.
[[nodiscard]] double peak_rss_mb();

/// Hands memory freed by the last pass back to the OS (malloc_trim), so
/// that peak_rss_mb reflects the largest pass, not heap left over from
/// earlier ones. Called between passes, outside every timed section.
void release_freed_memory();

/// Total size of the regular files under `dir`, in bytes.
[[nodiscard]] std::uint64_t dir_bytes(const std::string& dir);

/// A fresh, empty directory under opts.out_dir named after `tag` and
/// this process; any leftover of the same name is removed first.
[[nodiscard]] std::string fresh_dir(const run_options& opts, std::string_view tag);
void remove_dir(const std::string& dir);

}  // namespace perfbench
