// The seeded, staggered alert storm shared by storm-durable and
// serve-mixed, and the sequential replay stack both workloads drive.
//
// Input: on the medium topology, 31 severe failures in the Figure 1
// root-cause mix start 90 s apart, plus one flapping link across the
// whole span, all under the twelve default monitors with background
// noise. Classes, order, victims and durations (3-5 min) are fixed; the
// seed drives each failure's start jitter (0-30 s), the monitors' noise
// and the delivery delays. The simulator's
// deliveries are recorded once and replayed with the batch CLI's
// cadence: alerts accumulate until an arrival lands 2 s or more past the
// last barrier, a tick follows at that arrival, and a finish barrier
// lands 20 minutes after the last arrival.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "skynet/core/pipeline.h"
#include "skynet/lifecycle/manager.h"
#include "skynet/overload/controller.h"
#include "skynet/sim/network_state.h"
#include "skynet/sim/scenario.h"
#include "skynet/sim/trace.h"

namespace perfbench {

/// One replay window: the alerts handed over together, then a barrier.
struct window {
    std::size_t begin{0};
    std::size_t end{0};
    skynet::sim_time barrier{0};
    /// The last window ends in finish() instead of tick().
    bool finish{false};
};

struct storm_trace {
    std::vector<skynet::traced_alert> alerts;
    std::vector<window> windows;
    /// Ground truth of every injected scenario.
    std::vector<skynet::scenario_record> truth;
    /// Per-window admission budget: the 98th percentile of the window
    /// sizes, so the guard sheds at the storm's peaks and nowhere else.
    std::uint64_t admission_budget{0};

    [[nodiscard]] std::span<const skynet::traced_alert> alerts_of(const window& w) const {
        return std::span<const skynet::traced_alert>(alerts).subspan(w.begin, w.end - w.begin);
    }
};

/// Simulates the storm for `seed` (simulate_s) and cuts it into replay
/// windows (synthesize_s).
[[nodiscard]] storm_trace make_storm(const world& w, std::uint64_t seed, setup_times& times);

/// The sequential engine with each public entry point the durable
/// session calls wrapped in a span. durable_session<traced_engine>
/// resolves ingest_batch/tick/finish here by name; snapshots and
/// recovery see the skynet_engine base.
class traced_engine : public skynet::skynet_engine {
public:
    traced_engine(const world& w, tracer& tr)
        : skynet_engine(deps{&w.topo, &w.customers, &w.registry, &w.syslog}), tr_(&tr) {}

    void ingest_batch(std::span<const skynet::traced_alert> batch) {
        const auto s = tr_->span("core.ingest");
        skynet_engine::ingest_batch(batch);
    }
    void tick(skynet::sim_time now, const skynet::network_state& state) {
        const auto s = tr_->span("core.tick");
        skynet_engine::tick(now, state);
    }
    void finish(skynet::sim_time now, const skynet::network_state& state) {
        const auto s = tr_->span("core.tick");
        skynet_engine::finish(now, state);
    }

private:
    tracer* tr_;
};

/// One pass of the storm through a bare sequential engine: no admission,
/// life-cycle, journal, sockets or shards. Returns alerts per second.
[[nodiscard]] double bare_replay(const world& w, const storm_trace& storm);

/// The in-process reference for the daemon: admission guard, sequential
/// engine and life-cycle manager, every barrier's closed reports kept.
/// Returns the ranked JSON report listing (GET /v1/report?json=1).
[[nodiscard]] std::string reference_report_listing(const world& w, const storm_trace& storm);

/// Median over must-detect failures of the simulated time from
/// injection to the first barrier at which an open or closed incident
/// matches it; `undetected` counts failures no incident ever matched.
struct detection {
    double median_delay_s{0.0};
    std::size_t failures{0};
    std::size_t undetected{0};
};

/// Tracks detection of the storm's ground truth barrier by barrier.
class detection_tracker {
public:
    explicit detection_tracker(const std::vector<skynet::scenario_record>& truth);
    /// Feeds one barrier's closed and open reports.
    void observe(skynet::sim_time now, std::span<const skynet::incident_report> closed,
                 std::span<const skynet::incident_report> open);
    [[nodiscard]] detection result() const;

private:
    const std::vector<skynet::scenario_record>* truth_;
    std::vector<std::int64_t> detected_at_;  // -1 = not yet
};

}  // namespace perfbench
