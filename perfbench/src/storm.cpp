#include "storm.h"

#include <algorithm>
#include <utility>

#include "skynet/core/accuracy.h"
#include "skynet/serve/report_text.h"
#include "skynet/sim/engine.h"

namespace perfbench {

using namespace skynet;

namespace {

/// Figure 1 root-cause mix as fixed class counts (31 failures), so every
/// seed injects the same classes and only victims and timing vary.
constexpr std::pair<root_cause, int> kFailureMix[] = {
    {root_cause::device_hardware, 12}, {root_cause::link_error, 5},
    {root_cause::modification_error, 5}, {root_cause::device_software, 3},
    {root_cause::infrastructure, 3},   {root_cause::route_error, 1},
    {root_cause::security, 1},         {root_cause::configuration, 1},
};
constexpr sim_duration kStagger = seconds(90);
constexpr sim_duration kTick = seconds(2);
constexpr sim_duration kFinishGrace = minutes(20);
constexpr std::uint64_t kScheduleSeed = 20250901;

}  // namespace

storm_trace make_storm(const world& w, std::uint64_t seed, setup_times& times) {
    const auto t_sim = bench_clock::now();
    storm_trace storm;
    simulation_engine sim(&w.topo, &w.customers, engine_params{.tick = kTick, .seed = seed});
    sim.add_default_monitors(monitor_options{.noise_rate = 0.02});

    // The failure schedule (classes, order, victims, durations) is part of
    // the workload's definition and the same for every seed; the seed
    // drives start jitter, monitor noise and delivery delays. Storms
    // with different victims differ several-fold in engine cost (one
    // wide-blast failure can double the open incident), which would
    // swamp every run-to-run comparison.
    rng rand(kScheduleSeed);
    rng jitter(seed * 7919 + 17);
    std::vector<root_cause> causes;
    for (const auto& [cause, count] : kFailureMix) causes.insert(causes.end(), count, cause);
    for (std::size_t i = causes.size(); i > 1; --i) {
        std::swap(causes[i - 1], causes[rand.index(i)]);
    }
    sim_time last_end = 0;
    for (std::size_t i = 0; i < causes.size(); ++i) {
        const sim_time start = minutes(1) + kStagger * static_cast<sim_time>(i) +
                               seconds(jitter.uniform_int(0, 30));
        const sim_duration duration = seconds(rand.uniform_int(180, 300));
        sim.inject(make_scenario(causes[i], w.topo, rand, true), start, duration);
        last_end = std::max(last_end, start + duration);
    }
    sim.inject(make_flapping_link(w.topo, rand, true), minutes(2), last_end - minutes(3));
    sim.run_until_batched(last_end + minutes(2), [&](std::span<const traced_alert> batch) {
        storm.alerts.insert(storm.alerts.end(), batch.begin(), batch.end());
    });
    storm.truth = sim.ground_truth();
    times.simulate_s = seconds_since(t_sim);

    // The batch CLI's replay cadence (examples/skynet_cli.cpp --replay).
    const auto t_synth = bench_clock::now();
    sim_time last_tick = 0;
    std::size_t begin = 0;
    std::vector<double> sizes;
    for (std::size_t i = 0; i < storm.alerts.size(); ++i) {
        const sim_time arrival = storm.alerts[i].arrival;
        if (arrival - last_tick >= kTick) {
            storm.windows.push_back(window{.begin = begin, .end = i + 1, .barrier = arrival});
            sizes.push_back(static_cast<double>(i + 1 - begin));
            begin = i + 1;
            last_tick = arrival;
        }
    }
    const sim_time last_arrival = storm.alerts.empty() ? 0 : storm.alerts.back().arrival;
    storm.windows.push_back(window{.begin = begin,
                                   .end = storm.alerts.size(),
                                   .barrier = last_arrival + kFinishGrace,
                                   .finish = true});
    storm.admission_budget = static_cast<std::uint64_t>(percentile(sizes, 98.0));
    times.synthesize_s = seconds_since(t_synth);
    return storm;
}

double bare_replay(const world& w, const storm_trace& storm) {
    skynet_engine engine({&w.topo, &w.customers, &w.registry, &w.syslog}, skynet_config{});
    const network_state idle(&w.topo, &w.customers);
    const auto t0 = bench_clock::now();
    for (const window& win : storm.windows) {
        engine.ingest_batch(storm.alerts_of(win));
        if (win.finish) {
            engine.finish(win.barrier, idle);
        } else {
            engine.tick(win.barrier, idle);
        }
    }
    const double secs = seconds_since(t0);
    (void)engine.take_reports();
    return static_cast<double>(storm.alerts.size()) / secs;
}

std::string reference_report_listing(const world& w, const storm_trace& storm) {
    skynet_engine engine({&w.topo, &w.customers, &w.registry, &w.syslog}, skynet_config{});
    overload::controller_config ccfg;
    ccfg.admission.max_alerts = storm.admission_budget;
    overload::controller guard(ccfg, &w.topo, &w.registry);
    lifecycle::manager mgr(lifecycle::config{}, &w.topo);
    const network_state idle(&w.topo, &w.customers);
    std::vector<incident_report> closed_all;
    for (const window& win : storm.windows) {
        const auto raw = storm.alerts_of(win);
        std::vector<traced_alert> admitted = guard.admit({raw.begin(), raw.end()});
        if (!admitted.empty()) engine.ingest_batch(std::span<const traced_alert>(admitted));
        if (win.finish) {
            engine.finish(win.barrier, idle);
        } else {
            engine.tick(win.barrier, idle);
        }
        std::vector<incident_report> closed = engine.take_reports();
        mgr.on_barrier(win.barrier, closed, engine.open_reports(win.barrier, idle), &idle);
        guard.on_tick(win.barrier);
        closed_all.insert(closed_all.end(), closed.begin(), closed.end());
    }
    std::stable_sort(closed_all.begin(), closed_all.end(), report_before);
    return serve::render_report_listing(closed_all, {.json = true});
}

detection_tracker::detection_tracker(const std::vector<scenario_record>& truth)
    : truth_(&truth), detected_at_(truth.size(), -1) {}

void detection_tracker::observe(sim_time now, std::span<const incident_report> closed,
                                std::span<const incident_report> open) {
    for (std::size_t i = 0; i < truth_->size(); ++i) {
        const scenario_record& rec = (*truth_)[i];
        if (detected_at_[i] >= 0 || rec.benign || !rec.must_detect || rec.active.begin > now) {
            continue;
        }
        // Evidence from after the injection: an incident that went quiet
        // before the failure began reports an earlier one.
        const auto hit = [&](const incident_report& r) {
            return r.inc.when.end >= rec.active.begin && incident_matches(r.inc, rec);
        };
        if (std::any_of(closed.begin(), closed.end(), hit) ||
            std::any_of(open.begin(), open.end(), hit)) {
            detected_at_[i] = now;
        }
    }
}

detection detection_tracker::result() const {
    detection d;
    std::vector<double> delays;
    for (std::size_t i = 0; i < truth_->size(); ++i) {
        const scenario_record& rec = (*truth_)[i];
        if (rec.benign || !rec.must_detect) continue;
        ++d.failures;
        if (detected_at_[i] < 0) {
            ++d.undetected;
            continue;
        }
        delays.push_back(static_cast<double>(detected_at_[i] - rec.active.begin) / 1000.0);
    }
    d.median_delay_s = median(std::move(delays));
    return d;
}

}  // namespace perfbench
