// storm-durable: the batch stack with every layer on, in one thread.
//
// Each round replays the storm three ways:
//  1. uninterrupted durable pass: admission guard -> journal -> sequential
//     engine -> life-cycle manager, a checkpoint every 8 barriers (the
//     CLI default). Timed window by window: alerts_per_s, barrier_*.
//  2. cut, recover, resume: a second durable replay stops after a fixed
//     record (3/5 of the pass's records), persist::recover() rebuilds a
//     fresh engine and manager from the directory (recover_s), and a
//     resumed session re-streams the storm to the end.
//  3. bare pass: the sequential engine alone (seq_alerts_per_s).
// Checkpoint directories are created fresh for each pass and removed
// after it.
#include <filesystem>
#include <memory>

#include "skynet/persist/durable.h"
#include "skynet/persist/recovery.h"
#include "skynet/serve/report_text.h"
#include "storm.h"
#include "workloads.h"

namespace perfbench {

using namespace skynet;

namespace {

constexpr std::uint64_t kCheckpointEvery = 8;

struct context {
    const world& w;
    const storm_trace& storm;
    tracer& tr;
};

/// The per-process state a crash loses: engine and life-cycle manager.
struct stack {
    traced_engine engine;
    lifecycle::manager mgr;
    stack(const world& w, tracer& tr) : engine(w, tr), mgr(lifecycle::config{}, &w.topo) {}
};

struct pass_result {
    double seconds{0.0};
    std::vector<double> barrier_ms;
    std::uint64_t offered{0};
    /// Journal records the benchmark handed to the session (ingest + barrier calls).
    std::uint64_t records{0};
    overload_metrics overload;
    engine_metrics engine;
    recovery_metrics persist;
    std::uint64_t dir_bytes{0};
    std::uint64_t journal_bytes{0};
    std::uint64_t snapshot_bytes{0};
    std::string managed;
    std::string listing;
};

/// Drives one durable replay of the storm through `st`. `resumed` set:
/// continue after recover() (re-streaming; the session skips the records
/// already durable). `stop_after` > 0: stop once that many records were
/// handed over, as a crash at a record boundary would.
pass_result drive(const context& c, stack& st, const std::string& dir,
                  const persist::recovery_result* resumed, std::uint64_t stop_after,
                  detection_tracker* det) {
    tracer& tr = c.tr;
    const world& w = c.w;
    const network_state idle(&w.topo, &w.customers);
    overload::controller_config ccfg;
    ccfg.admission.max_alerts = c.storm.admission_budget;
    overload::controller guard(ccfg, &w.topo, &w.registry);

    persist::durable_options dopts;
    dopts.dir = dir;
    dopts.checkpoint_every = 0;  // checkpoints are taken below, inside a span
    dopts.locations = &w.topo.locations();
    dopts.controller = &guard;
    dopts.lifecycle = &st.mgr;
    dopts.barrier_hook = [&](sim_time now, const network_state& state) {
        std::vector<incident_report> closed;
        std::vector<incident_report> open;
        {
            const auto s = tr.span("core.take_reports");
            closed = st.engine.take_reports();
        }
        {
            const auto s = tr.span("core.open_reports");
            open = st.engine.open_reports(now, state);
        }
        if (det != nullptr) det->observe(now, closed, open);
        const auto s = tr.span("lifecycle.on_barrier");
        st.mgr.on_barrier(now, std::move(closed), open, &state);
    };
    std::uint64_t skip = 0;
    if (resumed != nullptr) {
        skip = resumed->journal_records;
        dopts.resume_records = resumed->journal_records;
        dopts.next_snapshot_seq = resumed->next_snapshot_seq;
        dopts.base = resumed->metrics;
    }

    pass_result out;
    out.barrier_ms.reserve(c.storm.windows.size());
    auto session = std::make_unique<persist::durable_session<traced_engine>>(st.engine, dopts);
    std::uint64_t applied_barriers = 0;
    // One window: returns false once stop_after records were handed over.
    const auto run_window = [&](const window& win) {
        const auto s = tr.span("storm.window");
        const auto raw = c.storm.alerts_of(win);
        out.offered += raw.size();
        std::vector<traced_alert> admitted;
        {
            const auto a = tr.span("overload.admit");
            admitted = guard.admit({raw.begin(), raw.end()});
        }
        if (!admitted.empty()) {
            const auto j = tr.span("persist.journal");
            session->ingest_batch(std::span<const traced_alert>(admitted));
        }
        if (!admitted.empty() && ++out.records == stop_after) return false;
        const bool applied = out.records >= skip;
        {
            const auto j = tr.span("persist.journal");
            if (win.finish) {
                session->finish(win.barrier, idle);
            } else {
                session->tick(win.barrier, idle);
            }
        }
        ++out.records;
        {
            const auto o = tr.span("overload.on_tick");
            guard.on_tick(win.barrier);
        }
        if (applied && !win.finish && ++applied_barriers % kCheckpointEvery == 0) {
            const auto k = tr.span("persist.snapshot.write");
            (void)session->checkpoint_now(win.barrier);
        }
        return out.records != stop_after;
    };

    const auto t_pass = bench_clock::now();
    for (const window& win : c.storm.windows) {
        const auto t0 = bench_clock::now();
        if (!run_window(win)) break;
        out.barrier_ms.push_back(seconds_since(t0) * 1e3);
    }
    out.seconds = seconds_since(t_pass);

    out.overload = guard.metrics();
    out.engine = st.engine.metrics();
    out.persist = session->metrics();
    if (!session->last_error().empty()) {
        std::fprintf(stderr, "checkpoint: %s\n", session->last_error().c_str());
    }
    session.reset();  // closes the journal
    if (stop_after == 0) {
        out.managed = st.mgr.render_managed();
        out.listing = serve::render_report_listing(st.mgr.managed_reports(), {.json = true});
    }
    out.dir_bytes = dir_bytes(dir);
    std::error_code ec;
    out.journal_bytes = std::filesystem::file_size(dir + "/" + persist::journal_filename, ec);
    if (ec) out.journal_bytes = 0;
    out.snapshot_bytes = out.dir_bytes - out.journal_bytes;
    return out;
}

/// Checks one uninterrupted pass against the benchmark's own counts.
void check_pass(result& res, const pass_result& p, std::size_t alerts) {
    res.check(p.offered == alerts, "storm-durable: every storm alert offered to admission");
    res.check(p.offered == p.overload.admitted + p.overload.shed_total() + p.overload.quarantined,
              "storm-durable: offered == admitted + shed");
    res.check(p.engine.alerts_in == p.overload.admitted,
              "storm-durable: engine alerts_in == admitted");
    res.check(p.persist.journal_records_written == p.records,
              "storm-durable: journal records == ingest + barrier calls");
}

}  // namespace

void run_storm_durable(const run_options& opts, result& res) {
    setup_times times;
    const auto t_topo = bench_clock::now();
    const world w(generator_params::medium(), 400);
    times.topology_s = seconds_since(t_topo);
    const storm_trace storm = make_storm(w, opts.seed, times);
    const double setup_s = seconds_since(process_start());

    // Warm-up, untimed: one uninterrupted pass interns every location,
    // fills the allocators and the page cache, and is the reference the
    // timed passes must reproduce byte for byte.
    tracer idle_tracer(false);
    const context warm_ctx{w, storm, idle_tracer};
    detection_tracker det(storm.truth);
    pass_result ref;
    {
        stack st(w, idle_tracer);
        const std::string dir = fresh_dir(opts, "storm-warm");
        ref = drive(warm_ctx, st, dir, nullptr, 0, &det);
        remove_dir(dir);
    }
    check_pass(res, ref, storm.alerts.size());
    const detection found = det.result();
    res.check(found.undetected == 0,
              "storm-durable: every injected failure matched by an incident (" +
                  std::to_string(found.undetected) + " of " + std::to_string(found.failures) +
                  " unmatched)");
    const std::uint64_t cut_at = ref.records * 3 / 5;

    tracer tr(opts.trace);
    const context ctx{w, storm, tr};
    std::vector<double> rates, barrier_ms, recover_s, seq_rates;
    engine_metrics engine_sum;
    overload_metrics overload_sum;
    recovery_metrics persist_sum;
    std::uint64_t journal_bytes = 0, snapshot_bytes = 0, durable_bytes = 0, replayed = 0;
    double scan_ms = 0.0, load_ms = 0.0;
    int rounds = 0;
    const auto t_run = bench_clock::now();
    do {
        ++rounds;
        tr.set_pass(rounds);
        release_freed_memory();
        {
            stack st(w, tr);
            const std::string dir = fresh_dir(opts, "storm");
            const pass_result p = drive(ctx, st, dir, nullptr, 0, nullptr);
            remove_dir(dir);
            check_pass(res, p, storm.alerts.size());
            res.check(p.managed == ref.managed && p.listing == ref.listing,
                      "storm-durable: pass reproduces the reference listings");
            rates.push_back(static_cast<double>(storm.alerts.size()) / p.seconds);
            barrier_ms.insert(barrier_ms.end(), p.barrier_ms.begin(), p.barrier_ms.end());
            engine_sum += p.engine;
            overload_sum += p.overload;
            persist_sum += p.persist;
            journal_bytes += p.journal_bytes;
            snapshot_bytes += p.snapshot_bytes;
            durable_bytes += p.dir_bytes;
            res.attempted += storm.windows.size();
        }
        release_freed_memory();
        {
            // Only recovery itself is traced here; the spans of the cut and
            // resumed replays would blur the per-pass layer times.
            const std::string dir = fresh_dir(opts, "storm-cut");
            {
                stack crashed(w, idle_tracer);
                (void)drive(warm_ctx, crashed, dir, nullptr, cut_at, nullptr);
            }
            stack st(w, idle_tracer);
            const network_state idle(&w.topo, &w.customers);
            persist::recovery_options ropts;
            ropts.dir = dir;
            ropts.tick_state = &idle;
            ropts.lifecycle = &st.mgr;
            persist::recovery_result rec;
            {
                const auto t0 = bench_clock::now();
                const auto s = tr.span("persist.recovery.recover");
                rec = persist::recover(st.engine, w.topo.locations(), nullptr, ropts);
                recover_s.push_back(seconds_since(t0));
            }
            replayed += rec.metrics.records_replayed;
            if (tr.enabled()) {
                // The two scans recover() makes, timed on their own.
                persist::journal_read_result scan;
                {
                    const auto t0 = bench_clock::now();
                    const auto s = tr.span("persist.recovery.journal_scan");
                    scan = persist::read_journal(dir + "/" + persist::journal_filename);
                    scan_ms += seconds_since(t0) * 1e3;
                }
                const auto t0 = bench_clock::now();
                const auto s = tr.span("persist.recovery.snapshot_load");
                (void)persist::load_newest_snapshot(dir, scan.valid_bytes);
                load_ms += seconds_since(t0) * 1e3;
            }
            const pass_result resumed = drive(warm_ctx, st, dir, &rec, 0, nullptr);
            remove_dir(dir);
            res.check(rec.journal_records == cut_at,
                      "storm-durable: recovery accounts for every record before the cut");
            res.check(resumed.managed == ref.managed,
                      "storm-durable: cut+recover+resume managed listing == uninterrupted");
            res.check(resumed.listing == ref.listing,
                      "storm-durable: cut+recover+resume report listing == uninterrupted");
            res.attempted += 1;
        }
        release_freed_memory();
        seq_rates.push_back(bare_replay(w, storm));
        res.attempted += storm.windows.size();
    } while (seconds_since(t_run) < opts.seconds);

    const double passes = rounds;
    res.end_to_end("setup_s", setup_s, "s");
    res.end_to_end("alerts_per_s", median(rates), "alerts/s");
    res.end_to_end("seq_alerts_per_s", median(seq_rates), "alerts/s");
    res.end_to_end("barrier_p50_ms", percentile(barrier_ms, 50.0), "ms");
    res.end_to_end("barrier_p99_ms", percentile(barrier_ms, 99.0), "ms");

    res.per_layer("setup.topology_s", times.topology_s, "s");
    res.per_layer("setup.simulate_s", times.simulate_s, "s");
    res.per_layer("setup.synthesize_s", times.synthesize_s, "s");
    const auto per_pass = [&](std::uint64_t v) { return static_cast<double>(v) / passes; };
    res.per_layer("overload.shed_alerts", per_pass(overload_sum.shed_total()), "alerts");
    res.per_layer("core.preprocessor.busy_ms", busy_ms(engine_sum.preprocess, passes), "ms");
    res.per_layer("core.locator.busy_ms", busy_ms(engine_sum.locate, passes), "ms");
    res.per_layer("core.evaluator.busy_ms", busy_ms(engine_sum.evaluate, passes), "ms");
    res.per_layer("core.preprocessor.out_per_in", out_per_in(engine_sum), "ratio");
    res.per_layer("persist.journal.bytes", per_pass(journal_bytes), "bytes");
    res.per_layer("persist.journal.flushes", per_pass(persist_sum.journal_flushes), "count");
    res.per_layer("persist.snapshot.count", per_pass(persist_sum.checkpoints_written), "count");
    res.per_layer("persist.snapshot.bytes", per_pass(snapshot_bytes), "bytes");
    res.per_layer("persist.durable_mb", per_pass(durable_bytes) / 1e6, "MB");
    res.per_layer("persist.recovery.recover_s", median(recover_s), "s");
    res.per_layer("persist.recovery.journal_scan_ms", scan_ms / passes, "ms");
    res.per_layer("persist.recovery.snapshot_load_ms", load_ms / passes, "ms");
    res.per_layer("persist.recovery.records_replayed", per_pass(replayed), "count");
    res.per_layer("core.detect_delay_s", found.median_delay_s, "sim_s");
    // Span self times per pass: what the benchmark's calls into each layer cost.
    const auto spans = tr.summarize();
    const auto self_ms = [&](const char* name) {
        const auto it = spans.find(name);
        return it == spans.end() ? 0.0 : it->second.self_ms / passes;
    };
    res.per_layer("overload.admit_ms", self_ms("overload.admit"), "ms");
    res.per_layer("core.ingest_ms", self_ms("core.ingest"), "ms");
    res.per_layer("core.tick_ms", self_ms("core.tick"), "ms");
    res.per_layer("core.open_reports_ms", self_ms("core.open_reports"), "ms");
    res.per_layer("lifecycle.on_barrier_ms", self_ms("lifecycle.on_barrier"), "ms");
    res.per_layer("persist.journal.append_ms", self_ms("persist.journal"), "ms");
    res.per_layer("persist.snapshot.write_ms", self_ms("persist.snapshot.write"), "ms");
    res.spans = std::move(tr);

    std::fprintf(stderr,
                 "storm-durable: %zu alerts, %zu windows, budget %llu/window, %d rounds\n"
                 "  replay_alerts_per_s %.1f  barrier_p50_ms %.4f  barrier_p99_ms %.4f\n"
                 "  recover_s %.4f  detect_delay_s %.1f (sim, %zu failures)  durable_mb %.2f\n",
                 storm.alerts.size(), storm.windows.size(),
                 static_cast<unsigned long long>(storm.admission_budget), rounds, median(rates),
                 percentile(barrier_ms, 50.0), percentile(barrier_ms, 99.0), median(recover_s),
                 found.median_delay_s, found.failures,
                 per_pass(durable_bytes) / 1e6);
}

}  // namespace perfbench
