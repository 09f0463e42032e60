#include "skynet/persist/recovery.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "skynet/common/error.h"

namespace skynet::persist {

namespace {

/// Engine-shape-independent view recover_impl drives.
struct engine_hooks {
    std::function<error(sharded_engine::persist_state)> import;
    std::function<void(std::span<const traced_alert>)> ingest;
    std::function<void(sim_time, const network_state&)> tick;
    std::function<void(sim_time, const network_state&)> finish;
    /// Fired after each replayed barrier; drains the engine's reports
    /// into the life-cycle manager / the caller's replay_closed hook.
    std::function<void(sim_time, const network_state&)> barrier_done;
};

/// Re-interns the snapshot's paths in id order. The fresh topology
/// already interned its construction-time paths in the same order (the
/// table invariant), so every id must come back exactly as stored — a
/// mismatch means the snapshot belongs to a different topology.
void restore_locations(location_table& table, const std::vector<std::string>& paths) {
    for (std::size_t i = 0; i < paths.size(); ++i) {
        const location_id id = table.intern(location::parse(paths[i]));
        if (id != static_cast<location_id>(i + 1)) {
            throw skynet_error("recover: location table mismatch at id " + std::to_string(i + 1) +
                               " ('" + paths[i] + "' interned as " + std::to_string(id) +
                               "); snapshot was taken against a different topology");
        }
    }
}

recovery_result recover_impl(const engine_hooks& hooks, location_table& locations,
                             incident_log* log, const recovery_options& opts) {
    recovery_result r;
    const std::string journal_path = opts.dir + "/" + journal_filename;

    journal_read_result scan = read_journal(journal_path);
    r.journal_valid_bytes = scan.valid_bytes;
    r.metrics.truncated_tail_bytes = scan.truncated_tail_bytes;
    if (scan.missing) {
        r.notes.push_back("journal missing; recovering from snapshots alone");
    } else if (!scan.truncation_reason.empty()) {
        r.notes.push_back("journal: " + scan.truncation_reason + " (" +
                          std::to_string(scan.truncated_tail_bytes) + " tail bytes dropped)");
        if (opts.repair_journal && !truncate_journal(journal_path, scan.valid_bytes)) {
            r.notes.push_back("journal: tail trim failed; resume-append unsafe");
        }
    }

    snapshot_pick pick = load_newest_snapshot(opts.dir, scan.valid_bytes);
    for (const skipped_snapshot& s : pick.skipped) {
        ++r.metrics.snapshots_skipped;
        r.notes.push_back("skipped " + s.file + ": " + s.reason);
    }

    std::uint64_t replay_from = 0;
    if (pick.data) {
        snapshot_data& snap = *pick.data;
        restore_locations(locations, snap.locations);
        replay_from = snap.journal_bytes;
        r.journal_records = snap.journal_records;
        r.next_snapshot_seq = snap.seq + 1;
        r.last_barrier_time = snap.barrier_time;
        r.notes.push_back("restored " + pick.file + " (seq " + std::to_string(snap.seq) +
                          ", journal offset " + std::to_string(snap.journal_bytes) + ")");
        if (log != nullptr) log->restore(std::move(snap.log));
        if (opts.controller != nullptr) opts.controller->import_state(snap.overload);
        if (opts.lifecycle != nullptr) opts.lifecycle->import_state(std::move(snap.lifecycle));
        if (error e = hooks.import(std::move(snap.engines))) {
            throw skynet_error("recover: " + e.message());
        }
    } else {
        r.notes.push_back("no usable snapshot; replaying the whole journal");
        if (log != nullptr) log->restore({});
    }

    // Records between the snapshot's offset and the valid end, taken
    // from the scan above: the journal is decoded once.
    const std::size_t first = static_cast<std::size_t>(
        std::lower_bound(scan.offsets.begin(), scan.offsets.end(), replay_from) -
        scan.offsets.begin());
    for (std::size_t i = first; i < scan.records.size(); ++i) {
        journal_record& rec = scan.records[i];
        switch (rec.type) {
            case record_type::batch:
                hooks.ingest(std::span<const traced_alert>(rec.batch));
                break;
            case record_type::tick:
            case record_type::finish:
                if (opts.tick_state == nullptr) {
                    throw skynet_error(
                        "recover: journal suffix contains barriers but no tick_state was "
                        "provided");
                }
                if (rec.type == record_type::tick) {
                    hooks.tick(rec.now, *opts.tick_state);
                } else {
                    hooks.finish(rec.now, *opts.tick_state);
                    r.saw_finish = true;
                }
                if (hooks.barrier_done) hooks.barrier_done(rec.now, *opts.tick_state);
                r.last_barrier_time = rec.now;
                break;
        }
        ++r.metrics.records_replayed;
    }
    r.journal_records += scan.records.size() - first;
    return r;
}

/// Drains the reports the engine closed at a replayed barrier into the
/// life-cycle manager and/or the caller's replay_closed hook — the
/// recovered manager then diffs/suppresses exactly as the uninterrupted
/// run did.
template <typename Engine>
std::function<void(sim_time, const network_state&)> make_barrier_done(
    Engine& engine, const recovery_options& opts) {
    if (opts.lifecycle == nullptr && !opts.replay_closed) return {};
    return [&engine, &opts](sim_time now, const network_state& s) {
        std::vector<incident_report> closed = engine.take_reports();
        if (opts.lifecycle != nullptr) {
            const std::vector<incident_report> open = engine.open_reports(now, s);
            opts.lifecycle->on_barrier(now, closed, open, &s);
        }
        if (opts.replay_closed) opts.replay_closed(now, closed);
    };
}

}  // namespace

recovery_result recover(skynet_engine& engine, location_table& locations, incident_log* log,
                        const recovery_options& opts) {
    engine_hooks hooks;
    hooks.import = [&engine](sharded_engine::persist_state state) -> error {
        if (state.shards.size() != 1) {
            return error("snapshot holds " + std::to_string(state.shards.size()) +
                         " shard states; sequential engine expects 1");
        }
        engine.import_state(std::move(state.shards[0]));
        return error{};
    };
    hooks.ingest = [&engine](std::span<const traced_alert> batch) { engine.ingest_batch(batch); };
    hooks.tick = [&engine](sim_time now, const network_state& s) { engine.tick(now, s); };
    hooks.finish = [&engine](sim_time now, const network_state& s) { engine.finish(now, s); };
    hooks.barrier_done = make_barrier_done(engine, opts);
    return recover_impl(hooks, locations, log, opts);
}

recovery_result recover(sharded_engine& engine, location_table& locations, incident_log* log,
                        const recovery_options& opts) {
    engine_hooks hooks;
    hooks.import = [&engine](sharded_engine::persist_state state) -> error {
        if (state.shards.size() != engine.shard_count()) {
            return error("snapshot holds " + std::to_string(state.shards.size()) +
                         " shard states; engine has " + std::to_string(engine.shard_count()));
        }
        engine.import_state(std::move(state));
        return error{};
    };
    hooks.ingest = [&engine](std::span<const traced_alert> batch) { engine.ingest_batch(batch); };
    hooks.tick = [&engine](sim_time now, const network_state& s) { engine.tick(now, s); };
    hooks.finish = [&engine](sim_time now, const network_state& s) { engine.finish(now, s); };
    hooks.barrier_done = make_barrier_done(engine, opts);
    return recover_impl(hooks, locations, log, opts);
}

}  // namespace skynet::persist
