#include "skynet/persist/snapshot.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "skynet/persist/crc32c.h"
#include "skynet/persist/framing.h"
#include "skynet/persist/report_codec.h"
#include "skynet/sim/trace.h"

namespace skynet::persist {

namespace {

// The alert/severity/incident/report codec and the line cursor live in
// persist::codec (shared with the federation digests); this file keeps only
// the snapshot-specific record shapes layered on top of them.
using namespace codec;

// ---------------------------------------------------------------- writing

void put_node(std::string& out, const locator::persist_state::node_state& n) {
    out += "N";
    put_u64(out, n.loc);
    put_i64(out, n.last_update);
    put_u64(out, n.alerts.size());
    out += '\n';
    for (const locator::stored_alert& a : n.alerts) {
        out += "A";
        put_i64(out, a.inserted);
        put_alert(out, a.alert);
        out += '\n';
    }
}

void put_pending(std::string& out, char tag,
                 const preprocessor::persist_state::pending_entry& p) {
    out += tag;
    put_i64(out, p.occurrences);
    put_i64(out, p.first_seen);
    put_i64(out, p.last_seen);
    put_i64(out, p.last_counted_ts);
    put_alert(out, p.alert);
    out += '\n';
}

void put_engine(std::string& out, std::size_t index, const skynet_engine::persist_state& e) {
    out += "engine";
    put_u64(out, index);
    out += '\n';

    const preprocessor_stats& st = e.pre.stats;
    out += "stats";
    put_i64(out, st.raw_in);
    put_i64(out, st.emitted_new);
    put_i64(out, st.emitted_update);
    put_i64(out, st.merged_identical);
    put_i64(out, st.dropped_sporadic);
    put_i64(out, st.dropped_unclassified);
    put_i64(out, st.dropped_uncorroborated);
    put_i64(out, st.merged_related);
    put_i64(out, st.rejected_malformed);
    put_i64(out, st.skew_clamped);
    out += '\n';

    out += "count";
    put_i64(out, e.structured_count);
    out += '\n';

    out += "open";
    put_u64(out, e.pre.open.size());
    out += '\n';
    for (const auto& o : e.pre.open) {
        out += "O";
        put_i64(out, o.last_seen);
        put_alert(out, o.alert);
        out += '\n';
    }

    out += "persistence";
    put_u64(out, e.pre.persistence.size());
    out += '\n';
    for (const auto& p : e.pre.persistence) put_pending(out, 'P', p);

    out += "correlation";
    put_u64(out, e.pre.correlation.size());
    out += '\n';
    for (const auto& c : e.pre.correlation) put_pending(out, 'C', c);

    out += "sightings";
    put_u64(out, e.pre.sightings.size());
    out += '\n';
    for (const auto& s : e.pre.sightings) {
        out += "S";
        put_u64(out, s.loc);
        put_i64(out, s.at);
        out += '\n';
    }

    out += "nodes";
    put_u64(out, e.loc.nodes.size());
    out += '\n';
    for (const auto& n : e.loc.nodes) put_node(out, n);

    out += "incidents";
    put_u64(out, e.loc.incidents.size());
    out += '\n';
    for (const auto& entry : e.loc.incidents) {
        out += "I";
        put_u64(out, entry.root_id);
        put_i64(out, entry.update_time);
        put_u64(out, entry.nodes.size());
        out += '\n';
        put_incident(out, entry.inc);
        for (const auto& n : entry.nodes) put_node(out, n);
    }

    out += "next_incident";
    put_u64(out, e.loc.next_incident_id);
    out += '\n';

    out += "scores";
    put_u64(out, e.live_scores.size());
    out += '\n';
    for (const auto& [id, sev] : e.live_scores) {
        out += "Y";
        put_u64(out, id);
        put_severity(out, sev);
        out += '\n';
    }

    out += "finished";
    put_u64(out, e.finished.size());
    out += '\n';
    for (const incident_report& r : e.finished) put_report(out, r);
}

// ---------------------------------------------------------------- parsing

bool get_node(cursor& c, locator::persist_state::node_state& n) {
    std::vector<std::string_view> f;
    if (!c.expect("N", 3, f)) return false;
    std::uint64_t n_alerts = 0;
    if (!c.u32(f[1], n.loc)) return false;
    if (!c.i64(f[2], n.last_update)) return false;
    if (!c.u64(f[3], n_alerts)) return false;
    n.alerts.clear();
    n.alerts.reserve(n_alerts);
    for (std::uint64_t i = 0; i < n_alerts; ++i) {
        if (!c.expect("A", alert_fields + 1, f)) return false;
        locator::stored_alert a;
        if (!c.i64(f[1], a.inserted)) return false;
        if (!get_alert(c, f, 2, a.alert)) return false;
        n.alerts.push_back(std::move(a));
    }
    return true;
}

bool get_pending(cursor& c, std::string_view tag,
                 preprocessor::persist_state::pending_entry& p) {
    std::vector<std::string_view> f;
    if (!c.expect(tag, alert_fields + 4, f)) return false;
    std::int64_t occ = 0;
    if (!c.i64(f[1], occ)) return false;
    if (!c.i64(f[2], p.first_seen)) return false;
    if (!c.i64(f[3], p.last_seen)) return false;
    if (!c.i64(f[4], p.last_counted_ts)) return false;
    p.occurrences = static_cast<int>(occ);
    return get_alert(c, f, 5, p.alert);
}

bool get_count(cursor& c, std::string_view tag, std::uint64_t& n) {
    std::vector<std::string_view> f;
    if (!c.expect(tag, 1, f)) return false;
    return c.u64(f[1], n);
}

bool get_engine(cursor& c, skynet_engine::persist_state& e) {
    std::vector<std::string_view> f;
    if (!c.expect("stats", 10, f)) return false;
    preprocessor_stats& st = e.pre.stats;
    if (!c.i64(f[1], st.raw_in) || !c.i64(f[2], st.emitted_new) ||
        !c.i64(f[3], st.emitted_update) || !c.i64(f[4], st.merged_identical) ||
        !c.i64(f[5], st.dropped_sporadic) || !c.i64(f[6], st.dropped_unclassified) ||
        !c.i64(f[7], st.dropped_uncorroborated) || !c.i64(f[8], st.merged_related) ||
        !c.i64(f[9], st.rejected_malformed) || !c.i64(f[10], st.skew_clamped)) {
        return false;
    }

    if (!c.expect("count", 1, f)) return false;
    if (!c.i64(f[1], e.structured_count)) return false;

    std::uint64_t n = 0;
    if (!get_count(c, "open", n)) return false;
    e.pre.open.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        if (!c.expect("O", alert_fields + 1, f)) return false;
        preprocessor::persist_state::open_entry o;
        if (!c.i64(f[1], o.last_seen)) return false;
        if (!get_alert(c, f, 2, o.alert)) return false;
        e.pre.open.push_back(std::move(o));
    }

    if (!get_count(c, "persistence", n)) return false;
    e.pre.persistence.resize(n);
    for (auto& p : e.pre.persistence) {
        if (!get_pending(c, "P", p)) return false;
    }

    if (!get_count(c, "correlation", n)) return false;
    e.pre.correlation.resize(n);
    for (auto& p : e.pre.correlation) {
        if (!get_pending(c, "C", p)) return false;
    }

    if (!get_count(c, "sightings", n)) return false;
    e.pre.sightings.resize(n);
    for (auto& s : e.pre.sightings) {
        if (!c.expect("S", 2, f)) return false;
        if (!c.u32(f[1], s.loc)) return false;
        if (!c.i64(f[2], s.at)) return false;
    }

    if (!get_count(c, "nodes", n)) return false;
    e.loc.nodes.resize(n);
    for (auto& node : e.loc.nodes) {
        if (!get_node(c, node)) return false;
    }

    if (!get_count(c, "incidents", n)) return false;
    e.loc.incidents.resize(n);
    for (auto& entry : e.loc.incidents) {
        if (!c.expect("I", 3, f)) return false;
        std::uint64_t n_nodes = 0;
        if (!c.u32(f[1], entry.root_id)) return false;
        if (!c.i64(f[2], entry.update_time)) return false;
        if (!c.u64(f[3], n_nodes)) return false;
        if (!get_incident(c, entry.inc)) return false;
        entry.nodes.resize(n_nodes);
        for (auto& node : entry.nodes) {
            if (!get_node(c, node)) return false;
        }
    }

    if (!c.expect("next_incident", 1, f)) return false;
    if (!c.u64(f[1], e.loc.next_incident_id)) return false;

    if (!get_count(c, "scores", n)) return false;
    e.live_scores.resize(n);
    for (auto& [id, sev] : e.live_scores) {
        if (!c.expect("Y", 9, f)) return false;
        if (!c.u64(f[1], id)) return false;
        if (!get_severity(c, f, 2, sev)) return false;
    }

    if (!get_count(c, "finished", n)) return false;
    e.finished.resize(n);
    for (auto& r : e.finished) {
        if (!get_report(c, r)) return false;
    }
    return true;
}

}  // namespace

std::string render_snapshot(const snapshot_data& data) {
    std::string out(snapshot_header);
    out += '\n';

    out += "meta";
    put_u64(out, data.seq);
    put_u64(out, data.journal_bytes);
    put_u64(out, data.journal_records);
    put_i64(out, data.barrier_time);
    put_u64(out, data.engines.next_region_shard);
    out += '\n';

    out += "locations";
    put_u64(out, data.locations.size());
    out += '\n';
    for (const std::string& path : data.locations) {
        out += "L";
        put(out, path);
        out += '\n';
    }

    out += "regions";
    put_u64(out, data.engines.regions.size());
    out += '\n';
    for (const auto& [region, shard] : data.engines.regions) {
        out += "R";
        put_u64(out, region);
        put_u64(out, shard);
        out += '\n';
    }

    out += "engines";
    put_u64(out, data.engines.shards.size());
    out += '\n';
    for (std::size_t i = 0; i < data.engines.shards.size(); ++i) {
        put_engine(out, i, data.engines.shards[i]);
    }

    const overload::controller::persist_state& ov = data.overload;
    out += "overload";
    put_u64(out, ov.window_alerts);
    put_u64(out, ov.window_bytes);
    put_u64(out, ov.dedup_keys.size());
    put_u64(out, ov.breakers.size());
    out += '\n';
    for (const std::string& key : ov.dedup_keys) {
        out += "D";
        put(out, key);
        out += '\n';
    }
    for (const overload::breaker_status& b : ov.breakers) {
        out += "B";
        put_u64(out, static_cast<std::uint64_t>(b.state));
        put_u64(out, b.window_good);
        put_u64(out, b.window_bad);
        put_i64(out, b.window_start);
        put_i64(out, b.reopen_at);
        put_i64(out, b.backoff);
        put_u64(out, b.probes_left);
        put_u64(out, b.trips);
        put_u64(out, b.quarantined);
        out += '\n';
    }
    const overload_metrics& oc = ov.counters;
    out += "ocounters";
    put_u64(out, oc.admitted);
    put_u64(out, oc.shed_duplicate);
    put_u64(out, oc.shed_other);
    put_u64(out, oc.shed_root_cause);
    put_u64(out, oc.shed_failure);
    put_u64(out, oc.shed_bytes);
    put_u64(out, oc.breaker_trips);
    put_u64(out, oc.breaker_reopens);
    put_u64(out, oc.breaker_closes);
    put_u64(out, oc.quarantined);
    put_u64(out, oc.probes_admitted);
    out += '\n';

    const lifecycle::manager::persist_state& lc = data.lifecycle;
    out += "lifecycle";
    put_i64(out, lc.last_barrier);
    put_u64(out, lc.lineages.size());
    put_u64(out, lc.collected.size());
    out += '\n';
    const lifecycle_metrics& lm = lc.counters;
    out += "lcounters";
    put_u64(out, lm.tracked);
    put_u64(out, lm.recurrences_linked);
    put_u64(out, lm.flaps_collapsed);
    put_u64(out, lm.realerts_suppressed);
    put_u64(out, lm.auto_closed);
    put_u64(out, lm.reopened);
    put_u64(out, lm.diffs_emitted);
    out += '\n';
    for (const lifecycle::lineage& ln : lc.lineages) {
        out += "LIN";
        put_u64(out, ln.id);
        put(out, ln.root);
        put_u64(out, static_cast<std::uint64_t>(ln.state));
        put_u64(out, ln.occurrences);
        put_u64(out, ln.suppressed_realerts);
        put_i64(out, ln.first_seen);
        put_i64(out, ln.last_activity);
        put_i64(out, ln.last_closed);
        put_double(out, ln.last_score);
        put_double(out, ln.peak_score);
        put(out, ln.engine_open ? "1" : "0");
        put_u64(out, ln.types.size());
        put_u64(out, ln.members.size());
        out += '\n';
        for (std::uint32_t t : ln.types) {
            out += "LT";
            put_u64(out, t);
            out += '\n';
        }
        for (std::uint64_t m : ln.members) {
            out += "LM";
            put_u64(out, m);
            out += '\n';
        }
    }
    for (const incident_report& r : lc.collected) put_report(out, r);
    const lifecycle::barrier_diff& ld = lc.last_diff;
    out += "ldiff";
    put_i64(out, ld.at);
    put_u64(out, ld.opened.size());
    put_u64(out, ld.escalated.size());
    put_u64(out, ld.deescalated.size());
    put_u64(out, ld.resolved.size());
    put_u64(out, ld.flapping.size());
    out += '\n';
    auto put_entries = [&out](const std::vector<lifecycle::diff_entry>& entries) {
        for (const lifecycle::diff_entry& e : entries) {
            out += "LD";
            put_u64(out, e.lineage);
            put(out, e.root);
            put_double(out, e.score);
            put_double(out, e.prev_score);
            put_u64(out, e.occurrences);
            out += '\n';
        }
    };
    put_entries(ld.opened);
    put_entries(ld.escalated);
    put_entries(ld.deescalated);
    put_entries(ld.resolved);
    put_entries(ld.flapping);

    out += "log";
    put_u64(out, data.log.size());
    out += '\n';
    for (const incident_log::entry& e : data.log) {
        out += "E";
        put_i64(out, e.closed_at);
        put(out, e.attributed_to_failure ? (*e.attributed_to_failure ? "1" : "0") : "-");
        out += '\n';
        put_report(out, e.report);
    }

    char trailer[20];
    std::snprintf(trailer, sizeof trailer, "crc\t%08x\n", crc32c(out));
    out += trailer;
    return out;
}

snapshot_parse_result parse_snapshot(std::string_view text) {
    snapshot_parse_result result;

    // Locate and verify the CRC trailer first: any flipped bit in the
    // body invalidates the file before structural parsing begins.
    const std::size_t crc_at = text.rfind("crc\t");
    if (crc_at == std::string_view::npos || (crc_at != 0 && text[crc_at - 1] != '\n')) {
        result.error = "missing crc trailer";
        return result;
    }
    std::string_view crc_field = text.substr(crc_at + 4);
    while (!crc_field.empty() && (crc_field.back() == '\n' || crc_field.back() == '\r')) {
        crc_field.remove_suffix(1);
    }
    std::uint32_t want = 0;
    {
        const auto [p, ec] =
            std::from_chars(crc_field.data(), crc_field.data() + crc_field.size(), want, 16);
        if (ec != std::errc{} || p != crc_field.data() + crc_field.size()) {
            result.error = "bad crc trailer";
            return result;
        }
    }
    const std::string_view body = text.substr(0, crc_at);
    if (crc32c(body) != want) {
        result.error = "snapshot checksum mismatch";
        return result;
    }

    cursor c;
    c.text = body;
    std::vector<std::string_view> f;
    if (!c.next(f) || f.size() != 1 || f[0] != snapshot_header) {
        result.error = c.err.empty() ? "bad snapshot header" : c.err;
        return result;
    }

    snapshot_data data;
    auto finish_error = [&]() {
        result.error = c.err.empty() ? "snapshot parse error" : c.err;
        return result;
    };

    if (!c.expect("meta", 5, f)) return finish_error();
    if (!c.u64(f[1], data.seq) || !c.u64(f[2], data.journal_bytes) ||
        !c.u64(f[3], data.journal_records) || !c.i64(f[4], data.barrier_time)) {
        return finish_error();
    }
    {
        std::uint64_t next_shard = 0;
        if (!c.u64(f[5], next_shard)) return finish_error();
        data.engines.next_region_shard = static_cast<std::size_t>(next_shard);
    }

    std::uint64_t n = 0;
    if (!get_count(c, "locations", n)) return finish_error();
    data.locations.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        if (!c.expect("L", 1, f)) return finish_error();
        data.locations.emplace_back(f[1]);
    }

    if (!get_count(c, "regions", n)) return finish_error();
    data.engines.regions.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        if (!c.expect("R", 2, f)) return finish_error();
        location_id region = invalid_location_id;
        std::uint64_t shard = 0;
        if (!c.u32(f[1], region) || !c.u64(f[2], shard)) return finish_error();
        data.engines.regions.emplace_back(region, static_cast<std::size_t>(shard));
    }

    if (!get_count(c, "engines", n)) return finish_error();
    data.engines.shards.resize(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t index = 0;
        if (!c.expect("engine", 1, f)) return finish_error();
        if (!c.u64(f[1], index)) return finish_error();
        if (index != i) {
            c.fail("engine index out of order");
            return finish_error();
        }
        if (!get_engine(c, data.engines.shards[i])) return finish_error();
    }

    {
        overload::controller::persist_state& ov = data.overload;
        std::uint64_t n_keys = 0;
        std::uint64_t n_breakers = 0;
        if (!c.expect("overload", 4, f)) return finish_error();
        if (!c.u64(f[1], ov.window_alerts) || !c.u64(f[2], ov.window_bytes) ||
            !c.u64(f[3], n_keys) || !c.u64(f[4], n_breakers)) {
            return finish_error();
        }
        if (n_breakers != ov.breakers.size()) {
            c.fail("breaker count: got " + std::to_string(n_breakers) + ", want " +
                   std::to_string(ov.breakers.size()));
            return finish_error();
        }
        ov.dedup_keys.reserve(n_keys);
        for (std::uint64_t i = 0; i < n_keys; ++i) {
            if (!c.expect("D", 1, f)) return finish_error();
            ov.dedup_keys.emplace_back(f[1]);
        }
        for (overload::breaker_status& b : ov.breakers) {
            std::uint64_t state = 0;
            std::uint64_t probes = 0;
            if (!c.expect("B", 9, f)) return finish_error();
            if (!c.u64(f[1], state) || !c.u64(f[2], b.window_good) || !c.u64(f[3], b.window_bad) ||
                !c.i64(f[4], b.window_start) || !c.i64(f[5], b.reopen_at) ||
                !c.i64(f[6], b.backoff) || !c.u64(f[7], probes) || !c.u64(f[8], b.trips) ||
                !c.u64(f[9], b.quarantined)) {
                return finish_error();
            }
            if (state > 2) {
                c.fail("bad breaker state " + std::to_string(state));
                return finish_error();
            }
            b.state = static_cast<overload::breaker_state>(state);
            b.probes_left = static_cast<std::uint32_t>(probes);
        }
        overload_metrics& oc = ov.counters;
        if (!c.expect("ocounters", 11, f)) return finish_error();
        if (!c.u64(f[1], oc.admitted) || !c.u64(f[2], oc.shed_duplicate) ||
            !c.u64(f[3], oc.shed_other) || !c.u64(f[4], oc.shed_root_cause) ||
            !c.u64(f[5], oc.shed_failure) || !c.u64(f[6], oc.shed_bytes) ||
            !c.u64(f[7], oc.breaker_trips) || !c.u64(f[8], oc.breaker_reopens) ||
            !c.u64(f[9], oc.breaker_closes) || !c.u64(f[10], oc.quarantined) ||
            !c.u64(f[11], oc.probes_admitted)) {
            return finish_error();
        }
    }

    {
        lifecycle::manager::persist_state& lc = data.lifecycle;
        std::uint64_t n_lineages = 0;
        std::uint64_t n_collected = 0;
        if (!c.expect("lifecycle", 3, f)) return finish_error();
        if (!c.i64(f[1], lc.last_barrier) || !c.u64(f[2], n_lineages) ||
            !c.u64(f[3], n_collected)) {
            return finish_error();
        }
        lifecycle_metrics& lm = lc.counters;
        if (!c.expect("lcounters", 7, f)) return finish_error();
        if (!c.u64(f[1], lm.tracked) || !c.u64(f[2], lm.recurrences_linked) ||
            !c.u64(f[3], lm.flaps_collapsed) || !c.u64(f[4], lm.realerts_suppressed) ||
            !c.u64(f[5], lm.auto_closed) || !c.u64(f[6], lm.reopened) ||
            !c.u64(f[7], lm.diffs_emitted)) {
            return finish_error();
        }
        lc.lineages.resize(n_lineages);
        for (lifecycle::lineage& ln : lc.lineages) {
            std::uint64_t state = 0;
            std::uint64_t n_types = 0;
            std::uint64_t n_members = 0;
            bool open_flag = false;
            if (!c.expect("LIN", 13, f)) return finish_error();
            if (!c.u64(f[1], ln.id) || !c.u64(f[3], state) ||
                !c.u64(f[5], ln.suppressed_realerts) || !c.i64(f[6], ln.first_seen) ||
                !c.i64(f[7], ln.last_activity) || !c.i64(f[8], ln.last_closed) ||
                !c.dbl(f[9], ln.last_score) || !c.dbl(f[10], ln.peak_score) ||
                !c.flag(f[11], open_flag) || !c.u64(f[12], n_types) ||
                !c.u64(f[13], n_members)) {
                return finish_error();
            }
            ln.root = std::string(f[2]);
            std::uint64_t occurrences = 0;
            if (!c.u64(f[4], occurrences)) return finish_error();
            ln.occurrences = static_cast<std::uint32_t>(occurrences);
            if (state > 4) {
                c.fail("bad lineage state " + std::to_string(state));
                return finish_error();
            }
            ln.state = static_cast<lifecycle::phase>(state);
            ln.engine_open = open_flag;
            ln.types.resize(n_types);
            for (std::uint32_t& t : ln.types) {
                if (!c.expect("LT", 1, f)) return finish_error();
                if (!c.u32(f[1], t)) return finish_error();
            }
            ln.members.resize(n_members);
            for (std::uint64_t& m : ln.members) {
                if (!c.expect("LM", 1, f)) return finish_error();
                if (!c.u64(f[1], m)) return finish_error();
            }
        }
        lc.collected.resize(n_collected);
        for (incident_report& r : lc.collected) {
            if (!get_report(c, r)) return finish_error();
        }
        lifecycle::barrier_diff& ld = lc.last_diff;
        std::uint64_t n_opened = 0, n_esc = 0, n_deesc = 0, n_res = 0, n_flap = 0;
        if (!c.expect("ldiff", 6, f)) return finish_error();
        if (!c.i64(f[1], ld.at) || !c.u64(f[2], n_opened) || !c.u64(f[3], n_esc) ||
            !c.u64(f[4], n_deesc) || !c.u64(f[5], n_res) || !c.u64(f[6], n_flap)) {
            return finish_error();
        }
        auto get_entries = [&](std::vector<lifecycle::diff_entry>& entries, std::uint64_t count) {
            entries.resize(count);
            for (lifecycle::diff_entry& e : entries) {
                std::uint64_t occurrences = 0;
                if (!c.expect("LD", 5, f)) return false;
                if (!c.u64(f[1], e.lineage) || !c.dbl(f[3], e.score) ||
                    !c.dbl(f[4], e.prev_score) || !c.u64(f[5], occurrences)) {
                    return false;
                }
                e.root = std::string(f[2]);
                e.occurrences = static_cast<std::uint32_t>(occurrences);
            }
            return true;
        };
        if (!get_entries(ld.opened, n_opened) || !get_entries(ld.escalated, n_esc) ||
            !get_entries(ld.deescalated, n_deesc) || !get_entries(ld.resolved, n_res) ||
            !get_entries(ld.flapping, n_flap)) {
            return finish_error();
        }
    }

    if (!get_count(c, "log", n)) return finish_error();
    data.log.resize(n);
    for (auto& e : data.log) {
        if (!c.expect("E", 2, f)) return finish_error();
        if (!c.i64(f[1], e.closed_at)) return finish_error();
        if (f[2] == "-") {
            e.attributed_to_failure = std::nullopt;
        } else {
            bool labeled = false;
            if (!c.flag(f[2], labeled)) return finish_error();
            e.attributed_to_failure = labeled;
        }
        if (!get_report(c, e.report)) return finish_error();
    }

    result.data = std::move(data);
    return result;
}

std::string snapshot_filename(std::uint64_t seq) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "snap-%010llu.skysnap", static_cast<unsigned long long>(seq));
    return buf;
}

error write_snapshot(const std::string& dir, const snapshot_data& data) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);  // best-effort; the write reports failure
    const std::string path = (std::filesystem::path(dir) / snapshot_filename(data.seq)).string();
    if (error e = write_atomic(path, render_snapshot(data))) {
        return error("snapshot: " + e.message());
    }
    return error{};
}

namespace {

/// Snapshot files in `dir` by sequence number, newest first.
std::vector<std::pair<std::uint64_t, std::filesystem::path>> list_snapshots(
    const std::string& dir) {
    namespace fs = std::filesystem;
    std::vector<std::pair<std::uint64_t, fs::path>> snaps;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (!name.starts_with("snap-") || !name.ends_with(".skysnap")) continue;
        std::uint64_t seq = 0;
        const std::string_view digits =
            std::string_view(name).substr(5, name.size() - 5 - std::string_view(".skysnap").size());
        if (!parse_u64(digits, seq)) continue;
        snaps.emplace_back(seq, entry.path());
    }
    std::sort(snaps.begin(), snaps.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    return snaps;
}

}  // namespace

void prune_snapshots(const std::string& dir, std::uint64_t newest_seq) {
    for (const auto& [seq, path] : list_snapshots(dir)) {
        if (seq + snapshots_kept > newest_seq) continue;
        std::error_code ec;
        std::filesystem::remove(path, ec);
    }
}

snapshot_pick load_newest_snapshot(const std::string& dir, std::uint64_t journal_valid_bytes) {
    snapshot_pick pick;
    for (const auto& [seq, path] : list_snapshots(dir)) {
        const std::optional<std::string> text = read_file(path.string());
        if (!text) {
            pick.skipped.push_back({path.filename().string(), "unreadable"});
            continue;
        }
        snapshot_parse_result parsed = parse_snapshot(*text);
        if (!parsed.ok()) {
            pick.skipped.push_back({path.filename().string(), parsed.error});
            continue;
        }
        if (parsed.data->journal_bytes > journal_valid_bytes) {
            pick.skipped.push_back({path.filename().string(),
                                    "references journal bytes past the durable prefix"});
            continue;
        }
        pick.data = std::move(parsed.data);
        pick.file = path.filename().string();
        break;
    }
    return pick;
}

}  // namespace skynet::persist
