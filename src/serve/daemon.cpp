#include "skynet/serve/daemon.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "skynet/core/digest.h"
#include "skynet/persist/recovery.h"
#include "skynet/persist/report_codec.h"
#include "skynet/serve/report_text.h"
#include "skynet/serve/wire.h"
#include "skynet/sim/trace.h"

namespace skynet::serve {

namespace {

using persist::codec::parse_i64;
using persist::codec::parse_u64;

http_reply bad_request(const std::string& message) {
    return {400, "application/json", "{\"error\":\"" + json_escape(message) + "\"}\n"};
}

}  // namespace

daemon::daemon(const topology& topo, const customer_registry& customers,
               const alert_type_registry& registry, const syslog_classifier* syslog,
               engine_options opts)
    : topo_(topo),
      customers_(customers),
      registry_(registry),
      syslog_(syslog),
      opts_(std::move(opts)),
      idle_(&topo_, &customers_),
      guard_(opts_.overload_config(), &topo_, &registry_) {}

daemon::~daemon() {
    ingest_listener_.stop();
    http_.stop();
    for (int& fd : stop_pipe_) {
        if (fd >= 0) ::close(fd);
        fd = -1;
    }
}

error daemon::start() {
    if (::pipe(stop_pipe_) != 0) return error{"stop pipe creation failed"};

    const skynet_engine::deps deps{&topo_, &customers_, &registry_, syslog_};
    if (opts_.shards > 0) {
        sharded_.emplace(deps, opts_.sharded());
    } else {
        seq_.emplace(deps, opts_.pipeline);
    }
    if (opts_.lifecycle) lifecycle_.emplace(opts_.lifecycle_config(), &topo_);

    persist::recovery_result recovered;
    if (opts_.recover) {
        persist::recovery_options ropts;
        ropts.dir = opts_.checkpoint_dir;
        ropts.tick_state = &idle_;
        // Direct continuation: the daemon does not re-stream, so the
        // snapshot's controller state is imported as-is.
        ropts.controller = &guard_;
        if (lifecycle_) {
            ropts.lifecycle = &*lifecycle_;
            // Replayed barriers drain the engine (the manager needs each
            // barrier's closures); append them to the store at their true
            // barrier times so the incident history matches the
            // uninterrupted run.
            ropts.replay_closed = [this](sim_time when,
                                         const std::vector<incident_report>& closed) {
                if (!closed.empty()) store_.append_closed(closed, when);
            };
        }
        try {
            recovered = sharded_ ? persist::recover(*sharded_, topo_.locations(),
                                                    &store_.log(), ropts)
                                 : persist::recover(*seq_, topo_.locations(), &store_.log(),
                                                   ropts);
        } catch (const std::exception& e) {
            return error{e.what()};
        }
        store_.reindex();
        recovered_base_ = recovered.metrics;
        last_barrier_ = recovered.last_barrier_time;
        saw_finish_ = recovered.saw_finish;
        // --resume-stream: the feeder will restream from the top; this
        // many wire records are already applied and must be skipped.
        if (opts_.resume_stream) resume_skip_ = recovered.journal_records;
        for (const std::string& note : recovered.notes) {
            std::printf("recover: %s\n", note.c_str());
        }
    }

    if (!opts_.checkpoint_dir.empty()) {
        persist::durable_options dopts;
        dopts.dir = opts_.checkpoint_dir;
        dopts.checkpoint_every = static_cast<std::uint64_t>(opts_.checkpoint_every);
        dopts.resume_records = recovered.journal_records;
        dopts.crash_after = opts_.crash_after;
        dopts.continue_after_recovery = true;
        dopts.next_snapshot_seq = recovered.next_snapshot_seq;
        dopts.base = recovered.metrics;
        dopts.locations = &topo_.locations();
        dopts.log = &store_.log();
        dopts.controller = &guard_;
        if (lifecycle_) {
            dopts.lifecycle = &*lifecycle_;
            // Drain + feed inside the session's tick, before any
            // checkpoint at that barrier: the snapshot then captures the
            // manager's state *through* the barrier. apply_barrier picks
            // the stash up right after. engine_mu_ is already held.
            dopts.barrier_hook = [this](sim_time when, const network_state&) {
                barrier_reports_ = drain_reports_locked(when);
            };
        }
        try {
            if (sharded_) {
                dur_sharded_ =
                    std::make_unique<persist::durable_session<sharded_engine>>(*sharded_, dopts);
            } else {
                dur_seq_ =
                    std::make_unique<persist::durable_session<skynet_engine>>(*seq_, dopts);
            }
        } catch (const std::exception& e) {
            return error{e.what()};
        }
    }

    {
        std::lock_guard lock(engine_mu_);
        publish_locked();
    }

    // Before any listener can race it: let the federation emitter resync
    // a digest journal that fell behind the recovered engine state.
    if (recovered_hook_) recovered_hook_();

    if (!opts_.serve.ingest_addr.empty()) {
        const auto addr = parse_addr(opts_.serve.ingest_addr);
        if (!addr) return error{"--serve: bad address " + opts_.serve.ingest_addr};
        if (error e = ingest_listener_.start(*addr, [this](int fd) { handle_ingest_conn(fd); })) {
            return e;
        }
    }
    if (!opts_.serve.http_addr.empty()) {
        const auto addr = parse_addr(opts_.serve.http_addr);
        if (!addr) return error{"--http: bad address " + opts_.serve.http_addr};
        if (error e = http_.start(*addr, [this](const http_request& r) { return handle(r); })) {
            ingest_listener_.stop();
            return e;
        }
    }
    return {};
}

void daemon::request_stop() noexcept {
    stopping_.store(true, std::memory_order_relaxed);
    if (stop_pipe_[1] >= 0) {
        const char wake = 'x';
        [[maybe_unused]] const ssize_t n = ::write(stop_pipe_[1], &wake, 1);
    }
}

int daemon::run() {
    while (!stopping_.load(std::memory_order_relaxed)) {
        pollfd pfd{.fd = stop_pipe_[0], .events = POLLIN, .revents = 0};
        ::poll(&pfd, 1, 500);
    }
    std::printf("serve: draining\n");
    std::fflush(stdout);
    // Joining the listeners waits for in-flight handlers, so after this
    // every accepted record has been applied.
    ingest_listener_.stop();
    http_.stop();
    {
        std::lock_guard lock(engine_mu_);
        const auto reports = drain_reports_locked(last_barrier_);
        store_.append_closed(reports, last_barrier_);
        publish_locked();
        if (barrier_hook_ && !reports.empty()) {
            barrier_hook_(reports, last_barrier_, saw_finish_);
        }
        if (!durable_checkpoint(last_barrier_)) {
            std::fprintf(stderr, "serve: final checkpoint failed\n");
        }
    }
    std::printf("serve: shutdown clean: %llu connections, %llu records, %llu alerts, "
                "%zu incidents\n",
                static_cast<unsigned long long>(wire_conns_.load()),
                static_cast<unsigned long long>(wire_records_.load()),
                static_cast<unsigned long long>(wire_alerts_.load()), store_.size());
    std::fflush(stdout);
    return 0;
}

std::string daemon::ingest_addr() const {
    return opts_.serve.ingest_addr.empty() ? std::string()
                                           : ingest_listener_.bound().to_string();
}

std::string daemon::http_addr() const {
    return opts_.serve.http_addr.empty() ? std::string() : http_.bound().to_string();
}

void daemon::handle_ingest_conn(int fd) {
    wire_conns_.fetch_add(1, std::memory_order_relaxed);
    wire_decoder decoder;
    char buf[65536];
    std::uint64_t records = 0;
    std::uint64_t alerts = 0;
    bool finished = false;
    while (!stopping_.load(std::memory_order_relaxed) && !finished) {
        const int n = read_some(fd, buf, sizeof buf, 200);
        if (n == 0) continue;  // poll timeout; re-check the stop flag
        if (n < 0) break;      // EOF or error
        decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
        while (!finished) {
            auto record = decoder.next();
            if (!record) break;
            ++records;
            // --resume-stream: the journal already applied this prefix
            // during recovery; consume the re-streamed copies without
            // touching the engine (a skipped finish still completes the
            // session so the feeder gets its OK line). The ingest
            // listener is single-threaded, so the position counter needs
            // no lock.
            if (resume_pos_ < resume_skip_) {
                ++resume_pos_;
                if (record->type == persist::record_type::finish) finished = true;
                continue;
            }
            switch (record->type) {
                case persist::record_type::batch:
                    alerts += record->batch.size();
                    apply_batch(std::move(record->batch));
                    break;
                case persist::record_type::tick:
                    apply_barrier(record->now, false);
                    break;
                case persist::record_type::finish:
                    apply_barrier(record->now, true);
                    finished = true;
                    break;
            }
        }
        if (decoder.corrupt()) {  // never after a finish: next() stops there
            (void)write_all(fd, "ERR " + decoder.corruption_reason() + "\n");
            break;
        }
    }
    wire_records_.fetch_add(records, std::memory_order_relaxed);
    wire_alerts_.fetch_add(alerts, std::memory_order_relaxed);
    if (finished) {
        char line[64];
        std::snprintf(line, sizeof line, "OK %llu %llu\n",
                      static_cast<unsigned long long>(records),
                      static_cast<unsigned long long>(alerts));
        (void)write_all(fd, line);
    }
}

void daemon::apply_batch(std::vector<traced_alert> batch) {
    std::lock_guard lock(engine_mu_);
    // Mirrors the batch CLI's delivery: pass-through feeds the engine
    // verbatim; an active guard sheds first and skips empty remainders.
    if (guard_.pass_through()) {
        with_sink([&](auto& s) { s.ingest_batch(std::span<const traced_alert>(batch)); });
        return;
    }
    batch = guard_.admit(std::move(batch));
    if (!batch.empty()) {
        with_sink([&](auto& s) { s.ingest_batch(std::span<const traced_alert>(batch)); });
    }
}

void daemon::apply_barrier(sim_time now, bool finish) {
    std::lock_guard lock(engine_mu_);
    if (now < last_barrier_) return;  // stale barrier from a replayed stream
    // A durable session with the life-cycle layer on drains the barrier
    // inside its tick (see the barrier_hook in start()); consume that
    // stash instead of draining twice.
    const bool stashed = lifecycle_ && (dur_seq_ || dur_sharded_);
    barrier_reports_.clear();
    with_sink([&](auto& s) {
        if (finish) {
            s.finish(now, idle_);
        } else {
            s.tick(now, idle_);
        }
    });
    guard_.on_tick(now);
    last_barrier_ = now;
    if (finish) saw_finish_ = true;
    const auto reports = stashed ? std::move(barrier_reports_) : drain_reports_locked(now);
    store_.append_closed(reports, now);
    publish_locked();
    if (barrier_hook_) barrier_hook_(reports, now, finish);
}

std::vector<incident_report> daemon::drain_reports_locked(sim_time now) {
    std::vector<incident_report> reports =
        with_engine([](auto& e) { return e.take_reports(); });
    if (lifecycle_) {
        const std::vector<incident_report> open =
            with_engine([&](auto& e) { return e.open_reports(now, idle_); });
        lifecycle_->on_barrier(now, reports, open, &idle_);
    }
    return reports;
}

void daemon::publish_locked() {
    engine_metrics m = with_engine([](auto& e) { return engine_metrics(e.barrier_metrics()); });
    m.overload += guard_.metrics();
    m.degraded.sketched += guard_.sketched_decisions();
    m.recovery += durable_metrics();
    m.degraded.log_out_of_order += store_.out_of_order();
    if (lifecycle_) m.lifecycle = lifecycle_->metrics();
    if (metrics_hook_) metrics_hook_(m);
    std::string health = m.to_json() + "\n";
    if (!opts_.health_json.empty()) {
        if (error e = persist::write_atomic(opts_.health_json, health)) {
            std::fprintf(stderr, "health-json: %s\n", e.message().c_str());
        }
    }
    std::lock_guard lock(pub_mu_);
    pub_health_ = std::move(health);
}

recovery_metrics daemon::durable_metrics() const {
    if (dur_sharded_) return dur_sharded_->metrics();
    if (dur_seq_) return dur_seq_->metrics();
    return recovered_base_;
}

bool daemon::durable_checkpoint(sim_time now) {
    if (dur_sharded_) return dur_sharded_->checkpoint_now(now);
    if (dur_seq_) return dur_seq_->checkpoint_now(now);
    return true;
}

http_reply daemon::handle(const http_request& req) {
    if (req.path == "/v1/health") {
        if (req.method != "GET") return {405, "application/json", "{\"error\":\"use GET\"}\n"};
        return get_health();
    }
    if (req.path == "/v1/report") {
        if (req.method != "GET") return {405, "application/json", "{\"error\":\"use GET\"}\n"};
        return get_report(req);
    }
    if (req.path == "/v1/incidents") {
        if (req.method != "GET") return {405, "application/json", "{\"error\":\"use GET\"}\n"};
        return get_incidents(req);
    }
    if (req.path == "/v1/diff") {
        if (req.method != "GET") return {405, "application/json", "{\"error\":\"use GET\"}\n"};
        return get_diff();
    }
    if (req.path == "/v1/ingest") {
        if (req.method != "POST") {
            return {405, "application/json", "{\"error\":\"use POST\"}\n"};
        }
        return post_ingest(req);
    }
    if (req.path == "/") {
        return {200, "text/plain",
                "skynet daemon\n"
                "  GET  /v1/health\n"
                "  GET  /v1/report?json=0|1&timeline=0|1\n"
                "  GET  /v1/incidents?id=&loc=&type=&from=&to=&min_score=&actionable=1"
                "&cursor=&limit=\n"
                "  GET  /v1/diff              (--lifecycle on: last barrier's changes)\n"
                "  POST /v1/ingest            (trace text body)\n"};
    }
    return {404, "application/json", "{\"error\":\"no such endpoint\"}\n"};
}

http_reply daemon::get_health() const {
    std::lock_guard lock(pub_mu_);
    return {200, "application/json", pub_health_};
}

http_reply daemon::get_report(const http_request& req) const {
    report_listing_options ropts{.json = opts_.json, .timeline = opts_.timeline};
    if (const std::string* v = req.param("json")) ropts.json = *v != "0";
    if (const std::string* v = req.param("timeline")) ropts.timeline = *v != "0";
    const std::vector<incident_report> reports = store_.ranked_reports();
    return {200, "text/plain", render_report_listing(reports, ropts)};
}

http_reply daemon::get_incidents(const http_request& req) const {
    incident_store::query_params q;
    if (const std::string* v = req.param("id")) {
        std::uint64_t id = 0;
        if (!parse_u64(*v, id)) return bad_request("id: expected an unsigned integer");
        q.id = id;
    }
    if (const std::string* v = req.param("loc")) q.scope = location::parse(*v);
    if (const std::string* v = req.param("type")) q.type = *v;
    if (const std::string* v = req.param("from")) {
        std::int64_t t = 0;
        if (!parse_i64(*v, t)) return bad_request("from: expected a time in ms");
        q.from = t;
    }
    if (const std::string* v = req.param("to")) {
        std::int64_t t = 0;
        if (!parse_i64(*v, t)) return bad_request("to: expected a time in ms");
        q.to = t;
    }
    if (const std::string* v = req.param("min_score")) {
        char* end = nullptr;
        q.min_score = std::strtod(v->c_str(), &end);
        if (end != v->c_str() + v->size() || v->empty()) {
            return bad_request("min_score: expected a number");
        }
    }
    if (const std::string* v = req.param("actionable")) q.only_actionable = *v != "0";
    if (const std::string* v = req.param("cursor")) {
        if (!parse_u64(*v, q.cursor)) return bad_request("cursor: expected an unsigned integer");
    }
    if (const std::string* v = req.param("limit")) {
        std::uint64_t limit = 0;
        if (!parse_u64(*v, limit)) return bad_request("limit: expected an unsigned integer");
        q.limit = static_cast<std::size_t>(limit);
    }

    const incident_store::query_result result = store_.query(q);
    std::string body;
    body.reserve(256 + result.items.size() * 512);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "{\"barrier_time\":%lld,\"total\":%llu,\"count\":%zu,\"next_cursor\":%llu,"
                  "\"has_more\":%s,\"incidents\":[",
                  static_cast<long long>(result.barrier_time),
                  static_cast<unsigned long long>(result.total), result.items.size(),
                  static_cast<unsigned long long>(result.next_cursor),
                  result.has_more ? "true" : "false");
    body += buf;
    for (std::size_t i = 0; i < result.items.size(); ++i) {
        const incident_store::item& item = result.items[i];
        if (i > 0) body += ",";
        const char* labeled = !item.entry.attributed_to_failure.has_value() ? "null"
                              : *item.entry.attributed_to_failure          ? "true"
                                                                           : "false";
        std::snprintf(buf, sizeof buf, "{\"ordinal\":%llu,\"closed_at\":%lld,\"labeled\":%s,",
                      static_cast<unsigned long long>(item.ordinal),
                      static_cast<long long>(item.entry.closed_at), labeled);
        body += buf;
        body += "\"incident\":";
        body += incident_digest_json(item.entry.report);
        body += "}";
    }
    body += "]}\n";
    return {200, "application/json", std::move(body)};
}

http_reply daemon::get_diff() {
    if (!lifecycle_) {
        return {404, "application/json",
                "{\"error\":\"life-cycle layer disabled; start with --lifecycle on\"}\n"};
    }
    // The manager only changes at barriers, under engine_mu_; a short
    // hold gives a barrier-consistent diff.
    std::lock_guard lock(engine_mu_);
    return {200, "application/json", lifecycle_->last_diff().to_json() + "\n"};
}

http_reply daemon::post_ingest(const http_request& req) {
    trace_parse_result parsed = parse_trace(req.body);
    if (parsed.alerts.empty() && !parsed.errors.empty()) {
        return bad_request("no parsable alerts (" + std::to_string(parsed.errors.size()) +
                           " parse errors)");
    }
    const std::size_t accepted = parsed.alerts.size();
    const std::size_t parse_errors = parsed.errors.size();
    sim_time max_arrival = 0;
    for (const traced_alert& t : parsed.alerts) max_arrival = std::max(max_arrival, t.arrival);
    if (accepted > 0) {
        apply_batch(std::move(parsed.alerts));
        // Barrier at the batch's horizon so the results are queryable
        // immediately; dropped when the engine clock is already past it.
        apply_barrier(max_arrival, false);
    }
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "{\"accepted\":%zu,\"parse_errors\":%zu,\"barrier_time\":%lld}\n", accepted,
                  parse_errors, static_cast<long long>(store_.barrier_time()));
    return {200, "application/json", buf};
}

}  // namespace skynet::serve
