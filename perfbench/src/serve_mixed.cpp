// serve-mixed: the daemon under ingest with reads beside the writes.
//
// The daemon runs the sequential engine with the storm-durable admission
// budget, the life-cycle layer and a checkpoint directory. One streaming
// client feeds it the storm-durable trace over the SKYNETJ1 wire on a
// unix socket, closed loop: a window's batch and barrier records go out,
// and the next window waits until the daemon has applied that barrier
// (its barrier hook fires). Meanwhile one query client issues GETs
// round-robin over /v1/health, /v1/incidents?limit=20 and
// /v1/report?json=1, each after the previous one returned. Each round is
// one daemon pass (fresh daemon, fresh checkpoint directory) and one
// bare sequential pass of the same trace (seq_alerts_per_s).
//
// Threads: main (streaming client), query client, and the daemon's
// ingest and HTTP listeners — four in all.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

#include "skynet/persist/journal.h"
#include "skynet/serve/daemon.h"
#include "skynet/serve/http.h"
#include "skynet/serve/net.h"
#include "skynet/serve/wire.h"
#include "storm.h"
#include "workloads.h"

namespace perfbench {

using namespace skynet;

namespace {

/// Minimal JSON syntax check (RFC 8259 values), enough to tell a body
/// that parses from a truncated or garbled one.
class json_checker {
public:
    explicit json_checker(std::string_view text) : s_(text) {}

    [[nodiscard]] bool valid() {
        ws();
        if (!value()) return false;
        ws();
        return i_ == s_.size();
    }

private:
    bool value() {
        if (i_ >= s_.size() || ++depth_ > 64) return false;
        bool ok = false;
        switch (s_[i_]) {
            case '{': ok = object(); break;
            case '[': ok = array(); break;
            case '"': ok = string(); break;
            case 't': ok = literal("true"); break;
            case 'f': ok = literal("false"); break;
            case 'n': ok = literal("null"); break;
            default: ok = number(); break;
        }
        --depth_;
        return ok;
    }
    bool object() {
        ++i_;
        ws();
        if (peek('}')) return ++i_, true;
        for (;;) {
            ws();
            if (!string()) return false;
            ws();
            if (!peek(':')) return false;
            ++i_;
            ws();
            if (!value()) return false;
            ws();
            if (peek('}')) return ++i_, true;
            if (!peek(',')) return false;
            ++i_;
        }
    }
    bool array() {
        ++i_;
        ws();
        if (peek(']')) return ++i_, true;
        for (;;) {
            ws();
            if (!value()) return false;
            ws();
            if (peek(']')) return ++i_, true;
            if (!peek(',')) return false;
            ++i_;
        }
    }
    bool string() {
        if (!peek('"')) return false;
        for (++i_; i_ < s_.size(); ++i_) {
            const char c = s_[i_];
            if (c == '"') return ++i_, true;
            if (static_cast<unsigned char>(c) < 0x20) return false;
            if (c == '\\') ++i_;
        }
        return false;
    }
    bool number() {
        const std::size_t start = i_;
        if (peek('-')) ++i_;
        while (i_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[i_])) != 0 ||
                                  std::strchr(".eE+-", s_[i_]) != nullptr)) {
            ++i_;
        }
        return i_ > start && std::isdigit(static_cast<unsigned char>(s_[i_ - 1])) != 0;
    }
    bool literal(std::string_view word) {
        if (s_.substr(i_, word.size()) != word) return false;
        i_ += word.size();
        return true;
    }
    bool peek(char c) const { return i_ < s_.size() && s_[i_] == c; }
    void ws() {
        while (i_ < s_.size() && std::strchr(" \t\r\n", s_[i_]) != nullptr) ++i_;
    }

    std::string_view s_;
    std::size_t i_{0};
    int depth_{0};
};

/// /v1/report?json=1: an "incidents: N" header, a blank line, then one
/// JSON digest per line.
bool report_listing_parses(const std::string& body) {
    unsigned long long n = 0;
    if (std::sscanf(body.c_str(), "incidents: %llu", &n) != 1) return false;
    std::size_t pos = body.find("\n\n");
    if (pos == std::string::npos) return false;
    pos += 2;
    unsigned long long lines = 0;
    while (pos < body.size()) {
        const std::size_t end = body.find('\n', pos);
        if (end == std::string::npos) return false;
        if (!json_checker(std::string_view(body).substr(pos, end - pos)).valid()) return false;
        ++lines;
        pos = end + 1;
    }
    return lines == n;
}

struct endpoint {
    const char* target;
    bool listing;  ///< body is a report listing, not one JSON object
};

constexpr endpoint kEndpoints[] = {
    {"/v1/health", false},
    {"/v1/incidents?limit=20", false},
    {"/v1/report?json=1", true},
};
constexpr std::size_t kEndpointCount = std::size(kEndpoints);

/// Total milliseconds of one engine stage in a /v1/health body.
double stage_total_ms(const std::string& health, const char* stage) {
    const std::size_t at = health.find("\"" + std::string(stage) + "\":{");
    if (at == std::string::npos) return 0.0;
    const std::size_t key = health.find("\"total_ms\":", at);
    return key == std::string::npos ? 0.0 : std::strtod(health.c_str() + key + 11, nullptr);
}

/// A top-level unsigned counter in a /v1/health body.
double health_counter(const std::string& health, const char* name) {
    const std::size_t at = health.find("\"" + std::string(name) + "\":");
    return at == std::string::npos
               ? 0.0
               : std::strtod(health.c_str() + at + std::strlen(name) + 3, nullptr);
}

struct serve_pass {
    double stream_s{0.0};
    std::vector<double> barrier_ms;
    std::vector<double> query_us[kEndpointCount];
    std::uint64_t queries{0};
    std::uint64_t bad_queries{0};
    std::string status;
    std::string final_report;
    std::string health;
    std::uint64_t durable_bytes{0};
    std::size_t store_incidents{0};
    std::vector<double> render_us[kEndpointCount];
    bool ok{true};
};

struct context {
    const world& w;
    const storm_trace& storm;
    /// Wire bytes per window: the batch record (when non-empty) and the
    /// window's tick or finish record.
    const std::vector<std::string>& frames;
    const run_options& opts;
};

serve_pass daemon_pass(const context& c, tracer& tr, bool measure_render) {
    serve_pass out;
    const std::string dir = fresh_dir(c.opts, "serve");
    serve::engine_options o;
    o.lifecycle = true;
    o.checkpoint_dir = dir + "/ckpt";
    o.admission_budget = c.storm.admission_budget;
    o.serve.ingest_addr = "unix:" + dir + "/in.sock";
    o.serve.http_addr = "unix:" + dir + "/api.sock";
    for (const serve::option_error& e : o.validate(serve::run_mode::serve)) {
        std::fprintf(stderr, "serve-mixed: option %s\n", e.render().c_str());
        out.ok = false;
    }

    std::mutex mu;
    std::condition_variable applied_cv;
    sim_time applied = INT64_MIN;
    serve::daemon d(c.w.topo, c.w.customers, c.w.registry, &c.w.syslog, o);
    d.set_barrier_hook([&](const std::vector<incident_report>&, sim_time now, bool) {
        {
            const std::lock_guard lock(mu);
            applied = now;
        }
        applied_cv.notify_one();
    });
    if (error e = d.start(); e || !out.ok) {
        std::fprintf(stderr, "serve-mixed: daemon start failed: %s\n", e.message().c_str());
        out.ok = false;
        remove_dir(dir);
        return out;
    }
    const auto ingest_addr = serve::parse_addr(d.ingest_addr());
    const auto http_addr = serve::parse_addr(d.http_addr());

    std::atomic<bool> stop_queries{false};
    std::thread queries([&] {
        for (std::size_t i = 0; !stop_queries.load(std::memory_order_relaxed); ++i) {
            const endpoint& ep = kEndpoints[i % kEndpointCount];
            serve::http_response resp;
            std::string err;
            const auto t0 = bench_clock::now();
            const bool sent = serve::http_call(*http_addr, "GET", ep.target, "", resp, err);
            const double us = seconds_since(t0) * 1e6;
            const bool parses = ep.listing ? report_listing_parses(resp.body)
                                           : json_checker(resp.body).valid();
            ++out.queries;
            if (!sent || resp.status != 200 || !parses) {
                ++out.bad_queries;
                std::fprintf(stderr, "serve-mixed: GET %s -> %d %s\n", ep.target, resp.status,
                             err.c_str());
                continue;
            }
            out.query_us[i % kEndpointCount].push_back(us);
        }
    });

    std::string err;
    const int fd = serve::dial(*ingest_addr, err);
    if (fd < 0) {
        std::fprintf(stderr, "serve-mixed: dial failed: %s\n", err.c_str());
        out.ok = false;
    } else {
        const auto s = tr.span("serve.wire.stream");
        const auto t_stream = bench_clock::now();
        bool sent = serve::write_all(fd, persist::journal_magic);
        for (std::size_t i = 0; sent && i < c.storm.windows.size(); ++i) {
            const window& win = c.storm.windows[i];
            const auto t0 = bench_clock::now();
            sent = serve::write_all(fd, c.frames[i]);
            std::unique_lock lock(mu);
            if (!applied_cv.wait_for(lock, std::chrono::seconds(60),
                                     [&] { return applied >= win.barrier; })) {
                std::fprintf(stderr, "serve-mixed: barrier %lld never applied\n",
                             static_cast<long long>(win.barrier));
                sent = false;
                break;
            }
            out.barrier_ms.push_back(seconds_since(t0) * 1e3);
        }
        if (!sent || !serve::read_line(fd, out.status, 60000)) out.ok = false;
        out.stream_s = seconds_since(t_stream);
        ::close(fd);
    }
    stop_queries.store(true);
    queries.join();

    const auto get = [&](const char* target) {
        return d.handle(serve::parse_target("GET", target)).body;
    };
    out.final_report = get("/v1/report?json=1");
    out.health = get("/v1/health");
    out.store_incidents = d.store().size();
    out.durable_bytes = dir_bytes(o.checkpoint_dir);
    if (measure_render) {
        // daemon::handle without a socket: the render cost alone.
        for (int n = 0; n < 200; ++n) {
            for (std::size_t e = 0; e < kEndpointCount; ++e) {
                const serve::http_request req = serve::parse_target("GET", kEndpoints[e].target);
                const auto t0 = bench_clock::now();
                const serve::http_reply reply = d.handle(req);
                out.render_us[e].push_back(seconds_since(t0) * 1e6);
                if (reply.status != 200) out.ok = false;
            }
        }
    }
    d.request_stop();
    if (d.run() != 0) out.ok = false;
    remove_dir(dir);
    return out;
}

}  // namespace

void run_serve_mixed(const run_options& opts, result& res) {
    setup_times times;
    const auto t_topo = bench_clock::now();
    const world w(generator_params::medium(), 400);
    times.topology_s = seconds_since(t_topo);
    const storm_trace storm = make_storm(w, opts.seed, times);
    const auto t_frames = bench_clock::now();
    std::vector<std::string> frames;
    frames.reserve(storm.windows.size());
    std::size_t wire_records = 0;
    std::string payload;
    for (const window& win : storm.windows) {
        std::string f;
        if (win.end > win.begin) {
            persist::encode_batch_payload(payload, storm.alerts_of(win));
            f += serve::frame_record(persist::record_type::batch, payload);
            ++wire_records;
        }
        ++wire_records;
        const auto barrier = win.finish ? persist::record_type::finish : persist::record_type::tick;
        f += serve::frame_record(barrier, persist::encode_barrier_payload(win.barrier));
        frames.push_back(std::move(f));
    }
    times.synthesize_s += seconds_since(t_frames);
    const double setup_s = seconds_since(process_start());
    const context ctx{w, storm, frames, opts};

    // Untimed: the in-process reference listing and one warm-up pass.
    const std::string reference = reference_report_listing(w, storm);
    tracer idle_tracer(false);
    (void)daemon_pass(ctx, idle_tracer, false);

    tracer tr(opts.trace);
    std::vector<double> rates, seq_rates, barrier_ms, query_us, per_endpoint[kEndpointCount],
        render_us[kEndpointCount];
    std::string health;
    double durable_mb = 0.0, store_incidents = 0.0;
    int rounds = 0;
    const auto t_run = bench_clock::now();
    do {
        ++rounds;
        tr.set_pass(rounds);
        release_freed_memory();
        const serve_pass p = daemon_pass(ctx, tr, opts.trace);
        res.check(p.ok, "serve-mixed: daemon pass ran to its end");
        res.check(p.bad_queries == 0,
                  "serve-mixed: every query returned 200 with a body that parses");
        char expect[64];
        std::snprintf(expect, sizeof expect, "OK %zu %zu", wire_records, storm.alerts.size());
        res.check(p.status == expect, "serve-mixed: stream acknowledged as '" +
                                          std::string(expect) + "', got '" + p.status + "'");
        res.check(p.final_report == reference,
                  "serve-mixed: final /v1/report == in-process batch replay");
        rates.push_back(static_cast<double>(storm.alerts.size()) / p.stream_s);
        barrier_ms.insert(barrier_ms.end(), p.barrier_ms.begin(), p.barrier_ms.end());
        for (std::size_t e = 0; e < kEndpointCount; ++e) {
            query_us.insert(query_us.end(), p.query_us[e].begin(), p.query_us[e].end());
            per_endpoint[e].insert(per_endpoint[e].end(), p.query_us[e].begin(),
                                   p.query_us[e].end());
            render_us[e].insert(render_us[e].end(), p.render_us[e].begin(), p.render_us[e].end());
        }
        health = p.health;
        durable_mb += static_cast<double>(p.durable_bytes) / 1e6;
        store_incidents += static_cast<double>(p.store_incidents);
        res.attempted += storm.windows.size() + p.queries;

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
    // The daemon's own engine counters, from the last pass's /v1/health.
    res.per_layer("core.preprocessor.busy_ms", stage_total_ms(health, "preprocess"), "ms");
    res.per_layer("core.locator.busy_ms", stage_total_ms(health, "locate"), "ms");
    res.per_layer("core.evaluator.busy_ms", stage_total_ms(health, "evaluate"), "ms");
    const double alerts_in = health_counter(health, "alerts_in");
    const std::size_t locate_at = health.find("\"locate\":{");
    const double locate_items =
        locate_at == std::string::npos
            ? 0.0
            : std::strtod(health.c_str() + health.find("\"items\":", locate_at) + 8, nullptr);
    res.per_layer("core.preprocessor.out_per_in", alerts_in > 0 ? locate_items / alerts_in : 0.0,
                  "ratio");
    res.per_layer("persist.durable_mb", durable_mb / passes, "MB");
    res.per_layer("serve.query_p50_us", percentile(query_us, 50.0), "us");
    res.per_layer("serve.query_p99_us", percentile(query_us, 99.0), "us");
    res.per_layer("serve.http.health_us", median(per_endpoint[0]), "us");
    res.per_layer("serve.http.incidents_us", median(per_endpoint[1]), "us");
    res.per_layer("serve.http.report_us", median(per_endpoint[2]), "us");
    res.per_layer("serve.render.health_us", median(render_us[0]), "us");
    res.per_layer("serve.render.incidents_us", median(render_us[1]), "us");
    res.per_layer("serve.render.report_us", median(render_us[2]), "us");
    res.per_layer("serve.incident_store.incidents", store_incidents / passes, "count");
    const auto spans = tr.summarize();
    const auto it = spans.find("serve.wire.stream");
    res.per_layer("serve.wire.stream_ms", it == spans.end() ? 0.0 : it->second.self_ms / passes,
                  "ms");
    res.spans = std::move(tr);

    std::fprintf(stderr,
                 "serve-mixed: %zu alerts, %zu windows, %d rounds, %zu queries\n"
                 "  serve_ingest_alerts_per_s %.1f  query_p50_us %.2f  query_p99_us %.2f\n",
                 storm.alerts.size(), storm.windows.size(), rounds, query_us.size(), median(rates),
                 percentile(query_us, 50.0), percentile(query_us, 99.0));
}

}  // namespace perfbench
