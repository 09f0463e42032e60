#include "skynet/federate/aggregator.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <mutex>

#include "skynet/core/digest.h"
#include "skynet/core/pipeline.h"
#include "skynet/serve/report_text.h"

namespace skynet::federate {

namespace {

std::int64_t ms_since(std::chrono::steady_clock::time_point then,
                      std::chrono::steady_clock::time_point now) {
    return std::chrono::duration_cast<std::chrono::milliseconds>(now - then).count();
}

}  // namespace

aggregator::aggregator(aggregator_config cfg) : cfg_(std::move(cfg)) {}

aggregator::~aggregator() {
    fed_listener_.stop();
    http_.stop();
    for (int& fd : stop_pipe_) {
        if (fd >= 0) {
            ::close(fd);
            fd = -1;
        }
    }
}

error aggregator::start() {
    if (::pipe2(stop_pipe_, O_CLOEXEC | O_NONBLOCK) != 0) {
        return error{"federate: cannot create stop pipe"};
    }

    const auto fed = serve::parse_addr(cfg_.listen_addr);
    if (!fed) return error{"federate: bad aggregate address " + cfg_.listen_addr};
    if (error err = fed_listener_.start(*fed, [this](int fd) { handle_fed_conn(fd); })) {
        return err;
    }

    if (!cfg_.http_addr.empty()) {
        const auto http = serve::parse_addr(cfg_.http_addr);
        if (!http) return error{"federate: bad http address " + cfg_.http_addr};
        if (error err = http_.start(
                *http, [this](const serve::http_request& req) { return handle(req); })) {
            fed_listener_.stop();
            return err;
        }
    }
    return {};
}

int aggregator::run() {
    std::fprintf(stderr, "federate: aggregating on %s", fed_addr().c_str());
    if (!cfg_.http_addr.empty()) std::fprintf(stderr, ", http on %s", http_addr().c_str());
    std::fprintf(stderr, "\n");

    while (!stopping_.load(std::memory_order_acquire)) {
        struct pollfd pfd{stop_pipe_[0], POLLIN, 0};
        (void)::poll(&pfd, 1, 500);
        if (pfd.revents != 0) break;
    }
    std::fprintf(stderr, "federate: draining\n");
    fed_listener_.stop();
    http_.stop();

    const federation_metrics m = metrics();
    std::fprintf(stderr,
                 "federate: shutdown clean: %zu regions, %llu digests applied, "
                 "%llu duplicates dropped, %llu gaps\n",
                 region_count(), static_cast<unsigned long long>(m.digests_applied),
                 static_cast<unsigned long long>(m.duplicates_dropped),
                 static_cast<unsigned long long>(m.gaps_detected));
    return 0;
}

void aggregator::request_stop() noexcept {
    stopping_.store(true, std::memory_order_release);
    if (stop_pipe_[1] >= 0) {
        const char byte = 1;
        [[maybe_unused]] ssize_t n = ::write(stop_pipe_[1], &byte, 1);
    }
}

std::string aggregator::fed_addr() const { return fed_listener_.bound().to_string(); }

std::string aggregator::http_addr() const { return http_.bound().to_string(); }

aggregator::apply_result aggregator::apply_digest(region_digest d) {
    std::unique_lock lock(mu_);
    region_entry& entry = regions_[d.region];
    entry.last_contact = std::chrono::steady_clock::now();
    if (d.seq <= entry.last_seq) {
        // Exactly-once merge: the emitter replays everything past the
        // aggregator's HAVE mark, so an overlap after a reconnect (or a
        // restarted emitter's full-journal replay) lands here harmlessly.
        ++entry.duplicates_dropped;
        return {};
    }
    apply_result result;
    result.gap = d.seq - entry.last_seq - 1;
    entry.gaps_detected += result.gap;
    entry.last_seq = d.seq;
    entry.last_barrier = d.barrier;
    entry.finished = entry.finished || d.finish;
    ++entry.digests_applied;
    entry.reports.insert(entry.reports.end(), std::make_move_iterator(d.reports.begin()),
                         std::make_move_iterator(d.reports.end()));
    result.applied = true;
    return result;
}

std::uint64_t aggregator::last_seq(const std::string& region) const {
    std::shared_lock lock(mu_);
    const auto it = regions_.find(region);
    return it == regions_.end() ? 0 : it->second.last_seq;
}

std::vector<incident_report> aggregator::merged_ranked() const {
    std::vector<incident_report> merged;
    {
        std::shared_lock lock(mu_);
        for (const auto& [region, entry] : regions_) {
            merged.insert(merged.end(), entry.reports.begin(), entry.reports.end());
        }
    }
    // Concatenation follows the map's region order, so the stable sort
    // yields (score desc, incident id asc, region asc) — one total order
    // no matter how digest arrivals interleaved. This is the partition
    // parity guarantee: a recovered region's catch-up produces the same
    // bytes as an always-connected run.
    std::stable_sort(merged.begin(), merged.end(), report_before);
    return merged;
}

federation_metrics aggregator::metrics() const {
    federation_metrics m;
    const auto now = std::chrono::steady_clock::now();
    std::shared_lock lock(mu_);
    for (const auto& [region, entry] : regions_) {
        m.digests_applied += entry.digests_applied;
        m.duplicates_dropped += entry.duplicates_dropped;
        m.gaps_detected += entry.gaps_detected;
        switch (classify(ms_since(entry.last_contact, now), cfg_.health)) {
            case region_state::live: ++m.regions_live; break;
            case region_state::lagging: ++m.regions_lagging; break;
            case region_state::stale: ++m.regions_stale; break;
            case region_state::partitioned: ++m.regions_partitioned; break;
        }
    }
    return m;
}

std::size_t aggregator::region_count() const {
    std::shared_lock lock(mu_);
    return regions_.size();
}

void aggregator::touch(const std::string& region) {
    std::unique_lock lock(mu_);
    regions_[region].last_contact = std::chrono::steady_clock::now();
}

void aggregator::handle_fed_conn(int fd) {
    fed_decoder decoder;
    std::string region;
    std::uint64_t applied = 0;
    char buf[64 * 1024];
    auto last_activity = std::chrono::steady_clock::now();

    auto reject = [&](const std::string& reason) {
        sessions_rejected_.fetch_add(1, std::memory_order_relaxed);
        (void)serve::write_all(fd, "ERR " + reason + "\n");
    };

    while (!stopping_.load(std::memory_order_acquire)) {
        const int n = serve::read_some(fd, buf, sizeof buf, 200);
        if (n < 0) break;  // EOF (or error): the emitter is done sending
        if (n == 0) {
            if (ms_since(last_activity, std::chrono::steady_clock::now()) >=
                cfg_.session_timeout_ms) {
                return reject("session timeout");
            }
            continue;
        }
        last_activity = std::chrono::steady_clock::now();
        decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
        while (auto frame = decoder.next()) {
            if (frame->type == fed_record::hello) {
                if (!region.empty()) return reject("duplicate hello");
                if (frame->payload.empty()) return reject("hello with empty region");
                region = frame->payload;
                touch(region);
                sessions_.fetch_add(1, std::memory_order_relaxed);
                // The catch-up contract: tell the emitter our high-water
                // mark so it sends exactly the digests we are missing.
                if (!serve::write_all(fd, "HAVE " + std::to_string(last_seq(region)) + "\n")) {
                    return;
                }
                continue;
            }
            // digest frame
            if (region.empty()) return reject("digest before hello");
            region_digest d;
            std::string err;
            if (!decode_digest_payload(frame->payload, d, err)) return reject("bad digest: " + err);
            if (d.region != region) {
                return reject("digest region '" + d.region + "' does not match hello '" +
                              region + "'");
            }
            if (apply_digest(std::move(d)).applied) ++applied;
        }
        if (decoder.corrupt()) return reject(decoder.corruption_reason());
    }
    if (region.empty()) return;  // never completed the handshake
    (void)serve::write_all(fd, "OK " + std::to_string(last_seq(region)) + " " +
                                   std::to_string(applied) + "\n");
}

serve::http_reply aggregator::handle(const serve::http_request& req) {
    auto bad = [](int status, std::string_view message) {
        serve::http_reply reply;
        reply.status = status;
        reply.body = "{\"error\":\"" + json_escape(message) + "\"}\n";
        return reply;
    };

    if (req.path == "/v1/health") {
        if (req.method != "GET") return bad(405, "use GET");
        return get_health();
    }
    if (req.path == "/v1/report") {
        if (req.method != "GET") return bad(405, "use GET");
        return get_report(req);
    }
    if (req.path == "/v1/regions") {
        if (req.method != "GET") return bad(405, "use GET");
        return get_regions();
    }
    if (req.path == "/") {
        serve::http_reply reply;
        reply.content_type = "text/plain";
        reply.body =
            "skynet federation aggregator\n"
            "  GET /v1/health   merged metrics JSON (federation block)\n"
            "  GET /v1/report   cross-region ranked incident listing\n"
            "  GET /v1/regions  per-region staleness detail\n";
        return reply;
    }
    return bad(404, "no such endpoint");
}

serve::http_reply aggregator::get_health() {
    // Same shape as the daemon's /v1/health: the canonical engine
    // metrics JSON. The aggregator runs no engine, so every block except
    // `federation` is zero — consumers parse one schema everywhere.
    engine_metrics m;
    m.federation = metrics();
    serve::http_reply reply;
    reply.body = m.to_json() + "\n";
    return reply;
}

serve::http_reply aggregator::get_report(const serve::http_request& req) const {
    serve::report_listing_options options;
    options.json = cfg_.report_json;
    options.timeline = cfg_.report_timeline;
    if (const std::string* v = req.param("json")) options.json = *v != "0";
    if (const std::string* v = req.param("timeline")) options.timeline = *v != "0";
    const std::vector<incident_report> merged = merged_ranked();
    serve::http_reply reply;
    reply.content_type = "text/plain";
    reply.body = serve::render_report_listing(merged, options);
    return reply;
}

serve::http_reply aggregator::get_regions() const {
    const auto now = std::chrono::steady_clock::now();
    std::string body = "{\"regions\":[";
    std::size_t count = 0;
    {
        std::shared_lock lock(mu_);
        for (const auto& [region, entry] : regions_) {
            if (count++ != 0) body += ',';
            const std::int64_t since = ms_since(entry.last_contact, now);
            body += "{\"region\":\"" + json_escape(region) + "\"";
            body += ",\"state\":\"";
            body += to_string(classify(since, cfg_.health));
            body += "\",\"since_contact_ms\":" + std::to_string(since);
            body += ",\"last_seq\":" + std::to_string(entry.last_seq);
            body += ",\"last_barrier\":" + std::to_string(entry.last_barrier);
            body += ",\"finished\":";
            body += entry.finished ? "true" : "false";
            body += ",\"digests_applied\":" + std::to_string(entry.digests_applied);
            body += ",\"duplicates_dropped\":" + std::to_string(entry.duplicates_dropped);
            body += ",\"gaps_detected\":" + std::to_string(entry.gaps_detected);
            body += ",\"reports\":" + std::to_string(entry.reports.size());
            body += "}";
        }
    }
    body += "],\"count\":" + std::to_string(count);
    body += ",\"sessions\":" + std::to_string(sessions_.load(std::memory_order_relaxed));
    body += ",\"sessions_rejected\":" +
            std::to_string(sessions_rejected_.load(std::memory_order_relaxed));
    body += "}\n";
    return {200, "application/json", std::move(body)};
}

}  // namespace skynet::federate
