#include "skynet/federate/emitter.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <system_error>

#include "skynet/persist/journal.h"
#include "skynet/persist/report_codec.h"
#include "skynet/sketch/counting.h"

namespace skynet::federate {

namespace {

/// "TAG <u64> ..." -> the first integer field; false on anything else.
bool parse_status_line(std::string_view line, std::string_view tag, std::uint64_t& first) {
    if (!line.starts_with(tag) || line.size() <= tag.size() || line[tag.size()] != ' ') {
        return false;
    }
    std::string_view rest = line.substr(tag.size() + 1);
    const std::size_t space = rest.find(' ');
    if (space != std::string_view::npos) rest = rest.substr(0, space);
    return persist::codec::parse_u64(rest, first);
}

}  // namespace

digest_emitter::digest_emitter(emitter_config cfg) : cfg_(std::move(cfg)) {}

digest_emitter::~digest_emitter() { stop(); }

error digest_emitter::start() {
    const auto addr = serve::parse_addr(cfg_.aggregator_addr);
    if (!addr) return error{"federate: bad aggregator address " + cfg_.aggregator_addr};
    addr_ = *addr;
    retry_ = cfg_.retry;
    if (retry_.seed == 0) retry_.seed = sketch::hash64(cfg_.region);

    if (!cfg_.journal_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(cfg_.journal_dir, ec);
        if (ec) return error{"federate: cannot create " + cfg_.journal_dir};
        const std::string path = cfg_.journal_dir + "/" + digest_journal_filename;
        digest_journal_read loaded = read_digest_journal(path);
        if (loaded.truncated_tail_bytes > 0 &&
            !persist::truncate_journal(path, loaded.valid_bytes)) {
            return error{"federate: cannot trim torn digest journal " + path};
        }
        for (region_digest& d : loaded.digests) {
            if (d.region != cfg_.region) {
                return error{"federate: digest journal " + path + " belongs to region '" +
                             d.region + "', not '" + cfg_.region + "'"};
            }
            frames_.emplace_back(d.seq,
                                 frame_fed_record(fed_record::digest, encode_digest_payload(d)));
            next_seq_ = d.seq + 1;
            last_barrier_ = d.barrier;
            last_finish_ = d.finish;
        }
        try {
            journal_ = std::make_unique<digest_journal_writer>(path);
        } catch (const std::exception& e) {
            return error{std::string("digest journal: ") + e.what()};
        }
        if (const std::string& e = journal_->write_error(); !e.empty()) {
            return error{"digest journal: " + e};
        }
    }

    thread_ = std::thread([this] { loop(); });
    return {};
}

void digest_emitter::stop() {
    {
        std::lock_guard lock(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
}

void digest_emitter::publish(const std::vector<incident_report>& reports, sim_time barrier,
                             bool finish) {
    std::lock_guard lock(mu_);
    // The barrier clock only moves forward; a repeated barrier is a
    // replayed stream re-closing reports the journal already carries
    // (the daemon's resume path) — publishing it again would duplicate
    // incidents at the aggregator. The only same-barrier upgrade allowed
    // is tick -> finish, which carries the drain's trailing reports.
    if (barrier < last_barrier_) return;
    if (barrier == last_barrier_ && !(finish && !last_finish_)) return;

    region_digest d;
    d.region = cfg_.region;
    d.seq = next_seq_;
    d.barrier = barrier;
    d.finish = finish;
    d.reports = reports;
    std::string frame = frame_fed_record(fed_record::digest, encode_digest_payload(d));
    if (journal_ && journal_->write_error().empty() && !journal_->append_frame(frame)) {
        // Journaling stops here; the queue still sends, but these digests
        // are not replayed after a restart.
        std::fprintf(stderr, "federate: digest journal: %s\n", journal_->write_error().c_str());
    }
    emitted_.fetch_add(1, std::memory_order_relaxed);
    emitted_bytes_.fetch_add(frame.size(), std::memory_order_relaxed);
    frames_.emplace_back(next_seq_, std::move(frame));
    ++next_seq_;
    last_barrier_ = barrier;
    last_finish_ = finish;
    cv_.notify_all();
}

bool digest_emitter::flush_now() {
    if (!session_with_retries()) return false;
    std::lock_guard lock(mu_);
    return acked_.load(std::memory_order_relaxed) + 1 >= next_seq_;
}

std::uint64_t digest_emitter::next_seq() const {
    std::lock_guard lock(mu_);
    return next_seq_;
}

sim_time digest_emitter::last_barrier() const {
    std::lock_guard lock(mu_);
    return last_barrier_;
}

std::string digest_emitter::journal_error() const {
    std::lock_guard lock(mu_);
    return journal_ ? journal_->write_error() : std::string();
}

federation_metrics digest_emitter::metrics() const {
    federation_metrics m;
    m.digests_emitted = emitted_.load(std::memory_order_relaxed);
    m.digest_bytes = emitted_bytes_.load(std::memory_order_relaxed);
    m.sessions_ok = sessions_ok_.load(std::memory_order_relaxed);
    m.sessions_failed = sessions_failed_.load(std::memory_order_relaxed);
    m.send_retries = retries_.load(std::memory_order_relaxed);
    m.acked_seq = acked_.load(std::memory_order_relaxed);
    return m;
}

void digest_emitter::loop() {
    std::unique_lock lock(mu_);
    while (!stop_) {
        const auto pending = [&] { return acked_.load(std::memory_order_relaxed) + 1 < next_seq_; };
        if (!pending()) {
            if (cfg_.heartbeat_ms > 0) {
                cv_.wait_for(lock, std::chrono::milliseconds(cfg_.heartbeat_ms),
                             [&] { return stop_ || pending(); });
            } else {
                cv_.wait(lock, [&] { return stop_ || pending(); });
            }
            if (stop_) break;
            if (!pending() && cfg_.heartbeat_ms <= 0) continue;  // spurious wake
        }
        lock.unlock();
        const bool sent = session_with_retries();
        lock.lock();
        if (!sent && pending() && !stop_) {
            // The aggregator is unreachable and retries are exhausted:
            // pace the next cycle instead of spinning on dial failures.
            const int pause_ms = cfg_.heartbeat_ms > 0 ? cfg_.heartbeat_ms : 200;
            cv_.wait_for(lock, std::chrono::milliseconds(pause_ms), [&] { return stop_; });
        }
    }
    const bool final_flush = acked_.load(std::memory_order_relaxed) + 1 < next_seq_;
    lock.unlock();
    if (final_flush) {
        // One last single-attempt drain so a clean daemon shutdown hands
        // the aggregator everything it produced.
        std::string err;
        if (run_session(err)) {
            sessions_ok_.fetch_add(1, std::memory_order_relaxed);
        } else {
            sessions_failed_.fetch_add(1, std::memory_order_relaxed);
        }
    }
}

bool digest_emitter::session_with_retries() {
    for (int attempt = 0;; ++attempt) {
        std::string err;
        if (run_session(err)) {
            sessions_ok_.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
        sessions_failed_.fetch_add(1, std::memory_order_relaxed);
        if (attempt >= retry_.attempts) return false;
        retries_.fetch_add(1, std::memory_order_relaxed);
        const auto delay = serve::backoff_delay(retry_, attempt);
        std::unique_lock lock(mu_);
        if (cv_.wait_for(lock, delay, [&] { return stop_; })) return false;
    }
}

bool digest_emitter::run_session(std::string& err) {
    const int fd = serve::dial(addr_, err);
    if (fd < 0) return false;

    std::string head(fed_magic);
    head += frame_fed_record(fed_record::hello, cfg_.region);
    if (!serve::write_all(fd, head)) {
        err = "hello write failed";
        ::close(fd);
        return false;
    }

    std::string line;
    std::uint64_t have = 0;
    if (!serve::read_line(fd, line, cfg_.session_timeout_ms) ||
        !parse_status_line(line, "HAVE", have)) {
        err = "no HAVE handshake from " + addr_.to_string();
        ::close(fd);
        return false;
    }

    std::string body;
    {
        std::lock_guard lock(mu_);
        for (const auto& [seq, frame] : frames_) {
            if (seq > have) body += frame;
        }
        // The aggregator may already be ahead of our ack high-water mark
        // (a previous session died after its digests landed but before
        // the OK line made it back).
        std::uint64_t prev = acked_.load(std::memory_order_relaxed);
        const std::uint64_t capped = std::min<std::uint64_t>(have, next_seq_ - 1);
        while (prev < capped &&
               !acked_.compare_exchange_weak(prev, capped, std::memory_order_relaxed)) {
        }
    }
    if (!body.empty() && !serve::write_all(fd, body)) {
        err = "digest write failed";
        ::close(fd);
        return false;
    }
    ::shutdown(fd, SHUT_WR);

    std::uint64_t acked = 0;
    if (!serve::read_line(fd, line, cfg_.session_timeout_ms) ||
        !parse_status_line(line, "OK", acked)) {
        err = line.starts_with("ERR") ? ("aggregator rejected the stream: " + line)
                                      : ("no OK ack from " + addr_.to_string());
        ::close(fd);
        return false;
    }
    ::close(fd);

    std::uint64_t prev = acked_.load(std::memory_order_relaxed);
    while (prev < acked &&
           !acked_.compare_exchange_weak(prev, acked, std::memory_order_relaxed)) {
    }
    return true;
}

}  // namespace skynet::federate
