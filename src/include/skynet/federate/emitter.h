// Per-region digest emitter: the robust half of the federation link.
//
// The daemon hands every barrier's closed reports to publish(); the
// emitter encodes the digest, appends it to its journal (flushed per
// digest — the journal IS the retransmit queue across restarts), and a
// sender thread streams everything unacked to the aggregator in short
// sessions (see digest.h for the protocol). Robustness contract:
//
//   - Sequence numbers: digests are numbered per region; the aggregator
//     replies with its high-water mark ("HAVE n"), so every session is
//     an exact catch-up — nothing duplicated, nothing skipped.
//   - Journal-backed replay: start() reloads the digest journal
//     (trimming a torn tail) so a restarted emitter still holds every
//     unacked digest.
//   - Bounded retry: each send cycle dials with cfg.retry attempts and
//     exponential backoff + deterministic per-region jitter (see
//     serve::backoff_delay); failures just leave digests queued for the
//     next cycle — the daemon's ingest path never blocks on the link.
//   - Heartbeats: with nothing queued, a session still runs every
//     heartbeat_ms so the aggregator can tell "idle region" from
//     "partitioned region".
//
// publish() is called under the daemon's engine lock: it only encodes,
// appends to the journal, and queues — all socket I/O lives on the
// sender thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "skynet/common/error.h"
#include "skynet/core/engine_metrics.h"
#include "skynet/federate/digest.h"
#include "skynet/serve/net.h"

namespace skynet::federate {

struct emitter_config {
    std::string region;
    std::string aggregator_addr;  ///< "unix:..." / "tcp:host:port"
    /// Directory for the digest journal; empty = in-memory queue only
    /// (no replay across restarts).
    std::string journal_dir;
    int heartbeat_ms{1000};        ///< 0 disables idle heartbeat sessions
    int session_timeout_ms{2000};  ///< per handshake/ack line read
    serve::retry_policy retry{};   ///< seed 0 = derived from the region name
};

class digest_emitter {
public:
    explicit digest_emitter(emitter_config cfg);
    ~digest_emitter();

    digest_emitter(const digest_emitter&) = delete;
    digest_emitter& operator=(const digest_emitter&) = delete;

    /// Parses the address, reloads the journal (truncating a torn
    /// tail), and starts the sender thread. Empty error = running.
    [[nodiscard]] error start();

    /// Final single-attempt flush of anything unacked, then joins the
    /// sender thread. Idempotent.
    void stop();

    /// Queues one digest for the barrier's closed reports. Digests for
    /// barriers at or before the last published one are dropped (the
    /// barrier clock only moves forward; the one exception is a finish
    /// upgrading a tick at the same barrier) — that rule is what makes a
    /// recovered daemon re-applying a replayed stream publish each
    /// barrier's digest exactly once.
    void publish(const std::vector<incident_report>& reports, sim_time barrier, bool finish);

    /// One synchronous send cycle (with retries); true when everything
    /// published so far is acked. Test/shutdown hook.
    bool flush_now();

    /// Next sequence number to be assigned (last journaled + 1).
    [[nodiscard]] std::uint64_t next_seq() const;
    /// Barrier of the newest published digest; sim_time min when none.
    [[nodiscard]] sim_time last_barrier() const;
    /// Aggregator's acked high-water mark.
    [[nodiscard]] std::uint64_t acked_seq() const noexcept {
        return acked_.load(std::memory_order_relaxed);
    }

    /// Why the digest journal stopped taking digests (a failed or short
    /// write); empty while it is healthy or when there is none.
    [[nodiscard]] std::string journal_error() const;

    /// Emitter-side federation counters (merged into /v1/health).
    [[nodiscard]] federation_metrics metrics() const;

private:
    void loop();
    bool session_with_retries();
    bool run_session(std::string& err);

    emitter_config cfg_;
    serve::socket_addr addr_{};
    serve::retry_policy retry_{};

    mutable std::mutex mu_;
    std::condition_variable cv_;
    /// Every journaled digest, framed and ready to send, seq-tagged.
    std::vector<std::pair<std::uint64_t, std::string>> frames_;
    std::uint64_t next_seq_{1};
    sim_time last_barrier_{std::numeric_limits<sim_time>::min()};
    bool last_finish_{false};
    bool stop_{false};

    std::unique_ptr<digest_journal_writer> journal_;
    std::thread thread_;

    std::atomic<std::uint64_t> acked_{0};
    std::atomic<std::uint64_t> emitted_{0};
    std::atomic<std::uint64_t> emitted_bytes_{0};
    std::atomic<std::uint64_t> sessions_ok_{0};
    std::atomic<std::uint64_t> sessions_failed_{0};
    std::atomic<std::uint64_t> retries_{0};
};

}  // namespace skynet::federate
