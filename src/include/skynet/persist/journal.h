// Write-ahead alert journal.
//
// Binary, append-only record of everything a durable session fed its
// engine: raw-alert batches and tick/finish barriers, in order. On
// recovery the journal suffix past the newest snapshot is replayed to
// reconstruct the exact engine state at the crash point.
//
// Framed records (skynet/persist/framing.h) with magic "SKYNETJ1". Batch
// payloads are a compact little-endian encoding (alert count, then per
// alert: arrival, source, timestamp, length-prefixed strings, presence
// flags, the metric as a raw double bit pattern — replay is bit-exact by
// construction); barrier payloads are the 8-byte LE tick time. Finish
// barriers flush; the durable session also flushes before every
// checkpoint (it must not reference unflushed bytes) and before a
// crash-drill exit.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "skynet/persist/framing.h"
#include "skynet/sim/trace.h"

namespace skynet::persist {

inline constexpr std::string_view journal_magic = "SKYNETJ1";
inline constexpr const char* journal_filename = "journal.skywal";

enum class record_type : std::uint8_t {
    batch = 1,   ///< one ingest batch (binary-encoded payload)
    tick = 2,    ///< tick barrier (8-byte LE time)
    finish = 3,  ///< finish barrier (8-byte LE time)
};

inline constexpr std::uint8_t journal_record_types[] = {1, 2, 3};
/// The SKYNETJ1 stream: journal file and ingest wire alike.
inline constexpr frame_format journal_format{journal_magic, journal_record_types};

/// One decoded journal record.
struct journal_record {
    record_type type{record_type::batch};
    std::vector<traced_alert> batch;  ///< batch records only
    sim_time now{0};                  ///< tick/finish records only
};

/// Encodes `batch` into the compact binary batch payload (clears `out`
/// first). Public because the format doubles as the daemon's streaming
/// ingest wire format: a client frames these payloads exactly like
/// journal records and the server replays them bit-exactly.
void encode_batch_payload(std::string& out, std::span<const traced_alert> batch);

/// Decodes a batch payload produced by encode_batch_payload; false on
/// malformed/truncated bytes (out may then hold a partial prefix).
[[nodiscard]] bool decode_batch_payload(std::string_view payload, std::vector<traced_alert>& out);

/// Encodes a tick/finish barrier payload (the 8-byte LE sim time).
[[nodiscard]] std::string encode_barrier_payload(sim_time now);

/// Decodes one journal frame into `out`; returns why its payload is
/// unusable, empty on success.
[[nodiscard]] std::string decode_record(const frame& f, journal_record& out);

/// The shared frame_writer plus the batch and barrier payload codecs.
class journal_writer : public frame_writer {
public:
    explicit journal_writer(const std::string& path, std::size_t flush_every = 16)
        : frame_writer(path, journal_magic, flush_every) {}

    bool append_batch(std::span<const traced_alert> batch);
    bool append_barrier(record_type type, sim_time now);

private:
    std::string payload_buf_;  ///< reused batch-encoding scratch
};

/// A journal scan (see frame_scan) plus the records it decoded.
struct journal_read_result : frame_scan {
    std::vector<journal_record> records;
    std::vector<std::uint64_t> offsets;  ///< where each record starts
};

/// Decodes records from byte `from` (0 verifies the magic first; a
/// nonzero `from` must be a record boundary) to the end of the valid
/// prefix. Corruption is reported, never thrown.
[[nodiscard]] journal_read_result read_journal(const std::string& path, std::uint64_t from = 0);

/// Drops a torn tail so a recovered session can append safely. Returns
/// false when the file cannot be resized.
[[nodiscard]] bool truncate_journal(const std::string& path, std::uint64_t valid_bytes);

}  // namespace skynet::persist
