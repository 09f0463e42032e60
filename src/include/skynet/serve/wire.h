// Streaming-ingest wire protocol.
//
// The daemon's ingest socket speaks the SKYNETJ1 journal stream format,
// verbatim: persist::journal_format framed records (see
// skynet/persist/framing.h) with the journal's batch/tick/finish payload
// encodings (see skynet/persist/journal.h). One format, two transports:
// a recorded journal file can be streamed to a live daemon unchanged,
// and a capture of the socket bytes is a replayable journal. After the
// finish record the server answers a single status line —
//   OK <records> <alerts>\n        every record applied
//   ERR <reason>\n                 stream rejected (corrupt frame, ...)
// — and closes the connection.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "skynet/persist/journal.h"
#include "skynet/serve/net.h"

namespace skynet::serve {

/// Frames one wire/journal record (header + payload, no magic).
[[nodiscard]] std::string frame_record(persist::record_type type, std::string_view payload);

/// Incremental decoder for the wire byte stream: feed() arbitrary
/// chunks, drain complete records with next(). The shared frame decoder
/// latches corrupt() on any framing violation (bad magic, unknown type,
/// CRC mismatch, oversized payload), and this layer on a payload that
/// does not decode — a TCP stream has no torn-tail ambiguity to
/// tolerate, unlike a crashed journal.
class wire_decoder : persist::frame_decoder {
public:
    wire_decoder() : frame_decoder(persist::journal_format) {}
    using frame_decoder::corrupt, frame_decoder::corruption_reason, frame_decoder::feed;

    /// Next complete record, or nullopt when more bytes are needed (or
    /// the stream is corrupt).
    [[nodiscard]] std::optional<persist::journal_record> next();
    [[nodiscard]] std::uint64_t records_decoded() const noexcept { return frames_decoded(); }
};

/// Outcome of one streaming-ingest session.
struct stream_stats {
    std::uint64_t records{0};  ///< wire records sent (batches + barriers)
    std::uint64_t alerts{0};   ///< alerts inside the batch records
    std::string status;        ///< server status line, trailing newline stripped
    [[nodiscard]] bool ok() const noexcept { return status.starts_with("OK"); }
};

/// Streams a trace to a daemon's ingest socket with the batch CLI's
/// replay cadence: alerts accumulate into a batch record until the next
/// arrival is `tick_every` or more past the last barrier, a tick record
/// follows at that arrival, and a finish record lands `finish_grace`
/// after the last arrival. Identical batching to examples/skynet_cli's
/// --replay path, so a daemon fed this stream reaches bit-identical
/// reports. Returns nullopt with `err` set on transport failure.
[[nodiscard]] std::optional<stream_stats> stream_trace(const socket_addr& addr,
                                                       std::span<const traced_alert> alerts,
                                                       sim_duration tick_every,
                                                       sim_duration finish_grace,
                                                       std::string& err);

}  // namespace skynet::serve
