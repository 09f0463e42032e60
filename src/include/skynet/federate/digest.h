// Federation digest format: the unit of multi-region streaming.
//
// A region daemon periodically condenses the incident reports closed at
// a barrier into a *digest* — sequence-numbered, region-tagged, carrying
// the full ranked reports in the persist layer's text codec — and
// streams it to the global aggregator. The wire is the framed-record
// format of the SKYNETJ1 journal (skynet/persist/framing.h) with magic
// "SKYNETF1" and two record types: hello (payload = region name, opens a
// session) and digest. One format, two transports, again: the emitter's
// digest journal on disk is the same byte stream minus the hello, so a
// recovering emitter replays its own journal to rebuild the send queue
// and the catch-up state.
//
// Session protocol (emitter side):
//   dial -> magic + hello(region) -> read "HAVE <last_seq>\n"
//        -> send every digest frame with seq > last_seq -> shutdown(WR)
//        -> read "OK <last_seq> <applied>\n"
// A session with nothing new to send still runs the handshake — that is
// the heartbeat that keeps the region marked live on the aggregator.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "skynet/common/error.h"
#include "skynet/core/pipeline.h"
#include "skynet/persist/framing.h"

namespace skynet::federate {

inline constexpr std::string_view fed_magic = "SKYNETF1";
inline constexpr const char* digest_journal_filename = "digests.skyfed";

enum class fed_record : std::uint8_t {
    hello = 1,   ///< session opener; payload = region name
    digest = 2,  ///< one incident digest (text payload, see below)
};

inline constexpr std::uint8_t fed_stream_types[] = {1, 2};
inline constexpr std::uint8_t digest_journal_types[] = {2};
/// A federation session: hello, then digests.
inline constexpr persist::frame_format fed_stream_format{fed_magic, fed_stream_types};
/// The emitter's digest journal on disk: digests only.
inline constexpr persist::frame_format digest_journal_format{fed_magic, digest_journal_types};

/// One region digest. The text payload is a header line
///   DIG\t<seq>\t<barrier>\t<finish>\t<nreports>\t<region>
/// followed by <nreports> REP blocks in the persist report codec —
/// byte-identical to how the same reports land in a checkpoint.
struct region_digest {
    std::string region;
    std::uint64_t seq{0};  ///< 1-based, strictly increasing per region
    sim_time barrier{0};   ///< sim time of the barrier that closed these reports
    bool finish{false};    ///< true when the region's trace finished
    std::vector<incident_report> reports;
};

/// Encodes the digest text payload (header line + report blocks).
[[nodiscard]] std::string encode_digest_payload(const region_digest& d);

/// Decodes a digest payload; false with `err` set on malformed bytes.
[[nodiscard]] bool decode_digest_payload(std::string_view payload, region_digest& d,
                                         std::string& err);

/// Frames one federation record (header + payload, no magic).
[[nodiscard]] std::string frame_fed_record(fed_record type, std::string_view payload);

/// One decoded federation frame.
struct fed_frame {
    fed_record type{fed_record::hello};
    std::string payload;
};

/// Incremental decoder for the federation byte stream; same contract as
/// serve::wire_decoder — feed() arbitrary chunks, drain frames with
/// next(), any framing violation latches corrupt() with a reason.
class fed_decoder : persist::frame_decoder {
public:
    fed_decoder() : frame_decoder(fed_stream_format) {}
    using frame_decoder::corrupt, frame_decoder::corruption_reason, frame_decoder::feed,
        frame_decoder::frames_decoded;
    [[nodiscard]] std::optional<fed_frame> next();
};

/// Result of scanning an emitter's digest journal.
struct digest_journal_read : persist::frame_scan {
    std::vector<region_digest> digests;
};

/// Scans `path` with the journal layer's torn-tail tolerance: a short
/// header, overrunning payload, CRC mismatch, or undecodable digest
/// marks the end of the valid prefix — counted and dropped, never an
/// abort.
[[nodiscard]] digest_journal_read read_digest_journal(const std::string& path);

/// Append-side of the digest journal: framed digest records after the
/// magic, flushed per append (digests ride the barrier cadence, so
/// group commit would buy nothing and cost catch-up fidelity).
class digest_journal_writer : public persist::frame_writer {
public:
    /// Opens `path` for appending, writing the magic when new/empty.
    /// Throws skynet_error when the file cannot be opened.
    explicit digest_journal_writer(const std::string& path)
        : frame_writer(path, fed_magic, /*flush_every=*/1) {}

    /// Appends one already-framed digest record and flushes; false once
    /// a write failed (see write_error()).
    bool append_frame(std::string_view frame) { return append_framed(frame); }
};

}  // namespace skynet::federate
