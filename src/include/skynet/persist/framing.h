// Framed records: the one binary format under the journal, the ingest
// wire, the federation stream and the digest journal. A stream is a magic
// string, then records
//   [u8 type][u32 payload_len LE][u32 crc32c(payload) LE][payload]
// The magic and the allowed record types are all that differ between
// streams (frame_format); payload codecs stay with the files that own
// them. One length rule: the 64 MiB cap bounds what a stream decoder
// buffers for one frame; a file scan bounds a length by the file size, so
// any record a writer appended reads back.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "skynet/common/error.h"

namespace skynet::persist {

inline constexpr std::size_t frame_header_bytes = 1 + 4 + 4;
inline constexpr std::uint64_t max_stream_payload_bytes = 64u << 20;

/// Little-endian integers, shared by the header and the binary codecs.
namespace le {
void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
[[nodiscard]] std::uint32_t get_u32(const char* p) noexcept;
[[nodiscard]] std::uint64_t get_u64(const char* p) noexcept;
}  // namespace le

struct frame_format {
    std::string_view magic;
    std::span<const std::uint8_t> types;  ///< allowed record types

    [[nodiscard]] bool allows(std::uint8_t type) const noexcept {
        for (const std::uint8_t t : types) {
            if (t == type) return true;
        }
        return false;
    }
};

/// One decoded frame; `payload` points into the decoder's buffer or the
/// scanned bytes, it is never copied.
struct frame {
    std::uint8_t type{0};
    std::string_view payload;
};

/// Appends one frame (header + payload, no magic) to `out`.
void append_frame(std::string& out, std::uint8_t type, std::string_view payload);

/// Incremental stream decoder: feed() arbitrary chunks, drain frames with
/// next(). The magic comes first; a bad magic, a type outside the format,
/// a length over max_stream_payload_bytes or a CRC mismatch latches
/// corrupt() with a reason and the stream offset of the offending frame.
/// An incomplete frame just waits for more bytes.
class frame_decoder {
public:
    explicit frame_decoder(frame_format format) : format_(format) {}

    /// Buffers `bytes`; invalidates the payloads of earlier frames.
    void feed(std::string_view bytes);
    /// Next complete frame; nullopt when more bytes are needed or corrupt.
    [[nodiscard]] std::optional<frame> next();
    /// Latches a payload its codec refused on the frame next() just
    /// returned: that frame is un-consumed and the stream stops there.
    void reject(std::string reason);

    [[nodiscard]] bool corrupt() const noexcept { return corrupt_; }
    [[nodiscard]] const std::string& corruption_reason() const noexcept { return reason_; }
    /// Stream offset past the magic and every accepted frame; once
    /// corrupt(), the offset of the offending frame.
    [[nodiscard]] std::uint64_t consumed() const noexcept { return base_ + pos_; }
    [[nodiscard]] std::uint64_t frames_decoded() const noexcept { return frames_; }

private:
    void fail(std::string reason);

    frame_format format_;
    std::string buf_;
    std::size_t pos_{0};         ///< consumed prefix of buf_
    std::uint64_t base_{0};      ///< stream bytes dropped from buf_'s front
    std::size_t last_frame_{0};  ///< buf_ offset of the frame next() returned
    bool seen_magic_{false};
    bool corrupt_{false};
    std::string reason_;
    std::uint64_t frames_{0};
};

/// Where a file's valid prefix ends and why.
struct frame_scan {
    std::uint64_t valid_bytes{0};           ///< resume-append truncates here
    std::uint64_t truncated_tail_bytes{0};  ///< torn or corrupt tail
    std::string truncation_reason;          ///< empty for a clean file
    bool missing{false};                    ///< no file (a valid empty one)
};

/// Per intact frame, in order: empty accepts it, a reason ends the valid
/// prefix before it.
using frame_visitor = std::function<std::string(const frame&)>;

/// Runs the stream decoder's frame check over whole bytes, tolerating a
/// torn tail. `from` 0 checks the magic (a bad one makes everything
/// tail); a nonzero `from` resumes at that frame boundary without it.
[[nodiscard]] frame_scan scan_frames(std::string_view bytes, const frame_format& format,
                                     std::uint64_t from, const frame_visitor& on_frame);
[[nodiscard]] frame_scan scan_frame_file(const std::string& path, const frame_format& format,
                                         std::uint64_t from, const frame_visitor& on_frame);

/// Append-only framed file. Writes the magic on a new or empty file and
/// group-commits every `flush_every` frames. A failed or short write
/// latches write_error(), drops the unwritten frames and refuses later
/// appends, so bytes_written() only counts bytes that reached the file.
class frame_writer {
public:
    /// Throws skynet_error when `path` cannot be opened.
    frame_writer(const std::string& path, std::string_view magic, std::size_t flush_every);
    ~frame_writer();
    frame_writer(const frame_writer&) = delete;
    frame_writer& operator=(const frame_writer&) = delete;

    bool append(std::uint8_t type, std::string_view payload, bool force_flush = false);
    /// Appends append_frame() output.
    bool append_framed(std::string_view framed);
    bool flush();

    [[nodiscard]] std::uint64_t records_written() const noexcept { return records_; }
    [[nodiscard]] std::uint64_t flushes() const noexcept { return flushes_; }
    /// File offset after every frame appended so far.
    [[nodiscard]] std::uint64_t bytes_written() const noexcept {
        return written_ + pending_.size();
    }
    [[nodiscard]] const std::string& write_error() const noexcept { return error_; }

private:
    bool commit(bool force_flush);
    bool write_out(std::string_view bytes);

    int fd_{-1};
    std::string path_;
    std::string pending_;  ///< frames not yet written
    std::size_t flush_every_;
    std::size_t unflushed_{0};
    std::uint64_t records_{0};
    std::uint64_t flushes_{0};
    std::uint64_t written_{0};  ///< bytes the file holds
    std::string error_;
};

/// Whole contents of `path`, read as a stream (pipes work too); nullopt
/// when it cannot be opened.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

/// Writes `path` through a temp file and an atomic rename: a reader sees
/// the old file or the new one, never a torn one.
[[nodiscard]] error write_atomic(const std::string& path, std::string_view text);

}  // namespace skynet::persist
