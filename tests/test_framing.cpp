// Tests for the framed-record codec (skynet/persist/framing.h) shared by
// the SKYNETJ1 journal and ingest wire and the SKYNETF1 federation
// stream and digest journal: golden bytes, the one length rule, the
// careful writer, and a seeded mutation fuzzer over every input boundary.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "skynet/federate/digest.h"
#include "skynet/persist/durable.h"
#include "skynet/persist/framing.h"
#include "skynet/persist/journal.h"
#include "skynet/serve/wire.h"

namespace skynet {
namespace {

namespace fs = std::filesystem;
using persist::frame;
using persist::frame_decoder;
using persist::frame_format;
using persist::record_type;

std::string unhex(std::string_view hex) {
    std::string out;
    for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
        out.push_back(static_cast<char>(std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
    }
    return out;
}

std::vector<traced_alert> golden_batch() {
    std::vector<traced_alert> batch(2);
    batch[0].arrival = seconds(3);
    batch[0].alert.source = data_source::snmp;
    batch[0].alert.timestamp = seconds(2);
    batch[0].alert.kind = "link_down";
    batch[0].alert.message = "ge-0/0/1 down";
    batch[0].alert.loc = location::parse("eu|fra|dc1|d7");
    batch[0].alert.device = 7;
    batch[0].alert.link = 12;
    batch[0].alert.metric = 0.25;
    batch[1].arrival = seconds(4);
    batch[1].alert.source = data_source::ping;
    batch[1].alert.timestamp = seconds(4);
    batch[1].alert.kind = "packet_loss";
    batch[1].alert.loc = location::parse("eu");
    batch[1].alert.metric = 0.5;
    batch[1].alert.src_loc = location::parse("eu|fra");
    batch[1].alert.dst_loc = location::parse("eu|ams");
    return batch;
}

federate::region_digest golden_digest() {
    federate::region_digest d;
    d.region = "apac";
    d.seq = 3;
    d.barrier = seconds(6);
    d.finish = true;
    return d;
}

// Bytes captured from the hand-written encoders this codec replaced:
// journals, socket captures and digest journals written before it must
// read back unchanged.
const std::string golden_journal = unhex(
    "534b594e45544a3101bb0000004d19bea502000000b80b00000000000006d007"
    "000000000000090000006c696e6b5f646f776e0d00000067652d302f302f3120"
    "646f776e04000000020000006575030000006672610300000064633102000000"
    "643703070000000c000000000000000000d03fa00f00000000000000a00f0000"
    "000000000b0000007061636b65745f6c6f737300000000010000000200000065"
    "750c000000000000e03f02000000020000006575030000006672610200000002"
    "000000657503000000616d730208000000ad0ce1e6a00f000000000000030800"
    "000021d9b7dce039130000000000");
const std::string golden_fed = unhex(
    "534b594e455446310104000000b3718a5e6170616302140000005f4bd1dc4449"
    "47093309363030300931093009617061630a");

std::string journal_stream() {
    std::string bytes{persist::journal_magic};
    std::string payload;
    persist::encode_batch_payload(payload, golden_batch());
    bytes += serve::frame_record(record_type::batch, payload);
    bytes += serve::frame_record(record_type::tick, persist::encode_barrier_payload(seconds(4)));
    bytes +=
        serve::frame_record(record_type::finish, persist::encode_barrier_payload(minutes(21)));
    return bytes;
}

std::string fed_stream() {
    std::string bytes{federate::fed_magic};
    bytes += federate::frame_fed_record(federate::fed_record::hello, "apac");
    bytes += federate::frame_fed_record(federate::fed_record::digest,
                                        federate::encode_digest_payload(golden_digest()));
    return bytes;
}

TEST(FramingGoldenTest, JournalStreamEncodesAndDecodesUnchanged) {
    EXPECT_EQ(journal_stream(), golden_journal);

    serve::wire_decoder dec;
    dec.feed(golden_journal);
    std::vector<persist::journal_record> records;
    while (auto rec = dec.next()) records.push_back(std::move(*rec));
    EXPECT_FALSE(dec.corrupt()) << dec.corruption_reason();
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].type, record_type::batch);
    EXPECT_EQ(serialize_trace(records[0].batch), serialize_trace(golden_batch()));
    EXPECT_EQ(records[1].type, record_type::tick);
    EXPECT_EQ(records[1].now, seconds(4));
    EXPECT_EQ(records[2].type, record_type::finish);
    EXPECT_EQ(records[2].now, minutes(21));

    const fs::path path = fs::path(testing::TempDir()) / "skynet_golden.skywal";
    {
        persist::journal_writer writer(path.string(), 1);
        writer.append_batch(golden_batch());
        writer.append_barrier(record_type::tick, seconds(4));
        writer.append_barrier(record_type::finish, minutes(21));
    }
    EXPECT_EQ(persist::read_file(path.string()), golden_journal);
    const persist::journal_read_result read = persist::read_journal(path.string());
    EXPECT_EQ(read.records.size(), 3u);
    EXPECT_EQ(read.valid_bytes, golden_journal.size());
    EXPECT_TRUE(read.truncation_reason.empty());
    fs::remove(path);
}

TEST(FramingGoldenTest, FederationStreamEncodesAndDecodesUnchanged) {
    EXPECT_EQ(fed_stream(), golden_fed);

    federate::fed_decoder dec;
    dec.feed(golden_fed);
    std::vector<federate::fed_frame> frames;
    while (auto f = dec.next()) frames.push_back(std::move(*f));
    EXPECT_FALSE(dec.corrupt()) << dec.corruption_reason();
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0].type, federate::fed_record::hello);
    EXPECT_EQ(frames[0].payload, "apac");
    EXPECT_EQ(frames[1].type, federate::fed_record::digest);
    federate::region_digest d;
    std::string err;
    ASSERT_TRUE(federate::decode_digest_payload(frames[1].payload, d, err)) << err;
    EXPECT_EQ(d.region, "apac");
    EXPECT_EQ(d.seq, 3u);
    EXPECT_EQ(d.barrier, seconds(6));
    EXPECT_TRUE(d.finish);
}

// ---------------------------------------------------------------------------
// One length rule: the stream cap guards buffering, a file scan is bounded
// by the file size.

TEST(FramingTest, StreamCapGuardsStreamsButNotFileScans) {
    // A header announcing one byte over the cap: the stream decoder
    // refuses it from the 9 header bytes alone.
    std::string bytes{persist::journal_magic};
    bytes.push_back(static_cast<char>(record_type::batch));
    persist::le::put_u32(bytes, static_cast<std::uint32_t>(persist::max_stream_payload_bytes + 1));
    persist::le::put_u32(bytes, 0);
    ASSERT_EQ(bytes.size(), persist::journal_magic.size() + persist::frame_header_bytes);

    frame_decoder dec(persist::journal_format);
    dec.feed(bytes);
    EXPECT_FALSE(dec.next().has_value());
    EXPECT_TRUE(dec.corrupt());
    EXPECT_NE(dec.corruption_reason().find("exceeds limit"), std::string::npos);
    EXPECT_EQ(dec.consumed(), persist::journal_magic.size());
    dec.feed(std::string(4096, 'x'));  // nothing past a violation is buffered or read
    EXPECT_FALSE(dec.next().has_value());
    EXPECT_EQ(dec.consumed(), persist::journal_magic.size());

    // The file scan applies no cap: the same header is a torn tail whose
    // payload the file does not hold, not a violation.
    const persist::frame_scan scan = persist::scan_frames(
        bytes + std::string(100, 'x'), persist::journal_format, 0,
        [](const frame&) { return std::string("no frame is complete"); });
    EXPECT_EQ(scan.valid_bytes, persist::journal_magic.size());
    EXPECT_EQ(scan.truncation_reason, "torn record payload");

    // A length past the end of the file is a torn tail, not a violation.
    std::string lying = bytes.substr(0, persist::journal_magic.size() + 5);
    lying += std::string("\xff\xff\xff\x7f", 4) + "xyz";
    lying[persist::journal_magic.size() + 1] = '\xff';
    const persist::frame_scan torn = persist::scan_frames(
        lying, persist::journal_format, 0, [](const frame&) { return std::string(); });
    EXPECT_EQ(torn.valid_bytes, persist::journal_magic.size());
    EXPECT_EQ(torn.truncated_tail_bytes, lying.size() - persist::journal_magic.size());
    EXPECT_NE(torn.truncation_reason.find("torn"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The writer reports a failed write and does not count its bytes.

TEST(FrameWriterTest, FullDeviceIsReportedAndOffsetHolds) {
    if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full on this host";
    persist::journal_writer writer("/dev/full", 1);
    EXPECT_FALSE(writer.write_error().empty());
    EXPECT_EQ(writer.bytes_written(), 0u);
    EXPECT_FALSE(writer.append_batch(golden_batch()));
    EXPECT_FALSE(writer.append_barrier(record_type::finish, seconds(1)));
    EXPECT_EQ(writer.bytes_written(), 0u);

    federate::digest_journal_writer digests("/dev/full");
    EXPECT_FALSE(digests.append_frame(federate::frame_fed_record(
        federate::fed_record::digest, federate::encode_digest_payload(golden_digest()))));
    EXPECT_EQ(digests.bytes_written(), 0u);
    EXPECT_FALSE(digests.write_error().empty());
}

TEST(FrameWriterTest, DurableSessionSurfacesJournalWriteFailure) {
    if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full on this host";
    const fs::path dir = fs::path(testing::TempDir()) / "skynet_framing_full";
    fs::remove_all(dir);
    fs::create_directories(dir);
    fs::create_symlink("/dev/full", dir / persist::journal_filename);

    struct null_engine {
        void ingest_batch(std::span<const traced_alert>) {}
        void tick(sim_time, const network_state&) {}
        void finish(sim_time, const network_state&) {}
    } engine;
    persist::durable_options opts;
    opts.dir = dir.string();
    opts.checkpoint_every = 0;
    persist::durable_session<null_engine> session(engine, opts);
    session.ingest_batch(std::span<const traced_alert>(golden_batch()));
    EXPECT_NE(session.last_error().find("journal"), std::string::npos) << session.last_error();
    EXPECT_EQ(session.metrics().journal_records_written, 0u);
    fs::remove_all(dir);
}

// read_file reads a stream: a pipe has no size and cannot seek.
TEST(FramingTest, ReadFileReadsAPipe) {
    const fs::path fifo = fs::path(testing::TempDir()) / "skynet_read_file.fifo";
    fs::remove(fifo);
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
    const std::string text = journal_stream() + std::string(200000, 'x');  // several pipe buffers
    std::thread writer([&] { std::ofstream(fifo, std::ios::binary) << text; });
    const std::optional<std::string> read = persist::read_file(fifo.string());
    writer.join();
    EXPECT_EQ(read, text);
    fs::remove(fifo);
}

// ---------------------------------------------------------------------------
// Seeded mutation fuzzer. Fixed seeds and an iteration budget keep it
// deterministic and well under 10 s under the address sanitizer.

struct decoded {
    std::vector<std::pair<std::uint8_t, std::string>> frames;
    bool corrupt{false};
    std::string reason;
    std::uint64_t consumed{0};
};

/// Feeds `bytes` in chunks whose sizes come from `chunk` (whole buffer
/// when it returns 0), draining after every feed.
template <typename ChunkFn>
decoded decode_chunked(std::string_view bytes, const frame_format& format, ChunkFn chunk) {
    decoded out;
    frame_decoder dec(format);
    std::size_t pos = 0;
    while (pos < bytes.size()) {
        std::size_t n = chunk();
        if (n == 0 || n > bytes.size() - pos) n = bytes.size() - pos;
        dec.feed(bytes.substr(pos, n));
        pos += n;
        while (auto f = dec.next()) out.frames.emplace_back(f->type, std::string(f->payload));
        if (dec.corrupt()) break;
        // What is fed but not consumed is held: never more than one frame
        // in flight (or a magic).
        EXPECT_LE(pos - dec.consumed(),
                  std::max<std::uint64_t>(persist::frame_header_bytes +
                                              persist::max_stream_payload_bytes,
                                          format.magic.size()));
    }
    out.corrupt = dec.corrupt();
    out.reason = dec.corruption_reason();
    out.consumed = dec.consumed();
    return out;
}

bool same(const decoded& a, const decoded& b) {
    return a.frames == b.frames && a.corrupt == b.corrupt && a.reason == b.reason &&
           a.consumed == b.consumed;
}

/// Frame start offsets of an unmutated stream.
std::vector<std::size_t> frame_offsets(std::string_view bytes, std::size_t magic) {
    std::vector<std::size_t> offsets;
    for (std::size_t pos = magic; pos + persist::frame_header_bytes <= bytes.size();) {
        offsets.push_back(pos);
        pos += persist::frame_header_bytes + persist::le::get_u32(bytes.data() + pos + 1);
    }
    return offsets;
}

std::string mutate(std::string bytes, const std::vector<std::size_t>& frames,
                   const std::string& donor, std::mt19937_64& rng) {
    auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(std::uniform_int_distribution<std::size_t>(0, n - 1)(rng));
    };
    const int rounds = 1 + static_cast<int>(pick(3));
    for (int r = 0; r < rounds && !bytes.empty(); ++r) {
        switch (pick(5)) {
            case 0:  // bit flip
                bytes[pick(bytes.size())] ^= static_cast<char>(1u << pick(8));
                break;
            case 1:  // truncation
                bytes.resize(pick(bytes.size() + 1));
                break;
            case 2: {  // splice: a slice of the donor stream at a random point
                const std::size_t from = pick(donor.size());
                const std::size_t len = pick(donor.size() - from + 1);
                bytes.insert(pick(bytes.size() + 1), donor.substr(from, len));
                break;
            }
            case 3: {  // lying length field
                const std::size_t at = frames[pick(frames.size())] + 1;
                if (at + 4 > bytes.size()) break;
                const std::uint32_t lies[] = {0u, 1u, static_cast<std::uint32_t>(pick(4096)),
                                              (64u << 20) + 1, 0xffffffffu};
                std::string len;
                persist::le::put_u32(len, lies[pick(std::size(lies))]);
                bytes.replace(at, 4, len);
                break;
            }
            default: {  // unknown record type
                const std::size_t at = frames[pick(frames.size())];
                if (at < bytes.size()) bytes[at] = static_cast<char>(4 + pick(252));
                break;
            }
        }
    }
    return bytes;
}

void fuzz_format(const frame_format& format, const std::string& base, const std::string& donor,
                 std::uint64_t seed, int iterations) {
    std::mt19937_64 rng(seed);
    const std::vector<std::size_t> frames = frame_offsets(base, format.magic.size());
    ASSERT_FALSE(frames.empty());
    const auto accept_all = [](const frame&) { return std::string(); };
    for (int i = 0; i < iterations; ++i) {
        const std::string bytes = mutate(base, frames, donor, rng);
        SCOPED_TRACE("seed " + std::to_string(seed) + " iteration " + std::to_string(i));

        const decoded whole = decode_chunked(bytes, format, [] { return std::size_t{0}; });
        const decoded single = decode_chunked(bytes, format, [] { return std::size_t{1}; });
        std::uniform_int_distribution<std::size_t> sizes(1, 1 + bytes.size() / 3);
        const decoded random = decode_chunked(bytes, format, [&] { return sizes(rng); });
        ASSERT_TRUE(same(whole, single));
        ASSERT_TRUE(same(whole, random));

        // Below the cap the stream decoder and the file scan agree on
        // where the valid prefix ends.
        std::size_t scanned = 0;
        const persist::frame_scan scan = persist::scan_frames(bytes, format, 0, [&](const frame&) {
            ++scanned;
            return std::string();
        });
        ASSERT_EQ(whole.consumed, scan.valid_bytes);
        ASSERT_EQ(whole.frames.size(), scanned);
        ASSERT_EQ(scan.valid_bytes + scan.truncated_tail_bytes, bytes.size());

        // A scan resumed at an arbitrary offset, mid-frame included, must
        // end cleanly too.
        (void)persist::scan_frames(bytes, format, std::min<std::size_t>(bytes.size(), i % 97),
                                   accept_all);
    }
}

TEST(FramingFuzzTest, JournalStreamsSurviveMutation) {
    std::string base = journal_stream();
    std::string payload;
    std::vector<traced_alert> batch = golden_batch();
    for (int i = 0; i < 4; ++i) {
        batch[0].alert.message += " more";
        persist::encode_batch_payload(payload, batch);
        base += serve::frame_record(record_type::batch, payload);
    }
    const std::string donor = fed_stream() + journal_stream();
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        fuzz_format(persist::journal_format, base, donor, seed, 1500);
    }
}

TEST(FramingFuzzTest, FederationStreamsSurviveMutation) {
    std::string base = fed_stream();
    federate::region_digest d = golden_digest();
    for (int i = 0; i < 4; ++i) {
        ++d.seq;
        base += federate::frame_fed_record(federate::fed_record::digest,
                                           federate::encode_digest_payload(d));
    }
    const std::string donor = journal_stream() + fed_stream();
    for (const std::uint64_t seed : {4u, 5u, 6u}) {
        fuzz_format(federate::fed_stream_format, base, donor, seed, 1500);
        fuzz_format(federate::digest_journal_format, base.substr(0, 8) + base.substr(21), donor,
                    seed, 500);
    }
}

TEST(FramingFuzzTest, WireDecoderAgreesWithJournalScanUnderMutation) {
    const std::string base = journal_stream();
    const std::vector<std::size_t> frames = frame_offsets(base, persist::journal_magic.size());
    std::mt19937_64 rng(7);
    for (int i = 0; i < 400; ++i) {
        const std::string bytes = mutate(base, frames, fed_stream(), rng);
        SCOPED_TRACE("iteration " + std::to_string(i));
        serve::wire_decoder dec;
        std::size_t records = 0;
        for (const char c : bytes) {
            dec.feed(std::string_view(&c, 1));
            while (dec.next()) ++records;
        }
        std::size_t scanned = 0;
        (void)persist::scan_frames(bytes, persist::journal_format, 0, [&](const frame& f) {
            persist::journal_record rec;
            std::string why = persist::decode_record(f, rec);
            if (why.empty()) ++scanned;
            return why;
        });
        ASSERT_EQ(records, scanned);
        ASSERT_EQ(dec.records_decoded(), records);
    }
}

TEST(FramingFuzzTest, CrcValidGarbagePayloadsAreRejected) {
    std::mt19937_64 rng(8);
    std::uniform_int_distribution<int> byte(0, 255);
    std::uniform_int_distribution<std::size_t> length(0, 300);
    for (int i = 0; i < 2000; ++i) {
        std::string garbage(length(rng), '\0');
        for (char& c : garbage) c = static_cast<char>(byte(rng));
        SCOPED_TRACE("iteration " + std::to_string(i));

        // The frame is intact, so only the payload codec can refuse it.
        std::string stream{persist::journal_magic};
        stream += serve::frame_record(record_type::batch, garbage);
        serve::wire_decoder wire;
        wire.feed(stream);
        EXPECT_FALSE(wire.next().has_value());
        EXPECT_TRUE(wire.corrupt());
        std::vector<traced_alert> batch;
        EXPECT_FALSE(persist::decode_batch_payload(garbage, batch));

        federate::region_digest d;
        std::string err;
        EXPECT_FALSE(federate::decode_digest_payload(garbage, d, err));
        EXPECT_FALSE(err.empty());
    }
}

}  // namespace
}  // namespace skynet
