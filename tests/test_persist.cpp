// Tests for the persist subsystem: CRC-32C, the write-ahead alert
// journal, barrier-consistent snapshots, and the recovery coordinator.
// The centerpiece is the crash-at-every-record-boundary harness: for a
// journaled episode, truncate the journal after each record in turn,
// recover a fresh engine, resume, and require reports bit-identical to
// an uninterrupted run — for the sequential and the sharded engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "skynet/core/incident_log.h"
#include "skynet/core/pipeline.h"
#include "skynet/core/sharded_engine.h"
#include "skynet/persist/crc32c.h"
#include "skynet/persist/durable.h"
#include "skynet/persist/journal.h"
#include "skynet/persist/recovery.h"
#include "skynet/persist/snapshot.h"
#include "skynet/sim/engine.h"
#include "skynet/sim/trace.h"
#include "skynet/topology/generator.h"

namespace skynet {
namespace {

namespace fs = std::filesystem;
using persist::record_type;

struct world {
    topology topo;
    customer_registry customers;
    alert_type_registry registry = alert_type_registry::with_builtin_catalog();
    syslog_classifier syslog = syslog_classifier::train_from_catalog();

    explicit world(generator_params p = generator_params::tiny()) {
        p.legacy_snmp_fraction = 0.0;
        topo = generate_topology(p);
        rng crand(71);
        customers = customer_registry::generate(topo, 120, crand);
    }

    [[nodiscard]] skynet_engine::deps deps() {
        return {&topo, &customers, &registry, &syslog};
    }
};

/// A clean per-test scratch directory under the gtest temp root.
fs::path fresh_dir(const std::string& name) {
    const fs::path dir = fs::path(testing::TempDir()) / ("skynet_persist_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

fs::path copy_dir(const fs::path& from, const std::string& name) {
    const fs::path to = fresh_dir(name);
    for (const auto& entry : fs::directory_iterator(from)) {
        fs::copy(entry.path(), to / entry.path().filename());
    }
    return to;
}

/// One engine-facing command, in stream order — the unit the journal
/// records and the crash harness truncates between.
struct command {
    record_type kind{record_type::batch};
    std::vector<traced_alert> batch;
    sim_time now{0};
};

/// Simulates one deterministic failure episode and returns it as a
/// command list. Batches are normalized through the trace text format
/// once, so journaling them round-trips every double exactly (the same
/// reason CLI replay runs are journal-exact).
std::vector<command> record_episode(world& w, sim_duration duration, std::uint64_t seed) {
    std::vector<command> commands;
    simulation_engine sim(&w.topo, &w.customers,
                          engine_params{.tick = seconds(2), .seed = seed});
    sim.add_default_monitors(monitor_options{.noise_rate = 0.01});
    rng srand(seed + 2);
    sim.inject(make_random_scenario(w.topo, srand, true), minutes(1), duration);
    sim.run_until_batched(
        minutes(1) + duration + minutes(1),
        [&](std::span<const traced_alert> batch) {
            if (batch.empty()) return;
            trace_parse_result normalized = parse_trace(serialize_trace(batch));
            commands.push_back(command{.kind = record_type::batch,
                                       .batch = std::move(normalized.alerts)});
        },
        [&](sim_time now) {
            commands.push_back(command{.kind = record_type::tick, .batch = {}, .now = now});
        });
    commands.push_back(
        command{.kind = record_type::finish, .batch = {}, .now = sim.clock().now()});
    return commands;
}

/// Streams commands into anything with the engine ingest/tick/finish
/// surface (an engine or a durable_session), starting at `from`.
template <typename Sink>
void apply(Sink& sink, std::span<const command> commands, const network_state& idle,
           std::size_t from = 0) {
    for (std::size_t i = from; i < commands.size(); ++i) {
        const command& c = commands[i];
        switch (c.kind) {
            case record_type::batch:
                sink.ingest_batch(std::span<const traced_alert>(c.batch));
                break;
            case record_type::tick:
                sink.tick(c.now, idle);
                break;
            case record_type::finish:
                sink.finish(c.now, idle);
                break;
        }
    }
}

template <typename Engine>
std::string report_digest(Engine& eng) {
    std::string out;
    for (const incident_report& r : eng.take_reports()) out += r.render() + "\n";
    return out;
}

std::string read_file(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void write_file(const fs::path& path, std::string_view bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Walks the journal's frame headers and returns the absolute offset
/// one past each record — every legal crash point.
std::vector<std::uint64_t> record_boundaries(const fs::path& journal) {
    const std::string bytes = read_file(journal);
    std::vector<std::uint64_t> offsets;
    std::size_t pos = persist::journal_magic.size();
    while (pos + 9 <= bytes.size()) {
        std::uint32_t len = 0;
        for (int i = 0; i < 4; ++i) {
            len |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[pos + 1 + i]))
                   << (8 * i);
        }
        pos += 9 + len;
        offsets.push_back(pos);
    }
    return offsets;
}

/// Runs the full episode through a durable session into `dir`,
/// checkpointing every `checkpoint_every` barriers, and returns the
/// run's report digest.
template <typename Engine>
std::string durable_run(Engine& eng, world& w, std::span<const command> commands,
                        const network_state& idle, const fs::path& dir,
                        std::uint64_t checkpoint_every = 3) {
    persist::durable_options opts;
    opts.dir = dir.string();
    opts.checkpoint_every = checkpoint_every;
    opts.flush_every = 1;
    opts.locations = &w.topo.locations();
    persist::durable_session<Engine> session(eng, opts);
    apply(session, commands, idle);
    EXPECT_TRUE(session.last_error().empty()) << session.last_error();
    return report_digest(eng);
}

// ---------------------------------------------------------------- crc32c

TEST(Crc32cTest, MatchesKnownVector) {
    // The canonical CRC-32C check value (RFC 3720 appendix B.4).
    EXPECT_EQ(persist::crc32c("123456789"), 0xE3069283u);
    EXPECT_EQ(persist::crc32c(""), 0u);
}

TEST(Crc32cTest, SeedChainsAcrossChunks) {
    const std::string data = "the quick brown fox jumps over the lazy dog";
    const std::uint32_t whole = persist::crc32c(data);
    std::uint32_t chained = 0;
    for (const char c : data) chained = persist::crc32c(&c, 1, chained);
    EXPECT_EQ(chained, whole);
}

// --------------------------------------------------------------- journal

TEST(JournalTest, RoundTripsBatchesAndBarriers) {
    world w;
    const std::vector<command> commands = record_episode(w, minutes(1), 5);
    const fs::path dir = fresh_dir("journal_roundtrip");
    const fs::path path = dir / persist::journal_filename;
    {
        persist::journal_writer writer(path.string(), 4);
        for (const command& c : commands) {
            if (c.kind == record_type::batch) {
                writer.append_batch(std::span<const traced_alert>(c.batch));
            } else {
                writer.append_barrier(c.kind, c.now);
            }
        }
        writer.flush();
        EXPECT_EQ(writer.records_written(), commands.size());
        EXPECT_EQ(writer.bytes_written(), fs::file_size(path));
    }

    const persist::journal_read_result read = persist::read_journal(path.string());
    EXPECT_FALSE(read.missing);
    EXPECT_EQ(read.truncated_tail_bytes, 0u);
    EXPECT_EQ(read.valid_bytes, fs::file_size(path));
    ASSERT_EQ(read.records.size(), commands.size());
    for (std::size_t i = 0; i < commands.size(); ++i) {
        SCOPED_TRACE("record " + std::to_string(i));
        EXPECT_EQ(read.records[i].type, commands[i].kind);
        if (commands[i].kind == record_type::batch) {
            EXPECT_EQ(serialize_trace(read.records[i].batch),
                      serialize_trace(commands[i].batch));
        } else {
            EXPECT_EQ(read.records[i].now, commands[i].now);
        }
    }
}

TEST(JournalTest, TornTailIsCountedAndTrimmed) {
    const fs::path dir = fresh_dir("journal_torn");
    const fs::path path = dir / persist::journal_filename;
    {
        persist::journal_writer writer(path.string(), 1);
        writer.append_barrier(record_type::tick, seconds(2));
        writer.append_barrier(record_type::tick, seconds(4));
    }
    const std::uint64_t clean_size = fs::file_size(path);
    // A torn write: half a header.
    std::ofstream(path, std::ios::binary | std::ios::app) << "\x02\x08\x7f";

    persist::journal_read_result read = persist::read_journal(path.string());
    EXPECT_EQ(read.records.size(), 2u);
    EXPECT_EQ(read.valid_bytes, clean_size);
    EXPECT_EQ(read.truncated_tail_bytes, 3u);
    EXPECT_FALSE(read.truncation_reason.empty());

    ASSERT_TRUE(persist::truncate_journal(path.string(), read.valid_bytes));
    read = persist::read_journal(path.string());
    EXPECT_EQ(read.truncated_tail_bytes, 0u);
    EXPECT_EQ(read.records.size(), 2u);
}

TEST(JournalTest, BitFlipEndsTheValidPrefix) {
    const fs::path dir = fresh_dir("journal_bitflip");
    const fs::path path = dir / persist::journal_filename;
    std::vector<std::uint64_t> offsets;
    {
        persist::journal_writer writer(path.string(), 1);
        for (int i = 1; i <= 4; ++i) {
            writer.append_barrier(record_type::tick, seconds(2 * i));
            offsets.push_back(writer.bytes_written());
        }
    }
    // Flip one payload byte inside the third record: records 3 and 4
    // both drop (a CRC mismatch ends the prefix; nothing past it is
    // trusted), records 1 and 2 survive.
    std::string bytes = read_file(path);
    bytes[static_cast<std::size_t>(offsets[2]) - 1] ^= 0x40;
    write_file(path, bytes);

    const persist::journal_read_result read = persist::read_journal(path.string());
    EXPECT_EQ(read.records.size(), 2u);
    EXPECT_EQ(read.valid_bytes, offsets[1]);
    EXPECT_EQ(read.truncated_tail_bytes, bytes.size() - offsets[1]);
    EXPECT_NE(read.truncation_reason.find("checksum"), std::string::npos);
}

TEST(JournalTest, BadMagicMakesTheWholeFileATail) {
    const fs::path dir = fresh_dir("journal_magic");
    const fs::path path = dir / "journal.skywal";
    write_file(path, "NOTMAGIC and then some garbage");
    const persist::journal_read_result read = persist::read_journal(path.string());
    EXPECT_TRUE(read.records.empty());
    EXPECT_EQ(read.valid_bytes, 0u);
    EXPECT_EQ(read.truncated_tail_bytes, fs::file_size(path));
}

TEST(JournalTest, MissingFileIsAValidEmptyJournal) {
    const persist::journal_read_result read =
        persist::read_journal((fresh_dir("journal_missing") / "nope.skywal").string());
    EXPECT_TRUE(read.missing);
    EXPECT_TRUE(read.records.empty());
    EXPECT_EQ(read.truncated_tail_bytes, 0u);
}

TEST(JournalTest, ResumeOffsetSkipsTheMagicCheck) {
    const fs::path dir = fresh_dir("journal_resume_offset");
    const fs::path path = dir / persist::journal_filename;
    {
        persist::journal_writer writer(path.string(), 1);
        writer.append_barrier(record_type::tick, seconds(2));
        writer.append_barrier(record_type::tick, seconds(4));
    }
    std::string bytes = read_file(path);
    bytes.replace(0, persist::journal_magic.size(), "NOTMAGIC");
    write_file(path, bytes);

    // From the magic's end the records still decode: a nonzero offset
    // trusts the caller's frame boundary, not the file's first bytes.
    const persist::journal_read_result resumed =
        persist::read_journal(path.string(), persist::journal_magic.size());
    EXPECT_EQ(resumed.records.size(), 2u);
    EXPECT_EQ(resumed.valid_bytes, bytes.size());
    EXPECT_EQ(persist::read_journal(path.string()).valid_bytes, 0u);

    const persist::journal_read_result past =
        persist::read_journal(path.string(), bytes.size() + 5);
    EXPECT_TRUE(past.records.empty());
    EXPECT_EQ(past.valid_bytes, 0u);
    EXPECT_NE(past.truncation_reason.find("past the end"), std::string::npos)
        << past.truncation_reason;
}

// -------------------------------------------------------------- snapshot

TEST(SnapshotTest, RenderParseRoundTripIsCanonical) {
    world w;
    const std::vector<command> commands = record_episode(w, minutes(1), 7);
    network_state idle(&w.topo, &w.customers);
    skynet_config cfg;
    cfg.loc.deterministic_ids = true;
    skynet_engine eng(w.deps(), cfg);
    // Snapshot mid-run (before finish) so open incidents are exercised.
    apply(eng, std::span<const command>(commands).first(commands.size() - 1), idle);

    persist::snapshot_data data;
    data.seq = 9;
    data.journal_bytes = 1234;
    data.journal_records = 56;
    data.barrier_time = minutes(3);
    const location_table& table = w.topo.locations();
    for (std::size_t id = 1; id < table.size(); ++id) {
        data.locations.push_back(table.path_of(static_cast<location_id>(id)).to_string());
    }
    data.engines.shards.push_back(eng.export_state());
    data.log.push_back(incident_log::entry{
        .report = incident_report{}, .closed_at = minutes(2), .attributed_to_failure = true});

    const std::string text = persist::render_snapshot(data);
    const persist::snapshot_parse_result parsed = persist::parse_snapshot(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_EQ(parsed.data->seq, 9u);
    EXPECT_EQ(parsed.data->journal_bytes, 1234u);
    EXPECT_EQ(parsed.data->journal_records, 56u);
    EXPECT_EQ(parsed.data->barrier_time, minutes(3));
    EXPECT_EQ(parsed.data->locations, data.locations);
    ASSERT_EQ(parsed.data->log.size(), 1u);
    EXPECT_EQ(parsed.data->log[0].closed_at, minutes(2));
    EXPECT_EQ(parsed.data->log[0].attributed_to_failure, true);
    // Canonical: re-rendering the parse is byte-identical.
    EXPECT_EQ(persist::render_snapshot(*parsed.data), text);
}

TEST(SnapshotTest, CorruptionFailsTheCrcBeforeParsing) {
    persist::snapshot_data data;
    data.seq = 1;
    data.engines.shards.emplace_back();
    std::string text = persist::render_snapshot(data);
    ASSERT_TRUE(persist::parse_snapshot(text).ok());
    text[text.size() / 2] ^= 0x01;
    const persist::snapshot_parse_result parsed = persist::parse_snapshot(text);
    EXPECT_FALSE(parsed.ok());
    EXPECT_NE(parsed.error.find("checksum"), std::string::npos) << parsed.error;
}

TEST(SnapshotTest, NewestCorruptSnapshotFallsBackToOlder) {
    const fs::path dir = fresh_dir("snapshot_fallback");
    for (std::uint64_t seq : {1u, 2u}) {
        persist::snapshot_data data;
        data.seq = seq;
        data.journal_bytes = 100 * seq;
        data.engines.shards.emplace_back();
        ASSERT_FALSE(persist::write_snapshot(dir.string(), data));
    }
    // Corrupt the newest file in place.
    const fs::path newest = dir / persist::snapshot_filename(2);
    std::string bytes = read_file(newest);
    bytes[bytes.size() / 2] ^= 0x01;
    write_file(newest, bytes);

    const persist::snapshot_pick pick = persist::load_newest_snapshot(dir.string(), 100000);
    ASSERT_TRUE(pick.data.has_value());
    EXPECT_EQ(pick.data->seq, 1u);
    ASSERT_EQ(pick.skipped.size(), 1u);
    EXPECT_NE(pick.skipped[0].file.find("snap-"), std::string::npos);
    EXPECT_FALSE(pick.skipped[0].reason.empty());
}

TEST(SnapshotTest, SnapshotPastDurablePrefixIsSkipped) {
    const fs::path dir = fresh_dir("snapshot_past_prefix");
    for (std::uint64_t seq : {1u, 2u}) {
        persist::snapshot_data data;
        data.seq = seq;
        data.journal_bytes = 100 * seq;
        data.engines.shards.emplace_back();
        ASSERT_FALSE(persist::write_snapshot(dir.string(), data));
    }
    // Only 150 journal bytes became durable: snapshot 2 references a
    // write that never hit the disk and must be passed over.
    const persist::snapshot_pick pick = persist::load_newest_snapshot(dir.string(), 150);
    ASSERT_TRUE(pick.data.has_value());
    EXPECT_EQ(pick.data->seq, 1u);
    ASSERT_EQ(pick.skipped.size(), 1u);
    EXPECT_NE(pick.skipped[0].reason.find("durable"), std::string::npos)
        << pick.skipped[0].reason;
}

// -------------------------------------------------------------- recovery

TEST(RecoveryTest, CrashAtEveryRecordBoundarySequential) {
    world w;
    const std::vector<command> commands = record_episode(w, minutes(1), 11);
    network_state idle(&w.topo, &w.customers);
    skynet_config cfg;
    cfg.loc.deterministic_ids = true;

    skynet_engine base(w.deps(), cfg);
    apply(base, commands, idle);
    const std::string want = report_digest(base);
    EXPECT_FALSE(want.empty()) << "episode produced no incidents";

    const fs::path dir = fresh_dir("seq_full");
    {
        skynet_engine eng(w.deps(), cfg);
        EXPECT_EQ(durable_run(eng, w, commands, idle, dir), want);
    }
    const std::vector<std::uint64_t> offsets =
        record_boundaries(dir / persist::journal_filename);
    ASSERT_EQ(offsets.size(), commands.size());

    for (std::size_t k = 0; k < offsets.size(); ++k) {
        SCOPED_TRACE("crash after record " + std::to_string(k + 1));
        // The crash image: every checkpoint file, journal cut at the
        // record boundary. Snapshots referencing later journal bytes are
        // present and must be skipped.
        const fs::path crash = copy_dir(dir, "seq_crash_point");
        fs::resize_file(crash / persist::journal_filename, offsets[k]);

        skynet_engine eng(w.deps(), cfg);
        persist::recovery_options ropts;
        ropts.dir = crash.string();
        ropts.tick_state = &idle;
        const persist::recovery_result rec =
            persist::recover(eng, w.topo.locations(), nullptr, ropts);
        EXPECT_EQ(rec.journal_records, k + 1);
        EXPECT_EQ(rec.journal_valid_bytes, offsets[k]);
        EXPECT_EQ(rec.saw_finish, k + 1 == commands.size());

        // Resume: re-stream the same episode; the durable session skips
        // the records recovery already accounted for.
        persist::durable_options dopts;
        dopts.dir = crash.string();
        dopts.checkpoint_every = 3;
        dopts.flush_every = 1;
        dopts.resume_records = rec.journal_records;
        dopts.next_snapshot_seq = rec.next_snapshot_seq;
        dopts.base = rec.metrics;
        dopts.locations = &w.topo.locations();
        persist::durable_session<skynet_engine> session(eng, dopts);
        apply(session, commands, idle);
        EXPECT_EQ(report_digest(eng), want);
    }
}

TEST(RecoveryTest, CrashAtRecordBoundariesSharded) {
    world w;
    const std::vector<command> commands = record_episode(w, minutes(1), 13);
    network_state idle(&w.topo, &w.customers);

    sharded_config scfg;
    scfg.shards = 4;
    std::string want;
    {
        sharded_engine base(w.deps(), scfg);
        apply(base, commands, idle);
        want = report_digest(base);
    }

    const fs::path dir = fresh_dir("shard_full");
    {
        sharded_engine eng(w.deps(), scfg);
        EXPECT_EQ(durable_run(eng, w, commands, idle, dir), want);
    }
    const std::vector<std::uint64_t> offsets =
        record_boundaries(dir / persist::journal_filename);
    ASSERT_EQ(offsets.size(), commands.size());

    // Every 5th boundary (plus the last) keeps the 4-thread engine spin
    // count sane while still crossing several checkpoints.
    for (std::size_t k = 0; k < offsets.size(); k += 5) {
        SCOPED_TRACE("crash after record " + std::to_string(k + 1));
        const fs::path crash = copy_dir(dir, "shard_crash_point");
        fs::resize_file(crash / persist::journal_filename, offsets[k]);

        sharded_engine eng(w.deps(), scfg);
        persist::recovery_options ropts;
        ropts.dir = crash.string();
        ropts.tick_state = &idle;
        const persist::recovery_result rec =
            persist::recover(eng, w.topo.locations(), nullptr, ropts);
        EXPECT_EQ(rec.journal_records, k + 1);

        persist::durable_options dopts;
        dopts.dir = crash.string();
        dopts.checkpoint_every = 3;
        dopts.flush_every = 1;
        dopts.resume_records = rec.journal_records;
        dopts.next_snapshot_seq = rec.next_snapshot_seq;
        dopts.locations = &w.topo.locations();
        persist::durable_session<sharded_engine> session(eng, dopts);
        apply(session, commands, idle);
        EXPECT_EQ(report_digest(eng), want);
    }
}

TEST(RecoveryTest, TornTailIsRepairedOnDisk) {
    world w;
    const std::vector<command> commands = record_episode(w, minutes(1), 17);
    network_state idle(&w.topo, &w.customers);
    skynet_config cfg;
    cfg.loc.deterministic_ids = true;

    const fs::path dir = fresh_dir("torn_repair");
    std::string want;
    {
        skynet_engine eng(w.deps(), cfg);
        want = durable_run(eng, w, commands, idle, dir);
    }
    const fs::path journal = dir / persist::journal_filename;
    const std::uint64_t clean_size = fs::file_size(journal);
    std::ofstream(journal, std::ios::binary | std::ios::app) << "\x01\xff\xff";

    skynet_engine eng(w.deps(), cfg);
    persist::recovery_options ropts;
    ropts.dir = dir.string();
    ropts.tick_state = &idle;
    const persist::recovery_result rec =
        persist::recover(eng, w.topo.locations(), nullptr, ropts);
    EXPECT_EQ(rec.metrics.truncated_tail_bytes, 3u);
    EXPECT_TRUE(rec.saw_finish);
    EXPECT_EQ(fs::file_size(journal), clean_size);  // tail trimmed on disk
    EXPECT_EQ(report_digest(eng), want);
}

TEST(RecoveryTest, NoSnapshotReplaysTheWholeJournal) {
    world w;
    const std::vector<command> commands = record_episode(w, minutes(1), 19);
    network_state idle(&w.topo, &w.customers);
    skynet_config cfg;
    cfg.loc.deterministic_ids = true;

    const fs::path dir = fresh_dir("no_snapshot");
    std::string want;
    {
        skynet_engine eng(w.deps(), cfg);
        want = durable_run(eng, w, commands, idle, dir);
    }
    for (const auto& entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() == ".skysnap") fs::remove(entry.path());
    }

    skynet_engine eng(w.deps(), cfg);
    persist::recovery_options ropts;
    ropts.dir = dir.string();
    ropts.tick_state = &idle;
    const persist::recovery_result rec =
        persist::recover(eng, w.topo.locations(), nullptr, ropts);
    EXPECT_EQ(rec.metrics.records_replayed, commands.size());
    EXPECT_EQ(rec.journal_records, commands.size());
    EXPECT_EQ(report_digest(eng), want);
}

TEST(RecoveryTest, ShardCountMismatchThrows) {
    world w;
    const std::vector<command> commands = record_episode(w, minutes(1), 23);
    network_state idle(&w.topo, &w.customers);

    const fs::path dir = fresh_dir("shard_mismatch");
    {
        sharded_config scfg;
        scfg.shards = 4;
        sharded_engine eng(w.deps(), scfg);
        (void)durable_run(eng, w, commands, idle, dir);
    }
    sharded_config two;
    two.shards = 2;
    sharded_engine eng(w.deps(), two);
    persist::recovery_options ropts;
    ropts.dir = dir.string();
    ropts.tick_state = &idle;
    EXPECT_THROW((void)persist::recover(eng, w.topo.locations(), nullptr, ropts),
                 skynet_error);
}

TEST(RecoveryTest, IncidentLogRoundTripsThroughCheckpoints) {
    world w;
    const std::vector<command> commands = record_episode(w, minutes(1), 29);
    network_state idle(&w.topo, &w.customers);
    skynet_config cfg;
    cfg.loc.deterministic_ids = true;

    incident_log log;
    log.append(incident_report{}, seconds(30));
    log.append(incident_report{}, minutes(2));
    const fs::path dir = fresh_dir("log_roundtrip");
    {
        skynet_engine eng(w.deps(), cfg);
        persist::durable_options opts;
        opts.dir = dir.string();
        opts.checkpoint_every = 2;
        opts.flush_every = 1;
        opts.locations = &w.topo.locations();
        opts.log = &log;
        persist::durable_session<skynet_engine> session(eng, opts);
        apply(session, commands, idle);
        (void)eng.take_reports();
    }
    skynet_engine eng(w.deps(), cfg);
    incident_log restored;
    persist::recovery_options ropts;
    ropts.dir = dir.string();
    ropts.tick_state = &idle;
    (void)persist::recover(eng, w.topo.locations(), &restored, ropts);
    ASSERT_EQ(restored.size(), 2u);
    EXPECT_EQ(restored.entries()[0].closed_at, seconds(30));
    EXPECT_EQ(restored.entries()[1].closed_at, minutes(2));
}

TEST(DurableSessionTest, MetricsCountRecordsFlushesAndCheckpoints) {
    world w;
    const std::vector<command> commands = record_episode(w, minutes(1), 31);
    network_state idle(&w.topo, &w.customers);
    skynet_config cfg;
    cfg.loc.deterministic_ids = true;
    skynet_engine eng(w.deps(), cfg);

    persist::durable_options opts;
    opts.dir = fresh_dir("metrics").string();
    opts.checkpoint_every = 4;
    opts.flush_every = 8;
    opts.locations = &w.topo.locations();
    persist::durable_session<skynet_engine> session(eng, opts);
    apply(session, commands, idle);

    const recovery_metrics m = session.metrics();
    EXPECT_EQ(m.journal_records_written, commands.size());
    EXPECT_GT(m.journal_flushes, 0u);
    EXPECT_GT(m.checkpoints_written, 0u);
    EXPECT_TRUE(m.any());
    const engine_metrics em = [&] {
        engine_metrics base = eng.metrics();
        base.recovery += m;
        return base;
    }();
    EXPECT_NE(em.render().find("recovery:"), std::string::npos);
}

/// Recovers `dir` into a fresh sequential engine and returns the result
/// with the engine's report digest.
std::pair<persist::recovery_result, std::string> recover_digest(world& w, const fs::path& dir,
                                                                const network_state& idle) {
    skynet_config cfg;
    cfg.loc.deterministic_ids = true;
    skynet_engine eng(w.deps(), cfg);
    persist::recovery_options ropts;
    ropts.dir = dir.string();
    ropts.tick_state = &idle;
    persist::recovery_result rec = persist::recover(eng, w.topo.locations(), nullptr, ropts);
    return {std::move(rec), report_digest(eng)};
}

TEST(RecoveryTest, SnapshotAtMagicLengthReplaysEveryRecord) {
    world w;
    const std::vector<command> commands = record_episode(w, minutes(1), 37);
    network_state idle(&w.topo, &w.customers);
    skynet_config cfg;
    cfg.loc.deterministic_ids = true;

    const fs::path dir = fresh_dir("snapshot_at_magic");
    std::string want;
    {
        skynet_engine eng(w.deps(), cfg);
        persist::durable_options opts;
        opts.dir = dir.string();
        opts.checkpoint_every = 0;
        opts.locations = &w.topo.locations();
        persist::durable_session<skynet_engine> session(eng, opts);
        ASSERT_TRUE(session.checkpoint_now(0));  // before any record
        apply(session, commands, idle);
        want = report_digest(eng);
    }
    const auto [rec, got] = recover_digest(w, dir, idle);
    EXPECT_NE(rec.notes.back().find("journal offset 8"), std::string::npos)
        << rec.notes.back();
    EXPECT_EQ(rec.metrics.records_replayed, commands.size());
    EXPECT_EQ(rec.journal_records, commands.size());
    EXPECT_EQ(got, want);
}

TEST(RecoveryTest, SnapshotAtJournalEndReplaysNothing) {
    world w;
    const std::vector<command> commands = record_episode(w, minutes(1), 41);
    network_state idle(&w.topo, &w.customers);
    skynet_config cfg;
    cfg.loc.deterministic_ids = true;

    const fs::path dir = fresh_dir("snapshot_at_end");
    {
        skynet_engine eng(w.deps(), cfg);
        persist::durable_options opts;
        opts.dir = dir.string();
        opts.checkpoint_every = 0;
        opts.locations = &w.topo.locations();
        persist::durable_session<skynet_engine> session(eng, opts);
        apply(session, commands, idle);
        ASSERT_TRUE(session.checkpoint_now(commands.back().now));  // after the finish
    }
    const auto [rec, got] = recover_digest(w, dir, idle);
    EXPECT_EQ(rec.journal_valid_bytes, fs::file_size(dir / persist::journal_filename));
    EXPECT_EQ(rec.metrics.records_replayed, 0u);
    EXPECT_EQ(rec.journal_records, commands.size());
    EXPECT_FALSE(rec.saw_finish);
}

TEST(DurableSessionTest, CheckpointDirectoryKeepsTwoSnapshots) {
    world w;
    const std::vector<command> commands = record_episode(w, minutes(1), 43);
    network_state idle(&w.topo, &w.customers);
    skynet_config cfg;
    cfg.loc.deterministic_ids = true;

    const fs::path dir = fresh_dir("bounded_checkpoints");
    std::string want;
    {
        skynet_engine eng(w.deps(), cfg);
        persist::durable_options opts;
        opts.dir = dir.string();
        opts.checkpoint_every = 1;
        opts.locations = &w.topo.locations();
        persist::durable_session<skynet_engine> session(eng, opts);
        apply(session, commands, idle);
        ASSERT_GE(session.metrics().checkpoints_written, 10u);
        want = report_digest(eng);
    }
    std::vector<fs::path> snaps;
    for (const auto& entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() == ".skysnap") snaps.push_back(entry.path());
    }
    ASSERT_EQ(snaps.size(), persist::snapshots_kept);

    // The older one is the fallback when the newest is corrupt.
    std::sort(snaps.begin(), snaps.end());
    std::string bytes = read_file(snaps.back());
    bytes[bytes.size() / 2] ^= 0x01;
    write_file(snaps.back(), bytes);
    const auto [rec, got] = recover_digest(w, dir, idle);
    EXPECT_EQ(rec.metrics.snapshots_skipped, 1u);
    EXPECT_NE(rec.notes.back().find(snaps.front().filename().string()), std::string::npos)
        << rec.notes.back();
    EXPECT_GT(rec.metrics.records_replayed, 0u);
    EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace skynet
