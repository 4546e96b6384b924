/**
 * @file
 * Suite for src/exp/journal.*: checkpoint journals, crash/resume
 * determinism, and sweep_runner --journal/--resume end to end.
 *
 * The core property under test: for ANY interruption (torn tails, torn
 * headers, corrupt frames, a SIGKILLed sweep_runner), resuming yields a
 * results document and CSV byte-for-byte equal to a single
 * uninterrupted run. Interruptions are driven by a seeded Rng so
 * failures replay exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <csignal>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "exp/grid.hh"
#include "exp/journal.hh"
#include "exp/sweep.hh"
#include "sim/bytes.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace
{

using namespace mcsim;

/** Fresh scratch directory (tests only; src/ stays entropy-free). */
std::string
makeTempDir()
{
    char tmpl[] = "/tmp/mcsim_journal_XXXXXX";
    const char *dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    return dir == nullptr ? "/tmp" : dir;
}

std::string
slurp(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    EXPECT_NE(file, nullptr) << path;
    if (file == nullptr)
        return {};
    std::string out;
    char buf[1 << 16];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0)
        out.append(buf, got);
    std::fclose(file);
    return out;
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::FILE *file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr) << path;
    std::fwrite(bytes.data(), 1, bytes.size(), file);
    std::fclose(file);
}

/**
 * A six-point slice of the quick grid: real workloads, real metrics,
 * small enough that several resumes stay cheap.
 */
exp::Grid
miniGrid()
{
    exp::Grid grid = exp::namedGrid("quick", exp::Scale::Quick);
    grid.points.resize(6);
    return grid;
}

exp::SweepOptions
quiet(unsigned threads)
{
    exp::SweepOptions opts;
    opts.threads = threads;
    opts.progress = false;
    return opts;
}

/** A run's document and CSV, serialized the way sweep_runner does. */
struct Bytes
{
    std::string json;
    std::string csv;
};

/** Assemble @p run of @p grid, as sweep_runner --journal does. */
Bytes
assemble(const exp::Grid &grid, const exp::JournaledRun &run)
{
    Bytes out;
    out.csv = exp::csvHeader();
    exp::Json jobs = exp::Json::array();
    for (const exp::Json &job : run.jobs) {
        out.csv += exp::csvRowFromJson(grid.name, job);
        jobs.push(job);
    }
    exp::Json grids = exp::Json::object();
    grids[grid.name] = std::move(jobs);
    exp::Json doc = exp::Json::object();
    doc["schema"] = exp::Json("mcsim-sweep-v1");
    doc["grids"] = std::move(grids);
    out.json = doc.dump();
    return out;
}

/**
 * The slow cases share one reference: the mini grid's single-process,
 * unjournaled document and CSV, plus the bytes of a complete journal
 * of the same grid.
 */
struct Reference
{
    Bytes bytes;
    std::string journal;
};

const Reference &
reference()
{
    static const Reference ref = [] {
        const exp::Grid grid = miniGrid();
        Reference r;
        exp::SweepOutcomes outcomes;
        outcomes.add(grid, exp::SweepRunner(quiet(1)).run(grid));
        r.bytes = {outcomes.toJson().dump(), outcomes.toCsv()};
        const std::string path = makeTempDir() + "/mini.mcsj";
        const exp::JournaledRun run =
            exp::runJournaled(grid, path, quiet(4));
        EXPECT_EQ(run.resumed, 0u);
        const Bytes journaled = assemble(grid, run);
        EXPECT_EQ(journaled.json, r.bytes.json);
        EXPECT_EQ(journaled.csv, r.bytes.csv);
        r.journal = slurp(path);
        return r;
    }();
    return ref;
}

/** Byte offsets where each frame of @p scan ends (header end first). */
std::vector<std::size_t>
frameBoundaries(const exp::JournalScan &scan)
{
    std::vector<std::size_t> out = {exp::journalHeaderBytes};
    for (const exp::JournalFrame &frame : scan.frames)
        out.push_back(out.back() + exp::frameHeaderBytes +
                      frame.payload.size());
    return out;
}

exp::JournalHeader
testHeader(std::uint32_t points)
{
    exp::JournalHeader header;
    header.gridPoints = points;
    header.fingerprint = 0xDEADBEEFCAFEF00Dull;
    header.grid = "g";
    return header;
}

TEST(Journal, HeaderAndFramesRoundTrip)
{
    const std::string path = makeTempDir() + "/round.mcsj";
    exp::JournalHeader header = testHeader(10);
    header.grid = "quick";
    {
        exp::JournalWriter writer = exp::JournalWriter::create(path, header);
        writer.append(1, "{\"a\":1}");
        writer.append(4, std::string(1000, 'x'));
        writer.append(7, "");
        writer.close();
    }

    const exp::JournalScan scan = exp::scanJournal(path);
    EXPECT_FALSE(scan.headerTorn);
    EXPECT_EQ(scan.tornBytes, 0u);
    EXPECT_EQ(scan.header.gridPoints, 10u);
    EXPECT_EQ(scan.header.fingerprint, 0xDEADBEEFCAFEF00Dull);
    EXPECT_EQ(scan.header.grid, "quick");
    ASSERT_EQ(scan.frames.size(), 3u);
    EXPECT_EQ(scan.frames[0].index, 1u);
    EXPECT_EQ(scan.frames[0].payload, "{\"a\":1}");
    EXPECT_EQ(scan.frames[1].payload, std::string(1000, 'x'));
    EXPECT_EQ(scan.frames[2].index, 7u);
    EXPECT_EQ(scan.validBytes, slurp(path).size());
}

TEST(Journal, DuplicateAndOutOfRangeIndicesAreStructuralCorruption)
{
    const std::string dir = makeTempDir();
    const std::string dup = dir + "/dup.mcsj";
    {
        exp::JournalWriter writer =
            exp::JournalWriter::create(dup, testHeader(6));
        writer.append(2, "x");
        writer.append(2, "y");
        writer.close();
    }
    EXPECT_THROW(exp::scanJournal(dup), FatalError);

    const std::string range = dir + "/range.mcsj";
    {
        exp::JournalWriter writer =
            exp::JournalWriter::create(range, testHeader(6));
        writer.append(6, "one past the last point");
        writer.close();
    }
    EXPECT_THROW(exp::scanJournal(range), FatalError);
}

TEST(Journal, TornTailsRecoverAtEveryCut)
{
    const std::string dir = makeTempDir();
    const std::string path = dir + "/full.mcsj";
    const std::array<std::string, 4> payloads = {
        "alpha", "", std::string(300, 'z'), "{\"k\":\"v\"}"};
    {
        exp::JournalWriter writer =
            exp::JournalWriter::create(path, testHeader(8));
        for (std::size_t i = 0; i < payloads.size(); ++i)
            writer.append(static_cast<std::uint32_t>(i), payloads[i]);
        writer.close();
    }
    const std::string full = slurp(path);
    const std::vector<std::size_t> boundaries =
        frameBoundaries(exp::scanJournal(path));
    ASSERT_EQ(full.size(), boundaries.back());

    // Cut the file at seeded random offsets (plus every exact frame
    // boundary) and demand the scan recovers exactly the fully-flushed
    // frames -- the SIGKILL-mid-write model.
    Rng rng(20260808);
    std::vector<std::size_t> cuts = boundaries;
    for (int i = 0; i < 24; ++i) {
        cuts.push_back(exp::journalHeaderBytes +
                       rng.below(full.size() - exp::journalHeaderBytes));
    }
    const std::string torn_path = dir + "/torn.mcsj";
    for (const std::size_t cut : cuts) {
        writeBytes(torn_path, full.substr(0, cut));
        const exp::JournalScan scan = exp::scanJournal(torn_path);
        EXPECT_FALSE(scan.headerTorn);
        std::size_t want_frames = 0;
        while (want_frames + 1 < boundaries.size() &&
               boundaries[want_frames + 1] <= cut)
            ++want_frames;
        EXPECT_EQ(scan.frames.size(), want_frames) << "cut=" << cut;
        EXPECT_EQ(scan.validBytes, boundaries[want_frames]);
        EXPECT_EQ(scan.tornBytes, cut - boundaries[want_frames]);

        // Resume truncates the garbage and appends cleanly.
        exp::JournalWriter writer =
            exp::JournalWriter::resume(torn_path, scan.validBytes);
        writer.append(7, "resumed");
        writer.close();
        const exp::JournalScan again = exp::scanJournal(torn_path);
        ASSERT_EQ(again.frames.size(), want_frames + 1);
        EXPECT_EQ(again.frames.back().index, 7u);
        EXPECT_EQ(again.frames.back().payload, "resumed");
        EXPECT_EQ(again.tornBytes, 0u);
    }

    // A corrupt byte inside the last frame's payload drops exactly that
    // frame (CRC), keeping everything before it.
    std::string flipped = full;
    flipped[flipped.size() - 2] ^= 0x40;
    writeBytes(torn_path, flipped);
    const exp::JournalScan scan = exp::scanJournal(torn_path);
    EXPECT_EQ(scan.frames.size(), payloads.size() - 1);
    EXPECT_EQ(scan.validBytes, boundaries[payloads.size() - 1]);

    // A file shorter than a header is a torn header: zero recorded
    // points, recreate.
    writeBytes(torn_path, full.substr(0, 17));
    const exp::JournalScan stub = exp::scanJournal(torn_path);
    EXPECT_TRUE(stub.headerTorn);
    EXPECT_TRUE(stub.frames.empty());
}

TEST(Journal, VersionOneAndForeignJournalsAreRefused)
{
    const std::string dir = makeTempDir();
    const exp::Grid grid = miniGrid();

    // A version-1 (sharded) journal header: magic, version, mode, kind,
    // shard index/count, grid/shard points, fingerprint, 24-byte name,
    // steal slice/slices, CRC.
    std::vector<std::uint8_t> v1;
    putU32(v1, exp::journalMagic);
    putU16(v1, 1);
    v1.push_back(0);
    v1.push_back(0);
    putU32(v1, 0);
    putU32(v1, 1);
    putU32(v1, 6);
    putU32(v1, 6);
    putU64(v1, exp::journalFingerprint(grid));
    v1.resize(v1.size() + 24, 0);
    putU16(v1, 0);
    putU16(v1, 0);
    putU32(v1, crc32(v1.data(), v1.size()));
    ASSERT_EQ(v1.size(), 64u);
    const std::string old_path = dir + "/v1.mcsj";
    writeBytes(old_path, std::string(v1.begin(), v1.end()));
    try {
        exp::scanJournal(old_path);
        ADD_FAILURE() << "a version-1 journal was accepted";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("version 1"),
                  std::string::npos)
            << err.what();
    }
    EXPECT_THROW(exp::runJournaled(grid, old_path, quiet(1)), FatalError);

    // A journal written for other flags, and one whose point count
    // disagrees with its fingerprint (a frame past this grid's end):
    // refused before any point runs, and left untouched.
    const std::uint32_t points =
        static_cast<std::uint32_t>(grid.points.size());
    for (const auto &[fingerprint, grid_points] :
         {std::pair{exp::journalFingerprint(grid) ^ 1, points},
          std::pair{exp::journalFingerprint(grid), points + 1}}) {
        exp::JournalHeader header;
        header.gridPoints = grid_points;
        header.fingerprint = fingerprint;
        header.grid = grid.name;
        const std::string foreign = dir + "/foreign.mcsj";
        exp::JournalWriter writer =
            exp::JournalWriter::create(foreign, header);
        writer.append(grid_points - 1, "{}");
        writer.close();
        const std::string before = slurp(foreign);
        try {
            exp::runJournaled(grid, foreign, quiet(1));
            ADD_FAILURE() << "a foreign journal was resumed";
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find("different run"),
                      std::string::npos)
                << err.what();
        }
        EXPECT_EQ(slurp(foreign), before);
    }
}

TEST(Journal, FingerprintIsStableAndSensitive)
{
    const exp::Grid grid = miniGrid();
    const std::uint64_t base = exp::journalFingerprint(grid);
    EXPECT_EQ(exp::journalFingerprint(miniGrid()), base);

    exp::Grid other = grid;
    other.points.pop_back();
    EXPECT_NE(exp::journalFingerprint(other), base);
    other = grid;
    other.points[3].lineBytes = 32;
    EXPECT_NE(exp::journalFingerprint(other), base);
    other = grid;
    other.points[0].faultPreset = "light";
    EXPECT_NE(exp::journalFingerprint(other), base);
    other = grid;
    // "off" keeps the point id, so only the preset field tells apart.
    other.points[0].faultPreset = "off";
    EXPECT_NE(exp::journalFingerprint(other), base);
    other = grid;
    other.points[5].scale = exp::Scale::Scaled;
    EXPECT_NE(exp::journalFingerprint(other), base);
}

TEST(JournalResume, HeaderBoundaryTearsLoseExactlyTheUnflushedPoints)
{
    // A cut AT the header boundary keeps the header and zero frames; a
    // cut INSIDE the header (and the zero-length file) is a torn header
    // that is recreated from scratch. Either way every point was lost,
    // every point re-runs, and the bytes match the reference.
    const Reference &ref = reference();
    const exp::Grid grid = miniGrid();
    const std::string path = makeTempDir() + "/mini.mcsj";
    struct Cut
    {
        std::size_t size;
        bool tornHeader;
    };
    for (const Cut cut : {Cut{exp::journalHeaderBytes, false},
                          Cut{exp::journalHeaderBytes - 1, true},
                          Cut{1, true}, Cut{0, true}}) {
        writeBytes(path, ref.journal.substr(0, cut.size));
        const exp::JournalScan scan = exp::scanJournal(path);
        EXPECT_EQ(scan.headerTorn, cut.tornHeader) << cut.size;
        EXPECT_TRUE(scan.frames.empty()) << cut.size;

        const exp::JournaledRun run = exp::runJournaled(grid, path, quiet(4));
        EXPECT_EQ(run.resumed, 0u) << cut.size;
        EXPECT_EQ(exp::scanJournal(path).frames.size(), grid.points.size());
        const Bytes got = assemble(grid, run);
        EXPECT_EQ(got.json, ref.bytes.json) << cut.size;
        EXPECT_EQ(got.csv, ref.bytes.csv) << cut.size;
    }
}

TEST(JournalResume, CrcByteFlipDropsExactlyThatFrameAndResumeRestoresIt)
{
    // Corrupt one byte of the LAST frame's stored CRC (frame header
    // offset 12): the scan must drop exactly that frame, the resume
    // must re-run exactly that point, and the bytes must match.
    const Reference &ref = reference();
    const exp::Grid grid = miniGrid();
    const std::string path = makeTempDir() + "/mini.mcsj";
    writeBytes(path, ref.journal);
    const exp::JournalScan before = exp::scanJournal(path);
    ASSERT_EQ(before.frames.size(), grid.points.size());
    const std::size_t last = before.frames.size() - 1;
    const std::uint32_t lost_index = before.frames[last].index;
    const std::size_t frame_start = frameBoundaries(before)[last];

    std::string data = ref.journal;
    data[frame_start + 12] ^= 0x01; // stored CRC, low byte
    writeBytes(path, data);
    const exp::JournalScan scan = exp::scanJournal(path);
    ASSERT_EQ(scan.frames.size(), last);
    for (std::size_t i = 0; i < last; ++i)
        EXPECT_EQ(scan.frames[i].index, before.frames[i].index);
    EXPECT_EQ(scan.validBytes, frame_start);

    const exp::JournaledRun run = exp::runJournaled(grid, path, quiet(1));
    EXPECT_EQ(run.resumed, last);
    const exp::JournalScan after = exp::scanJournal(path);
    ASSERT_EQ(after.frames.size(), grid.points.size());
    EXPECT_EQ(after.frames.back().index, lost_index);
    EXPECT_EQ(after.tornBytes, 0u);
    const Bytes got = assemble(grid, run);
    EXPECT_EQ(got.json, ref.bytes.json);
    EXPECT_EQ(got.csv, ref.bytes.csv);
}

TEST(JournalResume, SeededInterruptionsResumeToByteIdenticalOutput)
{
    // Truncate the complete journal at seeded offsets -- sometimes with
    // garbage appended, as a kill mid-frame leaves -- resume at a seeded
    // thread count, and demand the reference bytes every time.
    const Reference &ref = reference();
    const exp::Grid grid = miniGrid();
    const std::string path = makeTempDir() + "/mini.mcsj";
    writeBytes(path, ref.journal);
    const std::vector<std::size_t> boundaries =
        frameBoundaries(exp::scanJournal(path));

    Rng rng(987654321);
    for (int round = 0; round < 5; ++round) {
        const std::size_t cut =
            exp::journalHeaderBytes +
            rng.below(ref.journal.size() - exp::journalHeaderBytes);
        std::string bytes = ref.journal.substr(0, cut);
        if (rng.below(3) == 0)
            bytes += "\x13garbage-torn-tail";
        writeBytes(path, bytes);
        std::size_t kept = 0;
        while (kept + 1 < boundaries.size() && boundaries[kept + 1] <= cut)
            ++kept;

        const unsigned threads = 1 + static_cast<unsigned>(rng.below(4));
        const exp::JournaledRun run =
            exp::runJournaled(grid, path, quiet(threads));
        EXPECT_EQ(run.resumed, kept) << "cut=" << cut;
        const Bytes got = assemble(grid, run);
        EXPECT_EQ(got.json, ref.bytes.json) << "cut=" << cut;
        EXPECT_EQ(got.csv, ref.bytes.csv) << "cut=" << cut;
    }

    // Resuming a complete journal runs nothing and changes nothing.
    writeBytes(path, ref.journal);
    const exp::JournaledRun again = exp::runJournaled(grid, path, quiet(1));
    EXPECT_EQ(again.resumed, grid.points.size());
    EXPECT_EQ(assemble(grid, again).json, ref.bytes.json);
    EXPECT_EQ(slurp(path), ref.journal);
}

TEST(AtomicFile, WritesWholeFilesAndLeavesNoTemp)
{
    const std::string dir = makeTempDir();
    const std::string path = dir + "/doc.json";
    exp::writeFileAtomic(path, "first\n");
    EXPECT_EQ(slurp(path), "first\n");
    exp::writeFileAtomic(path, "second, longer content\n");
    EXPECT_EQ(slurp(path), "second, longer content\n");
    EXPECT_FALSE(exp::fileExists(path + ".tmp"));
    // Unwritable destination reports, never leaves a temp behind.
    EXPECT_THROW(exp::writeFileAtomic("/nonexistent-dir/x/y", "z"),
                 FatalError);

    // ensureDirectory is mkdir -p: nested creation, idempotent, and a
    // file in the way is a clear error.
    const std::string nested = dir + "/a/b/c";
    exp::ensureDirectory(nested);
    exp::ensureDirectory(nested);
    exp::writeFileAtomic(nested + "/doc.json", "x");
    EXPECT_EQ(slurp(nested + "/doc.json"), "x");
    EXPECT_THROW(exp::ensureDirectory(nested + "/doc.json"), FatalError);
}

/** Run sweep_runner with @p args; return its exit status (-1 when it
 *  did not exit normally) and its combined stdout/stderr. */
int
runSweepRunner(const std::string &args, std::string &output)
{
    const std::string cmd =
        std::string(MCSIM_SWEEP_RUNNER_BIN) + " " + args + " 2>&1";
    FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return -1;
    output.clear();
    std::array<char, 4096> buf;
    std::size_t got = 0;
    while ((got = std::fread(buf.data(), 1, buf.size(), pipe)) > 0)
        output.append(buf.data(), got);
    const int status = pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** The uninterrupted, unjournaled sweep_runner quick-grid output. */
const Bytes &
quickReference()
{
    static const Bytes ref = [] {
        const std::string dir = makeTempDir();
        std::string output;
        EXPECT_EQ(runSweepRunner("--grid quick --threads 4 --no-progress "
                                 "--out " + dir + "/ref.json --csv " +
                                     dir + "/ref.csv",
                                 output),
                  0)
            << output;
        return Bytes{slurp(dir + "/ref.json"), slurp(dir + "/ref.csv")};
    }();
    return ref;
}

TEST(JournalCli, JournaledOutputMatchesUnjournaledAtOneAndFourThreads)
{
    const Bytes &ref = quickReference();
    for (const char *threads : {"1", "4"}) {
        const std::string dir = makeTempDir();
        std::string output;
        EXPECT_EQ(runSweepRunner(std::string("--grid quick --threads ") +
                                     threads + " --no-progress --journal " +
                                     dir + "/j --out " + dir +
                                     "/out.json --csv " + dir + "/out.csv",
                                 output),
                  0)
            << output;
        EXPECT_EQ(slurp(dir + "/out.json"), ref.json) << threads;
        EXPECT_EQ(slurp(dir + "/out.csv"), ref.csv) << threads;
        EXPECT_EQ(exp::scanJournal(dir + "/j/quick.mcsj").frames.size(),
                  28u);
    }
}

TEST(JournalKillGate, SigkilledSweepRunnerResumesToByteIdenticalQuickGrid)
{
    // The real-SIGKILL gate: start a single-threaded journaled quick
    // sweep, kill it from outside once at least one frame is flushed,
    // then --resume must converge to exit 0 with the bytes of an
    // uninterrupted run.
    const Bytes &ref = quickReference();
    const std::string dir = makeTempDir();
    const std::string journal_dir = dir + "/j";
    const std::string journal = journal_dir + "/quick.mcsj";

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        std::freopen("/dev/null", "w", stdout);
        std::freopen("/dev/null", "w", stderr);
        execl(MCSIM_SWEEP_RUNNER_BIN, MCSIM_SWEEP_RUNNER_BIN, "--grid",
              "quick", "--threads", "1", "--no-progress", "--journal",
              journal_dir.c_str(), "--out", "", nullptr);
        _exit(127);
    }
    bool flushed = false;
    int status = 0;
    for (int poll = 0; poll < 60000 && !flushed; ++poll) {
        if (waitpid(pid, &status, WNOHANG) == pid)
            break; // exited on its own: the gate below reports it
        flushed = exp::fileExists(journal) &&
                  !exp::scanJournal(journal).frames.empty();
        if (!flushed)
            usleep(2000);
    }
    ASSERT_TRUE(flushed) << "no frame was ever flushed";
    ASSERT_EQ(kill(pid, SIGKILL), 0);
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGKILL);

    const std::size_t kept = exp::scanJournal(journal).frames.size();
    EXPECT_GE(kept, 1u);
    EXPECT_LT(kept, 28u);

    std::string output;
    EXPECT_EQ(runSweepRunner("--grid quick --threads 4 --no-progress "
                             "--journal " + journal_dir +
                                 " --resume --out " + dir +
                                 "/out.json --csv " + dir + "/out.csv",
                             output),
              0)
        << output;
    EXPECT_NE(output.find(strprintf(
                  "journal quick: %zu/28 point(s) resumed", kept)),
              std::string::npos)
        << output;
    EXPECT_EQ(slurp(dir + "/out.json"), ref.json);
    EXPECT_EQ(slurp(dir + "/out.csv"), ref.csv);
}

} // namespace
