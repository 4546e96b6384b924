/**
 * @file
 * Crash-safe resume for sweeps (DESIGN.md section 15): the checkpoint
 * journal, the journaled grid run built on it, and atomic whole-file
 * writes for results documents.
 *
 * A journal is a fixed header followed by CRC-framed append-only
 * frames, one per completed point, reusing the MCST framing discipline
 * from src/trace/: every frame is length-prefixed and CRC-checked, so a
 * reader never trusts a byte the writer did not finish. The writer
 * appends a frame with a single write and flushes it to the OS before
 * returning, so a SIGKILL at any instant loses at most the in-flight
 * point(s): the scan finds every fully-flushed frame, detects a torn
 * tail by its failed CRC or short length, and resume truncates the
 * garbage and re-runs the points that have no frame.
 *
 * Frame payloads are canonical exp::jobToJson dumps, and a journaled
 * run assembles its results from those payloads for fresh and resumed
 * points alike, so an interrupted-and-resumed run emits exactly the
 * bytes of an uninterrupted one.
 */

#ifndef MCSIM_EXP_JOURNAL_HH
#define MCSIM_EXP_JOURNAL_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "exp/grid.hh"
#include "exp/json.hh"
#include "exp/sweep.hh"

namespace mcsim::exp
{

/** File magic: "MCSJ" as the first four bytes. */
constexpr std::uint32_t journalMagic = 0x4A53434Du;

/** Journal format version this build reads and writes. Version 1 was
 *  the sharded layout (shard and steal fields); it is refused. */
constexpr std::uint16_t journalVersion = 2;

/** Fixed size of the journal header, bytes. */
constexpr std::size_t journalHeaderBytes = 48;

/** Fixed size of a frame header, bytes. */
constexpr std::size_t frameHeaderBytes = 16;

/** Decoded journal header: which grid, run with which flags. */
struct JournalHeader
{
    /** Points in the whole grid; every frame index is below it. */
    std::uint32_t gridPoints = 0;
    /** journalFingerprint() of the grid that wrote the journal. */
    std::uint64_t fingerprint = 0;
    /** Grid name, <= 25 chars (for error messages; the fingerprint is
     *  what resume authenticates). */
    std::string grid;
};

/** One recovered checkpoint frame. */
struct JournalFrame
{
    /** Grid index this result belongs to. */
    std::uint32_t index = 0;
    /** Canonical JSON payload (a jobToJson dump). */
    std::string payload;
};

/** Everything a scan recovers from a journal file. */
struct JournalScan
{
    JournalHeader header;
    /** Valid frames in append order (completion order, not grid order;
     *  indices are unique). */
    std::vector<JournalFrame> frames;
    /** One past the last valid frame: where resume appends. */
    std::uint64_t validBytes = 0;
    /** File is shorter than a header: the writer was killed during
     *  creation. Zero points are recorded; recreate it. */
    bool headerTorn = false;
    /** Bytes of torn tail discarded past validBytes (diagnostics). */
    std::uint64_t tornBytes = 0;
};

/**
 * Read and frame-check @p path: header, then every frame until the
 * first torn or corrupt one (which ends the valid region -- everything
 * after a bad frame is unreachable garbage by construction). fatal() on
 * an unreadable file, a bad magic, version or header CRC, an
 * out-of-range index, or a duplicate index; a torn tail is NOT fatal,
 * it is the crash the journal exists to absorb.
 */
JournalScan scanJournal(const std::string &path);

/**
 * Appends checkpoint frames. Create truncates and writes a fresh
 * header; resume truncates the torn tail found by a scan and appends
 * after the last valid frame. Each append is one write + flush, so a
 * frame is either fully visible to the next scan or entirely absent.
 */
class JournalWriter
{
  public:
    static JournalWriter create(const std::string &path,
                                const JournalHeader &header);
    static JournalWriter resume(const std::string &path,
                                std::uint64_t valid_bytes);
    ~JournalWriter();

    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    /** Append one completed point; fatal() on any I/O failure. */
    void append(std::uint32_t index, const std::string &payload);

    /** Flush and close; fatal() if the OS reports a write error. */
    void close();

  private:
    JournalWriter(std::string path, std::FILE *file);

    std::string path;
    std::FILE *file = nullptr;
};

/**
 * Identity of what a journal of @p grid records: fnv1a over the grid
 * name, point count, and each point's scale, fault preset and id (ids
 * encode benchmark, model, geometry overrides, schedule and seed). A
 * journal can only be resumed by the exact grid that wrote it.
 */
std::uint64_t journalFingerprint(const Grid &grid);

/** What runJournaled() returns. */
struct JournaledRun
{
    /** Canonical job records (parsed journal payloads), grid order. */
    std::vector<Json> jobs;
    /** Points recovered from an existing journal instead of re-run. */
    std::size_t resumed = 0;
};

/**
 * Run @p grid with every completed point checkpointed to the journal
 * at @p path. An existing journal is resumed: its fingerprint must
 * match @p grid (fatal() otherwise), its torn tail is truncated, and
 * only points without a frame are run. A journal with a torn header is
 * recreated. The jobs are assembled from the journal payloads in grid
 * order, so the results are byte-identical to an uninterrupted run's.
 */
JournaledRun runJournaled(const Grid &grid, const std::string &path,
                          const SweepOptions &options);

/** True when @p path exists. */
bool fileExists(const std::string &path);

/**
 * Write @p content to @p path atomically: write "<path>.tmp", flush it
 * to the OS, and rename over @p path, so a run killed at any instant
 * never leaves a truncated document behind. fatal() on any I/O failure
 * (the temporary is removed on the way out).
 */
void writeFileAtomic(const std::string &path, const std::string &content);

/**
 * Create @p path as a directory, making parents as needed (mkdir -p).
 * An existing directory is fine; fatal() when a component cannot be
 * created or exists as a non-directory.
 */
void ensureDirectory(const std::string &path);

} // namespace mcsim::exp

#endif // MCSIM_EXP_JOURNAL_HH
