#include "exp/journal.hh"

#include <cstring>
#include <set>
#include <utility>

#include <sys/stat.h>
#include <unistd.h>

#include "sim/logging.hh"
#include "sim/random.hh"
#include "trace/format.hh"

namespace mcsim::exp
{

namespace
{

using trace::crc32;
using trace::getU16;
using trace::getU32;
using trace::getU64;
using trace::putU16;
using trace::putU32;
using trace::putU64;

/** Frame magic: "MCJF" leads every checkpoint frame. */
constexpr std::uint32_t frameMagic = 0x464A434Du;

/** Upper bound on one frame's payload; caps reader buffering. */
constexpr std::uint32_t maxFramePayload = 1u << 24;

/** Bytes reserved for the grid name in the header (NUL padded). */
constexpr std::size_t gridNameBytes = 26;

/** Header layout: magic, version, gridPoints, fingerprint, grid name,
 *  then the CRC of everything before it. @{ */
constexpr std::size_t pointsOffset = 6;
constexpr std::size_t fingerprintOffset = 10;
constexpr std::size_t nameOffset = 18;
static_assert(nameOffset + gridNameBytes + 4 == journalHeaderBytes);
/** @} */

/** Read the whole of @p path; fatal() when it cannot be opened. */
std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (file == nullptr)
        fatal("journal: cannot open '%s'", path.c_str());
    std::vector<std::uint8_t> data;
    std::uint8_t buf[1 << 16];
    for (;;) {
        const std::size_t got = std::fread(buf, 1, sizeof(buf), file);
        data.insert(data.end(), buf, buf + got);
        if (got < sizeof(buf))
            break;
    }
    const bool bad = std::ferror(file) != 0;
    std::fclose(file);
    if (bad)
        fatal("journal: read error on '%s'", path.c_str());
    return data;
}

/** CRC over a frame: the 12 leading header bytes, then the payload. */
std::uint32_t
frameCrc(const std::uint8_t *head, const void *payload, std::size_t size)
{
    return crc32(payload, size, crc32(head, 12));
}

std::vector<std::uint8_t>
encodeHeader(const JournalHeader &header)
{
    std::vector<std::uint8_t> out;
    out.reserve(journalHeaderBytes);
    putU32(out, journalMagic);
    putU16(out, journalVersion);
    putU32(out, header.gridPoints);
    putU64(out, header.fingerprint);
    char label[gridNameBytes] = {};
    // Truncate silently: the name is descriptive, the fingerprint is
    // what resume actually authenticates against.
    std::strncpy(label, header.grid.c_str(), gridNameBytes - 1);
    out.insert(out.end(), label, label + gridNameBytes);
    putU32(out, crc32(out.data(), out.size()));
    return out;
}

JournalHeader
decodeHeader(const std::uint8_t *data, const std::string &path)
{
    if (getU32(data) != journalMagic)
        fatal("journal: bad magic in '%s' (not a checkpoint journal)",
              path.c_str());
    if (getU16(data + 4) != journalVersion) {
        fatal("journal: '%s' has version %u, this build reads %u "
              "(remove it and re-run without --resume)",
              path.c_str(), static_cast<unsigned>(getU16(data + 4)),
              static_cast<unsigned>(journalVersion));
    }
    const std::uint32_t stored = getU32(data + journalHeaderBytes - 4);
    if (crc32(data, journalHeaderBytes - 4) != stored)
        fatal("journal: '%s' header CRC mismatch", path.c_str());

    JournalHeader header;
    header.gridPoints = getU32(data + pointsOffset);
    header.fingerprint = getU64(data + fingerprintOffset);
    const char *label = reinterpret_cast<const char *>(data + nameOffset);
    header.grid.assign(label, strnlen(label, gridNameBytes));
    return header;
}

} // namespace

JournalScan
scanJournal(const std::string &path)
{
    const std::vector<std::uint8_t> data = readFile(path);

    JournalScan scan;
    if (data.size() < journalHeaderBytes) {
        // Killed between creation and the header flush: nothing was
        // recorded, so the caller simply recreates the journal.
        scan.headerTorn = true;
        scan.tornBytes = data.size();
        return scan;
    }
    scan.header = decodeHeader(data.data(), path);
    scan.validBytes = journalHeaderBytes;

    std::set<std::uint32_t> seen;
    std::size_t pos = journalHeaderBytes;
    for (;;) {
        // Anything that does not parse as a complete, CRC-clean frame
        // ends the valid region: the writer appends one flushed frame
        // at a time, so only the final in-flight frame can be torn.
        if (pos + frameHeaderBytes > data.size())
            break;
        const std::uint8_t *head = data.data() + pos;
        if (getU32(head) != frameMagic)
            break;
        const std::uint32_t index = getU32(head + 4);
        const std::uint32_t size = getU32(head + 8);
        if (size > maxFramePayload)
            break;
        if (pos + frameHeaderBytes + size > data.size())
            break;
        const std::uint8_t *payload = head + frameHeaderBytes;
        if (frameCrc(head, payload, size) != getU32(head + 12))
            break;

        // Past the CRC, malformation is structural corruption, not a
        // torn tail -- refuse to resume rather than silently drop work.
        if (index >= scan.header.gridPoints) {
            fatal("journal: '%s' frame for point %u, grid has %u",
                  path.c_str(), index, scan.header.gridPoints);
        }
        if (!seen.insert(index).second)
            fatal("journal: '%s' records point %u twice", path.c_str(),
                  index);
        scan.frames.push_back(
            {index, std::string(reinterpret_cast<const char *>(payload),
                                size)});
        pos += frameHeaderBytes + size;
        scan.validBytes = pos;
    }
    scan.tornBytes = data.size() - scan.validBytes;
    return scan;
}

JournalWriter::JournalWriter(std::string path_, std::FILE *file_)
    : path(std::move(path_)), file(file_)
{
}

JournalWriter::~JournalWriter()
{
    if (file != nullptr)
        std::fclose(file);
}

JournalWriter
JournalWriter::create(const std::string &path, const JournalHeader &header)
{
    std::FILE *file = std::fopen(path.c_str(), "wb");
    if (file == nullptr)
        fatal("journal: cannot create '%s'", path.c_str());
    const std::vector<std::uint8_t> bytes = encodeHeader(header);
    if (std::fwrite(bytes.data(), 1, bytes.size(), file) != bytes.size() ||
        std::fflush(file) != 0) {
        std::fclose(file);
        fatal("journal: cannot write header to '%s'", path.c_str());
    }
    return JournalWriter(path, file);
}

JournalWriter
JournalWriter::resume(const std::string &path, std::uint64_t valid_bytes)
{
    // Drop the torn tail first so the next frame lands exactly after
    // the last valid one; "ab" then keeps every write at end-of-file.
    if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0)
        fatal("journal: cannot truncate '%s'", path.c_str());
    std::FILE *file = std::fopen(path.c_str(), "ab");
    if (file == nullptr)
        fatal("journal: cannot reopen '%s'", path.c_str());
    return JournalWriter(path, file);
}

void
JournalWriter::append(std::uint32_t index, const std::string &payload)
{
    if (file == nullptr)
        fatal("journal: append to closed '%s'", path.c_str());
    if (payload.size() > maxFramePayload)
        fatal("journal: '%s' payload of %zu bytes exceeds limit",
              path.c_str(), payload.size());
    std::vector<std::uint8_t> bytes;
    bytes.reserve(frameHeaderBytes + payload.size());
    putU32(bytes, frameMagic);
    putU32(bytes, index);
    putU32(bytes, static_cast<std::uint32_t>(payload.size()));
    putU32(bytes, frameCrc(bytes.data(), payload.data(), payload.size()));
    bytes.insert(bytes.end(), payload.begin(), payload.end());
    // One write, one flush: the frame reaches the OS before the point
    // counts as checkpointed, so SIGKILL can only lose in-flight work.
    if (std::fwrite(bytes.data(), 1, bytes.size(), file) != bytes.size() ||
        std::fflush(file) != 0)
        fatal("journal: cannot append to '%s'", path.c_str());
}

void
JournalWriter::close()
{
    if (file == nullptr)
        return;
    const bool ok = std::fclose(file) == 0;
    file = nullptr;
    if (!ok)
        fatal("journal: close of '%s' reported a write error",
              path.c_str());
}

std::uint64_t
journalFingerprint(const Grid &grid)
{
    // A canonical self-describing string, hashed: stable across
    // processes, and any change to what the grid would execute -- point
    // set, order, seeds, scale, geometry, preset -- changes it.
    std::string canon = strprintf("mcsim-journal-v2|%s|%zu",
                                  grid.name.c_str(), grid.points.size());
    for (const SweepPoint &point : grid.points) {
        canon += strprintf("|%s|%s|", scaleName(point.scale),
                           point.faultPreset.c_str());
        canon += point.id();
    }
    return splitmix64(fnv1a(canon));
}

JournaledRun
runJournaled(const Grid &grid, const std::string &path,
             const SweepOptions &options)
{
    JournalHeader header;
    header.gridPoints = static_cast<std::uint32_t>(grid.points.size());
    header.fingerprint = journalFingerprint(grid);
    header.grid = grid.name;

    JournaledRun run;
    std::vector<std::string> payloads(grid.points.size());
    std::vector<bool> journaled(grid.points.size(), false);
    std::uint64_t valid_bytes = 0;
    bool resuming = false;
    if (fileExists(path)) {
        const JournalScan scan = scanJournal(path);
        if (!scan.headerTorn) {
            // The point count is inside the fingerprint; checking it too
            // keeps every frame index in range even for a forged header.
            if (scan.header.fingerprint != header.fingerprint ||
                scan.header.gridPoints != header.gridPoints) {
                fatal("journal: '%s' was written for a different run "
                      "of grid '%s' (fingerprint %016llx, this run is "
                      "%016llx: scale, geometry or fault preset changed; "
                      "remove it or fix the flags)",
                      path.c_str(), scan.header.grid.c_str(),
                      static_cast<unsigned long long>(
                          scan.header.fingerprint),
                      static_cast<unsigned long long>(header.fingerprint));
            }
            for (const JournalFrame &frame : scan.frames) {
                payloads[frame.index] = frame.payload;
                journaled[frame.index] = true;
            }
            run.resumed = scan.frames.size();
            valid_bytes = scan.validBytes;
            resuming = true;
        }
    }
    JournalWriter writer = resuming
                               ? JournalWriter::resume(path, valid_bytes)
                               : JournalWriter::create(path, header);

    std::vector<std::size_t> remaining;
    for (std::size_t i = 0; i < grid.points.size(); ++i)
        if (!journaled[i])
            remaining.push_back(i);
    // The sweep engine serializes sink calls, so the writer and the
    // payload slots need no lock of their own.
    SweepRunner(options).runIndices(
        grid, remaining, [&](std::size_t index, const JobResult &job) {
            payloads[index] = jobToJson(job).dump();
            writer.append(static_cast<std::uint32_t>(index),
                          payloads[index]);
        });
    writer.close();

    run.jobs.reserve(payloads.size());
    for (std::size_t i = 0; i < payloads.size(); ++i) {
        std::string error;
        run.jobs.push_back(Json::parse(payloads[i], &error));
        if (!error.empty())
            fatal("journal: '%s' point %zu payload is not JSON: %s",
                  path.c_str(), i, error.c_str());
    }
    return run;
}

bool
fileExists(const std::string &path)
{
    struct stat st = {};
    return ::stat(path.c_str(), &st) == 0;
}

void
writeFileAtomic(const std::string &path, const std::string &content)
{
    const std::string temp = path + ".tmp";
    std::FILE *file = std::fopen(temp.c_str(), "wb");
    if (file == nullptr)
        fatal("cannot write '%s'", temp.c_str());
    const bool wrote =
        content.empty() ||
        std::fwrite(content.data(), 1, content.size(), file) ==
            content.size();
    // fflush pushes the bytes to the OS before the rename publishes the
    // name; a kill after the rename therefore always leaves a complete
    // file (crash consistency against SIGKILL, not power loss).
    const bool flushed = wrote && std::fflush(file) == 0;
    const bool closed = std::fclose(file) == 0;
    if (!wrote || !flushed || !closed) {
        std::remove(temp.c_str());
        fatal("short write to '%s'", temp.c_str());
    }
    if (std::rename(temp.c_str(), path.c_str()) != 0) {
        std::remove(temp.c_str());
        fatal("cannot rename '%s' into '%s'", temp.c_str(), path.c_str());
    }
}

void
ensureDirectory(const std::string &path)
{
    if (path.empty())
        return;
    // Walk the components left to right, creating each prefix; EEXIST
    // is checked by stat so a file in the way is a clear error.
    std::size_t pos = 0;
    while (pos <= path.size()) {
        std::size_t next = path.find('/', pos);
        if (next == std::string::npos)
            next = path.size();
        const std::string prefix = path.substr(0, next);
        pos = next + 1;
        if (prefix.empty() || prefix == ".")
            continue;
        struct stat st = {};
        if (::stat(prefix.c_str(), &st) == 0) {
            if (!S_ISDIR(st.st_mode))
                fatal("'%s' exists and is not a directory",
                      prefix.c_str());
            continue;
        }
        if (::mkdir(prefix.c_str(), 0777) != 0)
            fatal("cannot create directory '%s'", prefix.c_str());
    }
}

} // namespace mcsim::exp
