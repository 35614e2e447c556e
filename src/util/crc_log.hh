/**
 * @file
 * The one CRC-line log: the on-disk design of the run journal, the
 * campaign journal and the artifact-store manifest.
 *
 *   <magic> crc=XXXXXXXX
 *   <key> crc=XXXXXXXX              (keyed logs only)
 *   <record> crc=XXXXXXXX           (one line per record)
 *
 * Each ` crc=` trailer (withCrcLine) covers the bytes before it.
 * Reading keeps the valid prefix: the first record line that fails its
 * CRC or the codec's parse, and every later line, are dropped and
 * counted. A bad magic or key is a load error, not a drop.
 *
 * An append is one O_APPEND line plus fdatasync (appendFileDurably).
 * The file is instead rewritten whole, header plus records held, by
 * writeFileDurably: on the first write after construction without
 * load(), after a load() that rejected any byte (missing file, bad
 * header, dropped lines, a last line without its newline), after a
 * failed append, and on rewrite() (compaction). So a fresh log
 * replaces a stale file, and no record is appended behind garbage.
 * Thread-safe.
 */

#ifndef LOOPPOINT_UTIL_CRC_LOG_HH
#define LOOPPOINT_UTIL_CRC_LOG_HH

#include <atomic>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hh"
#include "util/checksum.hh"
#include "util/durable_file.hh"
#include "util/load_result.hh"

namespace looppoint {

template <typename Record>
class CrcLog
{
  public:
    /** `encode` renders a record as one line payload; `parse` inverts
     * it (nullopt rejects the line). */
    struct Codec
    {
        std::string (*encode)(const Record &);
        std::optional<Record> (*parse)(const std::string &);
    };

    /**
     * `key` is the line after the magic ("" for none); `metrics`
     * prefixes the `.loaded_records`, `.dropped_records`, `.appends`
     * and `.failed_writes` counters ("" for none).
     */
    CrcLog(std::string path, std::string magic_, std::string key_,
           std::string metrics_, Codec codec_)
        : filePath(std::move(path)), magic(std::move(magic_)),
          key(std::move(key_)), metrics(std::move(metrics_)),
          codec(codec_)
    {
    }

    /** Hold the file's valid prefix (see file comment). A missing
     * file is an Io error when `must_exist`, else an empty log. */
    std::optional<LoadError> load(bool must_exist)
    {
        std::lock_guard<std::mutex> lock(mu);
        recs.clear();
        dropped = 0;
        rewriteNext = true;
        auto fail = [&](LoadErrorKind kind, const std::string &what) {
            return LoadError{kind, "'" + filePath + "' " + what};
        };
        std::ifstream is(filePath, std::ios::binary);
        if (!is) {
            if (must_exist)
                return fail(LoadErrorKind::Io, "cannot be opened");
            return std::nullopt; // fresh log
        }
        std::string line;
        bool cut = false; // the last line read has no '\n'
        auto next = [&] {
            if (!std::getline(is, line))
                return false;
            cut = is.eof();
            return true;
        };
        if (!next())
            return fail(LoadErrorKind::Truncated, "is empty");
        auto head = checkCrcLine(line);
        if (!head || *head != magic)
            return fail(LoadErrorKind::BadMagic,
                        "is not a " + magic + " file");
        if (!key.empty()) {
            if (!next())
                return fail(LoadErrorKind::Truncated, "has no key line");
            head = checkCrcLine(line);
            if (!head)
                return fail(LoadErrorKind::BadChecksum,
                            "has a key line that fails its checksum");
            if (*head != key)
                return fail(LoadErrorKind::Validation,
                            "was written for a different key: it has '" +
                                *head + "', expected '" + key + "'");
        }

        while (next()) {
            auto payload = checkCrcLine(line);
            auto rec = payload ? codec.parse(*payload) : std::nullopt;
            if (!rec) {
                // Torn tail: this line, and every later one (written
                // later), is unusable. Keep the valid prefix.
                ++dropped;
                while (next())
                    ++dropped;
                break;
            }
            recs.push_back(std::move(*rec));
        }
        // Appends may follow only when every byte was accepted, up to
        // a final newline (an append would glue onto a cut line).
        rewriteNext = dropped > 0 || cut;
        count(".loaded_records", recs.size());
        if (dropped)
            count(".dropped_records", dropped);
        return std::nullopt;
    }

    /** Hold `rec` and persist it; nullopt, or what failed. */
    std::optional<std::string> append(const Record &rec)
    {
        std::lock_guard<std::mutex> lock(mu);
        recs.push_back(rec);
        std::optional<std::string> err;
        const std::string line = withCrcLine(codec.encode(rec)) + '\n';
        if (rewriteNext || appendFileDurably(filePath, line))
            err = writeAllLocked();
        failures += err.has_value();
        count(err ? ".failed_writes" : ".appends", 1);
        return err;
    }

    /** Hold exactly `rs` and rewrite the file (compaction). */
    std::optional<std::string> rewrite(std::vector<Record> rs)
    {
        std::lock_guard<std::mutex> lock(mu);
        recs = std::move(rs);
        return writeAllLocked();
    }

    /** Copy of the records held. */
    std::vector<Record> records() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return recs;
    }

    const std::string &path() const { return filePath; }
    /** Lines the last load() dropped from a torn or corrupt tail. */
    size_t droppedRecords() const { return dropped; }
    /** Appends that failed to persist (disk full, permissions). */
    size_t failedWrites() const { return failures; }

  private:
    std::optional<std::string> writeAllLocked()
    {
        std::string bytes = withCrcLine(magic) + '\n';
        if (!key.empty())
            bytes += withCrcLine(key) + '\n';
        for (const Record &r : recs)
            bytes += withCrcLine(codec.encode(r)) + '\n';
        auto err = writeFileDurably(filePath, bytes);
        rewriteNext = err.has_value();
        return err;
    }

    void count(const char *suffix, size_t n)
    {
        if (!metrics.empty())
            MetricsRegistry::global().counter(metrics + suffix).add(n);
    }

    std::string filePath, magic, key, metrics;
    Codec codec;
    mutable std::mutex mu;
    std::vector<Record> recs;
    std::atomic<size_t> dropped = 0, failures = 0;
    /** The next write must rewrite the whole file. */
    bool rewriteNext = true;
};

} // namespace looppoint

#endif // LOOPPOINT_UTIL_CRC_LOG_HH
