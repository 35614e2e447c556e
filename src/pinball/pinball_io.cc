#include "pinball/pinball_io.hh"

#include <istream>
#include <ostream>

#include "obs/metrics.hh"
#include "util/checksum.hh"
#include "util/logging.hh"

namespace looppoint {

void
writeFramedArtifact(std::ostream &os, const std::string &magic_base,
                    int version, const std::string &payload)
{
    LP_ASSERT(version >= 2); // version 1 was the unframed format
    os << magic_base << version << '\n';
    os << "version " << version << '\n';
    os << "length " << payload.size() << '\n';
    os << payload;
    os << "checksum " << crcHex(crc32(payload)) << '\n';
}

LoadResult<std::string>
readFramedArtifact(std::istream &is, const std::string &magic_base,
                   int current_version)
{
    using Result = LoadResult<std::string>;

    std::string magic;
    if (!std::getline(is, magic))
        return Result::failure(LoadErrorKind::Truncated,
                               "empty stream (no magic line)");
    if (magic.compare(0, magic_base.size(), magic_base) != 0)
        return Result::failure(
            LoadErrorKind::BadMagic,
            "magic line '" + magic + "' does not start with '" +
                magic_base + "'");

    const std::string suffix = magic.substr(magic_base.size());
    if (suffix.empty() ||
        suffix.find_first_not_of("0123456789") != std::string::npos)
        return Result::failure(LoadErrorKind::BadMagic,
                               "malformed version suffix in magic "
                               "line '" + magic + "'");
    const long magic_version = std::stol(suffix);
    if (magic_version < 2 || magic_version > current_version)
        return Result::failure(
            LoadErrorKind::UnknownVersion,
            "artifact version " + suffix + ", this build reads 2 to " +
                std::to_string(current_version));

    std::string key;
    long version_field = 0;
    if (!(is >> key >> version_field) || key != "version")
        return Result::failure(streamError(is, "version field"));
    if (version_field != magic_version)
        return Result::failure(
            LoadErrorKind::Parse,
            "version field (" + std::to_string(version_field) +
                ") disagrees with the magic line (" + suffix + ")");

    uint64_t length = 0;
    if (!(is >> key >> length) || key != "length")
        return Result::failure(streamError(is, "length field"));
    if (is.get() != '\n')
        return Result::failure(LoadErrorKind::Parse,
                               "length line has trailing junk");

    std::string payload(length, '\0');
    is.read(payload.data(), static_cast<std::streamsize>(length));
    if (static_cast<uint64_t>(is.gcount()) != length)
        return Result::failure(
            LoadErrorKind::Truncated,
            "payload ends after " + std::to_string(is.gcount()) +
                " of " + std::to_string(length) + " bytes");

    std::string crc_text;
    if (!(is >> key >> crc_text) || key != "checksum")
        return Result::failure(streamError(is, "checksum trailer"));
    uint32_t stored = 0;
    if (!parseCrcHex(crc_text, stored))
        return Result::failure(LoadErrorKind::Parse,
                               "malformed checksum '" + crc_text + "'");
    const uint32_t computed = crc32(payload);
    if (computed != stored) {
        MetricsRegistry::global()
            .counter("artifact.checksum.fail")
            .add();
        return Result::failure(
            LoadErrorKind::BadChecksum,
            "payload CRC32 " + crcHex(computed) +
                " does not match stored " + crcHex(stored));
    }
    MetricsRegistry::global().counter("artifact.checksum.ok").add();
    return Result::success(std::move(payload));
}

void
saveOrderTable(std::ostream &os, const char *tag,
               const std::vector<std::vector<uint32_t>> &table)
{
    os << tag << ' ' << table.size() << '\n';
    for (const auto &row : table) {
        os << row.size();
        for (uint32_t tid : row)
            os << ' ' << tid;
        os << '\n';
    }
}

std::optional<LoadError>
loadOrderTable(std::istream &is, const char *tag,
               std::vector<std::vector<uint32_t>> &out)
{
    std::string got;
    size_t rows = 0;
    if (!(is >> got >> rows) || got != tag)
        return streamError(is, std::string("'") + tag +
                                   "' table header");
    out.assign(rows, {});
    for (auto &row : out) {
        size_t n = 0;
        if (!(is >> n))
            return streamError(is, std::string("'") + tag +
                                       "' row length");
        row.resize(n);
        for (auto &tid : row)
            if (!(is >> tid))
                return streamError(is, std::string("'") + tag +
                                           "' row entry");
    }
    return std::nullopt;
}

void
saveSyncTids(std::ostream &os, uint32_t num_threads)
{
    os << "synctids " << num_threads;
    for (uint32_t t = 0; t < num_threads; ++t)
        os << ' ' << t;
    os << '\n';
}

std::optional<LoadError>
loadSyncTids(std::istream &is, uint32_t num_threads)
{
    std::string key;
    uint32_t n = 0;
    if (!(is >> key >> n) || key != "synctids")
        return streamError(is, "'synctids' roster");
    if (n != num_threads)
        return LoadError{LoadErrorKind::Validation,
                         "sync-log tid roster has " + std::to_string(n) +
                             " entries for " +
                             std::to_string(num_threads) + " threads"};
    uint32_t prev = 0;
    for (uint32_t i = 0; i < n; ++i) {
        uint32_t tid = 0;
        if (!(is >> tid))
            return streamError(is, "'synctids' entry");
        if (i > 0 && tid <= prev) {
            const char *what =
                tid == prev ? "duplicate" : "unsorted";
            return LoadError{LoadErrorKind::Validation,
                             std::string(what) +
                                 " sync-log tid " + std::to_string(tid) +
                                 " in roster"};
        }
        if (tid != i)
            return LoadError{LoadErrorKind::Validation,
                             "sync-log tid roster entry " +
                                 std::to_string(i) + " is " +
                                 std::to_string(tid) +
                                 " (expected a dense [0, n) roster)"};
        prev = tid;
    }
    return std::nullopt;
}

std::optional<LoadError>
validateExecutionRecord(const char *what, uint32_t num_threads,
                        const std::vector<std::vector<uint32_t>> &lock_order,
                        const std::vector<std::vector<uint32_t>> &chunk_order,
                        const std::vector<uint64_t> &icounts,
                        const std::vector<uint64_t> &filtered_icounts)
{
    auto invalid = [&](std::string msg) {
        return LoadError{LoadErrorKind::Validation,
                         std::string(what) + ": " + std::move(msg)};
    };

    if (num_threads == 0)
        return invalid("thread count is zero");
    if (num_threads > kMaxArtifactThreads)
        return invalid("thread count " + std::to_string(num_threads) +
                       " exceeds the supported maximum " +
                       std::to_string(kMaxArtifactThreads));

    if (!icounts.empty() && icounts.size() != num_threads)
        return invalid("config declares " + std::to_string(num_threads) +
                       " threads but the icount table has " +
                       std::to_string(icounts.size()) + " entries");
    if (!filtered_icounts.empty() &&
        filtered_icounts.size() != num_threads)
        return invalid("config declares " + std::to_string(num_threads) +
                       " threads but the filtered-icount table has " +
                       std::to_string(filtered_icounts.size()) +
                       " entries");

    uint64_t total = 0;
    for (uint64_t v : icounts)
        if (__builtin_add_overflow(total, v, &total))
            return invalid("per-thread icounts overflow a 64-bit "
                           "global total");
    if (icounts.size() == filtered_icounts.size()) {
        for (size_t t = 0; t < icounts.size(); ++t)
            if (filtered_icounts[t] > icounts[t])
                return invalid(
                    "thread " + std::to_string(t) + " filtered icount " +
                    std::to_string(filtered_icounts[t]) +
                    " exceeds its total " + std::to_string(icounts[t]));
    }

    auto check_rows =
        [&](const char *tag,
            const std::vector<std::vector<uint32_t>> &table)
        -> std::optional<LoadError> {
        for (size_t row = 0; row < table.size(); ++row)
            for (uint32_t tid : table[row])
                if (tid >= num_threads)
                    return invalid(std::string(tag) + " row " +
                                   std::to_string(row) +
                                   " references tid " +
                                   std::to_string(tid) + " but only " +
                                   std::to_string(num_threads) +
                                   " threads exist");
        return std::nullopt;
    };
    if (auto err = check_rows("lock-order", lock_order))
        return err;
    if (auto err = check_rows("chunk-order", chunk_order))
        return err;
    return std::nullopt;
}

LoadError
streamError(const std::istream &is, const std::string &what)
{
    if (is.eof())
        return LoadError{LoadErrorKind::Truncated,
                         "stream ends inside " + what};
    return LoadError{LoadErrorKind::Parse, "malformed " + what};
}

} // namespace looppoint
