/**
 * @file
 * The one file-replacing write. writeFileDurably() replaces a file: the
 * bytes go to `<path>.tmp.<pid>`, which is fsync'd and renamed over
 * `path`, then the directory is fsync'd. A crash at any instant leaves
 * the old file or the new one, and a call that succeeded survives
 * power loss. appendFileDurably() appends with O_APPEND + fdatasync.
 *
 * Both return nullopt on success, else what failed ("fsync
 * 'x.tmp.12': No space left on device"), and never abort: each caller
 * keeps its own error policy. A failed replace removes its tmp file.
 * Writers of one path must be serialized (they share the tmp name).
 */

#ifndef LOOPPOINT_UTIL_DURABLE_FILE_HH
#define LOOPPOINT_UTIL_DURABLE_FILE_HH

#include <optional>
#include <string>
#include <string_view>

namespace looppoint {

/** Durably replace `path` with `bytes` (see file comment). */
std::optional<std::string> writeFileDurably(const std::string &path,
                                            std::string_view bytes);

/**
 * writeFileDurably without the fsyncs: after power loss the new file
 * may be missing, empty or torn. Only for content that is verified on
 * every read and can be recomputed (artifact-store objects).
 */
std::optional<std::string> writeFileAtomically(const std::string &path,
                                               std::string_view bytes);

/**
 * Append `bytes` to the existing file `path`. It is opened per call,
 * so the bytes land in whatever inode `path` names now, and never
 * created: a log without its header is not a log. A failed call may
 * have appended a prefix of `bytes`.
 */
std::optional<std::string> appendFileDurably(const std::string &path,
                                             std::string_view bytes);

} // namespace looppoint

#endif // LOOPPOINT_UTIL_DURABLE_FILE_HH
