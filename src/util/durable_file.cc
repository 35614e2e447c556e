#include "util/durable_file.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace looppoint {

namespace {

std::string
failure(const char *step, const std::string &path)
{
    return std::string(step) + " '" + path + "': " + std::strerror(errno);
}

/** Write all of `bytes` to `fd`, `sync` it (unless null), close it. */
std::optional<std::string>
writeSyncClose(int fd, std::string_view bytes, const std::string &path,
               int (*sync)(int))
{
    std::optional<std::string> err;
    while (!err && !bytes.empty()) {
        ssize_t n = ::write(fd, bytes.data(), bytes.size());
        if (n >= 0)
            bytes.remove_prefix(static_cast<size_t>(n));
        else if (errno != EINTR)
            err = failure("write", path);
    }
    if (!err && sync && sync(fd) != 0)
        err = failure("fsync", path);
    if (::close(fd) != 0 && !err)
        err = failure("close", path);
    return err;
}

/** tmp + rename; with `durable`, fsync the file and the directory. */
std::optional<std::string>
replaceFile(const std::string &path, std::string_view bytes, bool durable)
{
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0666);
    if (fd < 0)
        return failure("create", tmp);
    auto err = writeSyncClose(fd, bytes, tmp, durable ? ::fsync : nullptr);
    if (!err && std::rename(tmp.c_str(), path.c_str()) != 0)
        err = failure("rename over", path);
    if (err) {
        ::unlink(tmp.c_str());
        return err;
    }
    if (!durable)
        return std::nullopt;
    // Make the rename itself durable.
    const size_t slash = path.rfind('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash + 1);
    fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0)
        return failure("open", dir);
    return writeSyncClose(fd, {}, dir, ::fsync);
}

} // namespace

std::optional<std::string>
writeFileDurably(const std::string &path, std::string_view bytes)
{
    return replaceFile(path, bytes, /*durable=*/true);
}

std::optional<std::string>
writeFileAtomically(const std::string &path, std::string_view bytes)
{
    return replaceFile(path, bytes, /*durable=*/false);
}

std::optional<std::string>
appendFileDurably(const std::string &path, std::string_view bytes)
{
    int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (fd < 0)
        return failure("open", path);
    return writeSyncClose(fd, bytes, path, ::fdatasync);
}

} // namespace looppoint
