#include "store/artifact_store.hh"

#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "pinball/pinball_io.hh"
#include "util/durable_file.hh"
#include "util/logging.hh"
#include "util/sha1.hh"

namespace looppoint {

namespace {

constexpr const char *kManifestMagic = "looppoint-store-v1";
constexpr const char *kObjectMagicBase = "looppoint-object-v";
constexpr int kObjectVersion = 2;

void
makeDir(const std::string &path)
{
    if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST)
        fatal("artifact store: cannot create directory '%s': %s",
              path.c_str(), std::strerror(errno));
}

} // namespace

std::optional<ArtifactStore::Entry>
parseManifestEntry(const std::string &payload)
{
    // Parse loosely, then accept only what re-encodes byte for byte.
    std::istringstream is(payload);
    std::string tag, field[4];
    is >> tag >> field[0] >> field[1] >> field[2] >> field[3];
    for (std::string &f : field)
        f.erase(0, f.find('=') + 1);
    ArtifactStore::Entry e{field[0], field[1], field[2], 0};
    if (std::sscanf(field[3].c_str(), "%" SCNu64, &e.bytes) != 1 ||
        e.hash.size() != 40 || encodeManifestEntry(e) != payload)
        return std::nullopt;
    return e;
}

std::string
encodeManifestEntry(const ArtifactStore::Entry &e)
{
    return "entry stage=" + e.stage + " key=" + e.key + " hash=" + e.hash +
           " bytes=" + std::to_string(e.bytes);
}

/** Exclusive advisory lock over the whole store for one operation. */
struct ArtifactStore::LockGuard
{
    explicit LockGuard(ArtifactStore &store) : s(store), guard(store.mu)
    {
        if (s.lockFd >= 0 && ::flock(s.lockFd, LOCK_EX) != 0)
            logError("artifact store: flock('%s/.lock') failed: %s",
                     s.rootDir.c_str(), std::strerror(errno));
    }

    ~LockGuard()
    {
        if (s.lockFd >= 0)
            ::flock(s.lockFd, LOCK_UN);
    }

    ArtifactStore &s;
    std::lock_guard<std::mutex> guard;
};

ArtifactStore::ArtifactStore(std::string dir)
    : rootDir(std::move(dir)),
      manifestLog(rootDir + "/manifest", kManifestMagic, "", "",
                  {encodeManifestEntry, parseManifestEntry})
{
    if (rootDir.empty())
        fatal("artifact store: empty directory path");
    makeDir(rootDir);
    makeDir(rootDir + "/objects");
    lockFd = ::open((rootDir + "/.lock").c_str(),
                    O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (lockFd < 0)
        fatal("artifact store: cannot open '%s/.lock': %s",
              rootDir.c_str(), std::strerror(errno));
}

ArtifactStore::~ArtifactStore()
{
    if (lockFd >= 0)
        ::close(lockFd);
}

std::string
ArtifactStore::objectPath(const std::string &hash) const
{
    return rootDir + "/objects/" + hash;
}

void
ArtifactStore::reloadManifestLocked()
{
    manifest.clear();
    if (auto err = manifestLog.load(/*must_exist=*/false))
        logError("artifact store: %s; ignoring it",
                 err->describe().c_str());
    for (const Entry &e : manifestLog.records())
        manifest[std::make_pair(e.stage, e.key)] = e;
}

void
ArtifactStore::compactManifestLocked()
{
    std::vector<Entry> live;
    for (const auto &[k, e] : manifest)
        live.push_back(e);
    if (auto err = manifestLog.rewrite(std::move(live)))
        logError("artifact store: cannot rewrite manifest: %s",
                 err->c_str());
}

void
ArtifactStore::countHit(const std::string &stage, uint64_t payload_bytes)
{
    nHits.fetch_add(1, std::memory_order_relaxed);
    nBytesRead.fetch_add(payload_bytes, std::memory_order_relaxed);
    MetricsRegistry &reg = MetricsRegistry::global();
    reg.counter("store.hits").add();
    reg.counter("store.hit." + stage).add();
    reg.counter("store.bytes_read").add(payload_bytes);
}

void
ArtifactStore::countMiss(const std::string &stage)
{
    nMisses.fetch_add(1, std::memory_order_relaxed);
    MetricsRegistry &reg = MetricsRegistry::global();
    reg.counter("store.misses").add();
    reg.counter("store.miss." + stage).add();
}

std::optional<ArtifactStore::Hit>
ArtifactStore::lookup(const std::string &stage, const std::string &key)
{
    ScopedSpan span(Tracer::global(), "store.lookup");
    span.arg("stage", stage);

    LockGuard lock(*this);
    reloadManifestLocked();
    auto it = manifest.find(std::make_pair(stage, key));
    if (it == manifest.end()) {
        countMiss(stage);
        span.arg("outcome", "miss");
        return std::nullopt;
    }
    const std::string hash = it->second.hash;
    const std::string path = objectPath(hash);

    auto evict = [&](const char *why) {
        // Corrupt object: count, evict every binding to it, unlink,
        // and report a miss so the caller recomputes + republishes.
        logError("artifact store: evicting corrupt object %s (%s)",
                 hash.c_str(), why);
        nCorrupt.fetch_add(1, std::memory_order_relaxed);
        MetricsRegistry::global().counter("store.corrupt").add();
        ::unlink(path.c_str());
        std::erase_if(manifest, [&](const auto &binding) {
            return binding.second.hash == hash;
        });
        compactManifestLocked();
        countMiss(stage);
        span.arg("outcome", "corrupt");
    };

    std::ifstream is(path, std::ios::binary);
    if (!is) {
        // Object vanished (e.g. a concurrent gc): plain miss.
        countMiss(stage);
        span.arg("outcome", "gone");
        return std::nullopt;
    }
    auto framed = readFramedArtifact(is, kObjectMagicBase,
                                     kObjectVersion);
    if (!framed.ok()) {
        evict(framed.error().describe().c_str());
        return std::nullopt;
    }
    std::string payload = std::move(framed.value());
    if (sha1Hex(payload) != hash) {
        // The frame CRC passed but the content is not what the address
        // claims — a mis-filed or tampered object.
        evict("content hash mismatch");
        return std::nullopt;
    }

    // Touch the LRU clock (null times = now): gc evicts oldest-mtime
    // first.
    ::utimensat(AT_FDCWD, path.c_str(), nullptr, 0);

    countHit(stage, payload.size());
    span.arg("outcome", "hit")
        .arg("bytes", static_cast<uint64_t>(payload.size()));
    return Hit{std::move(payload), hash};
}

std::string
ArtifactStore::publish(const std::string &stage, const std::string &key,
                       const std::string &payload)
{
    ScopedSpan span(Tracer::global(), "store.publish");
    span.arg("stage", stage)
        .arg("bytes", static_cast<uint64_t>(payload.size()));

    const std::string hash = sha1Hex(payload);
    LockGuard lock(*this);
    reloadManifestLocked();

    const std::string path = objectPath(hash);
    struct stat st{};
    if (::stat(path.c_str(), &st) == 0) {
        nBytesDeduped.fetch_add(payload.size(),
                                std::memory_order_relaxed);
        MetricsRegistry::global()
            .counter("store.bytes_deduped")
            .add(payload.size());
    } else {
        // A failed publish is a cache miss, not a run failure: the
        // caller already holds the computed artifact, so an ENOSPC or
        // short write here must never abort the run. Count the failure
        // and return without binding the manifest — the next run
        // recomputes and tries again. Objects skip the fsyncs: every
        // lookup verifies them, so one lost to a power cut is a miss.
        std::ostringstream framed;
        writeFramedArtifact(framed, kObjectMagicBase, kObjectVersion,
                            payload);
        const std::string bytes = framed.str();
        if (auto err = writeFileAtomically(path, bytes)) {
            logError("artifact store: %s (publish skipped)",
                     err->c_str());
            nFailedPublishes.fetch_add(1, std::memory_order_relaxed);
            MetricsRegistry::global()
                .counter("store.publish_failed")
                .add();
            span.arg("outcome", "publish-failed");
            return hash;
        }
        nBytesStored.fetch_add(bytes.size(), std::memory_order_relaxed);
        MetricsRegistry::global()
            .counter("store.bytes_stored")
            .add(bytes.size());
    }

    const Entry e{stage, key, hash, payload.size()};
    auto map_key = std::make_pair(stage, key);
    auto it = manifest.find(map_key);
    if (it == manifest.end() || it->second.hash != hash ||
        it->second.bytes != e.bytes) {
        manifest[std::move(map_key)] = e;
        if (auto err = manifestLog.append(e))
            logError("artifact store: cannot bind '%s' in the "
                     "manifest: %s",
                     stage.c_str(), err->c_str());
    }

    nPublishes.fetch_add(1, std::memory_order_relaxed);
    MetricsRegistry::global().counter("store.publishes").add();
    return hash;
}

std::optional<std::string>
ArtifactStore::hashFor(const std::string &stage, const std::string &key)
{
    LockGuard lock(*this);
    reloadManifestLocked();
    auto it = manifest.find(std::make_pair(stage, key));
    if (it == manifest.end())
        return std::nullopt;
    return it->second.hash;
}

std::vector<ArtifactStore::Entry>
ArtifactStore::entries()
{
    LockGuard lock(*this);
    reloadManifestLocked();
    std::vector<Entry> out;
    out.reserve(manifest.size());
    for (const auto &[k, e] : manifest)
        out.push_back(e);
    return out;
}

ArtifactStore::GcResult
ArtifactStore::gc(uint64_t max_bytes, bool dry_run)
{
    LockGuard lock(*this);
    reloadManifestLocked();

    struct Object
    {
        std::string hash;
        uint64_t bytes = 0;
        time_t mtime = 0;
        bool referenced = false;
    };
    GcResult res;
    // Orphaned temp files of crashed writers: a publish leaves them in
    // objects/, a manifest rewrite in the store root.
    auto sweep_tmp = [&](const std::string &dir, const std::string &name) {
        if (name.find(".tmp.") == std::string::npos)
            return false;
        ++res.removedTmpFiles;
        if (!dry_run)
            ::unlink((dir + "/" + name).c_str());
        return true;
    };
    if (DIR *d = ::opendir(rootDir.c_str())) {
        while (struct dirent *ent = ::readdir(d))
            sweep_tmp(rootDir, ent->d_name);
        ::closedir(d);
    }

    std::vector<Object> objects;
    const std::string obj_dir = rootDir + "/objects";
    if (DIR *d = ::opendir(obj_dir.c_str())) {
        while (struct dirent *ent = ::readdir(d)) {
            std::string name = ent->d_name;
            if (name == "." || name == ".." || sweep_tmp(obj_dir, name))
                continue;
            struct stat st{};
            if (::stat((obj_dir + "/" + name).c_str(), &st) != 0)
                continue;
            Object o;
            o.hash = name;
            o.bytes = static_cast<uint64_t>(st.st_size);
            o.mtime = st.st_mtime;
            objects.push_back(std::move(o));
        }
        ::closedir(d);
    }
    for (auto &o : objects)
        o.referenced = std::any_of(
            manifest.begin(), manifest.end(), [&](const auto &binding) {
                return binding.second.hash == o.hash;
            });

    // LRU: evict oldest first; unreferenced objects go before
    // referenced ones of the same age.
    std::sort(objects.begin(), objects.end(),
              [](const Object &a, const Object &b) {
                  if (a.mtime != b.mtime)
                      return a.mtime < b.mtime;
                  if (a.referenced != b.referenced)
                      return !a.referenced;
                  return a.hash < b.hash;
              });

    uint64_t total = 0;
    for (const auto &o : objects)
        total += o.bytes;

    for (const auto &o : objects) {
        if (total <= max_bytes && o.referenced) {
            ++res.keptObjects;
            res.keptBytes += o.bytes;
            continue;
        }
        ++res.removedObjects;
        res.removedBytes += o.bytes;
        total -= o.bytes;
        auto bound = [&](const auto &binding) {
            return binding.second.hash == o.hash;
        };
        if (dry_run) {
            res.droppedEntries +=
                std::count_if(manifest.begin(), manifest.end(), bound);
        } else {
            ::unlink((obj_dir + "/" + o.hash).c_str());
            res.droppedEntries += std::erase_if(manifest, bound);
        }
    }
    if (!dry_run && res.droppedEntries)
        compactManifestLocked();
    return res;
}

size_t
ArtifactStore::verify()
{
    LockGuard lock(*this);
    reloadManifestLocked();
    size_t bad = 0;
    for (const auto &[k, e] : manifest) {
        std::ifstream is(objectPath(e.hash), std::ios::binary);
        if (!is) {
            ++bad;
            continue;
        }
        auto framed = readFramedArtifact(is, kObjectMagicBase,
                                         kObjectVersion);
        if (!framed.ok() || sha1Hex(framed.value()) != e.hash)
            ++bad;
    }
    return bad;
}

StoreStats
ArtifactStore::stats() const
{
    StoreStats s;
    s.hits = nHits.load(std::memory_order_relaxed);
    s.misses = nMisses.load(std::memory_order_relaxed);
    s.publishes = nPublishes.load(std::memory_order_relaxed);
    s.corruptEntries = nCorrupt.load(std::memory_order_relaxed);
    s.failedPublishes =
        nFailedPublishes.load(std::memory_order_relaxed);
    s.bytesStored = nBytesStored.load(std::memory_order_relaxed);
    s.bytesDeduped = nBytesDeduped.load(std::memory_order_relaxed);
    s.bytesRead = nBytesRead.load(std::memory_order_relaxed);
    return s;
}

} // namespace looppoint
