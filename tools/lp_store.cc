/**
 * @file
 * lp_store: inspect and manage a content-addressed artifact store
 * (the directory run_looppoint --store=DIR and lp_campaign write).
 *
 *   lp_store stats  DIR              entry/object/byte totals
 *   lp_store ls     DIR              one line per manifest binding
 *   lp_store verify DIR              integrity-check every object
 *   lp_store gc     DIR --max-bytes=N [--dry-run]
 *                                    shrink to N bytes, LRU first
 *
 * Exit codes follow run_looppoint's contract: 0 success, 1 findings
 * (verify found corrupt objects), 2 usage, 3 runtime failure.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "store/artifact_store.hh"
#include "util/logging.hh"

using namespace looppoint;

namespace {

void
usage()
{
    std::printf(
        "usage: lp_store <command> <dir> [options]\n"
        "  stats  DIR                 totals: entries, objects, bytes,\n"
        "                             per-stage breakdown\n"
        "  ls     DIR                 every manifest binding\n"
        "                             (stage, key, hash, bytes)\n"
        "  verify DIR                 integrity-check every object\n"
        "                             (exit 1 if any is corrupt)\n"
        "  gc     DIR --max-bytes=N   evict least-recently-used\n"
        "         [--dry-run]         objects until at most N bytes\n"
        "                             remain (orphans always go);\n"
        "                             --dry-run only reports\n");
}

int
cmdStats(ArtifactStore &store)
{
    auto entries = store.entries();
    uint64_t total_bytes = 0;
    std::map<std::string, std::pair<uint64_t, uint64_t>> by_stage;
    for (const auto &e : entries) {
        total_bytes += e.bytes;
        auto &s = by_stage[e.stage];
        s.first += 1;
        s.second += e.bytes;
    }
    std::printf("store   : %s\n", store.dir().c_str());
    std::printf("entries : %zu (%llu payload bytes)\n", entries.size(),
                static_cast<unsigned long long>(total_bytes));
    for (const auto &[stage, s] : by_stage)
        std::printf("  %-8s: %llu entr%s, %llu bytes\n", stage.c_str(),
                    static_cast<unsigned long long>(s.first),
                    s.first == 1 ? "y" : "ies",
                    static_cast<unsigned long long>(s.second));
    return 0;
}

int
cmdLs(ArtifactStore &store)
{
    for (const auto &e : store.entries())
        std::printf("%-8s %10llu  %s  %s\n", e.stage.c_str(),
                    static_cast<unsigned long long>(e.bytes),
                    e.hash.c_str(), e.key.c_str());
    return 0;
}

int
cmdVerify(ArtifactStore &store)
{
    size_t bad = store.verify();
    std::printf("verify  : %zu entr%s checked, %zu corrupt\n",
                store.entries().size(),
                store.entries().size() == 1 ? "y" : "ies", bad);
    return bad ? 1 : 0;
}

int
cmdGc(ArtifactStore &store, uint64_t max_bytes, bool dry_run)
{
    auto r = store.gc(max_bytes, dry_run);
    std::printf("%s : removed %llu object(s) (%llu bytes), kept %llu "
                "(%llu bytes), dropped %llu binding(s), removed %llu "
                "tmp file(s)\n",
                dry_run ? "gc(dry)" : "gc     ",
                static_cast<unsigned long long>(r.removedObjects),
                static_cast<unsigned long long>(r.removedBytes),
                static_cast<unsigned long long>(r.keptObjects),
                static_cast<unsigned long long>(r.keptBytes),
                static_cast<unsigned long long>(r.droppedEntries),
                static_cast<unsigned long long>(r.removedTmpFiles));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3) {
        usage();
        return 2;
    }
    std::string cmd = argv[1];
    std::string dir = argv[2];

    bool dry_run = false;
    uint64_t max_bytes = 0;
    bool have_max = false;
    for (int i = 3; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--dry-run") {
            dry_run = true;
        } else if (arg.rfind("--max-bytes=", 0) == 0) {
            max_bytes = std::stoull(arg.substr(strlen("--max-bytes=")));
            have_max = true;
        } else {
            logError("unknown option '%s'", arg.c_str());
            usage();
            return 2;
        }
    }

    try {
        ArtifactStore store(dir);
        if (cmd == "stats")
            return cmdStats(store);
        if (cmd == "ls")
            return cmdLs(store);
        if (cmd == "verify")
            return cmdVerify(store);
        if (cmd == "gc") {
            if (!have_max) {
                logError("gc requires --max-bytes=N");
                return 2;
            }
            return cmdGc(store, max_bytes, dry_run);
        }
        logError("unknown command '%s'", cmd.c_str());
        usage();
        return 2;
    } catch (const FatalError &e) {
        logError("lp_store: %s", e.what());
        return 3;
    }
}
