/**
 * @file
 * The two persistence primitives under the run journal, the campaign
 * journal and the artifact-store manifest: util/durable_file
 * (writeFileDurably, writeFileAtomically, appendFileDurably) and
 * CrcLog (util/crc_log). Covers the failure paths of the file
 * replacement (error returned, no tmp file left), the v1 byte format
 * each owner writes, and recovery after a tail cut at every byte
 * offset followed by an append.
 */

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign_journal.hh"
#include "core/run_journal.hh"
#include "store/artifact_store.hh"
#include "util/checksum.hh"
#include "util/crc_log.hh"
#include "util/durable_file.hh"

namespace looppoint {
namespace {

/** Fresh, empty directory under the test tmpdir. */
std::string
freshDir(const std::string &name)
{
    std::string dir = testing::TempDir() + "lp_crclog_" + name;
    EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
    EXPECT_EQ(::mkdir(dir.c_str(), 0755), 0);
    return dir;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

/** Names in `dir` containing ".tmp." (leftovers of a durable write). */
std::vector<std::string>
tmpFilesIn(const std::string &dir)
{
    std::vector<std::string> out;
    if (DIR *d = ::opendir(dir.c_str())) {
        while (struct dirent *ent = ::readdir(d)) {
            std::string name = ent->d_name;
            if (name.find(".tmp.") != std::string::npos)
                out.push_back(name);
        }
        ::closedir(d);
    }
    return out;
}

// ------------------------------------------------------ durable file

TEST(DurableFile, WritesReplacesAndAppends)
{
    const std::string dir = freshDir("durable_ok");
    const std::string path = dir + "/f";
    EXPECT_FALSE(writeFileDurably(path, "first\n"));
    EXPECT_EQ(slurp(path), "first\n");
    EXPECT_FALSE(writeFileAtomically(path, "second\n"));
    EXPECT_EQ(slurp(path), "second\n");
    EXPECT_FALSE(appendFileDurably(path, "third\n"));
    EXPECT_EQ(slurp(path), "second\nthird\n");
    EXPECT_TRUE(tmpFilesIn(dir).empty());

    // An append never creates the file: a log needs its header first.
    const std::string missing = dir + "/missing";
    EXPECT_TRUE(appendFileDurably(missing, "x\n"));
    struct stat st;
    EXPECT_NE(::stat(missing.c_str(), &st), 0);
}

TEST(DurableFile, RenameOntoNonEmptyDirectoryFailsCleanly)
{
    // Root bypasses permission bits, but not rename(2)'s refusal to
    // replace a non-empty directory with a file.
    const std::string dir = freshDir("durable_isdir");
    const std::string target = dir + "/target";
    ASSERT_EQ(::mkdir(target.c_str(), 0755), 0);
    spit(target + "/occupant", "x");

    for (auto write : {writeFileDurably, writeFileAtomically}) {
        auto err = write(target, "bytes");
        ASSERT_TRUE(err.has_value());
        EXPECT_NE(err->find("rename"), std::string::npos) << *err;
        EXPECT_TRUE(tmpFilesIn(dir).empty());
        EXPECT_EQ(slurp(target + "/occupant"), "x");
    }
}

TEST(DurableFile, ParentThatIsARegularFileFailsCleanly)
{
    const std::string dir = freshDir("durable_notdir");
    const std::string parent = dir + "/plain";
    spit(parent, "not a directory");

    for (auto write : {writeFileDurably, writeFileAtomically}) {
        auto err = write(parent + "/f", "bytes");
        ASSERT_TRUE(err.has_value());
        EXPECT_NE(err->find("Not a directory"), std::string::npos)
            << *err;
        EXPECT_TRUE(tmpFilesIn(dir).empty());
        EXPECT_EQ(slurp(parent), "not a directory");
    }
}

// ---------------------------------------------------- CRC-line log

RunKey
journalKey()
{
    RunKey key;
    key.app = "628.pop2_s.1";
    key.input = "test";
    key.threads = 4;
    key.waitPolicy = "passive";
    key.seed = 1;
    key.simFingerprint = 0xDEADBEEF;
    return key;
}

RunJournal::Record
journalRecord(uint32_t idx)
{
    RunJournal::Record r;
    r.regionIndex = idx;
    r.start = Marker{0x400000 + idx, 10 + idx};
    r.end = Marker{0x400100 + idx, 20 + idx};
    r.multiplier = 3.0000000000000004 + idx * 0.1;
    r.metrics.cycles = 1000 + idx;
    r.metrics.runtimeSeconds = 1.0 / 3.0 + idx;
    return r;
}

CampaignEvent
campaignEvent(uint32_t idx)
{
    return {idx, "job-" + std::to_string(idx), "launch", idx, -1, 0};
}

ArtifactStore::Entry
manifestEntry(uint32_t idx)
{
    ArtifactStore::Entry e;
    e.stage = "record";
    e.key = "k" + std::to_string(idx);
    e.hash = std::string(40, static_cast<char>('a' + idx));
    e.bytes = 100 + idx;
    return e;
}

/** The v1 bytes: every line CRC-trailed and newline-terminated. */
std::string
v1Bytes(const std::vector<std::string> &payloads)
{
    std::string out;
    for (const auto &p : payloads)
        out += withCrcLine(p) + '\n';
    return out;
}

TEST(CrcLog, FormatMatchesV1)
{
    const std::string dir = freshDir("format");
    {
        const std::string path = dir + "/run.journal";
        RunJournal j(path, journalKey());
        std::vector<std::string> want = {"looppoint-journal-v1",
                                         journalKey().encode()};
        for (uint32_t i = 0; i < 3; ++i) {
            j.append(journalRecord(i));
            want.push_back(encodeJournalRecord(journalRecord(i)));
        }
        EXPECT_EQ(slurp(path), v1Bytes(want));
    }
    {
        const std::string path = dir + "/campaign.journal";
        CampaignJournal j(path, "fp1");
        ASSERT_FALSE(j.load(/*must_exist=*/false));
        std::vector<std::string> want = {
            "looppoint-campaign-journal-v1", "key fp=fp1"};
        for (uint32_t i = 0; i < 3; ++i) {
            j.append(campaignEvent(i));
            want.push_back(encodeCampaignEvent(campaignEvent(i)));
        }
        EXPECT_EQ(slurp(path), v1Bytes(want));
    }
    {
        // The manifest has no key line; entries are in publish order.
        ArtifactStore store(dir + "/store");
        std::vector<std::string> want = {"looppoint-store-v1"};
        for (const char *key : {"zeta", "alpha", "mid"}) {
            std::string payload = std::string("payload-") + key;
            ArtifactStore::Entry e;
            e.stage = "profile";
            e.key = key;
            e.hash = store.publish("profile", key, payload);
            e.bytes = payload.size();
            want.push_back(encodeManifestEntry(e));
        }
        EXPECT_EQ(slurp(dir + "/store/manifest"), v1Bytes(want));
    }
}

/**
 * Cut a 3-record log at every byte offset K, load it, append a fourth
 * record R, and reload. The log must hold exactly the records whose
 * lines survived the cut plus R, report one dropped record when the
 * cut fell inside a record line, and be byte-identical to a log
 * written with those records from scratch. `owner_view` reads the
 * file back through its owning class, as record payloads.
 */
template <typename Record>
void
sweepTornTailThenAppend(
    const std::string &path, const std::string &magic,
    const std::string &key, typename CrcLog<Record>::Codec codec,
    const std::vector<Record> &recs,
    const std::function<std::vector<std::string>()> &owner_view)
{
    ASSERT_EQ(recs.size(), 4u);
    auto open = [&] {
        return CrcLog<Record>(path, magic, key, "", codec);
    };
    auto payloads = [&](const std::vector<Record> &rs) {
        std::vector<std::string> out;
        for (const Record &r : rs)
            out.push_back(codec.encode(r));
        return out;
    };
    std::remove(path.c_str());
    {
        CrcLog<Record> log = open();
        for (size_t i = 0; i < 3; ++i)
            ASSERT_FALSE(log.append(recs[i]));
    }
    const std::string full = slurp(path);
    std::vector<std::string> header = {magic};
    if (!key.empty())
        header.push_back(key);
    std::vector<std::string> all = header;
    for (size_t i = 0; i < 3; ++i)
        all.push_back(codec.encode(recs[i]));
    ASSERT_EQ(full, v1Bytes(all));

    // lineEnd[i]: offset just past line i's newline.
    std::vector<size_t> lineEnd;
    for (size_t at = 0; at < full.size(); ++at)
        if (full[at] == '\n')
            lineEnd.push_back(at + 1);

    for (size_t k = 0; k <= full.size(); ++k) {
        SCOPED_TRACE("cut at byte " + std::to_string(k));
        spit(path, full.substr(0, k));

        // A line survives when at most its newline was cut.
        size_t survived = 0;
        bool partial = false;
        for (size_t i = 0; i < lineEnd.size(); ++i) {
            const size_t start = i ? lineEnd[i - 1] : 0;
            if (k + 1 >= lineEnd[i])
                ++survived;
            else if (k > start)
                partial = true;
        }
        const bool header_ok = survived >= header.size();
        const size_t kept = header_ok ? survived - header.size() : 0;

        CrcLog<Record> log = open();
        auto err = log.load(/*must_exist=*/true);
        EXPECT_EQ(err.has_value(), !header_ok);
        std::vector<Record> want(recs.begin(), recs.begin() + kept);
        EXPECT_EQ(payloads(log.records()), payloads(want));
        EXPECT_EQ(log.droppedRecords(), header_ok && partial ? 1u : 0u);

        ASSERT_FALSE(log.append(recs[3]));
        want.push_back(recs[3]);
        std::vector<std::string> lines = header;
        for (const auto &p : payloads(want))
            lines.push_back(p);
        EXPECT_EQ(slurp(path), v1Bytes(lines));

        CrcLog<Record> reread = open();
        ASSERT_FALSE(reread.load(/*must_exist=*/true));
        EXPECT_EQ(payloads(reread.records()), payloads(want));
        EXPECT_EQ(reread.droppedRecords(), 0u);
        EXPECT_EQ(owner_view(), payloads(want));
    }
}

class CrcLogKinds : public testing::TestWithParam<std::string>
{
};

TEST_P(CrcLogKinds, TornTailThenAppendKeepsPrefixPlusRecord)
{
    const std::string kind = GetParam();
    const std::string dir = freshDir("sweep_" + kind);
    if (kind == "run_journal") {
        const std::string path = dir + "/journal";
        sweepTornTailThenAppend<RunJournal::Record>(
            path, "looppoint-journal-v1", journalKey().encode(),
            {encodeJournalRecord, parseJournalRecord},
            {journalRecord(0), journalRecord(1), journalRecord(2),
             journalRecord(3)},
            [&] {
                RunJournal j(path, journalKey());
                EXPECT_FALSE(j.load(/*must_exist=*/true));
                std::vector<std::string> out;
                for (const auto &r : j.snapshot())
                    out.push_back(encodeJournalRecord(r));
                return out;
            });
    } else if (kind == "campaign_journal") {
        const std::string path = dir + "/campaign.journal";
        sweepTornTailThenAppend<CampaignEvent>(
            path, "looppoint-campaign-journal-v1", "key fp=fp1",
            {encodeCampaignEvent, parseCampaignEvent},
            {campaignEvent(0), campaignEvent(1), campaignEvent(2),
             campaignEvent(3)},
            [&] {
                CampaignJournal j(path, "fp1");
                EXPECT_FALSE(j.load(/*must_exist=*/true));
                std::vector<std::string> out;
                for (const auto &ev : j.events())
                    out.push_back(encodeCampaignEvent(ev));
                return out;
            });
    } else {
        ASSERT_EQ(kind, "manifest");
        // Keys k0 < k1 < k2 < k3: entries() order is publish order.
        sweepTornTailThenAppend<ArtifactStore::Entry>(
            dir + "/manifest", "looppoint-store-v1", "",
            {encodeManifestEntry, parseManifestEntry},
            {manifestEntry(0), manifestEntry(1), manifestEntry(2),
             manifestEntry(3)},
            [&] {
                std::vector<std::string> out;
                for (const auto &e : ArtifactStore(dir).entries())
                    out.push_back(encodeManifestEntry(e));
                return out;
            });
    }
}

INSTANTIATE_TEST_SUITE_P(CrcLog, CrcLogKinds,
                         testing::Values("run_journal",
                                         "campaign_journal", "manifest"),
                         [](const auto &info) { return info.param; });

} // namespace
} // namespace looppoint
