#include "campaign/campaign_journal.hh"

#include <algorithm>

namespace looppoint {

namespace {

constexpr const char *kJournalMagic = "looppoint-campaign-journal-v1";

} // namespace

CampaignJournal::CampaignJournal(std::string path,
                                 std::string fingerprint)
    : log(std::move(path), kJournalMagic, "key fp=" + fingerprint,
          "campaign.journal", {encodeCampaignEvent, parseCampaignEvent})
{
}

std::map<uint32_t, CampaignJournal::Ledger>
CampaignJournal::ledgers() const
{
    std::map<uint32_t, Ledger> out;
    for (const auto &ev : log.records()) {
        Ledger &l = out[ev.index];
        if (ev.event == "launch") {
            l.attempts = std::max(l.attempts, ev.attempt + 1);
        } else if (ev.event == "ok" || ev.event == "degraded") {
            l.completed = true;
            l.finalStatus = ev.event;
        } else if (ev.event == "stale") {
            // A completion whose result later failed validation: the
            // job must run again.
            l.completed = false;
            l.finalStatus.clear();
        }
    }
    return out;
}

} // namespace looppoint
