#include "sim/branch_predictor.hh"

namespace looppoint {

PentiumMBranchPredictor::PentiumMBranchPredictor()
    : bimodal(1u << kBimodalBits, 2),
      global(1u << kGlobalBits, 2),
      meta(1u << kMetaBits, 1),
      loop(1u << kLoopBits)
{}

bool
PentiumMBranchPredictor::predictAndTrain(Addr pc, bool taken)
{
    const uint32_t pc_hash = static_cast<uint32_t>(pc >> 2) ^
                             static_cast<uint32_t>(pc >> 16);
    const uint32_t bi_idx = pc_hash & ((1u << kBimodalBits) - 1);
    const uint32_t gl_idx =
        (pc_hash ^ history) & ((1u << kGlobalBits) - 1);
    const uint32_t me_idx = pc_hash & ((1u << kMetaBits) - 1);
    const uint32_t lp_idx = pc_hash & ((1u << kLoopBits) - 1);

    const bool bi_pred = counterTaken(bimodal[bi_idx]);
    const bool gl_pred = counterTaken(global[gl_idx]);
    bool pred = counterTaken(meta[me_idx]) ? gl_pred : bi_pred;

    // Loop detector: a confident entry predicting "not taken at trip
    // boundary, taken otherwise" overrides the dynamic predictors.
    LoopEntry &le = loop[lp_idx];
    const uint32_t tag = pc_hash >> kLoopBits;
    bool loop_override = false;
    bool loop_pred = false;
    if (le.valid && le.tag == tag && le.confidence >= 2 &&
        le.tripCount > 0) {
        loop_override = true;
        loop_pred = (le.currentIter + 1) < le.tripCount;
    }
    if (loop_override)
        pred = loop_pred;

    const bool correct = (pred == taken);
    ++bpStats.branches;
    bpStats.mispredicts += !correct;

    // Train the loop detector on the taken-run length.
    if (!le.valid || le.tag != tag) {
        le = LoopEntry{};
        le.valid = true;
        le.tag = tag;
    }
    if (taken) {
        ++le.currentIter;
    } else {
        const uint32_t observed = le.currentIter + 1;
        if (le.tripCount == observed) {
            if (le.confidence < 3)
                ++le.confidence;
        } else {
            le.tripCount = observed;
            le.confidence = 0;
        }
        le.currentIter = 0;
    }

    // Train the direction predictors and the chooser.
    if (bi_pred != gl_pred) {
        const bool global_right = (gl_pred == taken);
        meta[me_idx] = counterUpdate(meta[me_idx], global_right);
    }
    bimodal[bi_idx] = counterUpdate(bimodal[bi_idx], taken);
    global[gl_idx] = counterUpdate(global[gl_idx], taken);
    history = ((history << 1) | (taken ? 1 : 0)) &
              ((1u << kHistoryBits) - 1);

    return correct;
}

size_t
PentiumMBranchPredictor::stateBytes() const
{
    return bimodal.size() + global.size() + meta.size() +
           loop.size() * sizeof(LoopEntry) + sizeof(uint32_t);
}

} // namespace looppoint
