// The work audit (DESIGN.md section 2): for each of the eight models, each
// Fig 7 category's charged flops (the summed KernelDesc.flops of every kernel
// and host op it ran) held to the flops its host numerics executed (twice
// the multiply-accumulates ops::SetMacHook counts), at full numerics, in both
// modes, across the embedding dimension d.

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "models/astgnn.hpp"
#include "models/dyrep.hpp"
#include "models/evolvegcn.hpp"
#include "models/jodie.hpp"
#include "models/ldg.hpp"
#include "models/moldgnn.hpp"
#include "models/tgat.hpp"
#include "models/tgn.hpp"
#include "sim/runtime_observer.hpp"
#include "tensor/ops.hpp"
#include "tiny_datasets.hpp"

namespace dgnn::models {
namespace {

/// One audit row: a category's charged and executed flops.
struct Work {
    int64_t charged = 0;
    int64_t executed = 0;
};

using WorkTable = std::map<std::string, Work>;

/// Credits every measured kernel's flops, and every counted MAC twice, to
/// the runtime's current category.
class WorkAudit : public sim::RuntimeObserver {
  public:
    explicit WorkAudit(sim::Runtime& runtime) : runtime_(runtime)
    {
        runtime_.SetObserver(this);
        ops::SetMacHook(
            [this](int64_t macs) { table_[runtime_.CurrentCategory()].executed += 2 * macs; });
    }
    ~WorkAudit() override
    {
        ops::SetMacHook(nullptr);
        runtime_.SetObserver(nullptr);
    }
    WorkAudit(const WorkAudit&) = delete;
    WorkAudit& operator=(const WorkAudit&) = delete;

    void OnOp(const sim::OpRecord& op) override
    {
        if (op.kernel != nullptr) {
            table_[runtime_.CurrentCategory()].charged += op.kernel->flops;
        }
    }
    void OnWindowReset() override { table_.clear(); }

    const WorkTable& Table() const { return table_; }

  private:
    sim::Runtime& runtime_;
    WorkTable table_;
};

/// The tiny datasets and the eight models at embedding dimension d.
struct AuditZoo {
    data::InteractionDataset interactions = TinyInteractions();
    data::SnapshotDataset snapshots = TinySnapshots();
    data::MolecularDataset molecular = TinyMolecular();
    data::TrafficDataset traffic = TinyTraffic();
    data::PointProcessDataset point_process = TinyPointProcess();

    std::vector<std::unique_ptr<DgnnModel>> Models(int64_t d) const
    {
        std::vector<std::unique_ptr<DgnnModel>> all;
        all.push_back(std::make_unique<Jodie>(interactions, JodieConfig{d, 13}));
        all.push_back(std::make_unique<Tgat>(interactions, TgatConfig{d, 2, 1, 4, 7}));
        all.push_back(std::make_unique<Tgn>(interactions, TgnConfig{d, d, 2, 11}));
        all.push_back(std::make_unique<DyRep>(point_process, DyRepConfig{d, 3, 29}));
        all.push_back(std::make_unique<Ldg>(
            point_process, LdgConfig{LdgEncoder::kMlp, d, 4, 3, 31}));
        all.push_back(std::make_unique<EvolveGcn>(
            snapshots, EvolveGcnConfig{EvolveGcnVariant::kO, d, 17}));
        all.push_back(std::make_unique<Astgnn>(traffic, AstgnnConfig{d, 2, 1, 1, 23}));
        all.push_back(std::make_unique<MolDgnn>(molecular, MolDgnnConfig{d, 2 * d, 19}));
        return all;
    }
};

/// The band every row's charged / executed flops must fall in. Charged
/// flops never fall short of executed ones, and exceed them by the
/// elementwise work the MAC count leaves out (bias adds, activations, gates,
/// softmax) and by the rows the numerics share (TGAT projects each distinct
/// node once and encodes an empty slot once per delta; TGN and DyRep share
/// one zero row for empty slots): at most 40% at d = 16 (TGAT's attention
/// layer), and never more as d grows.
constexpr double kBandLow = 1.0;
constexpr double kBandHigh = 1.45;

/// Rows that fall outside the band, each for a named reason. Every one
/// charges at least the work its numerics do.
const std::map<std::string, std::string>&
Reasons()
{
    static const std::map<std::string, std::string> reasons = {
        {"TGAT/Sampling (CPU)", "sampling is priced as memory traffic"},
        {"TGN/Aggregate Messages Passing",
         "message gathers and scatters are priced as memory traffic"},
        {"JODIE/Load Embedding", "t-batch building is priced as memory traffic"},
        {"TGAT/Time Encoding", "cosines and scaling: no multiply-accumulates"},
        {"JODIE/Project User Embedding", "elementwise: no multiply-accumulates"},
        {"TGN/Compute Embedding",
         "numerics embed each event's source; the charge covers both endpoints"},
        {"LDG-MLP/Encoder (NRI)",
         "numerics encode the event pair; the charge adds its k context edges"},
        {"MolDGNN/FFN",
         "numerics predict from the batch's last state; the charge covers every frame"},
        {"ASTGNN/Temporal Attention", "ASTGNN's numerics are a fixed sample"},
        {"ASTGNN/Spatial-attention GCN", "ASTGNN's numerics are a fixed sample"},
        {"ASTGNN/Position Encoding", "elementwise: no multiply-accumulates"},
    };
    return reasons;
}

/// One run of @p model at full numerics: every Fig 7 category it reports,
/// with the work charged and executed under it.
WorkTable
Audit(DgnnModel& model, sim::ExecMode mode)
{
    sim::Runtime runtime = MakeRuntime(mode);
    WorkAudit audit(runtime);
    const RunResult result = model.RunInference(runtime, SmallRun(mode));
    WorkTable table = audit.Table();
    for (const core::BreakdownEntry& entry : result.breakdown.Entries()) {
        table[entry.category];
    }
    return table;
}

TEST(AuditTest, ChargedFlopsTrackExecutedFlops)
{
    const AuditZoo zoo;
    std::map<std::string, double> ratio_at_smaller_d;
    int64_t rows = 0;
    for (const int64_t d : {16, 32, 64}) {
        const auto cpu_models = zoo.Models(d);
        const auto hybrid_models = zoo.Models(d);
        for (size_t m = 0; m < cpu_models.size(); ++m) {
            const WorkTable cpu = Audit(*cpu_models[m], sim::ExecMode::kCpuOnly);
            WorkTable table = Audit(*hybrid_models[m], sim::ExecMode::kHybrid);
            for (const auto& [category, work] : cpu) {
                table[category];
            }
            for (const auto& [category, work] : table) {
                const std::string row = cpu_models[m]->Name() + "/" + category;
                SCOPED_TRACE(row + " at d = " + std::to_string(d));
                ++rows;
                // The same work is charged and done whichever device runs it
                // (a category only the hybrid run reports holds copies).
                const Work cpu_work = cpu.contains(category) ? cpu.at(category) : Work{};
                EXPECT_EQ(cpu_work.charged, work.charged);
                EXPECT_EQ(cpu_work.executed, work.executed);

                const auto reason = Reasons().find(row);
                std::printf("%-46s d=%-3lld charged %11lld executed %11lld  %s\n",
                            row.c_str(), static_cast<long long>(d),
                            static_cast<long long>(work.charged),
                            static_cast<long long>(work.executed),
                            reason == Reasons().end() ? "" : reason->second.c_str());
                EXPECT_GE(work.charged, work.executed) << "charged below the work done";
                if (work.executed == 0) {
                    EXPECT_TRUE(work.charged == 0 || reason != Reasons().end())
                        << "charged " << work.charged << " flops, executed none";
                    continue;
                }
                const double ratio =
                    static_cast<double>(work.charged) / static_cast<double>(work.executed);
                const bool in_band = ratio >= kBandLow && ratio <= kBandHigh;
                if (reason != Reasons().end()) {
                    EXPECT_FALSE(in_band) << "stale reason: ratio " << ratio;
                    continue;
                }
                EXPECT_TRUE(in_band) << "charged / executed = " << ratio;
                const auto smaller = ratio_at_smaller_d.find(row);
                if (smaller != ratio_at_smaller_d.end()) {
                    EXPECT_LE(ratio, smaller->second * (1.0 + 1e-12))
                        << "the charge outgrows the work as d grows";
                }
                ratio_at_smaller_d[row] = ratio;
            }
        }
    }
    // The eight models report 31 Fig 7 categories in all, at three values of d.
    EXPECT_EQ(rows, 3 * 31);
}

}  // namespace
}  // namespace dgnn::models
