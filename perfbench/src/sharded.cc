// sharded-far-restore: coordinated cuts at pinned 8-bit asymmetric (the
// L >= 20 case) with CPR-style partial recovery from a capped near tier.
//
// The near tier holds less than one cut, so once a cut's objects drained,
// older chain objects are evicted and a restore reads them back over the
// bandwidth-limited far link. Node losses come from a seeded
// sim::FailureTrace, mapped to trainer shards by sim::ClusterModel; each
// round ends with one loss, recovered with RestorePartial right after the
// newest cut committed, while that cut is still draining to the far tier.
// Tier drain, far-link transfers and the restore fetch do the work here and
// the codec almost none: a codec change must not move this workload.
#include <algorithm>
#include <limits>
#include <optional>

#include "core/recovery.h"
#include "core/sharded_checkpoint.h"
#include "harness.h"
#include "sim/cluster.h"
#include "sim/failure_trace.h"
#include "util/rng.h"

namespace perfbench {

using namespace cnr;

namespace {

constexpr char kJob[] = "dlrm-sharded";
constexpr std::size_t kShards = 8;

class ShardedWorkload : public Workload {
 public:
  explicit ShardedWorkload(Run& run)
      : run_(run),
        dataset_(DatasetFor(run.opt)),
        model_cfg_(ModelFor(run.opt, kShards)),
        cluster_(sim::ClusterConfig{.nodes = 4}),
        failure_rng_(run.opt.seed * 104729 + 3) {}

  ~ShardedWorkload() override {
    ticket_.reset();
    handle_.reset();
    reader_.reset();
    service_.reset();
  }

  void Setup() override {
    tiers_ = MakeTiers();
    model_ = MakeWarmModel(run_, model_cfg_, dataset_, progress_);
    reader_ = std::make_unique<data::ReaderMaster>(dataset_, ReaderFor(), progress_.ReaderState());
    core::ServiceConfig cfg = ServiceBase();
    cfg.max_inflight_checkpoints = kShards;  // a whole cut is admitted at once
    cfg.near_store = tiers_.near;
    // Below one cut: older chain objects are evicted once drained.
    cfg.tiered.near_capacity_bytes = run_.opt.toy ? (24u << 10) : (2u << 20);
    service_ = std::make_unique<core::CheckpointService>(tiers_.far, cfg);
    core::ShardedJobConfig jc;
    jc.name = kJob;
    jc.num_shards = kShards;
    jc.chunk_rows = 512;
    jc.rng_seed = run_.opt.seed;
    jc.keep_cuts = 1;
    if (run_.opt.fp32_full) {
      jc.policy = core::PolicyKind::kAlwaysFull;
      jc.quantize = false;
      jc.quant.method = quant::Method::kNone;
    } else {
      jc.policy = core::PolicyKind::kIntermittent;
      jc.quantize = true;
      jc.quant.method = quant::Method::kAsymmetric;
      jc.quant.bits = 8;
    }
    bits_ = jc.quantize ? jc.quant.bits : 0;
    handle_ = std::make_unique<core::ShardedJobHandle>(*service_, *model_, jc);
  }

  void Round() override {
    const std::uint64_t cuts = 4;
    const std::uint64_t batches = run_.opt.toy ? 4 : 20;
    for (std::uint64_t k = 0; k < cuts; ++k) {
      reader_->AllowBatches(batches);
      TrainBatches(run_, *reader_, *model_, batches, progress_);
      // One cut in flight: the trainer waits for the previous cut (which
      // publishes its COORD on this thread) before taking the next. That
      // wait is this cut's admission wait.
      const double admit_ms = WaitCut();
      SubmitCut(admit_ms);
    }
    WaitCut();
    LoseNodeAndRecover();
  }

  void Finish() override {
    WaitCut();
    {
      Span s(run_.tracer, "storage.tiered.flush");
      service_->tiered_store()->FlushDrains();
      run_.values["storage.tiered.flush_ms"] += s.End();
    }
    AccumulateServiceCounters(run_, *service_);
    CheckNoFarHoles(run_, tiers_);
  }

  Tiers& tiers() override { return tiers_; }

 private:
  void SubmitCut(double admit_ms) {
    const auto start = Clock::now();
    std::vector<std::uint8_t> reader_state;
    {
      Span s(run_.tracer, "data.collect_state");
      reader_state = reader_->CollectState().Encode();
    }
    Span s(run_.tracer, "core.sharded.submit_cut");
    try {
      ticket_.emplace(handle_->SubmitCut(progress_.batches, progress_.samples, reader_state));
    } catch (const std::exception& e) {
      run_.Count("cuts", false);
      run_.Check(false, std::string("SubmitCut threw: ") + e.what());
      return;
    }
    const double ms = s.End();
    run_.stall_ms.Add(admit_ms + ms);
    run_.samples["core.service.admit_wait_ms"].Add(admit_ms);
    // Harvest and snapshot run inside SubmitCut, out of the benchmark's
    // reach: the call is timed whole.
    run_.samples["core.sharded.submit_cut_ms"].Add(ms);
    ticket_start_ = start;
  }

  // Waits for the cut in flight, if any, and records it; returns the wait.
  double WaitCut() {
    if (!ticket_) return 0;
    core::CutResult result;
    bool ok = true;
    double wait_ms = 0;
    {
      Span s(run_.tracer, "core.sharded.cut_wait", ticket_->cut_epoch());
      try {
        result = ticket_->Wait();
      } catch (const std::exception& e) {
        ok = false;
        run_.Check(false, std::string("cut wait threw: ") + e.what());
      }
      wait_ms = s.End();
      run_.samples["core.sharded.cut_wait_ms"].Add(wait_ms);
    }
    ticket_.reset();
    ok = ok && result.committed;
    run_.Count("cuts", ok);
    if (!ok) {
      run_.Check(false, "cut " + std::to_string(result.cut_epoch) + " did not commit");
      return wait_ms;
    }
    CheckpointRecord rec;
    rec.id = result.cut_epoch;
    rec.start = ticket_start_;
    rec.valid_key = storage::Manifest::CutKey(kJob, result.cut_epoch);
    for (const auto& entry : result.shard_map) {
      const std::string mkey = storage::Manifest::ManifestKey(kJob, entry.checkpoint_id);
      const auto m = PeekManifest(tiers_, mkey);
      if (!m) {
        run_.Check(false, "cut " + std::to_string(result.cut_epoch) + ": sub-checkpoint " +
                              std::to_string(entry.checkpoint_id) + " manifest missing");
        continue;
      }
      std::uint64_t rows = 0;
      for (const auto& c : m->chunks) rows += c.num_rows;
      RecordStageTimings(run_, m->timings, rows, model_cfg_.embedding_dim);
      for (auto& k : ManifestKeys(*m, kJob)) rec.keys.push_back(std::move(k));
    }
    rec.keys.push_back(storage::Manifest::CutDenseKey(kJob, result.cut_epoch));
    rec.keys.push_back(rec.valid_key);
    CheckBytes(run_, "cut " + std::to_string(result.cut_epoch), tiers_, rec.keys,
               result.bytes_written);
    for (const auto& k : rec.keys) run_.checkpoint_bytes += tiers_.near->PutBytes(k);
    run_.samples["core.sharded.cut_bytes"].Add(static_cast<double>(result.bytes_written));
    run_.checkpoints.push_back(std::move(rec));
    const auto stats = service_->stats();
    run_.store_peak_bytes = std::max(run_.store_peak_bytes, stats.store_bytes);
    run_.MaxValue("storage.tiered.dirty_bytes_max", static_cast<double>(stats.tier.dirty_bytes));
    return wait_ms;
  }

  // The shards lost in the next event of the seeded failure trace.
  std::vector<std::uint32_t> NextLoss() {
    while (next_event_ >= trace_.events.size()) {
      sim::FailureRateModel rate;
      rate.failures_per_node_hour = 0.01;
      trace_ = sim::GenerateNodeFailureTrace(failure_rng_, cluster_.config(), rate, 1000.0);
      next_event_ = 0;
    }
    const auto& event = trace_.events[next_event_++];
    std::vector<std::uint32_t> lost;
    for (const std::size_t s : cluster_.LostShards(event.nodes, kShards)) {
      lost.push_back(static_cast<std::uint32_t>(s));
    }
    return lost;
  }

  void LoseNodeAndRecover() {
    const std::vector<std::uint32_t> lost = NextLoss();
    std::vector<std::uint32_t> survivors;
    for (std::uint32_t s = 0; s < kShards; ++s) {
      if (std::find(lost.begin(), lost.end(), s) == lost.end()) survivors.push_back(s);
    }
    ModelState truth;
    std::vector<std::uint8_t> dense;
    {
      // The loss itself: the lost shards' rows and accumulators are gone.
      Untimed untimed(run_);
      truth = CaptureState(*model_);
      dense = DenseBytes(*model_);
      const float nan = std::numeric_limits<float>::quiet_NaN();
      for (std::size_t t = 0; t < model_->num_tables(); ++t) {
        auto& table = model_->table(t);
        for (const std::uint32_t s : lost) {
          if (s >= table.num_shards()) continue;
          auto& shard = table.Shard(s);
          for (float& w : shard.MutableWeights()) w = nan;
          for (std::size_t r = 0; r < shard.num_rows(); ++r) shard.AdagradState(r) = nan;
        }
      }
    }
    core::ShardedRestoreResult res;
    bool ok = true;
    {
      Span s(run_.tracer, "core.sharded.restore_partial");
      try {
        core::pipeline::RestoreConfig rc;
        rc.executor = &service_->executor();
        res = core::RestorePartial(service_->store(), kJob, *model_, lost, std::nullopt, rc);
      } catch (const std::exception& e) {
        ok = false;
        run_.Check(false, std::string("RestorePartial threw: ") + e.what());
      }
      const double ms = s.End();
      if (ok) run_.restore_ms.Add(ms);
    }
    run_.Count("restores", ok);
    if (!ok) return;
    RecordRestoreTimings(run_, res.timings, res.bytes_read);
    run_.samples["core.sharded.partial_read_bytes"].Add(static_cast<double>(res.bytes_read));
    Untimed untimed(run_);
    const std::string where = "partial restore of cut " + std::to_string(res.cut_epoch);
    CheckEmbeddings(run_, where, truth, *model_, bits_, &lost);
    CheckShardsIdentical(run_, where + " (survivors)", truth, *model_, survivors);
    run_.Check(DenseBytes(*model_) == dense, where + ": dense MLP state changed");
    run_.Check(res.batches_trained == progress_.batches && res.samples_trained == progress_.samples,
               where + ": progress counters differ");
    run_.Check(res.shards_restored == lost, where + ": restored shard set differs from the loss");
  }

  Run& run_;
  data::SyntheticDataset dataset_;
  dlrm::ModelConfig model_cfg_;
  sim::ClusterModel cluster_;
  util::Rng failure_rng_;
  sim::FailureTrace trace_;
  std::size_t next_event_ = 0;
  Tiers tiers_;
  Progress progress_;
  int bits_ = 0;
  std::unique_ptr<dlrm::DlrmModel> model_;
  std::unique_ptr<data::ReaderMaster> reader_;
  std::unique_ptr<core::CheckpointService> service_;
  std::unique_ptr<core::ShardedJobHandle> handle_;
  std::optional<core::CutTicket> ticket_;
  Clock::time_point ticket_start_{};
};

}  // namespace

std::unique_ptr<Workload> MakeShardedWorkload(Run& run) {
  return std::make_unique<ShardedWorkload>(run);
}

}  // namespace perfbench
