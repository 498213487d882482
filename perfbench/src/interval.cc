// interval-adaptive4: the paper's shipped configuration (§6.2.1, 3 < L < 20).
//
// Intermittent incrementals, dynamic bit-width selection that lands on 4-bit
// adaptive asymmetric, strict non-overlap (one checkpoint in flight, its
// admission slot held until the manifest is published), tiered storage with
// an unbounded near tier over the slower far link. Each round trains five
// intervals of 10 batches, checkpointing after each, then crashes: the service
// goes away without flushing the tier, a new one starts over the same tiers
// and restores the newest checkpoint into a fresh model, and training
// resumes on the restored model. The crash is injected once the far tier
// has caught up; that wait is not training time.
#include <deque>
#include <future>

#include "core/recovery.h"
#include "core/snapshot.h"
#include "harness.h"

namespace perfbench {

using namespace cnr;

namespace {

constexpr char kJob[] = "dlrm";

class IntervalWorkload : public Workload {
 public:
  explicit IntervalWorkload(Run& run)
      : run_(run), dataset_(DatasetFor(run.opt)), model_cfg_(ModelFor(run.opt, 4)) {}

  ~IntervalWorkload() override {
    job_.reset();
    reader_.reset();
    service_.reset();
  }

  void Setup() override {
    tiers_ = MakeTiers();
    model_ = MakeWarmModel(run_, model_cfg_, dataset_, progress_);
    reader_ = std::make_unique<data::ReaderMaster>(dataset_, ReaderFor(), progress_.ReaderState());
    StartService();
    OpenJob();
  }

  void Round() override {
    // Intervals shorter than a checkpoint's encode, so every checkpoint but
    // the first after a restart waits in the admission gate for the one
    // before it. An odd number per round puts the median stall inside one
    // position's cluster rather than between two.
    const std::uint64_t intervals = run_.opt.toy ? 3 : 5;
    const std::uint64_t batches = run_.opt.toy ? 4 : 10;
    for (std::uint64_t k = 0; k < intervals; ++k) {
      reader_->AllowBatches(batches);
      TrainBatches(run_, *reader_, *model_, batches, progress_);
      Checkpoint();
    }
    CrashAndRecover();
  }

  void Finish() override {
    {
      Span s(run_.tracer, "core.service.drain");
      job_->Drain();
    }
    Reap(true);
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
  struct Pending {
    std::uint64_t id = 0;
    Clock::time_point start{};
    std::future<core::WriteResult> future;
  };

  core::ServiceConfig ServiceConfigFor() const {
    core::ServiceConfig cfg = ServiceBase();
    cfg.max_inflight_checkpoints = 1;
    cfg.release_slot_on_stored = false;  // §4.3 strict non-overlap
    cfg.near_store = tiers_.near;
    cfg.tiered.near_capacity_bytes = 0;  // unbounded near tier
    cfg.tiered.flush_on_close = false;   // a crash leaves the backlog behind
    return cfg;
  }

  void StartService() {
    service_ = std::make_unique<core::CheckpointService>(tiers_.far, ServiceConfigFor());
  }

  void OpenJob() {
    core::JobConfig jc;
    jc.name = kJob;
    jc.max_inflight_checkpoints = 1;
    jc.model = model_.get();
    jc.gc = true;
    jc.keep_checkpoints = 1;
    jc.chunk_rows = 512;
    jc.rng_seed = run_.opt.seed;
    if (run_.opt.fp32_full) {
      jc.policy = core::PolicyKind::kAlwaysFull;
      jc.quantize = false;
      jc.dynamic_bitwidth = false;
      jc.quant.method = quant::Method::kNone;
    } else {
      jc.policy = core::PolicyKind::kIntermittent;
      jc.quantize = true;
      jc.dynamic_bitwidth = true;
      jc.expected_restarts = 10;  // 3 < L < 20: 4-bit adaptive asymmetric
    }
    job_ = service_->OpenJob(jc);
    job_->SetNextCheckpointId(next_id_);
  }

  void Checkpoint() {
    const auto start = Clock::now();
    core::IntervalSubmission sub;
    double harvest_ms = 0, snapshot_ms = 0, submit_ms = 0;
    {
      Span s(run_.tracer, "core.tracking.harvest", next_id_);
      sub.interval_dirty = job_->tracker().HarvestInterval();
      harvest_ms = s.End();
    }
    {
      Span s(run_.tracer, "data.collect_state", next_id_);
      sub.reader_state = reader_->CollectState().Encode();
    }
    last_reader_state_ = sub.reader_state;
    expected_bits_ = BoundBits(job_->EffectiveQuantConfig());
    sub.snapshot_fn = [this, &snapshot_ms] {
      Span s(run_.tracer, "core.snapshot.copy", next_id_);
      auto snap = core::CreateSnapshot(*model_, progress_.batches, progress_.samples, nullptr);
      snapshot_ms = s.End();
      return snap;
    };
    core::SubmittedCheckpoint submitted;
    bool ok = true;
    {
      Span s(run_.tracer, "core.service.submit", next_id_);
      try {
        submitted = job_->Submit(std::move(sub));
      } catch (const std::exception& e) {
        ok = false;
        run_.Check(false, std::string("Submit threw: ") + e.what());
      }
      submit_ms = s.End();
    }
    if (!ok) {
      run_.Count("checkpoints", false);
      return;
    }
    next_id_ = submitted.checkpoint_id + 1;
    run_.stall_ms.Add(harvest_ms + submit_ms);
    run_.samples["core.tracking.harvest_ms"].Add(harvest_ms);
    run_.samples["core.snapshot.copy_ms"].Add(snapshot_ms);
    run_.samples["core.service.admit_wait_ms"].Add(submit_ms - snapshot_ms);
    pending_.push_back({submitted.checkpoint_id, start, std::move(submitted.future)});
    Reap(false);
  }

  // Finalizes completed checkpoints in submission order.
  void Reap(bool block) {
    while (!pending_.empty()) {
      auto& p = pending_.front();
      if (!block && p.future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        break;
      }
      try {
        const core::WriteResult r = p.future.get();
        CheckpointRecord rec;
        rec.id = p.id;
        rec.start = p.start;
        rec.keys = ManifestKeys(r.manifest, kJob);
        rec.valid_key = storage::Manifest::ManifestKey(kJob, p.id);
        CheckBytes(run_, "checkpoint " + std::to_string(p.id), tiers_, rec.keys,
                   r.bytes_written);
        for (const auto& k : rec.keys) run_.checkpoint_bytes += tiers_.near->PutBytes(k);
        run_.checkpoints.push_back(std::move(rec));
        RecordStageTimings(run_, r.timings, r.rows_written, model_cfg_.embedding_dim);
        const auto stats = service_->stats();
        run_.store_peak_bytes = std::max(run_.store_peak_bytes, stats.store_bytes);
        run_.MaxValue("storage.tiered.dirty_bytes_max", static_cast<double>(stats.tier.dirty_bytes));
        run_.Count("checkpoints", true);
      } catch (const std::exception& e) {
        run_.Count("checkpoints", false);
        run_.Check(false, "checkpoint " + std::to_string(p.id) + " failed: " + e.what());
      }
      pending_.pop_front();
    }
  }

  void CrashAndRecover() {
    {
      Span s(run_.tracer, "core.service.drain");
      job_->Drain();
    }
    Reap(true);
    {
      // The crash is injected once the far tier has caught up, so every
      // restart and restore starts from the same tier state.
      Untimed untimed(run_);
      service_->tiered_store()->FlushDrains();
    }
    // What the newest checkpoint must restore to: the trainer has not moved
    // since its snapshot.
    ModelState truth;
    std::vector<std::uint8_t> dense;
    {
      Untimed untimed(run_);
      truth = CaptureState(*model_);
      dense = DenseBytes(*model_);
    }
    {
      Span s(run_.tracer, "core.service.shutdown");
      AccumulateServiceCounters(run_, *service_);
      job_.reset();
      reader_.reset();
      service_.reset();
    }
    std::unique_ptr<dlrm::DlrmModel> fresh;
    {
      Span s(run_.tracer, "dlrm.construct");
      fresh = std::make_unique<dlrm::DlrmModel>(model_cfg_);
    }
    double restart_ms = 0, restore_ms = 0;
    core::RestoreResult res;
    bool ok = true;
    {
      Span s(run_.tracer, "core.service.restart");
      StartService();
      restart_ms = s.End();
    }
    {
      Span s(run_.tracer, "core.restore.pipelined");
      try {
        core::pipeline::RestoreConfig rc;
        rc.executor = &service_->executor();
        res = core::RestoreModelPipelined(service_->store(), kJob, *fresh, std::nullopt, rc);
      } catch (const std::exception& e) {
        ok = false;
        run_.Check(false, std::string("restore threw: ") + e.what());
      }
      restore_ms = s.End();
    }
    run_.Count("restores", ok);
    if (ok) {
      run_.restore_ms.Add(restart_ms + restore_ms);
      run_.samples["core.service.restart_ms"].Add(restart_ms);
      RecordRestoreTimings(run_, res.timings, res.bytes_read);
      Untimed untimed(run_);
      const std::string where = "restore of checkpoint " + std::to_string(res.checkpoint_id);
      run_.Check(res.checkpoint_id + 1 == next_id_, where + ": not the newest checkpoint");
      CheckEmbeddings(run_, where, truth, *fresh, expected_bits_);
      run_.Check(DenseBytes(*fresh) == dense, where + ": dense MLP state not bit-exact");
      run_.Check(res.batches_trained == progress_.batches &&
                     res.samples_trained == progress_.samples,
                 where + ": progress counters differ");
      run_.Check(res.reader_state.Encode() == last_reader_state_,
                 where + ": reader state differs");
    }
    {
      Span s(run_.tracer, "core.service.reopen");
      model_ = std::move(fresh);
      reader_ =
          std::make_unique<data::ReaderMaster>(dataset_, ReaderFor(), progress_.ReaderState());
      OpenJob();
      job_->OnRestartObserved();
    }
  }

  Run& run_;
  data::SyntheticDataset dataset_;
  dlrm::ModelConfig model_cfg_;
  Tiers tiers_;
  Progress progress_;
  std::unique_ptr<dlrm::DlrmModel> model_;
  std::unique_ptr<data::ReaderMaster> reader_;
  std::unique_ptr<core::CheckpointService> service_;
  std::unique_ptr<core::JobHandle> job_;
  std::deque<Pending> pending_;
  std::uint64_t next_id_ = 1;
  std::vector<std::uint8_t> last_reader_state_;
  int expected_bits_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeIntervalWorkload(Run& run) {
  return std::make_unique<IntervalWorkload>(run);
}

}  // namespace perfbench
