// delta-stream: a base checkpoint followed by per-iteration DeltaLog
// streaming with periodic log compaction.
//
// Each round takes a full base checkpoint, waits until it has reached the
// far tier (not training time), opens a delta log on it, trains
// 100 batches appending every iteration's touched rows and compacting the
// log every 32 appends, then crashes: a new service starts over the same
// tiers, restores the base and replays the log into a fresh model, and
// training resumes on it. This drives the same encode and store layers with
// many small, latency-bound Puts next to compaction instead of large chunk
// writes, so a change that trades small-write latency for bulk throughput
// (or the reverse) shows here. Compaction is run with CompactNow rather
// than scheduled on the maintenance clock: scheduled compaction ran in some
// sets of runs and not in others (see CHANGES.md), which no bound covers.
#include <future>
#include <mutex>
#include <unordered_map>

#include "core/delta_log.h"
#include "core/recovery.h"
#include "core/snapshot.h"
#include "harness.h"
#include "storage/manifest.h"
#include "util/serialize.h"

namespace perfbench {

using namespace cnr;

namespace {

constexpr char kJob[] = "dlrm-delta";
constexpr std::uint64_t kCompactEvery = 32;  // appends between compactions

class DeltaWorkload : public Workload {
 public:
  explicit DeltaWorkload(Run& run)
      : run_(run), dataset_(DatasetFor(run.opt)), model_cfg_(ModelFor(run.opt, 4)) {}

  ~DeltaWorkload() override {
    log_.reset();
    job_.reset();
    reader_.reset();
    service_.reset();
  }

  void Setup() override {
    tiers_ = MakeTiers();
    // Which iterations each raw segment carries, from its header as it
    // lands on the near tier: the segment landing makes them recoverable.
    tiers_.near->SetPutObserver(
        [this](const std::string& key, std::span<const std::uint8_t> head, Clock::time_point) {
          if (key.find("/dlog/") == std::string::npos || key.find("/seg/") == std::string::npos) {
            return;
          }
          try {
            util::Reader r(head);
            const auto h = storage::DeltaSegmentHeader::Deserialize(r);
            std::lock_guard lock(seg_mu_);
            for (std::uint64_t it = h.first_iteration; it <= h.last_iteration; ++it) {
              segment_of_.try_emplace(it, key);
            }
          } catch (const std::exception&) {
            // A torn header is caught by replay; nothing to map.
          }
        });
    model_ = MakeWarmModel(run_, model_cfg_, dataset_, progress_);
    reader_ = std::make_unique<data::ReaderMaster>(dataset_, ReaderFor(), progress_.ReaderState());
    StartService();
    OpenJob();
  }

  void Round() override {
    BaseCheckpoint();
    const std::uint64_t iterations = run_.opt.toy ? 12 : 100;
    const std::uint64_t compact_every = run_.opt.toy ? 4 : kCompactEvery;
    {
      core::DeltaLogConfig cfg;
      cfg.base_checkpoint_id = base_id_;
      cfg.quant = QuantConfig();
      cfg.group_commit_iterations = 1;
      cfg.max_inflight_segments = 1;
      cfg.rng_seed = run_.opt.seed;
      Span s(run_.tracer, "core.delta_log.open", base_id_);
      log_ = job_->OpenDeltaLog(cfg);
    }
    reader_->AllowBatches(iterations);
    for (std::uint64_t i = 1; i <= iterations; ++i) {
      TrainBatches(run_, *reader_, *model_, 1, progress_);
      Append();
      if (i % compact_every == 0) {
        Span s(run_.tracer, "core.delta_log.compact", base_id_);
        log_->CompactNow();
        run_.samples["core.delta_log.compact_ms"].Add(s.End());
      }
    }
    {
      Span s(run_.tracer, "core.delta_log.flush", base_id_);
      log_->Flush();
      run_.samples["core.delta_log.flush_ms"].Add(s.End());
    }
    CrashAndRecover();
  }

  void Finish() override {
    {
      Span s(run_.tracer, "storage.tiered.flush");
      service_->tiered_store()->FlushDrains();
      run_.values["storage.tiered.flush_ms"] += s.End();
    }
    AccumulateServiceCounters(run_, *service_);
    CheckNoFarHoles(run_, tiers_);
    std::lock_guard lock(seg_mu_);
    std::uint64_t unmapped = 0;
    for (auto& rec : run_.checkpoints) {
      const auto it = segment_of_.find(rec.id);
      if (it == segment_of_.end()) {
        ++unmapped;
        continue;
      }
      rec.valid_key = it->second;
      rec.keys = {it->second};
    }
    run_.Check(unmapped == 0,
               std::to_string(unmapped) + " appended iterations never reached a sealed segment");
    const double appends = static_cast<double>(run_.checkpoints.size());
    const double dlog_bytes = static_cast<double>(tiers_.near->PutBytesMatching("/dlog/"));
    run_.values["core.delta_log.write_bytes_per_iter"] = appends > 0 ? dlog_bytes / appends : 0;
    run_.checkpoint_bytes += static_cast<std::uint64_t>(dlog_bytes);
  }

  Tiers& tiers() override { return tiers_; }

 private:
  quant::QuantConfig QuantConfig() const {
    quant::QuantConfig q;
    if (run_.opt.fp32_full) {
      q.method = quant::Method::kNone;
    } else {
      q.method = quant::Method::kAsymmetric;
      q.bits = 8;
    }
    return q;
  }

  void StartService() {
    core::ServiceConfig cfg = ServiceBase();
    cfg.max_inflight_checkpoints = 1;
    cfg.near_store = tiers_.near;
    cfg.tiered.flush_on_close = false;  // a crash leaves the backlog behind
    service_ = std::make_unique<core::CheckpointService>(tiers_.far, cfg);
  }

  void OpenJob() {
    core::JobConfig jc;
    jc.name = kJob;
    jc.model = model_.get();
    jc.policy = core::PolicyKind::kAlwaysFull;  // every base is a full checkpoint
    jc.quantize = !run_.opt.fp32_full;
    jc.dynamic_bitwidth = false;
    jc.quant = QuantConfig();
    jc.chunk_rows = 512;
    jc.rng_seed = run_.opt.seed;
    jc.gc = true;
    jc.keep_checkpoints = 1;
    job_ = service_->OpenJob(jc);
    job_->SetNextCheckpointId(next_id_);
  }

  void BaseCheckpoint() {
    core::IntervalSubmission sub;
    {
      Span s(run_.tracer, "core.tracking.harvest", next_id_);
      sub.interval_dirty = job_->tracker().HarvestInterval();
    }
    {
      Span s(run_.tracer, "data.collect_state", next_id_);
      sub.reader_state = reader_->CollectState().Encode();
    }
    base_reader_state_ = sub.reader_state;
    base_progress_ = progress_;
    double snapshot_ms = 0;
    sub.snapshot_fn = [this, &snapshot_ms] {
      Span s(run_.tracer, "core.snapshot.copy", next_id_);
      auto snap = core::CreateSnapshot(*model_, progress_.batches, progress_.samples, nullptr);
      snapshot_ms = s.End();
      return snap;
    };
    core::SubmittedCheckpoint submitted;
    {
      Span s(run_.tracer, "core.service.submit", next_id_);
      submitted = job_->Submit(std::move(sub));
      const double ms = s.End();
      run_.samples["core.snapshot.copy_ms"].Add(snapshot_ms);
      run_.samples["core.service.admit_wait_ms"].Add(ms - snapshot_ms);
    }
    next_id_ = submitted.checkpoint_id + 1;
    core::WriteResult r;
    {
      // The log anchors on a committed base.
      Span s(run_.tracer, "core.service.commit_wait", submitted.checkpoint_id);
      r = submitted.future.get();
    }
    run_.Count("checkpoints", true);
    base_id_ = submitted.checkpoint_id;
    const auto keys = ManifestKeys(r.manifest, kJob);
    CheckBytes(run_, "base checkpoint " + std::to_string(base_id_), tiers_, keys,
               r.bytes_written);
    for (const auto& k : keys) run_.checkpoint_bytes += tiers_.near->PutBytes(k);
    RecordStageTimings(run_, r.timings, r.rows_written, model_cfg_.embedding_dim);
    ReadOccupancy();
    {
      // The log starts streaming once its base has reached the far tier, so
      // every round's appends start from the same tier state. Otherwise the
      // share of appends queued behind the base's drain grew with the
      // trainer's speed and moved the far-durable times by 60% between runs
      // that trained 8% apart.
      Untimed untimed(run_);
      service_->tiered_store()->FlushDrains();
    }
  }

  void Append() {
    const std::uint64_t iteration = progress_.batches;
    const auto start = Clock::now();
    core::DirtySets dirty;
    double harvest_ms = 0, append_ms = 0;
    {
      Span s(run_.tracer, "core.tracking.harvest", iteration);
      dirty = job_->tracker().HarvestInterval();
      harvest_ms = s.End();
    }
    {
      Span s(run_.tracer, "core.delta_log.append", iteration);
      log_->Append(*model_, dirty, iteration);
      append_ms = s.End();
    }
    run_.Count("appends", true);
    run_.stall_ms.Add(harvest_ms + append_ms);
    run_.samples["core.tracking.harvest_ms"].Add(harvest_ms);
    run_.samples["core.delta_log.append_us"].Add(append_ms * 1e3);
    CheckpointRecord rec;
    rec.id = iteration;
    rec.start = start;
    run_.checkpoints.push_back(std::move(rec));
    last_iteration_ = iteration;
    if (iteration % 16 == 0) ReadOccupancy();
  }

  void ReadOccupancy() {
    const auto stats = service_->stats();
    run_.store_peak_bytes = std::max(run_.store_peak_bytes, stats.store_bytes);
    run_.MaxValue("storage.tiered.dirty_bytes_max", static_cast<double>(stats.tier.dirty_bytes));
  }

  void CrashAndRecover() {
    const core::DeltaLogStats ls = log_->stats();
    run_.values["core.delta_log.compactions"] += static_cast<double>(ls.compactions);
    run_.values["core.delta_log.segments_sealed"] += static_cast<double>(ls.segments_sealed);
    run_.MaxValue("core.delta_log.max_unsynced_iterations",
                  static_cast<double>(ls.max_unsynced_iterations));
    {
      // The crash is injected once the far tier has caught up, so every
      // restart and restore starts from the same tier state.
      Untimed untimed(run_);
      service_->tiered_store()->FlushDrains();
    }
    ModelState truth;
    std::vector<std::uint8_t> dense;
    {
      Untimed untimed(run_);
      truth = CaptureState(*model_);
      dense = DenseBytes(*model_);
      run_.Check(ls.max_unsynced_iterations <= 1,
                 "delta log: max_unsynced_iterations " +
                     std::to_string(ls.max_unsynced_iterations) + " > 1");
    }
    {
      Span s(run_.tracer, "core.service.shutdown");
      log_.reset();
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
    double restart_ms = 0, restore_ms = 0, replay_ms = 0;
    core::RestoreResult base;
    core::DeltaReplayResult replay;
    bool ok = true;
    {
      Span s(run_.tracer, "core.service.restart");
      StartService();
      restart_ms = s.End();
    }
    try {
      {
        Span s(run_.tracer, "core.restore.pipelined", base_id_);
        core::pipeline::RestoreConfig rc;
        rc.executor = &service_->executor();
        base = core::RestoreModelPipelined(service_->store(), kJob, *fresh, base_id_, rc);
        restore_ms = s.End();
      }
      {
        Span s(run_.tracer, "core.delta_log.replay", base_id_);
        replay = core::ReplayDeltaLog(service_->store(), kJob, base_id_, *fresh);
        replay_ms = s.End();
      }
    } catch (const std::exception& e) {
      ok = false;
      run_.Check(false, std::string("restore/replay threw: ") + e.what());
    }
    run_.Count("restores", ok);
    if (ok) {
      run_.restore_ms.Add(restart_ms + restore_ms + replay_ms);
      run_.samples["core.service.restart_ms"].Add(restart_ms);
      run_.samples["core.delta_log.replay_ms"].Add(replay_ms);
      run_.samples["core.delta_log.replay_segments"].Add(
          static_cast<double>(replay.segments_replayed));
      RecordRestoreTimings(run_, base.timings, base.bytes_read);
      Untimed untimed(run_);
      const std::string where = "base " + std::to_string(base_id_) + " + delta replay";
      run_.Check(replay.last_iteration == last_iteration_,
                 where + ": replay reached iteration " + std::to_string(replay.last_iteration) +
                     ", last appended " + std::to_string(last_iteration_));
      run_.Check(replay.torn_keys.empty(), where + ": torn segments");
      CheckEmbeddings(run_, where, truth, *fresh, BoundBits(QuantConfig()));
      run_.Check(DenseBytes(*fresh) == dense, where + ": dense MLP state not bit-exact");
      run_.Check(base.batches_trained == base_progress_.batches &&
                     base.samples_trained == base_progress_.samples,
                 where + ": base progress counters differ");
      run_.Check(base.reader_state.Encode() == base_reader_state_,
                 where + ": base reader state differs");
      run_.Check(base.reader_state.next_batch_id + (replay.last_iteration - base_progress_.batches) ==
                     progress_.batches,
                 where + ": replayed position differs from the trainer's");
    }
    {
      Span s(run_.tracer, "core.service.reopen");
      model_ = std::move(fresh);
      reader_ =
          std::make_unique<data::ReaderMaster>(dataset_, ReaderFor(), progress_.ReaderState());
      OpenJob();
    }
  }

  Run& run_;
  data::SyntheticDataset dataset_;
  dlrm::ModelConfig model_cfg_;
  Tiers tiers_;
  Progress progress_;
  Progress base_progress_;
  std::vector<std::uint8_t> base_reader_state_;
  std::uint64_t next_id_ = 1;
  std::uint64_t base_id_ = 0;
  std::uint64_t last_iteration_ = 0;
  std::mutex seg_mu_;
  std::unordered_map<std::uint64_t, std::string> segment_of_;
  std::unique_ptr<dlrm::DlrmModel> model_;
  std::unique_ptr<data::ReaderMaster> reader_;
  std::unique_ptr<core::CheckpointService> service_;
  std::unique_ptr<core::JobHandle> job_;
  std::unique_ptr<core::DeltaLog> log_;
};

}  // namespace

std::unique_ptr<Workload> MakeDeltaWorkload(Run& run) {
  return std::make_unique<DeltaWorkload>(run);
}

}  // namespace perfbench
