// Shared pieces of the end-to-end benchmark: options, measurement state,
// the model/dataset/link make-up, the trainer's batch loop and the output
// checks. Each workload (interval.cc, sharded.cc, delta.cc) drives the
// service's public entry points with its own closed-loop trainer: one
// trainer thread asks for the next batch only after the previous one
// finished.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/service.h"
#include "data/reader.h"
#include "data/synthetic.h"
#include "dlrm/model.h"
#include "link_store.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Toy sizes: a self-check of every output check that runs in seconds.
  bool toy = false;
  // Reference run: fp32 always-full checkpoints (no quantization, no
  // incrementals) — the base of the paper's bandwidth and capacity factors.
  bool fp32_full = false;
  std::string out_dir = ".bench_out";
};

// Timing samples of one quantity.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  std::size_t count() const { return v_.size(); }
  double Last() const { return v_.empty() ? 0 : v_.back(); }
  double Sum() const;
  double Mean() const;
  // Linear-interpolated percentile, p in [0, 100]; 0 when empty.
  double Percentile(double p) const;
  double Median() const { return Percentile(50); }
  // Mean of the samples left after dropping the lowest and the highest
  // `trim` share of them (0.1 = a tenth from each end); 0 when empty.
  double TrimmedMean(double trim) const;

 private:
  std::vector<double> v_;
};

// One checkpoint operation as the trainer saw it: a Submit, a SubmitCut or a
// delta-log Append.
struct CheckpointRecord {
  std::uint64_t id = 0;          // checkpoint id, cut epoch or iteration
  Clock::time_point start{};     // the trainer entered the operation
  std::string valid_key;         // lands on the near tier => recoverable
  std::vector<std::string> keys; // every object the operation wrote
};

// Measurement state of one run.
struct Run {
  explicit Run(Options o) : opt(std::move(o)), tracer(opt.trace) {}

  Options opt;
  Tracer tracer;
  std::map<std::string, Samples> samples;  // per-layer timings and sizes
  std::map<std::string, double> values;    // per-layer scalars
  std::map<std::string, std::uint64_t> attempted;  // by operation kind
  std::map<std::string, std::uint64_t> failed;
  std::vector<std::string> check_failures;
  std::uint64_t checks_run = 0;

  std::vector<CheckpointRecord> checkpoints;
  Samples stall_ms;    // trainer blocked in a checkpoint operation
  Samples restore_ms;  // one recovery
  std::uint64_t checkpoint_bytes = 0;  // everything the checkpoint path Put
  std::uint64_t store_peak_bytes = 0;
  std::uint64_t batches_trained = 0;   // in the timed part
  std::uint64_t samples_trained = 0;
  // Output checks and the wait before an injected crash: not training.
  double untimed_ms = 0;

  void Check(bool ok, const std::string& what);
  void Count(const std::string& kind, bool ok) {
    ++attempted[kind];
    if (!ok) ++failed[kind];
  }
  void MaxValue(const std::string& name, double v);
};

// Model, dataset and reader make-up (README "Make-up").
constexpr std::size_t kBatchSize = 256;
cnr::dlrm::ModelConfig ModelFor(const Options& opt, std::size_t num_shards);
cnr::data::DatasetConfig DatasetFor(const Options& opt);
cnr::data::ReaderConfig ReaderFor();
// The service's shared worker pool and its feedback controller: two pool
// workers, so trainer + reader worker + pool stay within four cores.
cnr::core::ServiceConfig ServiceBase();
// Warm-up batches trained during set-up (outside the timed part).
std::uint64_t WarmupBatches(const Options& opt);

// The two storage tiers, each behind its own link.
struct Tiers {
  std::shared_ptr<LinkStore> near;
  std::shared_ptr<LinkStore> far;
};
Tiers MakeTiers();

// Trainer progress counters.
struct Progress {
  std::uint64_t batches = 0;
  std::uint64_t samples = 0;
  cnr::data::ReaderState ReaderState() const { return {batches, samples}; }
};

// Set-up: constructs the model and trains the warm-up batches straight from
// the dataset, timing both steps.
std::unique_ptr<cnr::dlrm::DlrmModel> MakeWarmModel(Run& run, const cnr::dlrm::ModelConfig& cfg,
                                                    const cnr::data::SyntheticDataset& dataset,
                                                    Progress& progress);
// Trains `n` batches already allowed on the reader, timing each call.
void TrainBatches(Run& run, cnr::data::ReaderMaster& reader, cnr::dlrm::DlrmModel& model,
                  std::uint64_t n, Progress& progress);

// Records one committed interval checkpoint or sub-checkpoint's pipeline
// stage timings and codec throughput.
void RecordStageTimings(Run& run, const cnr::storage::StageTimings& t, std::uint64_t rows,
                        std::size_t dim);
// Records one restore's stage timings.
void RecordRestoreTimings(Run& run, const cnr::core::pipeline::RestoreTimings& t,
                          std::uint64_t bytes_read);
// Every object key a checkpoint's manifest names, manifest included.
std::vector<std::string> ManifestKeys(const cnr::storage::Manifest& m, const std::string& job);
// Reads a manifest straight from the tiers' backing stores (no link cost).
std::optional<cnr::storage::Manifest> PeekManifest(Tiers& tiers, const std::string& key);

// ---- output checks ----

// fp32 copy of every embedding shard: weights and AdaGrad accumulators.
struct ShardState {
  std::size_t dim = 0;
  std::vector<float> weights;
  std::vector<float> adagrad;
};
using ModelState = std::vector<std::vector<ShardState>>;  // [table][shard]
ModelState CaptureState(const cnr::dlrm::DlrmModel& model);
std::vector<std::uint8_t> DenseBytes(const cnr::dlrm::DlrmModel& model);

// Checks `restored` against the trainer's state `truth`, shard by shard
// (all shards when `shards` is null): every row within the quantization
// bound for `bits` (0 = fp32, must be bit-exact), every AdaGrad accumulator
// bit-exact.
void CheckEmbeddings(Run& run, const std::string& where, const ModelState& truth,
                     const cnr::dlrm::DlrmModel& restored, int bits,
                     const std::vector<std::uint32_t>* shards = nullptr);
// Checks that the listed shards are bit-identical to `truth`.
void CheckShardsIdentical(Run& run, const std::string& where, const ModelState& truth,
                          const cnr::dlrm::DlrmModel& model,
                          const std::vector<std::uint32_t>& shards);
// Byte agreement: a checkpoint's reported bytes_written equals the near-link
// Put bytes of the keys it covers.
void CheckBytes(Run& run, const std::string& where, Tiers& tiers,
                const std::vector<std::string>& keys, std::uint64_t reported);
// No far-tier holes: after the final FlushDrains every near-tier data object
// exists in the far tier with identical bytes.
void CheckNoFarHoles(Run& run, Tiers& tiers);
// Bits of a quantization config for CheckEmbeddings.
int BoundBits(const cnr::quant::QuantConfig& q);

// ---- workloads ----

class Workload {
 public:
  virtual ~Workload() = default;
  // Model construction, warm-up training and service start-up.
  virtual void Setup() = 0;
  // One whole round of the workload's operations (ends with a recovery).
  virtual void Round() = 0;
  // Final drain, flush and end-of-run checks; fills the per-layer values.
  virtual void Finish() = 0;
  virtual Tiers& tiers() = 0;
};

// Times a step that is not training — an output check, or the failure
// injector waiting for its crash point — as a "bench.untimed" span whose
// wall is taken out of the training wall.
class Untimed {
 public:
  explicit Untimed(Run& run) : run_(run), span_(run.tracer, "bench.untimed") {}
  ~Untimed() { run_.untimed_ms += span_.End(); }
  Untimed(const Untimed&) = delete;
  Untimed& operator=(const Untimed&) = delete;

 private:
  Run& run_;
  Span span_;
};

std::unique_ptr<Workload> MakeIntervalWorkload(Run& run);
std::unique_ptr<Workload> MakeShardedWorkload(Run& run);
std::unique_ptr<Workload> MakeDeltaWorkload(Run& run);

// Post-run: time-to-valid and time-to-far-durable of every checkpoint record
// from the links' landing instants.
void ResolveCheckpointTimes(Run& run, Tiers& tiers, Samples& valid_ms, Samples& far_ms);

// Adds one service instance's tier, hit and controller counters to the run
// (called before the instance goes away, and at the end of the run).
void AccumulateServiceCounters(Run& run, cnr::core::CheckpointService& service);

}  // namespace perfbench
