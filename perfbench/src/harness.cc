#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "storage/manifest.h"
#include "util/serialize.h"

namespace perfbench {

using namespace cnr;

namespace {
double Ms(Clock::duration d) { return std::chrono::duration<double, std::milli>(d).count(); }
}  // namespace

// ---------------------------------------------------------------- Samples --

double Samples::Sum() const {
  double s = 0;
  for (const double v : v_) s += v;
  return s;
}

double Samples::Mean() const { return v_.empty() ? 0 : Sum() / static_cast<double>(v_.size()); }

double Samples::Percentile(double p) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = p / 100.0 * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
}

double Samples::TrimmedMean(double trim) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const auto drop = static_cast<std::size_t>(trim * static_cast<double>(s.size()));
  double sum = 0;
  for (std::size_t i = drop; i < s.size() - drop; ++i) sum += s[i];
  return sum / static_cast<double>(s.size() - 2 * drop);
}

// -------------------------------------------------------------------- Run --

void Run::Check(bool ok, const std::string& what) {
  ++checks_run;
  if (!ok && check_failures.size() < 50) check_failures.push_back(what);
}

void Run::MaxValue(const std::string& name, double v) {
  auto [it, inserted] = values.try_emplace(name, v);
  if (!inserted) it->second = std::max(it->second, v);
}

// ---------------------------------------------------------------- make-up --

dlrm::ModelConfig ModelFor(const Options& opt, std::size_t num_shards) {
  dlrm::ModelConfig cfg;
  cfg.num_dense = 8;
  cfg.embedding_dim = opt.toy ? 16 : 64;
  cfg.table_rows = opt.toy ? std::vector<std::uint64_t>{2048, 1024}
                           : std::vector<std::uint64_t>{32768, 16384, 8192, 8192};
  cfg.bottom_hidden = {64};
  cfg.top_hidden = {64};
  cfg.num_shards = num_shards;
  cfg.seed = 1000 + opt.seed;
  return cfg;
}

data::DatasetConfig DatasetFor(const Options& opt) {
  data::DatasetConfig cfg;
  cfg.seed = 7919 * opt.seed + 17;
  cfg.num_dense = 8;
  if (opt.toy) {
    cfg.tables = {{2048, 2, 1.05}, {1024, 1, 1.1}};
  } else {
    cfg.tables = {{32768, 3, 1.05}, {16384, 2, 1.05}, {8192, 2, 1.1}, {8192, 1, 1.1}};
  }
  return cfg;
}

data::ReaderConfig ReaderFor() {
  data::ReaderConfig cfg;
  cfg.batch_size = kBatchSize;
  cfg.num_workers = 1;
  cfg.queue_capacity = 8;
  return cfg;
}

core::ServiceConfig ServiceBase() {
  core::ServiceConfig cfg;
  cfg.encode_threads = 1;
  cfg.store_threads = 1;
  cfg.executor.max_workers = 2;
  return cfg;
}

std::uint64_t WarmupBatches(const Options& opt) { return opt.toy ? 4 : 200; }

Tiers MakeTiers() {
  // The repository's own tier model (bench/tiered_store.cpp): the near tier
  // plays local NVMe, the far tier a remote object store, with a 10x
  // latency gap and a 10x bandwidth gap, symmetric in both directions.
  const LinkModel near{std::chrono::microseconds(200), 2.0e9};
  const LinkModel far{std::chrono::microseconds(2000), 200.0e6};
  return {std::make_shared<LinkStore>(near, near), std::make_shared<LinkStore>(far, far)};
}

// ---------------------------------------------------------------- trainer --

std::unique_ptr<dlrm::DlrmModel> MakeWarmModel(Run& run, const dlrm::ModelConfig& cfg,
                                               const data::SyntheticDataset& dataset,
                                               Progress& progress) {
  const auto t0 = Clock::now();
  auto model = std::make_unique<dlrm::DlrmModel>(cfg);
  const auto t1 = Clock::now();
  const std::uint64_t n = WarmupBatches(run.opt);
  for (std::uint64_t b = 0; b < n; ++b) {
    model->TrainBatch(dataset.GetBatch(progress.batches, progress.samples, kBatchSize));
    progress.batches += 1;
    progress.samples += kBatchSize;
  }
  run.samples["setup.construct_ms"].Add(Ms(t1 - t0));
  run.samples["setup.warmup_ms"].Add(Ms(Clock::now() - t1));
  return model;
}

void TrainBatches(Run& run, data::ReaderMaster& reader, dlrm::DlrmModel& model, std::uint64_t n,
                  Progress& progress) {
  Samples& wait = run.samples["data.next_batch_ms"];
  Samples& train = run.samples["dlrm.train_batch_ms"];
  for (std::uint64_t i = 0; i < n; ++i) {
    std::optional<data::Batch> batch;
    {
      Span s(run.tracer, "data.next_batch", progress.batches);
      batch = reader.NextBatch();
      wait.Add(s.End());
    }
    if (!batch) throw std::runtime_error("reader ran dry inside its budget");
    {
      Span s(run.tracer, "dlrm.train_batch", progress.batches);
      model.TrainBatch(*batch);
      train.Add(s.End());
    }
    progress.batches += 1;
    progress.samples += batch->size();
    run.batches_trained += 1;
    run.samples_trained += batch->size();
  }
}

// ---------------------------------------------------------- layer records --

void RecordStageTimings(Run& run, const storage::StageTimings& t, std::uint64_t rows,
                        std::size_t dim) {
  run.samples["core.pipeline.plan_ms"].Add(static_cast<double>(t.plan_us) / 1e3);
  run.samples["core.pipeline.encode_ms"].Add(static_cast<double>(t.encode_us) / 1e3);
  run.samples["core.pipeline.encode_queue_ms"].Add(static_cast<double>(t.encode_queue_us) / 1e3);
  run.samples["core.pipeline.store_ms"].Add(static_cast<double>(t.store_us) / 1e3);
  run.samples["core.pipeline.store_queue_ms"].Add(static_cast<double>(t.store_queue_us) / 1e3);
  run.samples["core.pipeline.commit_ms"].Add(static_cast<double>(t.commit_us) / 1e3);
  run.values["quant.fp32_bytes"] += static_cast<double>(rows * dim * sizeof(float));
  run.values["quant.encode_us"] += static_cast<double>(t.encode_us);
}

void RecordRestoreTimings(Run& run, const core::pipeline::RestoreTimings& t,
                          std::uint64_t bytes_read) {
  run.samples["core.restore.resolve_ms"].Add(static_cast<double>(t.resolve_us) / 1e3);
  run.samples["core.restore.fetch_ms"].Add(static_cast<double>(t.fetch_us) / 1e3);
  run.samples["core.restore.decode_ms"].Add(static_cast<double>(t.decode_us) / 1e3);
  run.samples["core.restore.apply_ms"].Add(static_cast<double>(t.apply_us) / 1e3);
  run.samples["core.restore.read_bytes"].Add(static_cast<double>(bytes_read));
}

std::vector<std::string> ManifestKeys(const storage::Manifest& m, const std::string& job) {
  std::vector<std::string> keys;
  keys.reserve(m.chunks.size() + 2);
  for (const auto& c : m.chunks) keys.push_back(c.key);
  if (!m.dense_key.empty()) keys.push_back(m.dense_key);
  keys.push_back(storage::Manifest::ManifestKey(job, m.checkpoint_id));
  return keys;
}

std::optional<storage::Manifest> PeekManifest(Tiers& tiers, const std::string& key) {
  auto blob = tiers.near->inner().Get(key);
  if (!blob) blob = tiers.far->inner().Get(key);
  if (!blob) return std::nullopt;
  return storage::Manifest::Decode(*blob);
}

// ----------------------------------------------------------------- checks --

ModelState CaptureState(const dlrm::DlrmModel& model) {
  ModelState state(model.num_tables());
  for (std::size_t t = 0; t < model.num_tables(); ++t) {
    const auto& table = model.table(t);
    for (std::size_t s = 0; s < table.num_shards(); ++s) {
      const auto& shard = table.Shard(s);
      ShardState ss;
      ss.dim = shard.dim();
      ss.weights.assign(shard.Weights().begin(), shard.Weights().end());
      ss.adagrad.assign(shard.AdagradStates().begin(), shard.AdagradStates().end());
      state[t].push_back(std::move(ss));
    }
  }
  return state;
}

std::vector<std::uint8_t> DenseBytes(const dlrm::DlrmModel& model) {
  util::Writer w;
  model.SerializeDense(w);
  return w.TakeBytes();
}

int BoundBits(const quant::QuantConfig& q) {
  return q.method == quant::Method::kNone ? 0 : q.bits;
}

namespace {

bool Wanted(const std::vector<std::uint32_t>* shards, std::size_t s) {
  return shards == nullptr || std::find(shards->begin(), shards->end(), s) != shards->end();
}

// Rows of one shard violating the bound (or exactness when bits == 0).
std::uint64_t BadRows(const ShardState& truth, const tensor::EmbeddingTable& got, int bits) {
  const std::size_t dim = truth.dim;
  const std::size_t rows = truth.adagrad.size();
  if (got.num_rows() != rows || got.dim() != dim) return rows == 0 ? 1 : rows;
  std::uint64_t bad = 0;
  const double levels = bits > 0 ? std::ldexp(1.0, bits) - 1.0 : 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* x = truth.weights.data() + r * dim;
    const auto xr = got.Row(r);
    if (bits == 0) {
      if (std::memcmp(x, xr.data(), dim * sizeof(float)) != 0) ++bad;
      continue;
    }
    double lo = x[0], hi = x[0], err2 = 0, mag = 0;
    for (std::size_t d = 0; d < dim; ++d) {
      lo = std::min<double>(lo, x[d]);
      hi = std::max<double>(hi, x[d]);
      mag = std::max<double>(mag, std::fabs(x[d]));
      const double e = static_cast<double>(xr[d]) - static_cast<double>(x[d]);
      err2 += e * e;
    }
    const double bound = std::sqrt(static_cast<double>(dim)) * (hi - lo) / (2.0 * levels);
    // fp32 rounding of the dequantized value is the only slack allowed.
    const double slack = 1e-6 * std::sqrt(static_cast<double>(dim)) * mag + 1e-30;
    if (!(std::sqrt(err2) <= bound * (1 + 1e-5) + slack)) ++bad;
  }
  return bad;
}

std::uint64_t BadAdagrad(const ShardState& truth, const tensor::EmbeddingTable& got) {
  const auto g = got.AdagradStates();
  if (g.size() != truth.adagrad.size()) return truth.adagrad.size() + 1;
  std::uint64_t bad = 0;
  for (std::size_t r = 0; r < g.size(); ++r) {
    if (std::memcmp(&g[r], &truth.adagrad[r], sizeof(float)) != 0) ++bad;
  }
  return bad;
}

}  // namespace

void CheckEmbeddings(Run& run, const std::string& where, const ModelState& truth,
                     const dlrm::DlrmModel& restored, int bits,
                     const std::vector<std::uint32_t>* shards) {
  std::uint64_t bad_rows = 0, bad_acc = 0, checked = 0;
  for (std::size_t t = 0; t < truth.size(); ++t) {
    for (std::size_t s = 0; s < truth[t].size(); ++s) {
      if (!Wanted(shards, s)) continue;
      const auto& got = restored.table(t).Shard(s);
      bad_rows += BadRows(truth[t][s], got, bits);
      bad_acc += BadAdagrad(truth[t][s], got);
      ++checked;
    }
  }
  run.Check(checked > 0, where + ": no shard checked");
  run.Check(bad_rows == 0, where + ": " + std::to_string(bad_rows) +
                               " embedding rows outside the " + std::to_string(bits) +
                               "-bit quantization bound");
  run.Check(bad_acc == 0, where + ": " + std::to_string(bad_acc) +
                              " AdaGrad accumulators not bit-exact");
}

void CheckShardsIdentical(Run& run, const std::string& where, const ModelState& truth,
                          const dlrm::DlrmModel& model,
                          const std::vector<std::uint32_t>& shards) {
  CheckEmbeddings(run, where, truth, model, 0, &shards);
}

void CheckBytes(Run& run, const std::string& where, Tiers& tiers,
                const std::vector<std::string>& keys, std::uint64_t reported) {
  std::uint64_t put = 0;
  for (const auto& k : keys) put += tiers.near->PutBytes(k);
  run.Check(put == reported, where + ": reported bytes_written " + std::to_string(reported) +
                                 " != near-link Put bytes " + std::to_string(put));
}

void CheckNoFarHoles(Run& run, Tiers& tiers) {
  std::uint64_t holes = 0, objects = 0;
  for (const auto& key : tiers.near->inner().List("")) {
    if (key.starts_with(storage::TieredStore::kMetaPrefix)) continue;
    ++objects;
    const auto near = tiers.near->inner().Get(key);
    const auto far = tiers.far->inner().Get(key);
    if (!near || !far || *near != *far) ++holes;
  }
  run.Check(holes == 0, "far tier: " + std::to_string(holes) + " of " + std::to_string(objects) +
                            " near-tier objects missing or different after FlushDrains");
}

// ---------------------------------------------------------- post-run math --

void ResolveCheckpointTimes(Run& run, Tiers& tiers, Samples& valid_ms, Samples& far_ms) {
  std::uint64_t gone_before_far = 0, never_valid = 0;
  for (const auto& rec : run.checkpoints) {
    const auto valid = tiers.near->LandedAt(rec.valid_key);
    if (!valid) {
      ++never_valid;
      continue;
    }
    valid_ms.Add(Ms(*valid - rec.start));
    std::optional<Clock::time_point> last;
    bool complete = true;
    for (const auto& key : rec.keys) {
      const auto at = tiers.far->LandedAt(key);
      if (!at) {
        complete = false;
        break;
      }
      last = last ? std::max(*last, *at) : *at;
    }
    if (complete && last) {
      far_ms.Add(Ms(*last - rec.start));
    } else {
      ++gone_before_far;
    }
  }
  run.values["ckpt.deleted_before_far"] = static_cast<double>(gone_before_far);
  run.Check(never_valid == 0, std::to_string(never_valid) +
                                  " checkpoint operations never landed their valid object");
}

void AccumulateServiceCounters(Run& run, core::CheckpointService& service) {
  const auto stats = service.stats();
  run.values["storage.tiered.evicted_bytes"] += static_cast<double>(stats.tier.evicted_bytes);
  run.values["storage.tiered.near_hits"] += static_cast<double>(stats.tier.near_hits);
  run.values["storage.tiered.far_hits"] += static_cast<double>(stats.tier.far_hits);
  run.values["core.pipeline.executor_rebalances"] +=
      static_cast<double>(stats.executor.rebalances);
}

}  // namespace perfbench
