#ifndef TCMF_STREAM_PIPELINE_H_
#define TCMF_STREAM_PIPELINE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "stream/channel.h"
#include "stream/metrics.h"
#include "stream/tuning.h"
#include "stream/window.h"

namespace tcmf::stream {

/// Unified per-stage configuration for every Flow operator and stage
/// helper — the one options struct that replaced the positional
/// `(capacity, name)` tails (removed after their one-release deprecation
/// window; tools/check_deprecated_api.py keeps them from coming back).
/// Designated initializers make call sites self-describing:
///
///   flow.Map<Out>(fn, {.name = "clean", .capacity = 256});
///   flow.Filter(pred, {.batch = BatchPolicy::Adaptive(),
///                      .latency_budget_ms = 20,
///                      .capacity_tuning = CapacityPolicy::Adaptive()});
///
/// Fields:
///  - `name`: stage name in StageMetrics reports ("" = auto "<op>#<i>").
///  - `capacity`: the output channel's queue-depth bound (the adaptive
///    seed when `capacity_tuning` is adaptive).
///  - `batch`: per-stage BatchPolicy override; nullopt inherits the
///    upstream Flow's policy (sources fall back to their own default —
///    Single for FromGenerator/FromVector, Batched for
///    FromBatchGenerator).
///  - `latency_budget_ms`: staging-latency contract applied on top of
///    the effective policy (<0 keeps the policy's own budget).
///  - `capacity_tuning`: elastic-capacity controller range; the default
///    is inert (static capacity).
struct StageOptions {
  std::string name;
  size_t capacity = kDefaultCapacity;
  std::optional<BatchPolicy> batch;
  int64_t latency_budget_ms = -1;
  CapacityPolicy capacity_tuning{};

  /// The BatchPolicy this stage actually runs: the per-stage override if
  /// set, else `inherited` (the upstream Flow's policy), with the
  /// latency budget layered on top.
  BatchPolicy EffectivePolicy(const BatchPolicy& inherited) const {
    BatchPolicy p = batch.has_value() ? *batch : inherited;
    if (latency_budget_ms >= 0) p.latency_budget_ms = latency_budget_ms;
    return p;
  }
};

/// Buffers operator outputs and flushes them downstream according to a
/// BatchPolicy. In record-at-a-time mode it degenerates to Channel::Push.
/// Emit/Flush return false when the downstream edge rejected the transfer
/// (consumer cancelled) — the signal to propagate cancellation upstream.
///
/// When the owning edge is adaptive the emitter carries its BatchTuner:
/// the flush threshold tracks the live tuner target instead of the static
/// `max_batch`, and every successful flush feeds the record count back to
/// the tuner (BatchTuner::OnRecords) — this is the producer-side hook
/// that drives the whole controller, piggybacked on the existing emit
/// loop with no extra threads.
template <typename Out>
class BatchEmitter {
 public:
  BatchEmitter(std::shared_ptr<Channel<Out>> out, BatchPolicy policy,
               std::shared_ptr<BatchTuner> tuner = nullptr)
      : out_(std::move(out)), policy_(policy), tuner_(std::move(tuner)) {
    if (policy_.batched()) buf_.reserve(policy_.PopMax());
  }

  /// Live flush threshold: the tuner target on adaptive edges, the static
  /// `max_batch` otherwise.
  size_t CurrentTarget() const {
    return tuner_ ? tuner_->target() : policy_.max_batch;
  }

  bool Emit(Out value) {
    if (!policy_.batched()) {
      const bool ok = out_->Push(std::move(value));
      // Capacity-only tuners still need the sample cadence driven on
      // record-at-a-time edges (no batch flushes to piggyback on).
      if (ok && tuner_) tuner_->OnRecords(1);
      return ok;
    }
    if (buf_.empty()) first_buffered_ = std::chrono::steady_clock::now();
    buf_.push_back(std::move(value));
    if (buf_.size() >= CurrentTarget()) return Flush();
    return true;
  }

  bool Flush() {
    if (buf_.empty()) return true;
    const size_t n = buf_.size();
    const bool ok = out_->PushBatch(std::move(buf_)) == n;
    buf_.clear();
    buf_.reserve(policy_.PopMax());
    if (ok && tuner_) tuner_->OnRecords(n);
    return ok;
  }

  bool has_pending() const { return !buf_.empty(); }

  /// The live linger bound in ms: min of the static `max_linger_ms` knob
  /// and the latency-budget residual `budget - predicted_fill_ms`, where
  /// predicted_fill_ms = target / fill_rate is how long the current batch
  /// target is expected to keep staging records (tuner rate estimate; 0
  /// without a tuner or before the first sample). As the adaptive
  /// controller grows the target, the residual linger shrinks, so
  /// fill time + linger stays <= budget — worst-case staging latency
  /// bounded by contract (derivation: docs/STREAM_TUNING.md). Returns
  /// +inf when neither knob is active (never flush on a timer).
  double EffectiveLingerMs() const {
    double linger = policy_.max_linger_ms >= 0
                        ? static_cast<double>(policy_.max_linger_ms)
                        : std::numeric_limits<double>::infinity();
    if (policy_.latency_budget_ms >= 0) {
      const double rate = tuner_ ? tuner_->rate_per_ms() : 0.0;
      const double fill_ms =
          rate > 0.0 ? static_cast<double>(CurrentTarget()) / rate : 0.0;
      const double residual =
          std::max(0.0, static_cast<double>(policy_.latency_budget_ms) -
                            fill_ms);
      linger = std::min(linger, residual);
    }
    return linger;
  }

  /// Time until the oldest buffered element exceeds the linger bound.
  std::chrono::milliseconds LingerRemaining() const {
    double linger_ms = EffectiveLingerMs();
    // Defensive clamp: callers only poll when LingerEnabled(), but keep
    // the math finite regardless.
    if (!std::isfinite(linger_ms)) linger_ms = 1e9;
    const auto linger = std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double, std::milli>(linger_ms));
    if (buf_.empty()) {
      return std::chrono::duration_cast<std::chrono::milliseconds>(linger);
    }
    const auto deadline = first_buffered_ + linger;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return std::chrono::milliseconds(0);
    return std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                 now);
  }

 private:
  std::shared_ptr<Channel<Out>> out_;
  BatchPolicy policy_;
  std::shared_ptr<BatchTuner> tuner_;  ///< output edge's controller (or null)
  std::vector<Out> buf_;
  std::chrono::steady_clock::time_point first_buffered_;
};

namespace internal {

/// Creates the per-edge adaptive controller for `channel` when either
/// policy asks for one (BatchPolicy::adaptive() re-targets the batch
/// size; CapacityPolicy::adaptive() additionally attaches a
/// CapacityTuner that elastically resizes the channel bound, driven from
/// the same sample windows). Returns nullptr for fully static edges —
/// callers treat a null tuner as "use the static policy".
template <typename U>
std::shared_ptr<BatchTuner> MakeTuner(const BatchPolicy& policy,
                                      const CapacityPolicy& capacity_policy,
                                      const std::shared_ptr<Channel<U>>& ch) {
  if (!policy.adaptive() && !capacity_policy.adaptive()) return nullptr;
  auto tuner = std::make_shared<BatchTuner>(
      policy, [ch] { return ch->MetricsSnapshot(); });
  if (capacity_policy.adaptive()) {
    tuner->AttachCapacityTuner(std::make_shared<CapacityTuner>(
        capacity_policy, ch->capacity(),
        [ch](size_t c) { ch->Resize(c); },
        [ch] { return ch->TakeQueueWatermarkWindow(); }));
  }
  return tuner;
}

template <typename U>
std::shared_ptr<BatchTuner> MakeTuner(const BatchPolicy& policy,
                                      const std::shared_ptr<Channel<U>>& ch) {
  return MakeTuner(policy, CapacityPolicy{}, ch);
}

/// The shared consume/transform/emit loop behind every 1-input operator.
/// Drains `in` (record-at-a-time or in batches per `policy`), feeds each
/// element to `per_element(item, emitter) -> bool` (false = downstream
/// rejected, i.e. the consumer cancelled), and on end-of-stream runs
/// `at_exit(open, emitter)` — stateful operators flush per-key state
/// there when `open` is true. Handles the shutdown contract: a rejected
/// emit cancels `in` via CloseAndDrain so upstream producers unblock.
/// Closing the *output* channel is the caller's responsibility (shared
/// outputs — KeyedProcessParallel — are closed by the last worker).
///
/// In batched mode staged outputs flush when the batch is full, when the
/// input goes idle, when the linger/latency-budget deadline passes, or at
/// end-of-stream (smart batching, as in the LMAX Disruptor): while outputs
/// are staged the loop polls the input without blocking, and an empty
/// poll flushes the partial batch before the loop blocks for more input.
/// Under load the input stays non-empty and batches fill; at a trickle
/// every record crosses the edge at once. The deadline only matters while
/// input keeps arriving without filling the batch.
///
/// `in_tuner` is the adaptive controller of the INPUT edge (nullptr for
/// static edges): when set, the pop size tracks the live tuner target
/// each iteration, so a producer-side re-target propagates to this
/// consumer within one transfer.
template <typename In, typename Out, typename PerElement, typename AtExit>
void RunStage(const std::shared_ptr<Channel<In>>& in,
              BatchEmitter<Out>& emitter, BatchPolicy policy,
              const std::shared_ptr<BatchTuner>& in_tuner,
              PerElement&& per_element, AtExit&& at_exit) {
  bool open = true;
  if (!policy.batched()) {
    while (auto item = in->Pop()) {
      if (!per_element(*item, emitter)) {
        open = false;
        break;
      }
    }
  } else {
    std::vector<In> batch;
    batch.reserve(policy.PopMax());
    while (open) {
      batch.clear();
      const size_t want = in_tuner ? in_tuner->target() : policy.PopMax();
      size_t n = 0;
      if (emitter.has_pending()) {
        const PollStatus status = in->PopBatchFor(
            &batch, want, std::chrono::milliseconds(0), &n);
        if (status == PollStatus::kEmpty) {
          // Idle input: never hold staged outputs while waiting for more.
          if (!emitter.Flush()) open = false;
          continue;
        }
        if (status == PollStatus::kClosed) break;
      } else {
        n = in->PopBatch(&batch, want);
        if (n == 0) break;
      }
      for (size_t i = 0; i < n; ++i) {
        if (!per_element(batch[i], emitter)) {
          open = false;
          break;
        }
      }
      if (open && emitter.has_pending() && policy.LingerEnabled() &&
          emitter.LingerRemaining() <= std::chrono::milliseconds(0)) {
        if (!emitter.Flush()) open = false;
      }
    }
  }
  if (!open) in->CloseAndDrain();  // propagate cancellation upstream
  at_exit(open, emitter);
  if (open) emitter.Flush();
}

}  // namespace internal

/// The drain loop of batch-consuming terminal stages (mlog::LogSink,
/// mlog::PartitionedLogSink, store::KgStoreSink): blocks until input is
/// queued, then hands `consume(std::vector<T>&) -> bool` everything queued
/// up to `max_n` elements as one batch. A batch is passed on when it is
/// full or the input goes idle, never held back waiting to fill: group
/// commit under load, no stranded records at a trickle. `consume`
/// returning false (the stage failed) cancels `in` so upstream unblocks.
template <typename T, typename Consume>
void DrainInBatches(const std::shared_ptr<Channel<T>>& in, size_t max_n,
                    Consume&& consume) {
  std::vector<T> batch;
  batch.reserve(max_n);
  while (in->PopBatch(&batch, max_n) > 0) {
    if (!consume(batch)) {
      in->CloseAndDrain();  // propagate the failure upstream
      return;
    }
    batch.clear();
  }
}

/// Owns the threads of a dataflow job. Build a graph with Flow<T>, then
/// Run() blocks until every source is exhausted and every stage has
/// drained — the in-process equivalent of submitting a Flink job.
///
/// Runtime semantics: end-of-stream flows downstream via Channel::Close();
/// cancellation flows *upstream* via Channel::CloseAndDrain() — every
/// operator that stops consuming early cancels its input channel, so no
/// producer is ever left blocked in Push. Run() therefore returns even
/// when a sink abandons the stream mid-flight.
///
/// Every operator registers its output channel as a named stage; after
/// (or during) a run, Report() snapshots per-stage StageMetrics and
/// ReportString()/ReportJson() render them.
class Pipeline {
 public:
  Pipeline() = default;
  ~Pipeline() { Run(); }

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Registers a stage thread. Internal — called by Flow operators.
  void AddThread(std::function<void()> body) {
    threads_.emplace_back(std::move(body));
  }

  /// Joins all stage threads; idempotent. The first Run() that joins an
  /// actual stage thread freezes uptime_ms() at the pipeline's total
  /// running time, so post-run reports describe the run, not the
  /// reporting delay.
  void Run() {
    const bool had_threads = !threads_.empty();
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
    if (had_threads) {
      int64_t expected = -1;
      finished_uptime_ms_.compare_exchange_strong(expected, LiveUptimeMs());
    }
  }

  /// Monotonic construction instant, in ms on the steady clock's epoch.
  /// Same timebase for every Pipeline in the process, so reports from
  /// different shards can be ordered and open-loop rates computed from
  /// the report alone (records / uptime).
  int64_t started_at_ms() const {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               started_at_.time_since_epoch())
        .count();
  }

  /// Milliseconds since construction, frozen at Run() completion (live
  /// while stages are still running).
  int64_t uptime_ms() const {
    const int64_t frozen = finished_uptime_ms_.load(std::memory_order_relaxed);
    return frozen >= 0 ? frozen : LiveUptimeMs();
  }

  /// Registers a named metrics source. Internal — called by Flow
  /// operators; also usable for custom stages.
  void RegisterStage(std::string name, std::function<StageMetrics()> snap) {
    std::lock_guard<std::mutex> lock(stages_mutex_);
    stages_.emplace_back(std::move(name), std::move(snap));
  }

  /// Resolves a stage's final report name: empty names get the auto-name
  /// "<op>#<index>" from the pipeline-wide counter. RegisterChannelStage
  /// applies this itself; composite stages (KeyedProcessParallel) resolve
  /// first so their nested worker_edges rows can share the prefix.
  std::string ResolveStageName(const char* op, std::string name) {
    if (name.empty()) {
      name = std::string(op) + "#" + std::to_string(next_stage_index_++);
    }
    return name;
  }

  /// Registers a channel as the named stage's output edge. If `name` is
  /// empty, an auto-name "<op>#<index>" is generated. When the edge is
  /// adaptive, pass its BatchTuner so stage snapshots carry the live
  /// controller state (StageMetrics tuner_* fields). Returns the final
  /// stage name.
  template <typename U>
  std::string RegisterChannelStage(const char* op, std::string name,
                                   std::shared_ptr<Channel<U>> channel,
                                   std::shared_ptr<BatchTuner> tuner =
                                       nullptr) {
    name = ResolveStageName(op, std::move(name));
    RegisterStage(name, [channel, tuner = std::move(tuner)] {
      StageMetrics m = channel->MetricsSnapshot();
      if (tuner) tuner->FillStageMetrics(&m);
      return m;
    });
    return name;
  }

  /// Snapshots every registered stage, in registration (graph) order.
  std::vector<StageMetrics> Report() const {
    std::lock_guard<std::mutex> lock(stages_mutex_);
    std::vector<StageMetrics> out;
    out.reserve(stages_.size());
    for (const auto& [name, snap] : stages_) {
      StageMetrics m = snap();
      m.stage = name;
      out.push_back(std::move(m));
    }
    return out;
  }

  /// Printable fixed-width per-stage table.
  std::string ReportString() const { return StageMetricsTable(Report()); }

  /// JSON report: `{"started_at_ms":..,"uptime_ms":..,"stages":[...]}` —
  /// the run clock plus the per-stage array (StageMetricsJson), so a
  /// report consumer can compute rates without having timed the run
  /// itself.
  std::string ReportJson() const {
    return "{\"started_at_ms\":" + std::to_string(started_at_ms()) +
           ",\"uptime_ms\":" + std::to_string(uptime_ms()) +
           ",\"stages\":" + StageMetricsJson(Report()) + "}";
  }

 private:
  int64_t LiveUptimeMs() const {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - started_at_)
        .count();
  }

  const std::chrono::steady_clock::time_point started_at_ =
      std::chrono::steady_clock::now();
  std::atomic<int64_t> finished_uptime_ms_{-1};
  std::vector<std::thread> threads_;
  mutable std::mutex stages_mutex_;
  std::vector<std::pair<std::string, std::function<StageMetrics()>>> stages_;
  std::atomic<size_t> next_stage_index_{0};
};

/// Per-key processing function with explicit state: the Flink
/// KeyedProcessFunction analogue. Called once per element with the state
/// slot for the element's key; may emit any number of outputs via `emit`.
template <typename T, typename Out, typename State>
using KeyedProcessFn =
    std::function<void(const T& element, State& state,
                       const std::function<void(Out)>& emit)>;

/// Called for every live key when the stream ends, to flush pending state.
template <typename Out, typename State>
using KeyedFlushFn =
    std::function<void(uint64_t key, State& state,
                       const std::function<void(Out)>& emit)>;

template <typename T>
class Flow;

template <typename In, typename Cur>
class FusedChain;

namespace internal {

/// Shared construction behind Flow::KeyedProcessParallel and
/// FusedChain::KeyedProcessParallel (declared here, defined after Flow):
/// a partition router plus `parallelism` keyed workers over per-worker
/// partition edges, with the optional fused stateless `prefix` executed
/// inside the router thread (nullptr = identity, the plain un-fused
/// path).
template <typename In, typename T, typename Out, typename State>
Flow<Out> KeyedParallelStage(
    Pipeline* pipeline, std::shared_ptr<Channel<In>> in,
    std::shared_ptr<BatchTuner> upstream_tuner, const BatchPolicy& inherited,
    std::function<void(In&&, const std::function<void(T&&)>&)> prefix,
    std::function<uint64_t(const T&)> key_fn,
    KeyedProcessFn<T, Out, State> process, size_t parallelism,
    KeyedFlushFn<Out, State> flush, StageOptions opts, const char* op);

}  // namespace internal

/// A typed edge in the dataflow graph. Flow values are cheap handles:
/// they share the underlying channel. Each handle also carries a
/// BatchPolicy that governs how operators built from it move elements —
/// `WithBatching(BatchPolicy::Batched(64))` switches every downstream
/// stage to amortized batch transfers, and
/// `WithBatching(BatchPolicy::Adaptive())` gives every downstream edge
/// its own self-tuning BatchTuner (the policy is inherited by the Flows
/// those operators return, so one call at the source configures the
/// whole graph). Adaptive handles additionally carry the tuner of the
/// edge they reference, so the consumer an operator builds pops at the
/// live target the edge's producer is flushing at.
///
/// Shutdown contract for every operator: when the downstream edge stops
/// accepting (Push returns false because the consumer cancelled), the
/// operator cancels its own input via CloseAndDrain() and exits — the
/// cancel signal propagates all the way to the source. Conversely each
/// operator Close()s its output on every exit path, so downstream stages
/// always observe end-of-stream. Cancellation mid-batch behaves exactly
/// like cancellation mid-stream: staged elements are dropped, the signal
/// is never lost (see BatchShutdownTest). Adaptive re-targeting never
/// changes these semantics — only transfer granularity (proved by the
/// adaptive arm of tests/stream_batch_equiv_test.cc).
template <typename T>
class Flow {
 public:
  Flow(Pipeline* pipeline, std::shared_ptr<Channel<T>> channel,
       BatchPolicy policy = {}, std::shared_ptr<BatchTuner> tuner = nullptr)
      : pipeline_(pipeline),
        channel_(std::move(channel)),
        policy_(policy),
        tuner_(std::move(tuner)) {}

  /// Returns a handle to the same edge whose downstream operators use
  /// `policy` for channel transfers. Semantics are unchanged — only the
  /// transfer granularity (and therefore lock amortization) differs.
  /// Switching an adaptive edge to a static policy detaches the tuner
  /// from the returned handle (the consumer then pops at the static
  /// `max_batch`).
  Flow<T> WithBatching(BatchPolicy policy) const {
    return Flow<T>(pipeline_, channel_, policy,
                   policy.adaptive() ? tuner_ : nullptr);
  }

  const BatchPolicy& batch_policy() const { return policy_; }

  /// The adaptive controller of this edge (nullptr on static edges).
  /// Owned by the edge's producer; exposed for consumers, stage helpers
  /// and tests that want the live target or a TunerState snapshot.
  const std::shared_ptr<BatchTuner>& tuner() const { return tuner_; }

  /// Source from a pull function; the function returns nullopt when the
  /// stream is exhausted. With a batched policy the generator stages up
  /// to the batch target (bounded by the effective linger) per transfer;
  /// with an adaptive policy the staging threshold tracks the edge's
  /// BatchTuner target. Default policy when `opts.batch` is unset:
  /// record-at-a-time (Single).
  static Flow<T> FromGenerator(Pipeline* pipeline,
                               std::function<std::optional<T>()> next,
                               StageOptions opts = {}) {
    const BatchPolicy policy = opts.EffectivePolicy(BatchPolicy{});
    auto channel = std::make_shared<Channel<T>>(opts.capacity);
    auto tuner = internal::MakeTuner(policy, opts.capacity_tuning, channel);
    pipeline->RegisterChannelStage("source", std::move(opts.name), channel,
                                   tuner);
    pipeline->AddThread([channel, policy, tuner,
                         next = std::move(next)]() mutable {
      BatchEmitter<T> emitter(channel, policy, tuner);
      while (true) {
        std::optional<T> item = next();
        if (!item.has_value()) break;
        // Emit fails only when downstream cancelled: stop generating.
        if (!emitter.Emit(std::move(*item))) break;
        if (emitter.has_pending() && policy.LingerEnabled() &&
            emitter.LingerRemaining() <= std::chrono::milliseconds(0)) {
          if (!emitter.Flush()) break;
        }
      }
      emitter.Flush();
      channel->Close();
    });
    return Flow<T>(pipeline, std::move(channel), policy, std::move(tuner));
  }

  /// Source from a batch pull function: `next_batch(out, max_n)` appends
  /// up to `max_n` elements to `out` and returns how many it appended
  /// (0 = end of stream). The per-call `max_n` is the edge's live batch
  /// target, so batch-oriented producers (e.g. mlog's segment-aware
  /// replay, mlog::Cursor::NextBatch) decode exactly one channel
  /// transfer's worth of records per call — source-side amortization
  /// matched to transport amortization. Prefer this over FromGenerator
  /// whenever the underlying producer can hand out more than one element
  /// per call.
  static Flow<T> FromBatchGenerator(
      Pipeline* pipeline,
      std::function<size_t(std::vector<T>*, size_t)> next_batch,
      StageOptions opts = {}) {
    const BatchPolicy policy = opts.EffectivePolicy(BatchPolicy::Batched());
    auto channel = std::make_shared<Channel<T>>(opts.capacity);
    auto tuner = internal::MakeTuner(policy, opts.capacity_tuning, channel);
    pipeline->RegisterChannelStage("source", std::move(opts.name), channel,
                                   tuner);
    pipeline->AddThread(
        [channel, policy, tuner, next_batch = std::move(next_batch)] {
          std::vector<T> buf;
          buf.reserve(policy.PopMax());
          while (true) {
            buf.clear();
            const size_t want = std::max<size_t>(
                1, tuner ? tuner->target() : policy.max_batch);
            const size_t n = next_batch(&buf, want);
            if (n == 0) break;
            // PushBatch accepting fewer than offered means the consumer
            // cancelled: stop generating.
            if (channel->PushBatch(std::move(buf)) != n) break;
            buf.reserve(policy.PopMax());
            if (tuner) tuner->OnRecords(n);
          }
          channel->Close();
        });
    return Flow<T>(pipeline, std::move(channel), policy, std::move(tuner));
  }

  /// Source from a pre-materialized vector.
  static Flow<T> FromVector(Pipeline* pipeline, std::vector<T> items,
                            StageOptions opts = {}) {
    auto it = std::make_shared<size_t>(0);
    auto data = std::make_shared<std::vector<T>>(std::move(items));
    return FromGenerator(
        pipeline,
        [it, data]() -> std::optional<T> {
          if (*it >= data->size()) return std::nullopt;
          return (*data)[(*it)++];
        },
        std::move(opts));
  }

  /// 1:1 transform.
  template <typename Out>
  Flow<Out> Map(std::function<Out(const T&)> fn, StageOptions opts = {}) {
    const BatchPolicy policy = opts.EffectivePolicy(policy_);
    auto out = std::make_shared<Channel<Out>>(opts.capacity);
    auto out_tuner = internal::MakeTuner(policy, opts.capacity_tuning, out);
    pipeline_->RegisterChannelStage("map", std::move(opts.name), out,
                                    out_tuner);
    auto in = channel_;
    auto in_tuner = policy.adaptive() ? tuner_ : nullptr;
    pipeline_->AddThread([in, out, policy, in_tuner, out_tuner,
                          fn = std::move(fn)] {
      BatchEmitter<Out> emitter(out, policy, out_tuner);
      internal::RunStage(
          in, emitter, policy, in_tuner,
          [&fn](T& item, BatchEmitter<Out>& em) { return em.Emit(fn(item)); },
          [](bool, BatchEmitter<Out>&) {});
      out->Close();
    });
    return Flow<Out>(pipeline_, std::move(out), policy, std::move(out_tuner));
  }

  /// 1:N transform.
  template <typename Out>
  Flow<Out> FlatMap(std::function<std::vector<Out>(const T&)> fn,
                    StageOptions opts = {}) {
    const BatchPolicy policy = opts.EffectivePolicy(policy_);
    auto out = std::make_shared<Channel<Out>>(opts.capacity);
    auto out_tuner = internal::MakeTuner(policy, opts.capacity_tuning, out);
    pipeline_->RegisterChannelStage("flatmap", std::move(opts.name), out,
                                    out_tuner);
    auto in = channel_;
    auto in_tuner = policy.adaptive() ? tuner_ : nullptr;
    pipeline_->AddThread([in, out, policy, in_tuner, out_tuner,
                          fn = std::move(fn)] {
      BatchEmitter<Out> emitter(out, policy, out_tuner);
      internal::RunStage(
          in, emitter, policy, in_tuner,
          [&fn](T& item, BatchEmitter<Out>& em) {
            for (Out& o : fn(item)) {
              if (!em.Emit(std::move(o))) return false;
            }
            return true;
          },
          [](bool, BatchEmitter<Out>&) {});
      // Close on EVERY exit path — an early return here used to leave
      // downstream Pop blocked forever.
      out->Close();
    });
    return Flow<Out>(pipeline_, std::move(out), policy, std::move(out_tuner));
  }

  /// Keeps elements satisfying the predicate.
  Flow<T> Filter(std::function<bool(const T&)> pred, StageOptions opts = {}) {
    const BatchPolicy policy = opts.EffectivePolicy(policy_);
    auto out = std::make_shared<Channel<T>>(opts.capacity);
    auto out_tuner = internal::MakeTuner(policy, opts.capacity_tuning, out);
    pipeline_->RegisterChannelStage("filter", std::move(opts.name), out,
                                    out_tuner);
    auto in = channel_;
    auto in_tuner = policy.adaptive() ? tuner_ : nullptr;
    pipeline_->AddThread([in, out, policy, in_tuner, out_tuner,
                          pred = std::move(pred)] {
      BatchEmitter<T> emitter(out, policy, out_tuner);
      internal::RunStage(
          in, emitter, policy, in_tuner,
          [&pred](T& item, BatchEmitter<T>& em) {
            if (!pred(item)) return true;
            return em.Emit(std::move(item));
          },
          [](bool, BatchEmitter<T>&) {});
      out->Close();
    });
    return Flow<T>(pipeline_, std::move(out), policy, std::move(out_tuner));
  }

  /// Starts a fused chain: adjacent stateless stages (Map/Filter/FlatMap)
  /// composed onto it run in ONE thread with ZERO channel crossings —
  /// `flow.Fuse().Map(f).Filter(p).Map(g).Emit()` materializes a single
  /// "fused" stage instead of three channel-separated ones, and
  /// `flow.Fuse().Map(f).Filter(p).KeyedProcessParallel(...)` terminates
  /// the chain in a keyed stage whose router runs the prefix inline.
  /// Equivalent to the unfused chain by construction (and by the
  /// differential harness).
  FusedChain<T, T> Fuse() const;

  /// Keyed stateful processing with per-key state of type State.
  /// State instances are default-constructed on first sight of a key.
  /// `flush` (optional) runs for every key at end-of-stream.
  template <typename Out, typename State>
  Flow<Out> KeyedProcess(std::function<uint64_t(const T&)> key_fn,
                         KeyedProcessFn<T, Out, State> process,
                         KeyedFlushFn<Out, State> flush = nullptr,
                         StageOptions opts = {}) {
    const BatchPolicy policy = opts.EffectivePolicy(policy_);
    auto out = std::make_shared<Channel<Out>>(opts.capacity);
    auto out_tuner = internal::MakeTuner(policy, opts.capacity_tuning, out);
    pipeline_->RegisterChannelStage("keyed", std::move(opts.name), out,
                                    out_tuner);
    auto in = channel_;
    auto in_tuner = policy.adaptive() ? tuner_ : nullptr;
    pipeline_->AddThread([in, out, policy, in_tuner, out_tuner,
                          key_fn = std::move(key_fn),
                          process = std::move(process),
                          flush = std::move(flush)] {
      BatchEmitter<Out> emitter(out, policy, out_tuner);
      std::unordered_map<uint64_t, State> states;
      internal::RunStage(
          in, emitter, policy, in_tuner,
          [&](T& item, BatchEmitter<Out>& em) {
            bool ok = true;
            auto emit = [&](Out o) {
              if (ok && !em.Emit(std::move(o))) ok = false;
            };
            process(item, states[key_fn(item)], emit);
            return ok;
          },
          [&](bool open, BatchEmitter<Out>& em) {
            if (!open || !flush) return;
            bool ok = true;
            auto emit = [&](Out o) {
              if (ok && !em.Emit(std::move(o))) ok = false;
            };
            for (auto& [key, state] : states) flush(key, state, emit);
          });
      out->Close();
    });
    return Flow<Out>(pipeline_, std::move(out), policy, std::move(out_tuner));
  }

  /// Keyed stateful processing with `parallelism` worker threads: elements
  /// are hash-partitioned by key, each worker owns the state of its key
  /// range (the Flink keyed-stream execution model). Output order across
  /// workers is nondeterministic; per-key order is preserved.
  ///
  /// Each router→worker partition edge carries its own BatchTuner /
  /// CapacityTuner (adaptive policies only): a hot partition re-targets
  /// its own edge without moving the cold ones, and the per-edge
  /// controller state surfaces as `worker_edges` (plus `skew_ratio`) on
  /// this stage's row in Report()/ReportJson() — see
  /// docs/STREAM_TUNING.md §7.
  template <typename Out, typename State>
  Flow<Out> KeyedProcessParallel(std::function<uint64_t(const T&)> key_fn,
                                 KeyedProcessFn<T, Out, State> process,
                                 size_t parallelism,
                                 KeyedFlushFn<Out, State> flush = nullptr,
                                 StageOptions opts = {}) {
    if (parallelism <= 1) {
      return KeyedProcess<Out, State>(std::move(key_fn), std::move(process),
                                      std::move(flush), std::move(opts));
    }
    return internal::KeyedParallelStage<T, T, Out, State>(
        pipeline_, channel_, tuner_, policy_, /*prefix=*/nullptr,
        std::move(key_fn), std::move(process), parallelism, std::move(flush),
        std::move(opts), "keyed_par");
  }

  /// Keyed event-time tumbling windows with bounded lateness: elements are
  /// folded per (key, window) via `add`; a window is emitted once the
  /// key's watermark (max event time - lateness) passes its end, and every
  /// open window flushes at end-of-stream. Late elements beyond the
  /// watermark are dropped and surface as `late_dropped` in this stage's
  /// StageMetrics.
  template <typename Acc>
  Flow<std::pair<uint64_t, typename TumblingWindower<T, Acc>::WindowResult>>
  KeyedTumblingWindow(std::function<uint64_t(const T&)> key_fn,
                      std::function<TimeMs(const T&)> time_fn,
                      TimeMs window_ms, TimeMs allowed_lateness_ms,
                      std::function<void(Acc&, const T&, TimeMs)> add,
                      StageOptions opts = {}) {
    using Result =
        std::pair<uint64_t, typename TumblingWindower<T, Acc>::WindowResult>;
    const BatchPolicy policy = opts.EffectivePolicy(policy_);
    auto out = std::make_shared<Channel<Result>>(opts.capacity);
    auto out_tuner = internal::MakeTuner(policy, opts.capacity_tuning, out);
    pipeline_->RegisterChannelStage("window", std::move(opts.name), out,
                                    out_tuner);
    auto in = channel_;
    auto in_tuner = policy.adaptive() ? tuner_ : nullptr;
    pipeline_->AddThread([in, out, policy, in_tuner, out_tuner,
                          key_fn = std::move(key_fn),
                          time_fn = std::move(time_fn), window_ms,
                          allowed_lateness_ms, add = std::move(add)] {
      BatchEmitter<Result> emitter(out, policy, out_tuner);
      std::unordered_map<uint64_t, TumblingWindower<T, Acc>> windowers;
      internal::RunStage(
          in, emitter, policy, in_tuner,
          [&](T& item, BatchEmitter<Result>& em) {
            const uint64_t key = key_fn(item);
            auto [it, inserted] = windowers.try_emplace(
                key, window_ms, allowed_lateness_ms, add);
            for (auto& wr : it->second.Add(item, time_fn(item))) {
              if (!em.Emit({key, std::move(wr)})) return false;
            }
            return true;
          },
          [&](bool open, BatchEmitter<Result>& em) {
            uint64_t late = 0;
            bool ok = open;
            for (auto& [key, w] : windowers) {
              if (ok) {
                for (auto& wr : w.Close()) {
                  if (!em.Emit({key, std::move(wr)})) {
                    ok = false;
                    break;
                  }
                }
              }
              late += w.late_dropped();
            }
            out->RecordLateDropped(late);
          });
      out->Close();
    });
    return Flow<Result>(pipeline_, std::move(out), policy,
                        std::move(out_tuner));
  }

  /// Terminal: applies `fn` to every element. Runs until end-of-stream;
  /// under batching it pops amortized transfers (at the live tuner target
  /// on adaptive edges) and applies `fn` element-at-a-time. A sink owns
  /// no output channel, so only `opts.batch` (pop-policy override) is
  /// meaningful here; the other StageOptions fields are ignored.
  void Sink(std::function<void(const T&)> fn, StageOptions opts = {}) {
    const BatchPolicy policy = opts.EffectivePolicy(policy_);
    auto in = channel_;
    auto in_tuner = policy.adaptive() ? tuner_ : nullptr;
    pipeline_->AddThread([in, policy, in_tuner, fn = std::move(fn)] {
      if (!policy.batched()) {
        while (auto item = in->Pop()) fn(*item);
        return;
      }
      std::vector<T> batch;
      batch.reserve(policy.PopMax());
      while (true) {
        batch.clear();
        const size_t want = in_tuner ? in_tuner->target() : policy.PopMax();
        const size_t n = in->PopBatch(&batch, want);
        if (n == 0) break;
        for (size_t i = 0; i < n; ++i) fn(batch[i]);
      }
    });
  }

  /// Terminal: applies `fn` until it returns false, then cancels the
  /// stream — upstream stages unblock and exit (no deadlock even with
  /// producers mid-Push). The early-stopping sink. Under batching,
  /// elements already popped in the cancelling batch are dropped — the
  /// same fate queued elements meet under CloseAndDrain.
  void SinkWhile(std::function<bool(const T&)> fn, StageOptions opts = {}) {
    const BatchPolicy policy = opts.EffectivePolicy(policy_);
    auto in = channel_;
    auto in_tuner = policy.adaptive() ? tuner_ : nullptr;
    pipeline_->AddThread([in, policy, in_tuner, fn = std::move(fn)] {
      if (!policy.batched()) {
        while (auto item = in->Pop()) {
          if (!fn(*item)) {
            in->CloseAndDrain();
            break;
          }
        }
        return;
      }
      std::vector<T> batch;
      batch.reserve(policy.PopMax());
      bool open = true;
      while (open) {
        batch.clear();
        const size_t want = in_tuner ? in_tuner->target() : policy.PopMax();
        const size_t n = in->PopBatch(&batch, want);
        if (n == 0) break;
        for (size_t i = 0; i < n; ++i) {
          if (!fn(batch[i])) {
            open = false;
            break;
          }
        }
      }
      if (!open) in->CloseAndDrain();
    });
  }

  /// Terminal: collects all elements into `out` (caller keeps it alive
  /// until Pipeline::Run returns).
  void CollectInto(std::vector<T>* out) {
    Sink([out](const T& item) { out->push_back(item); });
  }

  std::shared_ptr<Channel<T>> channel() const { return channel_; }

  /// The owning pipeline — lets external stage helpers (e.g. mlog's
  /// LogSink) attach threads and metrics without threading an extra
  /// Pipeline* through every call site.
  Pipeline* pipeline() const { return pipeline_; }

 private:
  Pipeline* pipeline_;
  std::shared_ptr<Channel<T>> channel_;
  BatchPolicy policy_;
  std::shared_ptr<BatchTuner> tuner_;  ///< this edge's controller (or null)
};

namespace internal {

/// Shared keyed-parallel construction (see the declaration above Flow).
/// `prefix` is the fused stateless chain executed INSIDE the router
/// thread (nullptr = identity, the plain un-fused path): the router pops
/// `In` elements from the upstream edge, runs the prefix inline, and
/// hash-partitions the resulting `T` elements straight into the
/// per-worker partition edges — zero channels between the upstream edge
/// and the keyed boundary.
///
/// Partition-edge tuning: every router→worker edge gets its own
/// BatchTuner/CapacityTuner (adaptive policies only). The router drives
/// each edge's controller with the records it scatters there and each
/// worker pops at its own edge's live target, so a hot partition's
/// back-off (slow per-pop windows on a loaded worker) stays on its own
/// edge while the starvation gate (BatchPolicy::
/// backoff_max_starved_fraction) keeps the arrival-limited cold edges
/// from shrinking in sympathy. The per-edge snapshots nest under the
/// stage's report row as `worker_edges` (with `skew_ratio`); aggregate
/// them with SummarizeWorkerEdges.
///
/// Router-input edge: the router's pop size is governed by its own
/// controller over the upstream channel, seeded from the upstream
/// tuner's live target — NOT by the upstream producer's tuner. The fused
/// prefix runs inside the router, so per-pop cost is no longer what the
/// upstream controller measured; sharing that controller would let the
/// router's consumption profile re-target the producer's flush size.
/// Registered as "<stage>.router_in" on adaptive policies.
template <typename In, typename T, typename Out, typename State>
Flow<Out> KeyedParallelStage(
    Pipeline* pipeline, std::shared_ptr<Channel<In>> in,
    std::shared_ptr<BatchTuner> upstream_tuner, const BatchPolicy& inherited,
    std::function<void(In&&, const std::function<void(T&&)>&)> prefix,
    std::function<uint64_t(const T&)> key_fn,
    KeyedProcessFn<T, Out, State> process, size_t parallelism,
    KeyedFlushFn<Out, State> flush, StageOptions opts, const char* op) {
  const BatchPolicy policy = opts.EffectivePolicy(inherited);
  auto out = std::make_shared<Channel<Out>>(opts.capacity);
  // One tuner for the shared output edge: all workers flush at the same
  // live target and feed the same controller (OnRecords is thread-safe).
  auto out_tuner = MakeTuner(policy, opts.capacity_tuning, out);
  const std::string stage = pipeline->ResolveStageName(op, std::move(opts.name));

  if (parallelism <= 1) {
    // One worker: the prefix and the keyed state machine share a single
    // stage thread — no router, no partition edges.
    pipeline->RegisterChannelStage(op, stage, out, out_tuner);
    auto in_tuner = policy.adaptive() ? upstream_tuner : nullptr;
    pipeline->AddThread([in, out, policy, in_tuner, out_tuner,
                         prefix = std::move(prefix),
                         key_fn = std::move(key_fn),
                         process = std::move(process),
                         flush = std::move(flush)] {
      BatchEmitter<Out> emitter(out, policy, out_tuner);
      std::unordered_map<uint64_t, State> states;
      RunStage(
          in, emitter, policy, in_tuner,
          [&](In& item, BatchEmitter<Out>& em) {
            bool ok = true;
            auto emit = [&](Out o) {
              if (ok && !em.Emit(std::move(o))) ok = false;
            };
            auto keyed = [&](T&& t) { process(t, states[key_fn(t)], emit); };
            if constexpr (std::is_same_v<In, T>) {
              if (!prefix) {
                keyed(std::move(item));
                return ok;
              }
            }
            prefix(std::move(item), keyed);
            return ok;
          },
          [&](bool open, BatchEmitter<Out>& em) {
            if (!open || !flush) return;
            bool ok = true;
            auto emit = [&](Out o) {
              if (ok && !em.Emit(std::move(o))) ok = false;
            };
            for (auto& [key, state] : states) flush(key, state, emit);
          });
      out->Close();
    });
    return Flow<Out>(pipeline, std::move(out), policy, std::move(out_tuner));
  }

  // Partition router: one input channel per worker, each edge with its
  // own adaptive controllers.
  auto partitions =
      std::make_shared<std::vector<std::shared_ptr<Channel<T>>>>();
  auto part_tuners =
      std::make_shared<std::vector<std::shared_ptr<BatchTuner>>>();
  for (size_t w = 0; w < parallelism; ++w) {
    auto part = std::make_shared<Channel<T>>(opts.capacity);
    part_tuners->push_back(MakeTuner(policy, opts.capacity_tuning, part));
    partitions->push_back(std::move(part));
  }
  // One report row for the whole stage: the shared output edge plus the
  // per-partition edges nested as worker_edges.
  pipeline->RegisterStage(
      stage, [out, out_tuner, partitions, part_tuners, stage] {
        StageMetrics m = out->MetricsSnapshot();
        if (out_tuner) out_tuner->FillStageMetrics(&m);
        m.worker_edges.reserve(partitions->size());
        for (size_t w = 0; w < partitions->size(); ++w) {
          StageMetrics e = (*partitions)[w]->MetricsSnapshot();
          e.stage = stage + ".part" + std::to_string(w);
          if ((*part_tuners)[w]) (*part_tuners)[w]->FillStageMetrics(&e);
          m.worker_edges.push_back(std::move(e));
        }
        m.skew_ratio = WorkerEdgeSkewRatio(m.worker_edges);
        return m;
      });

  // The router's own input controller (see the doc comment above). No
  // capacity tuner is attached: the upstream channel's bound belongs to
  // the upstream stage's options, and only one CapacityTuner may own a
  // channel's watermark window.
  std::shared_ptr<BatchTuner> router_in_tuner;
  if (policy.adaptive()) {
    BatchPolicy seeded = policy;
    if (upstream_tuner) {
      seeded.max_batch = std::clamp(upstream_tuner->target(),
                                    policy.min_batch, policy.max_batch_cap);
    }
    router_in_tuner = std::make_shared<BatchTuner>(
        seeded, [in] { return in->MetricsSnapshot(); });
    pipeline->RegisterStage(stage + ".router_in", [in, router_in_tuner] {
      StageMetrics m = in->MetricsSnapshot();
      router_in_tuner->FillStageMetrics(&m);
      return m;
    });
  }

  pipeline->AddThread([in, partitions, part_tuners, parallelism, policy,
                       router_in_tuner, key_fn,
                       prefix = std::move(prefix)] {
    // Route through the Mix64 finalizer, not std::hash: libstdc++'s
    // identity hash would fold structured keys (vessel IDs stepping by
    // a multiple of `parallelism`) onto a single worker.
    if (!policy.batched()) {
      bool open = true;
      auto route = [&](T&& t) {
        if (!open) return;
        const size_t w = HashPartition(key_fn(t), parallelism);
        if (!(*partitions)[w]->Push(std::move(t))) {
          // A worker cancelled its partition (downstream gone): stop
          // routing and propagate the cancel to our own input.
          open = false;
        } else if ((*part_tuners)[w]) {
          (*part_tuners)[w]->OnRecords(1);
        }
      };
      while (open) {
        std::optional<In> item = in->Pop();
        if (!item.has_value()) break;
        if constexpr (std::is_same_v<In, T>) {
          if (!prefix) {
            route(std::move(*item));
            continue;
          }
        }
        prefix(std::move(*item), route);
      }
      if (!open) in->CloseAndDrain();
    } else {
      // Scatter each input batch into per-worker batches so partition
      // edges also move amortized transfers; the fused prefix runs here,
      // between the pop and the scatter.
      std::vector<In> batch;
      std::vector<std::vector<T>> scatter(parallelism);
      batch.reserve(policy.PopMax());
      bool open = true;
      auto stage_elem = [&](T&& t) {
        scatter[HashPartition(key_fn(t), parallelism)].push_back(
            std::move(t));
      };
      while (open) {
        batch.clear();
        const size_t want =
            router_in_tuner ? router_in_tuner->target() : policy.PopMax();
        const size_t n = in->PopBatch(&batch, want);
        if (n == 0) break;
        for (size_t i = 0; i < n; ++i) {
          if constexpr (std::is_same_v<In, T>) {
            if (!prefix) {
              stage_elem(std::move(batch[i]));
              continue;
            }
          }
          prefix(std::move(batch[i]), stage_elem);
        }
        if (router_in_tuner) router_in_tuner->OnRecords(n);
        for (size_t w = 0; w < parallelism && open; ++w) {
          if (scatter[w].empty()) continue;
          const size_t offered = scatter[w].size();
          if ((*partitions)[w]->PushBatch(std::move(scatter[w])) !=
              offered) {
            open = false;
          } else if ((*part_tuners)[w]) {
            (*part_tuners)[w]->OnRecords(offered);
          }
          scatter[w].clear();
        }
      }
      if (!open) in->CloseAndDrain();
    }
    for (auto& p : *partitions) p->Close();
  });

  // Workers share the output channel; the last one to finish closes it.
  // Each worker pops its partition at that edge's own live target.
  auto live_workers = std::make_shared<std::atomic<size_t>>(parallelism);
  for (size_t w = 0; w < parallelism; ++w) {
    auto my_in = (*partitions)[w];
    auto my_tuner = (*part_tuners)[w];
    pipeline->AddThread([my_in, my_tuner, out, out_tuner, key_fn, process,
                         flush, live_workers, policy] {
      BatchEmitter<Out> emitter(out, policy, out_tuner);
      std::unordered_map<uint64_t, State> states;
      RunStage(
          my_in, emitter, policy, my_tuner,
          [&](T& item, BatchEmitter<Out>& em) {
            bool ok = true;
            auto emit = [&](Out o) {
              if (ok && !em.Emit(std::move(o))) ok = false;
            };
            process(item, states[key_fn(item)], emit);
            return ok;
          },
          [&](bool open, BatchEmitter<Out>& em) {
            if (!open || !flush) return;
            bool ok = true;
            auto emit = [&](Out o) {
              if (ok && !em.Emit(std::move(o))) ok = false;
            };
            for (auto& [key, state] : states) flush(key, state, emit);
          });
      if (live_workers->fetch_sub(1) == 1) out->Close();
    });
  }
  return Flow<Out>(pipeline, std::move(out), policy, std::move(out_tuner));
}

}  // namespace internal

/// A chain of stateless operators fused into one stage: the composed
/// transform runs element-at-a-time inside a single thread, so a
/// Map→Filter→Map pipeline segment costs one channel crossing instead of
/// three (operator fusion — the other half of the transport amortization
/// story). Build with Flow::Fuse(), compose with Map/Filter/FlatMap, then
/// materialize: Emit() produces the single stateless stage (registered as
/// "fused"), or terminate the chain in a keyed stage with
/// KeyedProcessParallel — the composed prefix then runs inside the
/// partition router itself (registered as "fused_keyed"), with zero
/// channels between the source edge and the keyed boundary.
///
/// `In` is the input type of the fused stage, `Cur` the current output
/// type of the composed chain.
template <typename In, typename Cur>
class FusedChain {
 public:
  /// sink(value): forwards one output of the composed transform.
  using Sink = std::function<void(Cur&&)>;
  /// apply(item, sink): runs the whole composed chain on one element.
  using Apply = std::function<void(In&&, const Sink&)>;

  FusedChain(Flow<In> source, Apply apply)
      : source_(std::move(source)), apply_(std::move(apply)) {}

  /// Fuses a 1:1 transform onto the chain.
  template <typename Out>
  FusedChain<In, Out> Map(std::function<Out(const Cur&)> fn) const {
    Apply prev = apply_;
    typename FusedChain<In, Out>::Apply next =
        [prev, fn = std::move(fn)](
            In&& item, const typename FusedChain<In, Out>::Sink& sink) {
          prev(std::move(item), [&](Cur&& c) { sink(fn(c)); });
        };
    return FusedChain<In, Out>(source_, std::move(next));
  }

  /// Fuses a predicate onto the chain.
  FusedChain<In, Cur> Filter(std::function<bool(const Cur&)> pred) const {
    Apply prev = apply_;
    Apply next = [prev, pred = std::move(pred)](In&& item, const Sink& sink) {
      prev(std::move(item), [&](Cur&& c) {
        if (pred(c)) sink(std::move(c));
      });
    };
    return FusedChain<In, Cur>(source_, std::move(next));
  }

  /// Fuses a 1:N transform onto the chain.
  template <typename Out>
  FusedChain<In, Out> FlatMap(
      std::function<std::vector<Out>(const Cur&)> fn) const {
    Apply prev = apply_;
    typename FusedChain<In, Out>::Apply next =
        [prev, fn = std::move(fn)](
            In&& item, const typename FusedChain<In, Out>::Sink& sink) {
          prev(std::move(item), [&](Cur&& c) {
            for (Out& o : fn(c)) sink(std::move(o));
          });
        };
    return FusedChain<In, Out>(source_, std::move(next));
  }

  /// Terminates the chain in a keyed-parallel stage: the composed
  /// stateless prefix executes INSIDE the partition router thread, so the
  /// chain costs zero channel crossings between the source edge and the
  /// keyed boundary (Flink-style operator chaining up to the keyed
  /// shuffle). Semantics are exactly `...Emit()` followed by
  /// Flow::KeyedProcessParallel minus the intermediate channel: same
  /// Mix64 partitioning, same per-key order, same flush-at-end and
  /// cancellation contracts — the two-hop construction remains the
  /// differential reference (tests/stream_batch_equiv_test.cc). With
  /// `parallelism <= 1` the prefix and the keyed state machine share one
  /// stage thread. Returns the stage's output Flow directly; keyed
  /// terminals have no separate Emit step.
  template <typename Out, typename State>
  Flow<Out> KeyedProcessParallel(std::function<uint64_t(const Cur&)> key_fn,
                                 KeyedProcessFn<Cur, Out, State> process,
                                 size_t parallelism,
                                 KeyedFlushFn<Out, State> flush = nullptr,
                                 StageOptions opts = {}) const {
    return internal::KeyedParallelStage<In, Cur, Out, State>(
        source_.pipeline(), source_.channel(), source_.tuner(),
        source_.batch_policy(), apply_, std::move(key_fn), std::move(process),
        parallelism, std::move(flush), std::move(opts), "fused_keyed");
  }

  /// Materializes the fused chain as one pipeline stage with one output
  /// channel, draining and emitting per the source Flow's BatchPolicy
  /// (overridable via `opts.batch` like any other operator).
  Flow<Cur> Emit(StageOptions opts = {}) const {
    Pipeline* pipeline = source_.pipeline();
    const BatchPolicy policy = opts.EffectivePolicy(source_.batch_policy());
    auto out = std::make_shared<Channel<Cur>>(opts.capacity);
    auto out_tuner = internal::MakeTuner(policy, opts.capacity_tuning, out);
    pipeline->RegisterChannelStage("fused", std::move(opts.name), out,
                                   out_tuner);
    auto in = source_.channel();
    auto in_tuner = policy.adaptive() ? source_.tuner() : nullptr;
    pipeline->AddThread([in, out, policy, in_tuner, out_tuner,
                         apply = apply_] {
      BatchEmitter<Cur> emitter(out, policy, out_tuner);
      internal::RunStage(
          in, emitter, policy, in_tuner,
          [&apply](In& item, BatchEmitter<Cur>& em) {
            bool ok = true;
            apply(std::move(item), [&](Cur&& c) {
              if (ok && !em.Emit(std::move(c))) ok = false;
            });
            return ok;
          },
          [](bool, BatchEmitter<Cur>&) {});
      out->Close();
    });
    return Flow<Cur>(pipeline, std::move(out), policy, std::move(out_tuner));
  }

 private:
  Flow<In> source_;
  Apply apply_;
};

template <typename T>
FusedChain<T, T> Flow<T>::Fuse() const {
  return FusedChain<T, T>(
      *this, [](T&& item, const typename FusedChain<T, T>::Sink& sink) {
        sink(std::move(item));
      });
}

}  // namespace tcmf::stream

#endif  // TCMF_STREAM_PIPELINE_H_
