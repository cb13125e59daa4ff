#ifndef COSTREAM_CORE_TRAINER_H_
#define COSTREAM_CORE_TRAINER_H_

#include <cstdint>
#include <vector>

#include "core/model.h"
#include "eval/metrics.h"

namespace costream::core {

// One labelled training example: a featurized joint graph plus the metric
// value observed when executing the placed query.
struct TrainSample {
  JointGraph graph;
  double regression_target = 0.0;  // raw metric value (not log space)
  bool label = false;              // classification metrics
};

struct TrainConfig {
  int epochs = 24;
  int batch_size = 16;
  double learning_rate = 3e-3;
  // Multiplicative learning-rate decay per epoch.
  double lr_decay = 0.95;
  uint64_t seed = 7;
  bool verbose = false;
  // For classification heads: reweight the BCE loss so both classes
  // contribute equally (failures/backpressure are rare in realistic corpora,
  // and the paper evaluates on balanced test sets).
  bool balance_classes = true;
  // Worker threads for data-parallel mini-batch gradients (<= 0: all
  // hardware threads). Every sample's gradient is accumulated into a private
  // per-sample sink and the sinks are reduced in sample order, so any value
  // produces bitwise-identical parameters to num_threads = 1.
  int num_threads = 0;
};

struct TrainResult {
  double best_val_loss = 0.0;
  int best_epoch = -1;
  std::vector<double> train_losses;  // mean loss per epoch
  std::vector<double> val_losses;
};

// Batched access to training samples, abstracting where they live. The
// in-memory path wraps a sample vector (VectorSampleSource); the out-of-core
// path featurizes records on demand from a block-compressed trace file
// (workload::StreamingCorpus). The epoch driver only ever sees this
// interface, so both paths train through identical code and produce
// bitwise-identical weights for identical sample sequences.
class SampleSource {
 public:
  virtual ~SampleSource() = default;

  virtual int64_t size() const = 0;

  // Fills out[i] with a pointer to the sample for ids[i] (each in
  // [0, size())). Pointers stay valid until the next Fetch on this source
  // or its destruction; the driver reads them concurrently but never
  // mutates them. Implementations may fail hard (throw / CHECK) when the
  // backing storage turns out to be corrupt.
  virtual void Fetch(const int64_t* ids, int count,
                     const TrainSample** out) = 0;

  // Number of samples whose classification label is true — exact, used for
  // class-balancing weights.
  virtual int64_t CountPositiveLabels() = 0;
};

// SampleSource over an in-memory vector (borrowed, not copied).
class VectorSampleSource final : public SampleSource {
 public:
  explicit VectorSampleSource(const std::vector<TrainSample>& samples)
      : samples_(samples) {}
  int64_t size() const override {
    return static_cast<int64_t>(samples_.size());
  }
  void Fetch(const int64_t* ids, int count,
             const TrainSample** out) override;
  int64_t CountPositiveLabels() override;

 private:
  const std::vector<TrainSample>& samples_;
};

// Trains `model` on `train`, evaluating on `val` after every epoch and
// restoring the parameters of the best validation epoch at the end.
// Regression heads are trained with MSE on log1p targets (the paper's MSLE
// loss); classification heads with binary cross entropy.
TrainResult TrainModel(CostModel& model, const std::vector<TrainSample>& train,
                       const std::vector<TrainSample>& val,
                       const TrainConfig& config);

// Same training loop over sample sources: per-epoch deterministic shuffle of
// [0, train.size()), fetched through SampleSource::Fetch in windows of
// max(1, 256 / batch_size) whole mini-batches (so a streaming source decodes
// each trace block once per window, not once per batch), the usual
// per-index gradient sinks and index-order reduction. With sources
// that yield the same samples, the trained weights are bitwise-equal to
// TrainModel at any thread count (TrainModel itself delegates here through
// VectorSampleSource). Under verification mode fetched batches are verified
// as they stream, since an out-of-core corpus cannot be checked up front.
TrainResult TrainModelStreaming(CostModel& model, SampleSource& train,
                                SampleSource& val, const TrainConfig& config);

// Mean per-sample loss of `model` on `samples` (no gradient updates).
double EvaluateLoss(const CostModel& model,
                    const std::vector<TrainSample>& samples);

// Q-error summary of a regression model over `samples`.
eval::QErrorSummary EvaluateRegression(const CostModel& model,
                                       const std::vector<TrainSample>& samples);

// Classification accuracy (threshold 0.5) over `samples`.
double EvaluateClassification(const CostModel& model,
                              const std::vector<TrainSample>& samples);

}  // namespace costream::core

#endif  // COSTREAM_CORE_TRAINER_H_
