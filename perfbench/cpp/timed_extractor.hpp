#pragma once

// Benchmark-side timing decorator around a FeatureExtractor. Every public
// call is forwarded unchanged to the wrapped model inside a trace span named
// "models.<role>.<call>", so outputs stay bitwise identical to the bare
// model. clone() returns decorated clones that remember the span that asked
// for them, so work the library fans out to pool threads (data-parallel
// surrogate training) is timed and attributed.

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "models/feature_extractor.hpp"
#include "trace.hpp"

namespace perfbench {

class TimedExtractor final : public duo::models::FeatureExtractor {
 public:
  // `role` picks the span names: "victim" or "surrogate".
  TimedExtractor(std::string role,
                 std::unique_ptr<duo::models::FeatureExtractor> inner,
                 std::uint64_t parent_hint = 0)
      : inner_(std::move(inner)),
        parent_hint_(parent_hint),
        extract_name_("models." + role + ".extract"),
        batch_name_("models." + role + ".extract_batch"),
        backward_name_("models." + role + ".backward"),
        role_(std::move(role)) {}

  duo::Tensor extract_model_input(const duo::Tensor& input) override {
    trace::Scope span(extract_name_.c_str(), -1, 0.0, parent_hint_);
    return inner_->extract_model_input(input);
  }

  // Forwarded whole, so a model's own batched path is the one timed; the
  // per-video work inside it is not split into child spans.
  std::vector<duo::Tensor> extract_batch(
      std::span<const duo::video::Video> videos) override {
    trace::Scope span(batch_name_.c_str(), -1,
                      static_cast<double>(videos.size()), parent_hint_);
    return inner_->extract_batch(videos);
  }

  duo::Tensor backward_to_input(const duo::Tensor& grad_feature) override {
    trace::Scope span(backward_name_.c_str(), -1, 0.0, parent_hint_);
    return inner_->backward_to_input(grad_feature);
  }

  std::vector<duo::nn::Parameter*> parameters() override {
    return inner_->parameters();
  }
  void set_training(bool training) override { inner_->set_training(training); }

  std::unique_ptr<duo::models::FeatureExtractor> clone() const override {
    auto inner = inner_->clone();
    if (!inner) return nullptr;
    const std::uint64_t caller = trace::current();
    return std::make_unique<TimedExtractor>(
        role_, std::move(inner), caller != 0 ? caller : parent_hint_);
  }

  std::int64_t feature_dim() const override { return inner_->feature_dim(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<duo::models::FeatureExtractor> inner_;
  std::uint64_t parent_hint_;
  std::string extract_name_;
  std::string batch_name_;
  std::string backward_name_;
  std::string role_;
};

}  // namespace perfbench
