// Linear and quadratic discriminant analysis (the paper's fitcdiscr):
// Gaussian class-conditional models with shared (LDA) or per-class (QDA)
// covariance, maximum-a-posteriori decision rule with empirical priors.
#pragma once

#include <vector>

#include "ml/classifier.hpp"
#include "stats/gaussian.hpp"

namespace sidis::ml {

struct DiscriminantConfig {
  /// Diagonal ridge added to covariances; automatically escalated when a
  /// class covariance is singular (common when traces ~ features).
  double ridge = 1e-8;
  /// Blend each class covariance toward the pooled one:
  /// sigma_c' = (1-s) sigma_c + s sigma_pooled.  0 = pure QDA.
  double shrinkage = 0.0;
};

/// Quadratic discriminant analysis: per-class mean and covariance.
class Qda : public Classifier {
 public:
  explicit Qda(DiscriminantConfig config = {});

  void fit(const Dataset& train) override;
  int predict(const linalg::Vector& x) const override;
  ScoredPrediction predict_scored(const linalg::Vector& x) const override;

  /// Lane-vectorized override over scores_batch, then the argmax/runner-up
  /// scan per column.  Bit-identical to predict_scored per column.
  std::vector<ScoredPrediction> predict_scored_batch(
      const linalg::Matrix& x_cols) const override;

  std::string name() const override { return "QDA"; }

  /// Score surface for sequence decoding: log p(x|c) + log prior per class,
  /// so a log-softmax over class_scores IS the per-window log-posterior.
  linalg::Vector class_scores(const linalg::Vector& x) const override {
    return scores(x);
  }
  const std::vector<int>& score_labels() const override { return labels_; }
  linalg::Matrix class_scores_batch(const linalg::Matrix& x_cols) const override {
    return scores_batch(x_cols);
  }

  /// Per-class posterior log-likelihoods (unnormalized), label order matches
  /// `labels()`: models()[c].log_pdf(x) + log_priors()[c], bit for bit.  A
  /// one-window scores_batch.
  linalg::Vector scores(const linalg::Vector& x) const;

  /// Batched scores: `x_cols` is (dim x lanes), columns as samples; returns
  /// (classes x lanes), column l bit-identical to scores(column l).  At
  /// linalg::kWindowLanesMin windows or more, one triangular solve per class
  /// sweeps the windows as lanes (each factor row loads once per batch);
  /// below that, one solve per window sweeps the classes as lanes over the
  /// packed factors.
  linalg::Matrix scores_batch(const linalg::Matrix& x_cols) const;
  const std::vector<int>& labels() const { return labels_; }
  const std::vector<stats::MultivariateGaussian>& models() const { return models_; }
  const std::vector<double>& log_priors() const { return log_priors_; }

  /// Rebuilds a fitted model from stored parts (template persistence).
  static Qda from_parts(std::vector<int> labels,
                        std::vector<stats::MultivariateGaussian> models,
                        std::vector<double> log_priors);

 private:
  /// Builds the class-lane form below from models_.  fit() and from_parts()
  /// call it, so a fitted model holds no state that is filled in later.
  void pack_lanes();

  DiscriminantConfig config_;
  std::vector<int> labels_;
  std::vector<stats::MultivariateGaussian> models_;
  std::vector<double> log_priors_;
  /// models_ with the classes as lanes, for windows scored alone: the lower
  /// Cholesky triangles in linalg::LaneKernels::forward_solve_lanes' packing,
  /// the means as a (dim x classes) block, and each class's log_normalizer.
  std::vector<double> lane_factors_, lane_means_, lane_norms_;
};

/// Linear discriminant analysis: class means with one pooled covariance.
class Lda : public Classifier {
 public:
  explicit Lda(DiscriminantConfig config = {});

  void fit(const Dataset& train) override;
  int predict(const linalg::Vector& x) const override;
  ScoredPrediction predict_scored(const linalg::Vector& x) const override;
  std::string name() const override { return "LDA"; }

  /// Discriminant scores share one pooled-covariance constant across classes,
  /// so the log-softmax posterior is exact up to that cancelled constant.
  linalg::Vector class_scores(const linalg::Vector& x) const override {
    return scores(x);
  }
  const std::vector<int>& score_labels() const override { return labels_; }

  linalg::Vector scores(const linalg::Vector& x) const;
  const std::vector<int>& labels() const { return labels_; }

 private:
  DiscriminantConfig config_;
  std::vector<int> labels_;
  std::vector<linalg::Vector> means_;
  stats::MultivariateGaussian pooled_;  ///< zero-mean pooled covariance model
  std::vector<double> log_priors_;
};

}  // namespace sidis::ml
