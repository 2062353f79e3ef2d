#include "ml/discriminant.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/lane_kernels.hpp"

namespace sidis::ml {

namespace {

/// Per-class moments plus the pooled covariance in one pass.
struct ClassMoments {
  std::vector<int> labels;
  std::vector<linalg::Vector> means;
  std::vector<linalg::Matrix> covs;
  std::vector<double> log_priors;
  linalg::Matrix pooled;
};

ClassMoments compute_moments(const Dataset& train) {
  train.validate();
  ClassMoments m;
  m.labels = train.labels();
  if (m.labels.size() < 2) {
    throw std::invalid_argument("discriminant fit: need at least 2 classes");
  }
  const std::size_t p = train.dim();
  m.pooled = linalg::Matrix(p, p, 0.0);
  double pooled_weight = 0.0;
  for (int label : m.labels) {
    const linalg::Matrix rows = train.rows_with_label(label);
    if (rows.rows() < 2) {
      throw std::invalid_argument("discriminant fit: class needs >= 2 samples");
    }
    m.means.push_back(linalg::row_mean(rows));
    m.covs.push_back(linalg::row_covariance(rows));
    m.log_priors.push_back(std::log(static_cast<double>(rows.rows()) /
                                    static_cast<double>(train.size())));
    const double w = static_cast<double>(rows.rows() - 1);
    m.pooled += m.covs.back() * w;
    pooled_weight += w;
  }
  m.pooled *= 1.0 / pooled_weight;
  return m;
}

}  // namespace

Qda::Qda(DiscriminantConfig config) : config_(config) {}

void Qda::fit(const Dataset& train) {
  const ClassMoments m = compute_moments(train);
  labels_ = m.labels;
  log_priors_ = m.log_priors;
  models_.clear();
  for (std::size_t c = 0; c < labels_.size(); ++c) {
    linalg::Matrix cov = m.covs[c];
    if (config_.shrinkage > 0.0) {
      cov = cov * (1.0 - config_.shrinkage) + m.pooled * config_.shrinkage;
    }
    models_.push_back(
        stats::MultivariateGaussian::from_moments(m.means[c], cov, config_.ridge));
  }
  pack_lanes();
}

Qda Qda::from_parts(std::vector<int> labels,
                    std::vector<stats::MultivariateGaussian> models,
                    std::vector<double> log_priors) {
  if (labels.size() != models.size() || labels.size() != log_priors.size() ||
      labels.size() < 2 ||
      std::any_of(models.begin(), models.end(), [&](const auto& g) {
        return g.dim() != models.front().dim();
      })) {
    throw std::invalid_argument("Qda::from_parts: inconsistent parts");
  }
  Qda qda;
  qda.labels_ = std::move(labels);
  qda.models_ = std::move(models);
  qda.log_priors_ = std::move(log_priors);
  qda.pack_lanes();
  return qda;
}

void Qda::pack_lanes() {
  const std::size_t classes = models_.size();
  const std::size_t n = models_.front().dim();
  lane_factors_.resize(n * (n + 1) / 2 * classes);
  lane_means_.resize(n * classes);
  lane_norms_.resize(classes);
  for (std::size_t c = 0; c < classes; ++c) {
    const linalg::Matrix& l = models_[c].cholesky().l;
    double* tri = lane_factors_.data() + c;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k <= i; ++k, tri += classes) *tri = l(i, k);
      lane_means_[i * classes + c] = models_[c].mean()[i];
    }
    lane_norms_[c] = models_[c].log_normalizer();
  }
}

linalg::Vector Qda::scores(const linalg::Vector& x) const {
  linalg::Matrix col(x.size(), 1);
  std::copy(x.begin(), x.end(), col.data().begin());
  const linalg::Matrix s = scores_batch(col);
  return linalg::Vector(s.data().begin(), s.data().end());
}

linalg::Matrix Qda::scores_batch(const linalg::Matrix& x_cols) const {
  if (models_.empty()) throw std::runtime_error("Qda: not fitted");
  const std::size_t lanes = x_cols.cols();
  const std::size_t classes = models_.size();
  linalg::Matrix s(classes, lanes);
  if (lanes < linalg::kWindowLanesMin) {
    // Classes as lanes, one window at a time: center the window on every
    // class mean, run one forward solve across all the classes' factors, and
    // finish each class with log_pdf_batch's normalizer and the prior.  Each
    // (window, class) score keeps the operation sequence of the other axis.
    const std::size_t n = models_.front().dim();
    if (x_cols.rows() != n) {
      throw std::invalid_argument("MultivariateGaussian: dimension mismatch");
    }
    std::vector<double> centered(n * classes), y(n * classes), d2(classes);
    for (std::size_t l = 0; l < lanes; ++l) {
      for (std::size_t i = 0; i < n; ++i) {
        const double xi = x_cols(i, l);
        const double* __restrict mean = lane_means_.data() + i * classes;
        double* __restrict crow = centered.data() + i * classes;
        for (std::size_t c = 0; c < classes; ++c) crow[c] = xi - mean[c];
      }
      linalg::lane_kernels().forward_solve_lanes(lane_factors_.data(), n, centered.data(),
                                                 classes, y.data(), d2.data());
      for (std::size_t c = 0; c < classes; ++c) {
        s(c, l) = -0.5 * (lane_norms_[c] + d2[c]) + log_priors_[c];
      }
    }
    return s;
  }
  linalg::Matrix centered, solve;  // grow-once scratch shared across classes
  for (std::size_t c = 0; c < models_.size(); ++c) {
    double* __restrict srow = s.row(c).data();
    models_[c].log_pdf_batch(x_cols, {srow, lanes}, centered, solve);
    const double lp = log_priors_[c];
    for (std::size_t l = 0; l < lanes; ++l) srow[l] += lp;
  }
  return s;
}

std::vector<ScoredPrediction> Qda::predict_scored_batch(
    const linalg::Matrix& x_cols) const {
  const linalg::Matrix s = scores_batch(x_cols);
  std::vector<ScoredPrediction> out(x_cols.cols());
  linalg::Vector col(s.rows());
  for (std::size_t l = 0; l < x_cols.cols(); ++l) {
    for (std::size_t c = 0; c < s.rows(); ++c) col[c] = s(c, l);
    out[l] = scored_from_scores(col, labels_);
  }
  return out;
}

int Qda::predict(const linalg::Vector& x) const {
  const linalg::Vector s = scores(x);
  const auto best = std::max_element(s.begin(), s.end());
  return labels_[static_cast<std::size_t>(best - s.begin())];
}

ScoredPrediction Qda::predict_scored(const linalg::Vector& x) const {
  return scored_from_scores(scores(x), labels_);
}

Lda::Lda(DiscriminantConfig config) : config_(config) {}

void Lda::fit(const Dataset& train) {
  const ClassMoments m = compute_moments(train);
  labels_ = m.labels;
  log_priors_ = m.log_priors;
  means_ = m.means;
  pooled_ = stats::MultivariateGaussian::from_moments(
      linalg::Vector(train.dim(), 0.0), m.pooled, config_.ridge);
}

linalg::Vector Lda::scores(const linalg::Vector& x) const {
  if (means_.empty()) throw std::runtime_error("Lda: not fitted");
  linalg::Vector s(means_.size());
  for (std::size_t c = 0; c < means_.size(); ++c) {
    // Shared covariance: the quadratic term is common, so the discriminant
    // reduces to -1/2 Mahalanobis distance to the class mean + prior.
    s[c] = -0.5 * pooled_.cholesky().mahalanobis_squared(linalg::sub(x, means_[c])) +
           log_priors_[c];
  }
  return s;
}

int Lda::predict(const linalg::Vector& x) const {
  const linalg::Vector s = scores(x);
  const auto best = std::max_element(s.begin(), s.end());
  return labels_[static_cast<std::size_t>(best - s.begin())];
}

ScoredPrediction Lda::predict_scored(const linalg::Vector& x) const {
  return scored_from_scores(scores(x), labels_);
}

}  // namespace sidis::ml
