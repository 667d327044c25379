#ifndef POWER_CORE_HISTOGRAM_H_
#define POWER_CORE_HISTOGRAM_H_

#include <cstddef>
#include <span>
#include <vector>

namespace power {

/// Attribute weights from the GREEN pair set (Eq. 7):
///   ω_k = Σ_{p ∈ Pg} s_p^k / Σ_{p ∈ Pg} Σ_t s_p^t.
/// Falls back to uniform weights when there are no GREEN pairs (or their
/// similarities sum to zero). The rows are folded in the order given.
std::vector<double> ComputeAttributeWeights(
    const std::vector<std::span<const double>>& green_sims, size_t m);

/// Weighted similarity ŝ = Σ_k ω_k · s^k (Eq. 8).
double WeightedSimilarity(std::span<const double> sims,
                          const std::vector<double>& weights);

/// Histogram over weighted similarities of GREEN/RED-labeled pairs (§6).
/// Each bin's Pr is the fraction of GREEN pairs among the labeled pairs that
/// fall into it; unlabeled (BLUE) pairs are then colored GREEN iff the Pr of
/// their bin exceeds 0.5.
class SimilarityHistogram {
 public:
  struct LabeledSample {
    double s;
    bool green;
  };

  struct Bin {
    double lo;   // inclusive
    double hi;   // exclusive (last bin inclusive)
    int green = 0;
    int total = 0;
  };

  /// `bins` fixed-width bins over [0, 1] (the paper's experiments use 20).
  static SimilarityHistogram EquiWidth(
      const std::vector<LabeledSample>& samples, int bins);

  /// Equi-depth variant (§6's "equi-depth histograms"): bin boundaries are
  /// sample quantiles so every bin holds (about) the same number of labeled
  /// pairs.
  static SimilarityHistogram EquiDepth(
      const std::vector<LabeledSample>& samples, int bins);

  /// Index of the bin containing s.
  int BinIndex(double s) const;

  /// Pr of the bin containing s. Empty bins inherit the Pr of the nearest
  /// non-empty bin; with no labeled samples at all this degrades to the
  /// prior Pr(s) = s (higher weighted similarity, likelier match).
  double GreenProbability(double s) const;

  const std::vector<Bin>& bins() const { return bins_; }

 private:
  std::vector<Bin> bins_;
};

}  // namespace power

#endif  // POWER_CORE_HISTOGRAM_H_
