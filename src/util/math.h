#ifndef SURVEYOR_UTIL_MATH_H_
#define SURVEYOR_UTIL_MATH_H_

#include <cstdint>
#include <vector>

namespace surveyor {

/// Natural log of k! (via lgamma_r; thread-safe).
double LogFactorial(int64_t k);

/// Log of the Poisson pmf: k * log(lambda) - lambda - log(k!).
/// `lambda` is clamped below by `kMinPoissonRate` so that zero-rate
/// components remain numerically usable during EM.
double PoissonLogPmf(int64_t k, double lambda);

/// Poisson pmf (exp of the above).
double PoissonPmf(int64_t k, double lambda);

/// Smallest rate used in Poisson likelihoods; prevents log(0).
inline constexpr double kMinPoissonRate = 1e-12;

/// log(exp(a) + exp(b)) computed stably.
double LogSumExp(double a, double b);

/// Stable logistic function 1 / (1 + exp(-x)).
double Sigmoid(double x);

/// Natural logarithm with clamping at kMinPoissonRate.
double SafeLog(double x);

/// Mean of a vector; 0 for empty input.
double Mean(const std::vector<double>& values);

/// Population variance of a vector; 0 for fewer than 2 elements.
double Variance(const std::vector<double>& values);

/// The q-th percentile (q in [0, 100]) using linear interpolation between
/// order statistics. Input need not be sorted; empty input yields 0.
double Percentile(std::vector<double> values, double q);

/// Spearman rank correlation between two equally sized vectors.
/// Returns 0 for inputs shorter than 2. Ties receive average ranks.
double SpearmanCorrelation(const std::vector<double>& x,
                           const std::vector<double>& y);

/// Pearson correlation; returns 0 when either side has zero variance.
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y);

}  // namespace surveyor

#endif  // SURVEYOR_UTIL_MATH_H_
