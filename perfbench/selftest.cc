// Self-tests of the benchmark's pure parts (schedule.h). Run with
// `python3 perfbench/run.py --self-test`; exits non-zero when any check
// fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "datasets/aminer_gen.h"
#include "perfbench/schedule.h"
#include "perfbench/workloads.h"

namespace semsim::perfbench {
namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

void ScheduleIsAFunctionOfTheSeed() {
  AminerOptions options;
  options.num_authors = 200;
  options.seed = 7;
  Result<Dataset> dataset = GenerateAminer(options);
  Check(dataset.ok(), "generate a small AMiner graph");
  if (!dataset.ok()) return;
  const Hin& graph = dataset->graph;
  const std::vector<NodeId> authors = AuthorNodes(graph);
  for (const WorkloadSpec& spec : kWorkloads) {
    EndpointSampler a = WorkloadEndpoints(spec, graph);
    EndpointSampler b = WorkloadEndpoints(spec, graph);
    const std::string first = ScheduleBytes(spec, a, authors, 11, 500);
    const std::string again = ScheduleBytes(spec, b, authors, 11, 500);
    const std::string other = ScheduleBytes(spec, a, authors, 12, 500);
    std::string what = std::string(spec.name) +
                       ": same seed gives a byte-identical request and "
                       "write schedule";
    Check(!first.empty() && first == again, what.c_str());
    what = std::string(spec.name) + ": another seed gives another schedule";
    Check(first != other, what.c_str());
  }
}

void ZipfMatchesTargetFrequencies() {
  constexpr size_t kNodes = 50;
  constexpr double kExponent = 1.1;
  constexpr int kDraws = 400000;
  std::vector<NodeId> ranking(kNodes);
  // Popularity order deliberately differs from id order.
  for (size_t r = 0; r < kNodes; ++r) {
    ranking[r] = static_cast<NodeId>(kNodes - 1 - r);
  }
  EndpointSampler sampler(ranking, kExponent);
  std::vector<int> counts(kNodes, 0);
  Rng rng(3);
  for (int i = 0; i < kDraws; ++i) ++counts[sampler.Draw(rng)];
  double norm = 0;
  for (size_t r = 0; r < kNodes; ++r) norm += std::pow(r + 1.0, -kExponent);
  double worst_sigma = 0;
  for (size_t r = 0; r < kNodes; ++r) {
    const double p = std::pow(r + 1.0, -kExponent) / norm;
    const double expected = p * kDraws;
    const double sigma = std::sqrt(kDraws * p * (1 - p));
    worst_sigma = std::max(
        worst_sigma, std::fabs(counts[ranking[r]] - expected) / sigma);
  }
  std::printf("      worst rank deviation: %.2f sigma\n", worst_sigma);
  Check(worst_sigma < 5, "Zipf(1.1) sampler matches its target frequencies");

  EndpointSampler uniform(ranking, 0.0);
  std::vector<int> ucounts(kNodes, 0);
  for (int i = 0; i < kDraws; ++i) ++ucounts[uniform.Draw(rng)];
  const double p = 1.0 / kNodes;
  double worst = 0;
  for (int c : ucounts) {
    worst = std::max(worst, std::fabs(c - p * kDraws) /
                                std::sqrt(kDraws * p * (1 - p)));
  }
  Check(worst < 5, "exponent 0 samples uniformly");
}

void PercentileRefusesThinTails() {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i);
  Check(!Percentile(samples, 0.995).has_value(),
        "p99.5 of 1000 samples (5 beyond) is refused");
  std::optional<double> p99 = Percentile(samples, 0.99);
  Check(p99.has_value() && *p99 == 990,
        "p99 of 1000 samples (10 beyond) is the 990th");
  std::vector<double> few(samples.begin(), samples.begin() + 999);
  Check(!Percentile(few, 0.99).has_value(),
        "p99 of 999 samples (9 beyond) is refused");
  std::optional<double> p50 = Percentile(samples, 0.5);
  Check(p50.has_value() && *p50 == 500, "p50 of 1..1000 is 500");
  samples.back() = INFINITY;
  p99 = Percentile(samples, 0.99);
  Check(p99.has_value() && *p99 == 990,
        "an infinitely slow request stays beyond p99");
}

}  // namespace
}  // namespace semsim::perfbench

int main() {
  semsim::perfbench::ScheduleIsAFunctionOfTheSeed();
  semsim::perfbench::ZipfMatchesTargetFrequencies();
  semsim::perfbench::PercentileRefusesThinTails();
  if (semsim::perfbench::failures > 0) {
    std::printf("%d self-test(s) failed\n", semsim::perfbench::failures);
    return 1;
  }
  std::printf("all self-tests passed\n");
  return 0;
}
