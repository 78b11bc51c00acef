#include "core/single_source.h"

#include <algorithm>
#include <cmath>

#include "common/fnv.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace semsim {

SingleSourceIndex SingleSourceIndex::Build(const WalkIndex& index,
                                           size_t num_nodes,
                                           const ThreadPool* pool) {
  SEMSIM_TRACE_SPAN("semsim_single_source_build");
  SingleSourceIndex ss;
  ss.index_ = &index;
  ss.num_nodes_ = num_nodes;
  ss.num_walks_ = index.num_walks();
  ss.walk_length_ = index.walk_length();
  const size_t t = static_cast<size_t>(ss.walk_length_);

  // Bucket sizes from the live lengths alone, then one prefix sum.
  size_t num_buckets = static_cast<size_t>(ss.num_walks_) * t;
  ss.bucket_offsets_.assign(num_buckets + 1, 0);
  for (NodeId v = 0; v < num_nodes; ++v) {
    for (int w = 0; w < ss.num_walks_; ++w) {
      int len = index.WalkLiveLength(v, w);
      SEMSIM_DCHECK(len <= ss.walk_length_) << "live length past walk_length";
      for (int s = 0; s < len; ++s) {
        ++ss.bucket_offsets_[ss.BucketIndex(w, s) + 1];
      }
    }
  }
  for (size_t b = 1; b <= num_buckets; ++b) {
    ss.bucket_offsets_[b] += ss.bucket_offsets_[b - 1];
  }
  ss.entries_.resize(ss.bucket_offsets_.back());

  // Counting transpose, one walk id at a time: the buckets of walk w
  // are filled by a stable counting sort on position over the origins
  // in ascending order, so each bucket ends up in (position, origin)
  // order — the unique order of its keys — whatever the thread count.
  // Buckets of different walk ids are disjoint, so walk ids fan out
  // across the pool; each chunk owns one t·(n+1) cursor table.
  auto transpose = [&](size_t w_begin, size_t w_end) {
    const size_t row = num_nodes + 1;
    std::vector<size_t> cursor(t * row);
    for (size_t wi = w_begin; wi < w_end; ++wi) {
      const int w = static_cast<int>(wi);
      std::fill(cursor.begin(), cursor.end(), 0);
      for (NodeId v = 0; v < num_nodes; ++v) {
        const NodeId* walk = index.WalkData(v, w);
        int len = index.WalkLiveLength(v, w);
        for (int s = 0; s < len; ++s) {
          SEMSIM_DCHECK(walk[s] < num_nodes) << "walk step out of range";
          ++cursor[static_cast<size_t>(s) * row + walk[s] + 1];
        }
      }
      for (size_t s = 0; s < t; ++s) {
        size_t* c = cursor.data() + s * row;
        c[0] = ss.bucket_offsets_[ss.BucketIndex(w, static_cast<int>(s))];
        for (size_t p = 1; p < row; ++p) c[p] += c[p - 1];
      }
      for (NodeId v = 0; v < num_nodes; ++v) {
        const NodeId* walk = index.WalkData(v, w);
        int len = index.WalkLiveLength(v, w);
        for (int s = 0; s < len; ++s) {
          ss.entries_[cursor[static_cast<size_t>(s) * row + walk[s]]++] =
              Entry{walk[s], v};
        }
      }
    }
  };
  if (pool == nullptr) {
    transpose(0, static_cast<size_t>(ss.num_walks_));
  } else {
    pool->ParallelFor(0, static_cast<size_t>(ss.num_walks_), transpose);
  }
  return ss;
}

uint64_t SingleSourceIndex::Fingerprint() const {
  uint64_t h = Fnv1a64(bucket_offsets_.data(),
                       bucket_offsets_.size() * sizeof(size_t));
  return Fnv1a64(entries_.data(), entries_.size() * sizeof(Entry), h);
}

void SingleSourceIndex::EnumerateMeetings(NodeId u, int walk_cap,
                                          const CancelToken* cancel,
                                          QueryScratch& scratch) const {
  // met_stamp[v] == stamp → v already met u's current walk at an earlier
  // step. Stamps are unique per (epoch, walk), so stale entries from
  // earlier queries are invalidated by the epoch bump alone.
  uint64_t stamp_base =
      scratch.epoch() * (static_cast<uint64_t>(num_walks_) + 1);
  std::vector<WalkMeeting>& meetings = scratch.meetings;
  for (int w = 0; w < walk_cap; ++w) {
    if (cancel != nullptr && cancel->ShouldStop()) break;
    const NodeId* walk_u = index_->WalkData(u, w);
    int len = index_->WalkLiveLength(u, w);
    uint64_t stamp = stamp_base + static_cast<uint64_t>(w) + 1;
    for (int s = 0; s < len; ++s) {
      NodeId pos = walk_u[s];
      size_t b = BucketIndex(w, s);
      auto begin = entries_.begin() + static_cast<long>(bucket_offsets_[b]);
      auto end = entries_.begin() + static_cast<long>(bucket_offsets_[b + 1]);
      auto lo = std::lower_bound(
          begin, end, pos,
          [](const Entry& e, NodeId target) { return e.position < target; });
      for (auto it = lo; it != end && it->position == pos; ++it) {
        NodeId v = it->origin;
        if (v == u) continue;
        if (scratch.met_stamp[v] == stamp) continue;  // met earlier
        scratch.met_stamp[v] = stamp;
        meetings.push_back(WalkMeeting{v, w, s + 1});
      }
    }
  }
  std::sort(meetings.begin(), meetings.end(),
            [](const WalkMeeting& a, const WalkMeeting& b) {
              return a.node != b.node ? a.node < b.node : a.walk < b.walk;
            });
}

void SingleSourceIndex::FirstMeetingsInto(NodeId u,
                                          QueryScratch& scratch) const {
  scratch.BindShape(num_nodes_, num_walks_);
  scratch.BeginQuery();
  EnumerateMeetings(u, num_walks_, nullptr, scratch);
}

std::vector<SingleSourceIndex::Meeting> SingleSourceIndex::FirstMeetings(
    NodeId u) const {
  QueryScratch scratch;
  FirstMeetingsInto(u, scratch);
  return std::move(scratch.meetings);
}

std::vector<double> SingleSourceIndex::SimRankFrom(NodeId u,
                                                   double decay) const {
  SEMSIM_CHECK(decay > 0 && decay < 1);
  std::vector<double> scores(num_nodes_, 0.0);
  // Precompute c^s once per sweep; entries use the same std::pow the
  // per-meeting code used, so sums stay bit-identical.
  std::vector<double> decay_pow(static_cast<size_t>(walk_length_) + 1);
  for (int s = 0; s <= walk_length_; ++s) decay_pow[s] = std::pow(decay, s);
  for (const Meeting& m : FirstMeetings(u)) {
    scores[m.node] += decay_pow[m.step];
  }
  double inv = 1.0 / static_cast<double>(num_walks_);
  for (double& s : scores) s *= inv;
  scores[u] = 1.0;
  return scores;
}

void SingleSourceIndex::SemSimFromInto(NodeId u,
                                       const SemSimMcEstimator& estimator,
                                       const SemSimMcOptions& options,
                                       QueryScratch& scratch,
                                       std::vector<double>& out,
                                       McQueryStats* stats) const {
  SEMSIM_DCHECK(&estimator.index() == index_)
      << "estimator wraps a different walk index";
  scratch.BindShape(num_nodes_, num_walks_);
  scratch.BeginQuery();
  // Walk-budget degradation: enumerate (and later average over) only the
  // first n_b walks. Same enumeration, same order, same divisor as the
  // full sweep when the budget covers the index.
  const int budget = EffectiveWalkBudget(options, num_walks_);
  const CancelToken* cancel = options.cancel;
  EnumerateMeetings(u, budget, cancel, scratch);
  uint64_t epoch = scratch.epoch();
  // Stage counts for the whole sweep; published to the registry once at
  // the end (TopKFrom rides on this publish — it adds no queries of its
  // own), merged into the legacy out-param when one was passed.
  McQueryStats local;
  // Candidate-level semantic pruning (Algorithm 1 lines 2-3), evaluated
  // lazily at the first meeting of each candidate. The sem(u,v) computed
  // for the pruning decision is kept, so the final scaling loop reads it
  // back instead of paying a second LCA/IC evaluation per candidate.
  // Validity of sem_ok/sem_val is gated by the epoch stamp — no O(n)
  // reset between queries.
  size_t processed = 0;
  for (const WalkMeeting& m : scratch.meetings) {
    // Mid-sweep cancellation poll: cheap relative to the per-meeting
    // IS reweighting (each CoupledWalkScore pays d²-cost normalizers).
    if (cancel != nullptr && (processed++ & 255) == 0 &&
        cancel->ShouldStop()) {
      break;
    }
    NodeId v = m.node;
    if (scratch.sem_epoch[v] != epoch) {
      scratch.sem_epoch[v] = epoch;
      double s_uv = estimator.SemValue(u, v);
      scratch.sem_val[v] = s_uv;
      if (options.theta > 0 && s_uv <= options.theta) {
        scratch.sem_ok[v] = 0;
        ++local.sem_pruned_queries;
      } else {
        scratch.sem_ok[v] = 1;
      }
    }
    if (!scratch.sem_ok[v]) continue;
    ++local.met_walks;
    scratch.scores[v] += estimator.CoupledWalkScore(
        u, v, m.walk, m.step, options, &scratch.context, &local);
  }
  // Copy out with the final sem·(1/n_w) scaling, then restore the
  // all-zero invariant of scratch.scores by re-zeroing exactly the
  // entries this query's meetings touched.
  double inv = 1.0 / static_cast<double>(budget);
  out.resize(num_nodes_);
  for (NodeId v = 0; v < num_nodes_; ++v) {
    double s = scratch.scores[v];
    out[v] = s > 0 ? s * scratch.sem_val[v] * inv : s;
  }
  out[u] = 1.0;
  for (const WalkMeeting& m : scratch.meetings) scratch.scores[m.node] = 0.0;
  PublishQueryStats(local);
  if (stats != nullptr) stats->Merge(local);
}

std::vector<double> SingleSourceIndex::SemSimFrom(
    NodeId u, const SemSimMcEstimator& estimator,
    const SemSimMcOptions& options, McQueryStats* stats) const {
  QueryScratch scratch;
  std::vector<double> scores;
  SemSimFromInto(u, estimator, options, scratch, scores, stats);
  return scores;
}

std::vector<Scored> SingleSourceIndex::TopKFrom(
    NodeId u, size_t k, const SemSimMcEstimator& estimator,
    const SemSimMcOptions& options, McQueryStats* stats) const {
  std::vector<double> scores = SemSimFrom(u, estimator, options, stats);
  return CallbackTopK(num_nodes_, u, k, nullptr,
                      [&](NodeId v) { return scores[v]; });
}

std::vector<Scored> SingleSourceIndex::TopKFrom(
    NodeId u, size_t k, const SemSimMcEstimator& estimator,
    const SemSimMcOptions& options, QueryScratch& scratch,
    McQueryStats* stats) const {
  SemSimFromInto(u, estimator, options, scratch, scratch.result, stats);
  return CallbackTopK(num_nodes_, u, k, nullptr,
                      [&](NodeId v) { return scratch.result[v]; });
}

}  // namespace semsim
