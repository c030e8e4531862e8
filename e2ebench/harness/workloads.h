#ifndef GRALMATCH_E2EBENCH_WORKLOADS_H_
#define GRALMATCH_E2EBENCH_WORKLOADS_H_

/// \file workloads.h
/// The three benchmark workloads (see README.md for why each exists):
///
///  - stream_companies_lm: companies through IncrementalPipeline with a
///    fine-tuned TransformerMatcher — scoring and graph cleanup dominate.
///  - shard_securities_id: securities through a 2-shard ShardedPipeline
///    with HeuristicIdMatcher — blocking, routing and checkpoints dominate.
///  - serve_reads_under_updates: open-loop RPC reads against NetServer
///    while a writer applies and publishes corrections.

#include "harness/harness.h"

namespace gralmatch {
namespace e2e {

/// Names accepted by --workload.
bool IsWorkload(const std::string& name);

/// Runs one workload, adding its metrics (end-to-end ones untraced,
/// per-layer ones traced) and every failed operation or mismatch to
/// `sink`.
void RunWorkload(const Options& options, MetricSink* sink);

}  // namespace e2e
}  // namespace gralmatch

#endif  // GRALMATCH_E2EBENCH_WORKLOADS_H_
