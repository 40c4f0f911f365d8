#ifndef ZEUS_CLUSTER_METRICS_TEXT_H_
#define ZEUS_CLUSTER_METRICS_TEXT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/metrics.h"

namespace zeus::cluster {

// Cluster-level health counters the router maintains alongside the
// engine-level GroupStats it aggregates from its shards.
struct ClusterHealth {
  int64_t failovers = 0;
  int64_t rehomed_datasets = 0;
  int64_t dead_shards = 0;

  // Replication / certain-answer contract.
  int64_t replication = 1;       // configured replicas per dataset
  int64_t replicas_behind = 0;   // live target replicas below committed
  int64_t read_failovers = 0;    // reads served by a non-primary replica
  int64_t certain_answers = 0;
  int64_t degraded_answers = 0;
  int64_t plan_resyncs = 0;      // kSyncPlans fan-outs that landed

  // Per-dataset placement, for the `dataset="..."` labelled gauges (and
  // for operators / CI to find the primary worth killing in a drill).
  struct DatasetPlacement {
    std::string dataset;
    int primary = -1;            // current ring owner (-1: no alive shard)
    int replicas = 0;            // live holders
    uint64_t committed_epoch = 0;
  };
  std::vector<DatasetPlacement> placements;
};

// Renders GroupStats (+ cluster health) in the Prometheus text exposition
// format (version 0.0.4): `# HELP` / `# TYPE` preambles, counters suffixed
// _total, histograms as cumulative `le` buckets with +Inf, per-shard
// breakdowns as `shard="<id>"` labels. This is what the router and every
// shard serve on GET /metrics; tests/metrics_text_test.cc pins the format.
std::string PrometheusText(const engine::GroupStats& stats,
                           const ClusterHealth& health);

}  // namespace zeus::cluster

#endif  // ZEUS_CLUSTER_METRICS_TEXT_H_
