#include "sim/machine.h"

#include <cmath>
#include <string>
#include <utility>

#include "util/error.h"

namespace psk::sim {

ClusterConfig ClusterConfig::paper_testbed(int nodes) {
  ClusterConfig config;
  config.nodes = nodes;
  config.cores_per_node = 2;
  config.cpu_speed = 1.0;
  config.link_bandwidth_bps = 60.0e6;  // effective MPICH/GigE payload rate
  config.latency = 50e-6;
  return config;
}

Machine::Machine(const ClusterConfig& config)
    : config_(config),
      engine_(config.seed),
      network_(engine_,
               NetworkConfig{.node_count = config.nodes,
                             .bandwidth_bps = config.link_bandwidth_bps,
                             .latency = config.latency,
                             .local_bandwidth_bps = config.local_bandwidth_bps,
                             .local_latency = config.local_latency,
                             .topology = config.topology}) {
  util::require(config.nodes >= 1, "Machine: need at least one node");
  nodes_.reserve(static_cast<std::size_t>(config.nodes));
  for (int i = 0; i < config.nodes; ++i) {
    nodes_.emplace_back(engine_, config.cores_per_node, config.cpu_speed);
    nodes_.back().set_memory_bandwidth(config.memory_bandwidth_bps);
  }
  crash_depth_.assign(static_cast<std::size_t>(config.nodes), 0);
}

void Machine::attach_obs(obs::Recorder* recorder) {
  obs_ = recorder;
  for (int i = 0; i < config_.nodes; ++i) {
    nodes_[static_cast<std::size_t>(i)].attach_obs(recorder, i);
  }
  network_.attach_obs(recorder);
  if (recorder != nullptr) {
    recorder->tracer().set_process_name(obs::Recorder::kNodePid, "cpu nodes");
    recorder->metrics().set_info("nodes", std::to_string(config_.nodes));
    recorder->metrics().set_info(
        "cores_per_node", std::to_string(config_.cores_per_node));
  }
}

CpuNode& Machine::node(int index) {
  util::require(index >= 0 && index < config_.nodes, [&] {
    return "Machine::node: index " + std::to_string(index) + " out of range";
  });
  return nodes_[static_cast<std::size_t>(index)];
}

void Machine::crash_node(int index) {
  CpuNode& target = node(index);  // validates the index
  ++crash_depth_[static_cast<std::size_t>(index)];
  target.push_stall();
  network_.push_link_fault(index);
}

void Machine::restore_node(int index) {
  node(index);
  util::require(crash_depth_[static_cast<std::size_t>(index)] > 0, [&] {
    return "Machine::restore_node: node " + std::to_string(index) +
           " is not crashed";
  });
  --crash_depth_[static_cast<std::size_t>(index)];
  nodes_[static_cast<std::size_t>(index)].pop_stall();
  network_.pop_link_fault(index);
}

bool Machine::node_up(int index) const {
  util::require(index >= 0 && index < config_.nodes, [&] {
    return "Machine::node_up: index " + std::to_string(index) + " out of range";
  });
  return crash_depth_[static_cast<std::size_t>(index)] == 0;
}

void Machine::stall_all_nodes() {
  for (CpuNode& n : nodes_) n.push_stall();
}

void Machine::resume_all_nodes() {
  for (CpuNode& n : nodes_) n.pop_stall();
}

void Machine::compute(int node_index, double work,
                      std::function<void()> on_complete, double mem_bytes) {
  double jittered = work;
  if (config_.cpu_jitter > 0 && work > 0) {
    jittered = work * engine_.rng().jitter(config_.cpu_jitter);
  }
  const double intensity = jittered > 0 ? mem_bytes / jittered : 0.0;
  node(node_index).submit(jittered, std::move(on_complete), intensity);
}

void Machine::transfer(int src, int dst, std::uint64_t bytes,
                       std::function<void()> on_complete) {
  std::uint64_t jittered = bytes;
  if (config_.net_jitter > 0 && bytes > 0) {
    const double scaled =
        static_cast<double>(bytes) * engine_.rng().jitter(config_.net_jitter);
    jittered = static_cast<std::uint64_t>(std::llround(std::max(1.0, scaled)));
  }
  network_.transfer(src, dst, jittered, std::move(on_complete));
}

}  // namespace psk::sim
