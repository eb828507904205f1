// Processor-sharing CPU node model with a shared memory bus.
//
// A node has `cores` identical cores of a given speed.  All runnable jobs on
// the node share the cores equally (classic processor-sharing / Linux CFS
// idealization): with n runnable jobs each progresses at
//     speed * min(1, cores / n)   work-seconds per second.
// Persistent "load" jobs model competing compute-intensive processes (the
// paper's sharing scenarios): they occupy share forever and never complete.
//
// Jobs may additionally declare a memory intensity (bytes touched per
// work-second).  The node's memory bus has finite bandwidth shared by all
// jobs; when the aggregate demand exceeds it, every memory-dependent job is
// throttled proportionally.  This models the paper's section 2 criterion 2
// (memory activity): a memory-bound competitor slows a memory-bound
// application even when cores are free.
//
// Rates change only when jobs arrive or depart, so the node advances lazily:
// on every membership change it accounts the work done since the last change
// and reschedules the single pending completion event.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "obs/recorder.h"
#include "sim/engine.h"
#include "sim/time.h"

namespace psk::sim {

class CpuNode {
 public:
  CpuNode(Engine& engine, int cores, double speed);

  CpuNode(CpuNode&&) = default;
  CpuNode(const CpuNode&) = delete;
  CpuNode& operator=(const CpuNode&) = delete;

  /// Submits `work` work-seconds of computation; `on_complete` runs when the
  /// job has received that much CPU.  Zero/negative work completes at the
  /// next event boundary (still asynchronously, preserving event ordering).
  /// `mem_bytes_per_work` is the job's memory intensity (0 = cache-resident).
  void submit(double work, std::function<void()> on_complete,
              double mem_bytes_per_work = 0.0);

  /// Adds `count` persistent competing compute processes with the given
  /// memory intensity.
  void add_load(int count, double mem_bytes_per_work = 0.0);

  /// Removes up to `count` persistent competing processes.
  void remove_load(int count);

  /// Fault hooks: while the stall depth is positive the node makes no
  /// progress at all (crashed node, transient OS stall, or a coordinated
  /// checkpoint freeze).  Depths nest so overlapping causes compose -- a
  /// crash during a checkpoint freeze keeps the node down until both end.
  /// Jobs are not lost; they resume where they stopped when the last cause
  /// clears (rollback cost is modelled separately by psk::fault).
  void push_stall();
  void pop_stall();
  bool stalled() const { return stall_depth_ > 0; }

  /// Scheduler-unfairness factor applied to *application* jobs while the
  /// node is oversubscribed (more runnable jobs than cores).  Real
  /// schedulers do not divide time perfectly evenly among competitors; the
  /// sharing scenarios flutter this around 1.0 over time, which is the main
  /// source of skeleton-vs-application measurement divergence under CPU
  /// sharing.  Has no effect while the node is not contended.
  void set_contention_unfairness(double factor);

  int cores() const { return cores_; }
  double speed() const { return speed_; }

  /// Changes the node's core speed (heterogeneous clusters, DVFS).  Takes
  /// effect immediately for running jobs.
  void set_speed(double speed);
  int load_processes() const { return load_; }

  /// Current per-job CPU progress rate in work-seconds per second (before
  /// memory throttling).
  double per_job_rate() const;

  /// Memory-bus capacity in bytes/second (default: effectively unlimited).
  void set_memory_bandwidth(double bytes_per_second);

  /// Current throttle factor applied to memory-dependent jobs (1 = no bus
  /// contention).
  double memory_throttle() const;

  /// Starts feeding the recorder: busy/stall seconds counters, a
  /// time-weighted utilization gauge, and "cpu-stall" spans on the node
  /// track.  Instrument handles are resolved here once; with no recorder
  /// attached every hot-path hook is a single null check.
  void attach_obs(obs::Recorder* recorder, int node_id);

 private:
  struct Job {
    double remaining;  // work-seconds still owed; load jobs use +infinity
    std::function<void()> on_complete;
    bool is_load = false;
    double mem_intensity = 0;  // bytes per work-second
  };

  /// Accounts work done by all jobs between last_sync_ and now.
  void sync();

  /// Re-schedules the single completion event for the job that will finish
  /// first at the current rate.
  void reschedule();

  void on_completion_event();

  /// Pushes the current utilization to the gauge; no-op when not observed.
  void observe_state();

  Engine& engine_;
  int cores_;
  double speed_;
  int stall_depth_ = 0;
  double unfairness_ = 1.0;
  double mem_bandwidth_ = 1e300;  // effectively unlimited by default
  int load_ = 0;
  std::vector<Job> jobs_;
  Time last_sync_ = 0.0;
  EventQueue::Handle pending_;

  // Observability handles; null when the node is unobserved.
  obs::Recorder* obs_ = nullptr;
  int obs_node_id_ = 0;
  obs::Counter* obs_busy_seconds_ = nullptr;
  obs::Counter* obs_stall_seconds_ = nullptr;
  obs::Gauge* obs_utilization_ = nullptr;
  obs::Tracer::SpanId stall_span_ = obs::Tracer::kNoSpan;
};

}  // namespace psk::sim
