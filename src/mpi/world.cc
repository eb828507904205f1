#include "mpi/world.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/error.h"

namespace psk::mpi {

std::vector<int> World::round_robin(int ranks, int nodes) {
  util::require(ranks >= 1, "World: need at least one rank");
  util::require(nodes >= 1, "World: need at least one node");
  std::vector<int> mapping(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    mapping[static_cast<std::size_t>(r)] = r % nodes;
  }
  return mapping;
}

World::World(sim::Machine& machine, int ranks, MpiConfig config)
    : World(machine, round_robin(ranks, machine.node_count()),
            std::move(config)) {}

World::World(sim::Machine& machine, std::vector<int> rank_to_node,
             MpiConfig config)
    : machine_(machine),
      engine_(machine, std::move(rank_to_node), std::move(config)) {
  const int ranks = engine_.rank_count();
  comms_.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    comms_.push_back(std::unique_ptr<Comm>(new Comm(*this, engine_, r)));
    if (machine.obs() != nullptr) comms_.back()->attach_obs(machine.obs());
  }
  if (machine.obs() != nullptr) {
    machine.obs()->metrics().set_info("ranks", std::to_string(ranks));
  }
  end_times_.assign(static_cast<std::size_t>(ranks), 0.0);
}

Comm& World::comm(int rank) {
  util::require(rank >= 0 && rank < size(), [&] {
    return "World::comm: invalid rank " + std::to_string(rank);
  });
  return *comms_[static_cast<std::size_t>(rank)];
}

void World::set_observer(CallObserver* observer) {
  for (auto& comm : comms_) comm->set_observer(observer);
}

sim::Task World::rank_wrapper(int rank, RankMain rank_main) {
  co_await rank_main(comm(rank));
  end_times_[static_cast<std::size_t>(rank)] =
      machine_.engine().now();
}

void World::launch(RankMain rank_main) {
  util::require(!launched_, "World::launch called twice");
  launched_ = true;
  for (int r = 0; r < size(); ++r) {
    machine_.engine().spawn(rank_wrapper(r, rank_main));
  }
}

sim::Time World::run() {
  util::require(launched_, "World::run: launch a rank program first");
  machine_.engine().run();
  return *std::max_element(end_times_.begin(), end_times_.end());
}

sim::Time World::parallel_time() const {
  return *std::max_element(end_times_.begin(), end_times_.end());
}

sim::Time World::rank_end_time(int rank) const {
  util::require(rank >= 0 && rank < size(), "rank_end_time: invalid rank");
  return end_times_[static_cast<std::size_t>(rank)];
}

}  // namespace psk::mpi
