#include "apps/common.h"

#include <cmath>
#include <string>

namespace psk::apps {

namespace {
int int_sqrt(int n) {
  int root = static_cast<int>(std::lround(std::sqrt(static_cast<double>(n))));
  while (root * root > n) --root;
  while ((root + 1) * (root + 1) <= n) ++root;
  return root;
}
}  // namespace

Grid2D::Grid2D(int ranks) {
  util::require(ranks >= 1, "Grid2D: need at least one rank");
  // Largest factorization rows x cols with rows <= cols (NPB's setup).
  rows_ = int_sqrt(ranks);
  while (ranks % rows_ != 0) --rows_;
  cols_ = ranks / rows_;
}

int Grid2D::at(int row, int col) const {
  const int r = ((row % rows_) + rows_) % rows_;
  const int c = ((col % cols_) + cols_) % cols_;
  return r * cols_ + c;
}

int Grid2D::north_open(int rank) const {
  const int r = row_of(rank);
  return r > 0 ? at(r - 1, col_of(rank)) : -1;
}

int Grid2D::south_open(int rank) const {
  const int r = row_of(rank);
  return r + 1 < rows_ ? at(r + 1, col_of(rank)) : -1;
}

int Grid2D::west_open(int rank) const {
  const int c = col_of(rank);
  return c > 0 ? at(row_of(rank), c - 1) : -1;
}

int Grid2D::east_open(int rank) const {
  const int c = col_of(rank);
  return c + 1 < cols_ ? at(row_of(rank), c + 1) : -1;
}

int Grid2D::transpose(int rank) const {
  util::require(rows_ == cols_, [&] {
    return "Grid2D::transpose requires a square grid, got " +
           std::to_string(rows_) + "x" + std::to_string(cols_);
  });
  return at(col_of(rank), row_of(rank));
}

sim::Task neighbor_exchange(mpi::Comm& comm, std::vector<NeighborXfer> xfers,
                            double interior_work) {
  std::vector<mpi::Request> requests;
  requests.reserve(xfers.size() * 2);
  for (const NeighborXfer& xfer : xfers) {
    if (xfer.recv_from >= 0) {
      requests.push_back(comm.irecv(xfer.recv_from, xfer.bytes, xfer.tag));
    }
  }
  if (interior_work > 0) co_await comm.compute(interior_work);
  for (const NeighborXfer& xfer : xfers) {
    if (xfer.send_to >= 0) {
      requests.push_back(comm.isend(xfer.send_to, xfer.bytes, xfer.tag));
    }
  }
  co_await comm.waitall(std::move(requests));
}

}  // namespace psk::apps
