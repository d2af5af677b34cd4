// Test helpers for state lanes: an mpc::PackedShareMatrix of state_bits rows
// by N columns, column v holding vertex v's initial state (bit i in row i),
// and conversions between a matrix and its one-byte-per-bit columns.
#ifndef TESTS_LANE_UTIL_H_
#define TESTS_LANE_UTIL_H_

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "src/mpc/packed.h"

namespace dstress::lanes {

// Checks `lane` column by column against one-byte-per-bit states, and that
// the lanes past N in each row's last word are zero (the cleartext solo
// path copies a lane's rows word for word into its arena).
inline void ExpectLaneEq(const mpc::PackedShareMatrix& lane,
                         const std::vector<mpc::BitVector>& states) {
  ASSERT_EQ(lane.instances(), states.size());
  for (size_t v = 0; v < states.size(); v++) {
    ASSERT_EQ(lane.Instance(v), states[v]) << "column " << v;
  }
  const size_t tail = lane.instances() % 64;
  if (tail == 0) {
    return;
  }
  for (size_t r = 0; r < lane.rows(); r++) {
    EXPECT_EQ(lane.row(r)[lane.words_per_row() - 1] >> tail, 0u) << "row " << r;
  }
}

// Packs same-length one-byte-per-bit vectors into a matrix; instances[j]
// becomes column j.
inline mpc::PackedShareMatrix FromInstances(const std::vector<mpc::BitVector>& instances) {
  mpc::PackedShareMatrix m(instances.empty() ? 0 : instances[0].size(), instances.size());
  for (size_t j = 0; j < instances.size(); j++) {
    m.SetInstance(j, instances[j]);
  }
  return m;
}

// Every column of `m` as a one-byte-per-bit vector.
inline std::vector<mpc::BitVector> ToInstances(const mpc::PackedShareMatrix& m) {
  std::vector<mpc::BitVector> out;
  out.reserve(m.instances());
  for (size_t j = 0; j < m.instances(); j++) {
    out.push_back(m.Instance(j));
  }
  return out;
}

}  // namespace dstress::lanes

#endif  // TESTS_LANE_UTIL_H_
