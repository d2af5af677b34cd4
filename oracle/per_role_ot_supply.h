// The per-role IKNP baseline behind the runtime's triple-supply interface.
//
// Before the node-pair TripleFactory, each (role group, member) of a run
// drew triples from its own OtTripleSource: a base-OT setup per peer per
// role, and one Extend per phase sized to the role's draw. This supply
// keeps exactly that protocol (one persistent source per (tag, member),
// PRG RolePrg(0x77, (tag << 8) | member), session
// kOfflineSessionNamespace | tag) and runs it a demand wave at a time. At
// one scenario lane the runtime enqueues one demand per role per phase,
// equal to the role's single draw, so a run reproduces the retired
// per-role path's figure and per-node traffic bit for bit
// (tests/triple_factory_test.cc pins this with golden digests).
//
// It is the same-run baseline of the factory: triple_factory_test checks
// online traffic against it, and bench_fig6's `secure-ot` rows time it
// (check_bench.py --ot-min-speedup).
#ifndef ORACLE_PER_ROLE_OT_SUPPLY_H_
#define ORACLE_PER_ROLE_OT_SUPPLY_H_

#include <cstdint>

#include "src/core/runtime.h"

namespace dstress::oracle {

// The Runtime supply maker for the per-role baseline of a run seeded
// `run_seed` (core::RuntimeConfig::seed).
core::Runtime::TripleSupplyMaker PerRoleOtSupplyMaker(uint64_t run_seed);

}  // namespace dstress::oracle

#endif  // ORACLE_PER_ROLE_OT_SUPPLY_H_
