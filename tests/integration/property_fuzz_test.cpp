// Randomized property tests with independent oracles:
//  - the placement kernel against a closed-form max-startable-nodes formula
//    and apply/release round-trip identities;
//  - the kernel's aggregate bound against the full rack walk, and its
//    allocation-free rack order against a std::stable_sort reference, on
//    states whose racks tie;
//  - the kernel's monotonicity in demand and in free state, by brute force;
//  - the into-form kernel against compute_take, from a plan dirtied by
//    another job and policy;
//  - profile fitting against brute-force probing of state_at().
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sched/profile.hpp"
#include "testing/builders.hpp"
#include "testing/equality.hpp"

namespace dmsched {
namespace {

using testing::expect_plans_equal;
using testing::job;

constexpr int kRounds = 300;

ClusterConfig fuzz_config(Rng& rng) {
  ClusterConfig c;
  c.name = "fuzz";
  c.nodes_per_rack = static_cast<std::int32_t>(rng.uniform_int(2, 8));
  c.total_nodes =
      c.nodes_per_rack * static_cast<std::int32_t>(rng.uniform_int(1, 6));
  c.local_mem_per_node = gib(rng.uniform_int(16, 128));
  c.pool_per_rack = rng.bernoulli(0.7) ? gib(rng.uniform_int(0, 256))
                                       : Bytes{0};
  c.global_pool = rng.bernoulli(0.4) ? gib(rng.uniform_int(0, 512))
                                     : Bytes{0};
  return c;
}

ResourceState fuzz_state(Rng& rng, const ClusterConfig& c) {
  ResourceState s = empty_state(c);
  for (std::size_t r = 0; r < s.free_nodes.size(); ++r) {
    s.free_nodes[r] =
        static_cast<std::int32_t>(rng.uniform_int(0, s.free_nodes[r]));
    if (!s.pool_free[r].is_zero()) {
      s.pool_free[r] = gib(rng.uniform_int(
          0, s.pool_free[r].count() / kGiB.count()));
    }
  }
  if (!s.global_free.is_zero()) {
    s.global_free =
        gib(rng.uniform_int(0, s.global_free.count() / kGiB.count()));
  }
  return s;
}

Job fuzz_job(Rng& rng, const ClusterConfig& c) {
  Job j = job(0)
              .nodes(static_cast<std::int32_t>(
                  rng.uniform_int(1, c.total_nodes + 2)))
              .mem_gib(static_cast<double>(rng.uniform_int(
                  1, 2 * c.local_mem_per_node.count() / kGiB.count())))
              .runtime_h(rng.uniform(0.1, 5.0));
  return j;
}

/// Independent oracle: the maximum startable nodes for a deficit-d job
/// under rack-then-global routing.
std::int64_t max_startable(const ResourceState& s, Bytes d) {
  if (d.is_zero()) {
    std::int64_t total = 0;
    for (const auto f : s.free_nodes) total += f;
    return total;
  }
  std::int64_t via_rack = 0;
  std::int64_t spare = 0;
  for (std::size_t r = 0; r < s.free_nodes.size(); ++r) {
    const std::int64_t funded =
        std::min<std::int64_t>(s.free_nodes[r], s.pool_free[r].count() / d.count());
    via_rack += funded;
    spare += s.free_nodes[r] - funded;
  }
  const std::int64_t via_global =
      std::min(spare, s.global_free.count() / d.count());
  return via_rack + via_global;
}

TEST(PlacementFuzz, ComputeTakeMatchesClosedFormFeasibility) {
  Rng rng(2024);
  const PlacementPolicy policy{NodeSelection::kFirstFit,
                               PoolRouting::kRackThenGlobal};
  for (int round = 0; round < kRounds; ++round) {
    const ClusterConfig c = fuzz_config(rng);
    const ResourceState s = fuzz_state(rng, c);
    const Job j = fuzz_job(rng, c);
    const Bytes d =
        j.mem_per_node - min(j.mem_per_node, c.local_mem_per_node);
    const bool expect_fit = max_startable(s, d) >= j.nodes;
    const auto plan = compute_take(s, c, j, policy);
    EXPECT_EQ(plan.has_value(), expect_fit)
        << "round " << round << ": nodes=" << j.nodes
        << " deficit=" << d.count();
  }
}

TEST(PlacementFuzz, PlansAreInternallyConsistent) {
  Rng rng(77);
  for (int round = 0; round < kRounds; ++round) {
    const ClusterConfig c = fuzz_config(rng);
    const ResourceState s = fuzz_state(rng, c);
    const Job j = fuzz_job(rng, c);
    for (const NodeSelection sel :
         {NodeSelection::kFirstFit, NodeSelection::kPackRacks,
          NodeSelection::kSpreadRacks, NodeSelection::kPoolAware}) {
      for (const PoolRouting route :
           {PoolRouting::kRackOnly, PoolRouting::kRackThenGlobal,
            PoolRouting::kGlobalOnly}) {
        const auto plan = compute_take(s, c, j, {sel, route});
        if (!plan) continue;
        EXPECT_EQ(plan->node_total(), j.nodes);
        EXPECT_EQ(plan->local_per_node + plan->far_per_node, j.mem_per_node);
        EXPECT_LE(plan->local_per_node, c.local_mem_per_node);
        const Bytes far_needed =
            plan->far_per_node * static_cast<std::int64_t>(j.nodes);
        EXPECT_EQ(plan->rack_pool_total() + plan->global_total(), far_needed);
        if (route == PoolRouting::kRackOnly) {
          EXPECT_TRUE(plan->global_total().is_zero());
        }
        if (route == PoolRouting::kGlobalOnly) {
          EXPECT_TRUE(plan->rack_pool_total().is_zero());
        }
        EXPECT_TRUE(can_apply(s, *plan));
        // apply/release round trip restores the state exactly
        ResourceState mutated = s;
        apply_take(mutated, *plan);
        release_take(mutated, *plan);
        EXPECT_EQ(mutated.free_nodes, s.free_nodes);
        EXPECT_EQ(mutated.pool_free, s.pool_free);
        EXPECT_EQ(mutated.global_free, s.global_free);
      }
    }
  }
}

TEST(PlacementFuzz, MoreResourcesNeverBreakFeasibility) {
  Rng rng(13);
  const PlacementPolicy policy{NodeSelection::kPoolAware,
                               PoolRouting::kRackThenGlobal};
  for (int round = 0; round < kRounds; ++round) {
    const ClusterConfig c = fuzz_config(rng);
    const ResourceState s = fuzz_state(rng, c);
    const Job j = fuzz_job(rng, c);
    if (!compute_take(s, c, j, policy)) continue;
    // grow every resource: the job must still fit
    ClusterConfig bigger = c;
    bigger.pool_per_rack += gib(std::int64_t{64});
    bigger.global_pool += gib(std::int64_t{64});
    ResourceState grown = s;
    for (std::size_t r = 0; r < grown.free_nodes.size(); ++r) {
      grown.pool_free[r] += gib(std::int64_t{64});
    }
    grown.global_free += gib(std::int64_t{64});
    EXPECT_TRUE(compute_take(grown, bigger, j, policy).has_value());
  }
}

/// fuzz_config plus, at random, a GPU axis and a burst buffer.
ClusterConfig fuzz_axes_config(Rng& rng) {
  ClusterConfig c = fuzz_config(rng);
  if (rng.bernoulli(0.5)) {
    c.gpus_per_node = static_cast<std::int32_t>(rng.uniform_int(1, 4));
  }
  if (rng.bernoulli(0.5)) c.bb_capacity = gib(rng.uniform_int(1, 64));
  return c;
}

/// Draw from {0, half, full} of each capacity, so racks often tie on free
/// nodes, free pool bytes, or both — the cases the rack order's tie-break
/// decides.
ResourceState tied_state(Rng& rng, const ClusterConfig& c) {
  ResourceState s = empty_state(c);
  const auto pick = [&](auto full) {
    return full * rng.uniform_int(0, 2) / 2;
  };
  for (std::size_t r = 0; r < s.free_nodes.size(); ++r) {
    s.free_nodes[r] = static_cast<std::int32_t>(pick(s.free_nodes[r]));
    s.pool_free[r] = Bytes{pick(s.pool_free[r].count())};
    if (r < s.free_gpus.size()) s.free_gpus[r] = pick(s.free_gpus[r]);
  }
  s.global_free = Bytes{pick(s.global_free.count())};
  s.bb_free = Bytes{pick(s.bb_free.count())};
  return s;
}

Job fuzz_axes_job(Rng& rng, const ClusterConfig& c) {
  Job j = fuzz_job(rng, c);
  if (c.has_gpus()) {
    j.gpus_per_node =
        static_cast<std::int32_t>(rng.uniform_int(0, c.gpus_per_node));
  }
  if (c.has_burst_buffer()) j.bb_bytes = gib(rng.uniform_int(0, 32));
  return j;
}

constexpr NodeSelection kSelections[] = {
    NodeSelection::kFirstFit, NodeSelection::kPackRacks,
    NodeSelection::kSpreadRacks, NodeSelection::kPoolAware};
constexpr PoolRouting kRoutings[] = {
    PoolRouting::kRackOnly, PoolRouting::kRackThenGlobal,
    PoolRouting::kGlobalOnly, PoolRouting::kRackNeighborGlobal};

TEST(PlacementFuzz, AggregateBoundNeverRejectsAPlaceableJob) {
  Rng rng(4242);
  std::size_t placed = 0;
  std::size_t pruned = 0;
  for (int round = 0; round < kRounds; ++round) {
    const ClusterConfig c = fuzz_axes_config(rng);
    const ResourceState s = tied_state(rng, c);
    const Job j = fuzz_axes_job(rng, c);
    for (const NodeSelection sel : kSelections) {
      for (const PoolRouting route : kRoutings) {
        for (const ResourceAxes axes :
             {ResourceAxes::memory_only(), ResourceAxes::all()}) {
          const PlacementPolicy policy{sel, route, axes};
          TakePlan full_plan;
          const bool full = detail::place_by_racks(s, c, j, policy, full_plan);
          const bool admits = detail::aggregate_admits(s, c, j, policy);
          if (full) {
            ++placed;
            EXPECT_TRUE(admits)
                << "round " << round << ": bound rejected a placeable job ("
                << to_string(sel) << ", " << to_string(route) << ")";
          }
          if (!admits) ++pruned;
          // The bounded kernel answers exactly as the full walk.
          const auto bounded = compute_take(s, c, j, policy);
          ASSERT_EQ(bounded.has_value(), full) << "round " << round;
          if (full) {
            EXPECT_EQ(bounded->node_total(), full_plan.node_total());
          }
        }
      }
    }
  }
  // Both outcomes must occur, or the property holds vacuously.
  EXPECT_GT(placed, 100u);
  EXPECT_GT(pruned, 100u);
}

/// Reference order: std::stable_sort of the rack indices by the selection's
/// key.
std::vector<RackId> reference_rack_order(const ResourceState& s,
                                         NodeSelection sel, bool deficit) {
  std::vector<RackId> order(s.free_nodes.size());
  std::iota(order.begin(), order.end(), 0);
  const auto nodes = [&](RackId r) {
    return s.free_nodes[static_cast<std::size_t>(r)];
  };
  const auto pool = [&](RackId r) {
    return s.pool_free[static_cast<std::size_t>(r)].count();
  };
  const auto by = [&](auto key) {
    std::stable_sort(order.begin(), order.end(),
                     [&](RackId a, RackId b) { return key(a) < key(b); });
  };
  switch (sel) {
    case NodeSelection::kFirstFit:
      break;
    case NodeSelection::kPackRacks:
      by([&](RackId r) { return -nodes(r); });
      break;
    case NodeSelection::kSpreadRacks:
      by(nodes);
      break;
    case NodeSelection::kPoolAware:
      if (deficit) {
        by([&](RackId r) { return -pool(r); });
      } else {
        by([&](RackId r) { return std::pair{pool(r), -nodes(r)}; });
      }
      break;
  }
  return order;
}

TEST(PlacementFuzz, RackOrderMatchesStableSortReference) {
  Rng rng(9001);
  std::vector<RackId> order;
  for (int round = 0; round < kRounds; ++round) {
    const ClusterConfig c = fuzz_axes_config(rng);
    const ResourceState s = tied_state(rng, c);
    for (const NodeSelection sel : kSelections) {
      for (const bool deficit : {false, true}) {
        detail::rack_order(s, sel, deficit, order);
        EXPECT_EQ(order, reference_rack_order(s, sel, deficit))
            << "round " << round << " " << to_string(sel)
            << (deficit ? " deficit" : " local");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel monotonicity, the fact any dominance pruning would rest on: a
// rejected demand stays rejected when it grows on any axis, and an admitted
// demand stays admitted when the free state grows on any rack or tier.
// Checked by brute force over every NodeSelection x PoolRouting x axes mask
// on small machines with every axis present at random.
// ---------------------------------------------------------------------------

/// A machine small enough that the exhaustive demand grid stays ~100 shapes.
/// The last rack may be partial.
ClusterConfig small_axes_config(Rng& rng) {
  ClusterConfig c;
  c.name = "monotone";
  c.nodes_per_rack = static_cast<std::int32_t>(rng.uniform_int(1, 3));
  c.total_nodes = static_cast<std::int32_t>(
      rng.uniform_int(1, 3 * static_cast<std::int64_t>(c.nodes_per_rack)));
  c.local_mem_per_node = gib(rng.uniform_int(1, 3));
  c.pool_per_rack = rng.bernoulli(0.7) ? gib(rng.uniform_int(1, 6)) : Bytes{0};
  c.global_pool = rng.bernoulli(0.5) ? gib(rng.uniform_int(1, 8)) : Bytes{0};
  if (rng.bernoulli(0.5)) {
    c.gpus_per_node = static_cast<std::int32_t>(rng.uniform_int(1, 2));
  }
  if (rng.bernoulli(0.5)) c.bb_capacity = gib(rng.uniform_int(1, 2));
  return c;
}

/// Every free amount drawn from [0, capacity] in whole units (GiB, nodes,
/// devices).
ResourceState small_axes_state(Rng& rng, const ClusterConfig& c) {
  ResourceState s = empty_state(c);
  const auto part = [&](std::int64_t full) { return rng.uniform_int(0, full); };
  const auto part_gib = [&](Bytes full) {
    return gib(part(full.count() / kGiB.count()));
  };
  for (std::size_t r = 0; r < s.free_nodes.size(); ++r) {
    s.free_nodes[r] = static_cast<std::int32_t>(part(s.free_nodes[r]));
    s.pool_free[r] = part_gib(s.pool_free[r]);
    if (r < s.free_gpus.size()) s.free_gpus[r] = part(s.free_gpus[r]);
  }
  s.global_free = part_gib(s.global_free);
  s.bb_free = part_gib(s.bb_free);
  return s;
}

/// The exhaustive demand grid, one unit past every capacity: nodes, memory
/// per node (GiB), GPUs per node, burst buffer (GiB).
struct DemandGrid {
  std::int64_t extent[4];

  explicit DemandGrid(const ClusterConfig& c)
      : extent{c.total_nodes + 1,
               c.local_mem_per_node.count() / kGiB.count() + 5,
               c.gpus_per_node + 2, c.bb_capacity.count() / kGiB.count() + 2} {
  }
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(extent[0] * extent[1] * extent[2] *
                                    extent[3]);
  }
  /// Mixed-radix coordinates of cell `i`; nodes and memory start at 1.
  void coords(std::size_t i, std::int64_t (&x)[4]) const {
    auto rest = static_cast<std::int64_t>(i);
    for (int a = 3; a >= 0; --a) {
      x[a] = rest % extent[a];
      rest /= extent[a];
    }
  }
  [[nodiscard]] std::size_t index(const std::int64_t (&x)[4]) const {
    std::int64_t i = 0;
    for (int a = 0; a < 4; ++a) i = i * extent[a] + x[a];
    return static_cast<std::size_t>(i);
  }
  [[nodiscard]] Job job(const std::int64_t (&x)[4]) const {
    Job j = testing::job(0).nodes(static_cast<std::int32_t>(x[0] + 1));
    j.mem_per_node = gib(x[1] + 1);
    j.gpus_per_node = static_cast<std::int32_t>(x[2]);
    j.bb_bytes = gib(x[3]);
    return j;
  }
};

std::vector<char> admit_table(const ResourceState& s, const ClusterConfig& c,
                              const DemandGrid& grid,
                              const PlacementPolicy& policy) {
  std::vector<char> admits(grid.size());
  std::int64_t x[4];
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid.coords(i, x);
    admits[i] = compute_take(s, c, grid.job(x), policy).has_value() ? 1 : 0;
  }
  return admits;
}

/// Every single-unit growth of `s` that stays within capacity.
std::vector<ResourceState> grown_states(const ResourceState& s,
                                        const ClusterConfig& c) {
  ResourceState full = empty_state(c);
  std::vector<ResourceState> out;
  const auto grow = [&](auto field, auto unit) {
    ResourceState g = s;
    field(g) += unit;
    if (field(g) <= field(full)) out.push_back(g);
  };
  for (std::size_t r = 0; r < s.free_nodes.size(); ++r) {
    grow([r](ResourceState& x) -> auto& { return x.free_nodes[r]; },
         std::int32_t{1});
    grow([r](ResourceState& x) -> auto& { return x.pool_free[r]; }, kGiB);
    if (r < s.free_gpus.size()) {
      grow([r](ResourceState& x) -> auto& { return x.free_gpus[r]; },
           std::int64_t{1});
    }
  }
  grow([](ResourceState& x) -> auto& { return x.global_free; }, kGiB);
  grow([](ResourceState& x) -> auto& { return x.bb_free; }, kGiB);
  return out;
}

TEST(PlacementFuzz, KernelIsMonotoneInDemandAndFreeState) {
  Rng rng(20261019);
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  std::size_t state_pairs = 0;
  for (int round = 0; round < 60; ++round) {
    const ClusterConfig c = small_axes_config(rng);
    const ResourceState s = small_axes_state(rng, c);
    const DemandGrid grid(c);
    const std::vector<ResourceState> grown = grown_states(s, c);
    std::int64_t x[4];
    for (const NodeSelection sel : kSelections) {
      for (const PoolRouting route : kRoutings) {
        for (const bool gpus : {false, true}) {
          for (const bool bb : {false, true}) {
            const PlacementPolicy policy{sel, route,
                                         {.gpus = gpus, .burst_buffer = bb}};
            const auto where = [&] {
              return ::testing::Message()
                     << "round " << round << " (" << to_string(sel) << ", "
                     << to_string(route) << ", gpus " << gpus << ", bb " << bb
                     << ") demand nodes " << x[0] + 1 << " mem " << x[1] + 1
                     << " GiB gpus " << x[2] << " bb " << x[3] << " GiB";
            };
            const std::vector<char> at_s = admit_table(s, c, grid, policy);
            // Demand: a rejection survives one more unit on any axis, so by
            // induction over the grid every larger demand is rejected too.
            for (std::size_t i = 0; i < grid.size(); ++i) {
              if (at_s[i]) {
                ++admitted;
                continue;
              }
              ++rejected;
              grid.coords(i, x);
              for (int a = 0; a < 4; ++a) {
                if (x[a] + 1 == grid.extent[a]) continue;
                ++x[a];
                EXPECT_FALSE(at_s[grid.index(x)])
                    << where() << ": admitted after growing axis " << a;
                --x[a];
              }
            }
            // State: an admission survives one more free unit on any rack
            // or tier.
            for (const ResourceState& g : grown) {
              ++state_pairs;
              const std::vector<char> at_g = admit_table(g, c, grid, policy);
              for (std::size_t i = 0; i < grid.size(); ++i) {
                if (!at_s[i] || at_g[i]) continue;
                grid.coords(i, x);
                ADD_FAILURE() << where()
                              << ": rejected after the free state grew";
              }
            }
          }
        }
      }
    }
  }
  // Both outcomes must occur often, or the property holds vacuously.
  EXPECT_GT(admitted, 10000u);
  EXPECT_GT(rejected, 10000u);
  EXPECT_GT(state_pairs, 10000u);
  std::printf("%zu admitted, %zu rejected demands; %zu grown-state tables\n",
              admitted, rejected, state_pairs);
}

TEST(PlacementFuzz, IntoFormOverwritesEveryFieldOfADirtyPlan) {
  Rng rng(17041);
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  std::size_t neighbor_draws = 0;
  std::size_t stale_bb = 0;
  std::size_t stale_takes = 0;
  TakePlan plan;
  for (int round = 0; round < kRounds; ++round) {
    const ClusterConfig c = fuzz_axes_config(rng);
    const ResourceState s = small_axes_state(rng, c);
    const ResourceState idle = empty_state(c);
    const Job j = fuzz_axes_job(rng, c);
    for (const NodeSelection sel : kSelections) {
      for (const PoolRouting route : kRoutings) {
        for (const bool gpus : {false, true}) {
          for (const bool bb : {false, true}) {
            const PlacementPolicy policy{sel, route,
                                         {.gpus = gpus, .burst_buffer = bb}};
            // Dirty the plan: another job under another policy, planned on
            // the idle machine (or left half-written by a rejection).
            const PlacementPolicy other{
                kSelections[static_cast<std::size_t>(rng.uniform_int(0, 3))],
                kRoutings[static_cast<std::size_t>(rng.uniform_int(0, 3))],
                ResourceAxes::all()};
            (void)compute_take_into(idle, c, fuzz_axes_job(rng, c), other,
                                    plan);
            const TakePlan dirty = plan;
            const auto fresh = compute_take(s, c, j, policy);
            const bool ok = compute_take_into(s, c, j, policy, plan);
            SCOPED_TRACE(::testing::Message()
                         << "round " << round << " (" << to_string(sel)
                         << ", " << to_string(route) << ", gpus " << gpus
                         << ", bb " << bb << ")");
            ASSERT_EQ(ok, fresh.has_value());
            if (!ok) {
              ++rejected;
              continue;
            }
            ++admitted;
            expect_plans_equal(plan, *fresh);
            if (plan.neighbor_pool_total() > Bytes{0}) ++neighbor_draws;
            if (dirty.bb_bytes > plan.bb_bytes) ++stale_bb;
            if (dirty.takes.size() > plan.takes.size()) ++stale_takes;
          }
        }
      }
    }
  }
  // Every outcome the overwrite contract covers must occur: admissions and
  // rejections, shared-neighbors stage-2 draws, and dirty plans carrying a
  // burst-buffer reservation or more rack slices than the fresh plan.
  EXPECT_GT(admitted, 1000u);
  EXPECT_GT(rejected, 1000u);
  EXPECT_GT(neighbor_draws, 50u);
  EXPECT_GT(stale_bb, 100u);
  EXPECT_GT(stale_takes, 100u);
  std::printf("%zu admitted, %zu rejected; %zu neighbor draws, %zu stale bb, "
              "%zu stale slices\n",
              admitted, rejected, neighbor_draws, stale_bb, stale_takes);
}

TEST(ProfileFuzz, EarliestFitAgreesWithStateProbing) {
  Rng rng(555);
  const PlacementPolicy policy{NodeSelection::kFirstFit,
                               PoolRouting::kRackThenGlobal};
  for (int round = 0; round < 120; ++round) {
    const ClusterConfig c = fuzz_config(rng);
    ResourceState state = empty_state(c);
    FreeProfile profile(state, SimTime{}, &c);

    // Fill with a random running set (consistent: takes applied to state).
    ResourceState live = state;
    for (int k = 0; k < 6; ++k) {
      const Job r = fuzz_job(rng, c);
      const auto take = compute_take(live, c, r, policy);
      if (!take) continue;
      apply_take(live, *take);
    }
    // Profile over the final live state; the diff between empty and live is
    // what is held, released in one go at a random time.
    profile = FreeProfile(live, SimTime{}, &c);
    TakePlan held;
    const ResourceState empty = empty_state(c);
    for (std::size_t r = 0; r < live.free_nodes.size(); ++r) {
      RackTake t;
      t.rack = static_cast<RackId>(r);
      t.nodes = empty.free_nodes[r] - live.free_nodes[r];
      t.rack_pool_bytes = empty.pool_free[r] - live.pool_free[r];
      if (t.nodes > 0 || t.rack_pool_bytes > Bytes{0}) held.takes.push_back(t);
    }
    if (empty.global_free > live.global_free) {
      if (held.takes.empty()) held.takes.push_back({0, 0, Bytes{0}, Bytes{0}});
      held.takes.front().global_pool_bytes =
          empty.global_free - live.global_free;
    }
    const SimTime release_at = hours(rng.uniform_int(1, 10));
    if (!held.takes.empty()) profile.add_release(release_at, held);

    const Job q = fuzz_job(rng, c);
    const auto fit = profile.earliest_fit(q, policy);
    // Oracle: probe state_at at every breakpoint.
    std::optional<SimTime> expected;
    for (const SimTime t : profile.breakpoints()) {
      if (compute_take(profile.state_at(t), c, q, policy)) {
        expected = t;
        break;
      }
    }
    ASSERT_EQ(fit.has_value(), expected.has_value()) << "round " << round;
    if (fit) {
      EXPECT_EQ(fit->time, *expected) << "round " << round;
      ResourceState at = profile.state_at(fit->time);
      EXPECT_TRUE(can_apply(at, fit->plan)) << "round " << round;
    }
  }
}

TEST(ProfileFuzz, WindowFitSatisfiesWindowProperty) {
  Rng rng(808);
  const PlacementPolicy policy{NodeSelection::kFirstFit,
                               PoolRouting::kRackThenGlobal};
  for (int round = 0; round < 120; ++round) {
    const ClusterConfig c = fuzz_config(rng);
    FreeProfile profile(empty_state(c), SimTime{}, &c);
    // Random future holds, each placed with earliest_fit_window so the
    // accumulated set stays mutually consistent (as conservative does).
    for (int k = 0; k < 4; ++k) {
      const Job h = fuzz_job(rng, c);
      const SimTime len = hours(rng.uniform_int(1, 5));
      const auto hold_fit = profile.earliest_fit_window(
          h, policy, [&](const TakePlan&) { return len; });
      if (!hold_fit) continue;
      profile.add_hold(hold_fit->time, hold_fit->time + len, hold_fit->plan);
    }
    const Job q = fuzz_job(rng, c);
    const SimTime duration = hours(rng.uniform_int(1, 8));
    const auto duration_of = [&](const TakePlan&) { return duration; };
    const auto fit = profile.earliest_fit_window(q, policy, duration_of);
    if (!fit) continue;
    // the plan must be subtractable at every breakpoint in the window
    for (const SimTime t : profile.breakpoints()) {
      if (t < fit->time || t >= fit->time + duration) continue;
      EXPECT_TRUE(can_apply(profile.state_at(t), fit->plan))
          << "round " << round << " at t=" << t.seconds();
    }
  }
}

}  // namespace
}  // namespace dmsched
