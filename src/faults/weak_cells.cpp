#include "faults/weak_cells.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <memory>
#include <utility>

#include "common/rng.hpp"
#include "common/status.hpp"

namespace hbmvolt::faults {

WeakCellOrder::WeakCellOrder(const hbm::HbmGeometry& geometry,
                             std::uint64_t pc_seed,
                             const WeakCellConfig& config)
    : geometry_(geometry) {
  HBMVOLT_REQUIRE(geometry_.bits_per_pc <= (1ull << 32),
                  "simulated PC capacity limited to 2^32 bits");
  HBMVOLT_REQUIRE(config.cluster_key_shift < 64,
                  "cluster_key_shift must be below 64 (keys are 64-bit)");
  const auto n = geometry_.bits_per_pc;

  // Place cluster windows.
  Xoshiro256 cluster_rng(mix_seed(pc_seed, 0xC1057E2));
  const std::uint64_t rows = geometry_.rows_per_bank();
  for (unsigned i = 0; i < config.cluster_count; ++i) {
    ClusterWindow window;
    window.bank = static_cast<unsigned>(cluster_rng.bounded(geometry_.banks_per_pc));
    window.row_count = config.cluster_rows;
    const std::uint64_t max_lo =
        rows > window.row_count ? rows - window.row_count : 0;
    window.row_lo = cluster_rng.bounded(max_lo + 1);
    clusters_.push_back(window);
  }

  // Every cell gets a strength key and a polarity; each polarity's order
  // lists its cells by (key, cell) ascending.  A stable bucket sort on the
  // key's top bits builds it: cells enter their buckets in ascending order
  // and the per-bucket insertion sort is stable, so equal keys keep
  // ascending cells.
  const std::uint64_t key_seed = mix_seed(pc_seed, 0x57E26);
  const std::uint64_t polarity_seed = mix_seed(pc_seed, 0x9012A);
  // A share of 1 (or more) makes every cell stuck-at-1: 1.0 * (2^64 - 1)
  // rounds to 2^64, which no uint64 threshold can hold.
  const double share1 = config.stuck_at_one_share;
  const bool all_stuck1 = share1 >= 1.0;
  const std::uint64_t share1_threshold =
      share1 > 0.0 && !all_stuck1
          ? static_cast<std::uint64_t>(share1 * 18446744073709551615.0)
          : 0;
  const auto stuck1 = [&](std::uint64_t cell) -> unsigned {
    return (splitmix64(polarity_seed ^ cell) < share1_threshold) | all_stuck1;
  };

  // Visits the cells in runs [lo, hi) that share a cluster verdict, with
  // the key shift it implies: all bits of a beat share one bank and row,
  // so the window test runs once per beat.
  const auto for_each_run = [&](auto&& visit) {
    const std::uint64_t step = clusters_.empty() ? n : geometry_.bits_per_beat;
    for (std::uint64_t lo = 0; lo < n; lo += step) {
      visit(lo, std::min(n, lo + step),
            in_cluster(lo) ? config.cluster_key_shift : 0u);
    }
  };

  // Buckets hold about four cells of each polarity on average.
  const unsigned bucket_bits = static_cast<unsigned>(
      std::clamp(static_cast<int>(std::bit_width(n / 8)) - 1, 1, 24));
  const unsigned drop = 64 - bucket_bits;
  const std::size_t buckets = std::size_t{1} << bucket_bits;

  // Split the cells by polarity, ascending, straight into the orders
  // (sized exactly), and histogram the keys: histogram[p * buckets + b]
  // cells of polarity p fall in bucket b.  Allocation order matters for
  // memory: the histogram before the long-lived orders, the (key, cell)
  // buffer after them.  Allocating the histogram after the orders let the
  // peak RSS of repeated fresh-board campaigns on two threads climb with
  // the campaign count (123 MB after 31 campaigns, 137 MB after 97, versus
  // about 85 MB either way with this order).
  std::vector<std::uint64_t> histogram(2 * buckets, 0);
  std::uint64_t n1 = 0;
  for (std::uint64_t cell = 0; cell < n; ++cell) n1 += stuck1(cell);
  order_sa0_.resize(static_cast<std::size_t>(n - n1));
  order_sa1_.resize(static_cast<std::size_t>(n1));
  std::uint32_t* next[2] = {order_sa0_.data(), order_sa1_.data()};
  for_each_run([&](std::uint64_t lo, std::uint64_t hi, unsigned shift) {
    for (std::uint64_t cell = lo; cell < hi; ++cell) {
      const unsigned polarity = stuck1(cell);
      *next[polarity]++ = static_cast<std::uint32_t>(cell);
      const std::uint64_t key = splitmix64(key_seed ^ cell) >> shift;
      ++histogram[polarity * buckets + (key >> drop)];
    }
  });

  // One transient (key, cell) buffer serves both polarities in turn.
  struct Keyed {
    std::uint64_t key;
    std::uint32_t cell;
  };
  const auto keyed = std::make_unique_for_overwrite<Keyed[]>(
      std::max(order_sa0_.size(), order_sa1_.size()));
  const auto by_key = [](const Keyed& a, const Keyed& b) {
    return a.key < b.key || (a.key == b.key && a.cell < b.cell);
  };
  // Larger buckets (many cluster keys crushed together by a big shift)
  // fall back to a comparison sort, keeping the build O(n log n).
  constexpr std::ptrdiff_t kInsertionSortMax = 64;

  for (auto* order : {&order_sa0_, &order_sa1_}) {
    std::uint64_t* const end =
        histogram.data() + (order == &order_sa1_ ? buckets : 0);
    // Exclusive prefix sum: end[b] becomes bucket b's first slot, and the
    // scatter leaves it at bucket b's one-past-last slot.
    std::uint64_t total = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
      total += std::exchange(end[b], total);
    }
    const std::uint32_t* cell = order->data();
    const std::uint32_t* const cells_end = cell + order->size();
    for_each_run([&](std::uint64_t, std::uint64_t hi, unsigned shift) {
      for (; cell != cells_end && *cell < hi; ++cell) {
        const std::uint64_t key = splitmix64(key_seed ^ *cell) >> shift;
        keyed[end[key >> drop]++] = {key, *cell};
      }
    });

    std::uint32_t* out = order->data();
    Keyed* first = keyed.get();
    for (std::size_t b = 0; b < buckets; ++b) {
      Keyed* const last = keyed.get() + end[b];
      if (last - first > kInsertionSortMax) {
        std::sort(first, last, by_key);
      } else {
        for (Keyed* i = first + 1; i < last; ++i) {
          const Keyed item = *i;
          Keyed* j = i;
          for (; j > first && item.key < (j - 1)->key; --j) *j = *(j - 1);
          *j = item;
        }
      }
      for (; first != last; ++first) *out++ = first->cell;
    }
  }
}

bool WeakCellOrder::in_cluster(std::uint64_t bit) const noexcept {
  if (clusters_.empty()) return false;
  const auto loc = hbm::decompose_beat(geometry_, bit / geometry_.bits_per_beat);
  for (const auto& window : clusters_) {
    if (loc.bank == window.bank && loc.row >= window.row_lo &&
        loc.row < window.row_lo + window.row_count) {
      return true;
    }
  }
  return false;
}

}  // namespace hbmvolt::faults
