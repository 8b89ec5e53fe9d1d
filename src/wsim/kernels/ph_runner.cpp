#include <array>
#include <bit>
#include <cmath>
#include <span>

#include "wsim/kernels/launch.hpp"
#include "wsim/kernels/ph_kernels.hpp"
#include "wsim/util/check.hpp"

namespace wsim::kernels {

namespace {

/// Device-resident quality lookup tables (transferred with a batch's first
/// launch): err[q] = 10^(-q/10) and err3[q] = err[q] / 3, exactly the
/// values the host reference derives per row. Computed once per process.
constexpr int kQualLutSize = 256;
constexpr std::size_t kLutBytes = 2 * kQualLutSize * 4;

struct QualLuts {
  std::array<float, kQualLutSize> err{};
  std::array<float, kQualLutSize> err3{};
};

const QualLuts& qual_luts() {
  static const QualLuts luts = [] {
    QualLuts l;
    for (int q = 0; q < kQualLutSize; ++q) {
      const auto i = static_cast<std::size_t>(q);
      l.err[i] = align::qual_to_error_prob(static_cast<std::uint8_t>(q));
      l.err3[i] = l.err[i] / 3.0F;
    }
    return l;
  }();
  return luts;
}

}  // namespace

PhRunner::PhRunner(CommMode mode)
    : PhRunner(mode == CommMode::kSharedMemory ? PhDesign::kShared
                                               : PhDesign::kShuffle) {}

PhRunner::PhRunner(PhDesign design) : design_(design) {
  kernels_.reserve(kPhVariants);
  for (int v = 0; v < kPhVariants; ++v) {
    simt::Kernel kernel;
    switch (design) {
      case PhDesign::kShared:
        kernel = build_ph_shared_kernel(32 * (v + 1));
        break;
      case PhDesign::kShuffle:
        kernel = build_ph_shuffle_kernel(v + 1);
        break;
      case PhDesign::kHybrid:
        kernel = build_ph_hybrid_kernel(32 * (v + 1));
        break;
    }
    kernels_.emplace_back(std::move(kernel));
  }
}

int PhRunner::variant_for_read_len(std::size_t read_len) {
  util::require(read_len >= 1 && read_len <= kPhMaxReadLen,
                "PhRunner: read length must be in [1, 128]");
  return static_cast<int>((read_len - 1) / 32);
}

const simt::Kernel& PhRunner::kernel_for_read_len(std::size_t read_len) const {
  return kernels_[static_cast<std::size_t>(variant_for_read_len(read_len))].kernel();
}

PhBatchResult PhRunner::run_batch(const simt::DeviceSpec& device,
                                  const workload::PhBatch& batch,
                                  const PhRunOptions& options) const {
  check_batch("PhRunner", batch.size(), options);

  // Launch-time routing: bucket tasks by read length (the paper's
  // length-specialized kernel copies / subfunctions).
  std::array<std::vector<std::size_t>, kPhVariants> groups;
  for (std::size_t t = 0; t < batch.size(); ++t) {
    align::validate(batch[t]);
    groups[static_cast<std::size_t>(variant_for_read_len(batch[t].read.size()))]
        .push_back(t);
  }

  // Device memory, laid out on the first bind and only as far as the
  // binding variant: the quality LUTs, then each variant's per-task
  // buffers in variant order. A later variant's bind lays out the earlier
  // variants' buffers first, so every executing block gets the addresses
  // it has when every variant is bound.
  simt::GlobalMemory gmem;
  struct TaskBuffers {
    std::int64_t quals = 0;
    std::int64_t read = 0;
    std::int64_t hap = 0;
    std::int64_t result = 0;
  };
  std::vector<TaskBuffers> bufs(batch.size());
  std::int64_t err_lut_addr = 0;
  std::int64_t err3_lut_addr = 0;
  int bound_variants = 0;  // variants [0, bound_variants) are laid out
  const auto lay_out_through = [&](int last_variant) {
    if (bound_variants == 0) {
      const QualLuts& luts = qual_luts();
      err_lut_addr = gmem.alloc(kQualLutSize * 4);
      err3_lut_addr = gmem.alloc(kQualLutSize * 4);
      gmem.write_f32(err_lut_addr, luts.err);
      gmem.write_f32(err3_lut_addr, luts.err3);
    }
    for (; bound_variants <= last_variant; ++bound_variants) {
      for (const std::size_t t : groups[static_cast<std::size_t>(bound_variants)]) {
        const align::PairHmmTask& task = batch[t];
        const std::size_t r = task.read.size();
        // Pack the raw quality bytes (4 B/row: base, ins, del, padding);
        // the kernel prologue derives priors and transitions through the
        // LUTs, so only quality bytes cross PCIe.
        std::vector<std::uint8_t> quals(r * 4, 0);
        for (std::size_t i = 0; i < r; ++i) {
          quals[i * 4 + 0] = task.base_quals[i];
          quals[i * 4 + 1] = task.ins_quals[i];
          quals[i * 4 + 2] = task.del_quals[i];
        }
        TaskBuffers& b = bufs[t];
        b.quals = gmem.alloc(quals.size());
        gmem.write_u8(b.quals, quals);
        b.read = upload(gmem, task.read);
        b.hap = upload(gmem, task.hap);
        b.result = gmem.alloc(4);
      }
    }
  };

  PhBatchResult result;
  LaunchSum variants(options);
  bool luts_counted = false;
  std::vector<std::uint64_t> shape_keys;

  for (int v = 0; v < kPhVariants; ++v) {
    const auto& group = groups[static_cast<std::size_t>(v)];
    if (group.empty()) {
      continue;
    }
    shape_keys.clear();
    std::size_t h2d_bytes = 0;
    std::size_t group_cells = 0;
    for (const std::size_t t : group) {
      const align::PairHmmTask& task = batch[t];
      const std::size_t r = task.read.size();
      const std::size_t h = task.hap.size();
      group_cells += r * h;
      h2d_bytes += r * 4 + r + h;
      shape_keys.push_back(shape_key(r, h, PhRunOptions::shape_granularity));
    }

    const auto bind = [&](std::span<const std::size_t> execute, simt::GlobalMemory&) {
      lay_out_through(v);
      std::vector<simt::BlockArgs> args;
      args.reserve(execute.size());
      for (const std::size_t i : execute) {
        const std::size_t t = group[i];
        const align::PairHmmTask& task = batch[t];
        const std::size_t r = task.read.size();
        const std::size_t h = task.hap.size();
        const TaskBuffers& b = bufs[t];
        const float ic_over_h =
            align::pairhmm_initial_condition() / static_cast<float>(h);
        const float gcp_prob = align::qual_to_error_prob(task.gcp);
        args.push_back({
            static_cast<std::uint64_t>(b.quals),
            static_cast<std::uint64_t>(b.read),
            static_cast<std::uint64_t>(b.hap),
            static_cast<std::uint64_t>(r),
            static_cast<std::uint64_t>(h),
            static_cast<std::uint64_t>(r + h - 1),
            static_cast<std::uint64_t>(b.result),
            std::bit_cast<std::uint32_t>(ic_over_h),
            static_cast<std::uint64_t>(err_lut_addr),
            static_cast<std::uint64_t>(err3_lut_addr),
            std::bit_cast<std::uint32_t>(gcp_prob),
            std::bit_cast<std::uint32_t>(1.0F - gcp_prob),
        });
      }
      return args;
    };

    if (!luts_counted) {
      h2d_bytes += kLutBytes;
      luts_counted = true;
    }
    // Each variant launch gets its own sub-launch id so its blocks draw
    // from SDC streams disjoint from the other variants'.
    const simt::LaunchResult launch = launch_grid(
        kernels_[static_cast<std::size_t>(v)], device, gmem, shape_keys, bind, options,
        {h2d_bytes, group.size() * 4},
        simt::sdc_sub_launch(options.sdc_launch_id, static_cast<std::uint64_t>(v)));
    result.run.cells += group_cells;
    if (variants.add(launch, group_cells)) {
      result.primary_variant = v;
      const align::PairHmmTask& first = batch[group.front()];
      result.representative_iterations =
          ph_iterations(first.read.size(), first.hap.size());
      result.representative_cells = first.read.size() * first.hap.size();
    }
  }
  result.run.launch = variants.result();

  count_arena_bytes(gmem);

  if (options.collect_outputs) {
    result.log10.resize(batch.size());
    const double log10_ic =
        std::log10(static_cast<double>(align::pairhmm_initial_condition()));
    for (std::size_t t = 0; t < batch.size(); ++t) {
      const float sum = gmem.read_f32_one(bufs[t].result);
      if (sum > 0.0F) {
        result.log10[t] = std::log10(static_cast<double>(sum)) - log10_ic;
      } else if (options.double_fallback) {
        // GATK's rescue path: redo the underflowed task in double on the
        // host.
        result.log10[t] = align::pairhmm_log10_double(batch[t]);
      } else {
        throw util::CheckError(
            "PhRunner: device likelihood underflowed to zero (enable "
            "double_fallback for GATK-style rescue)");
      }
    }
  }
  return result;
}

}  // namespace wsim::kernels
