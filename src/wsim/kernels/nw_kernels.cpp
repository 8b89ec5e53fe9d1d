#include "wsim/kernels/nw_kernels.hpp"

#include <algorithm>
#include <span>

#include "wsim/kernels/launch.hpp"
#include "wsim/simt/builder.hpp"

namespace wsim::kernels {

using simt::Cmp;
using simt::DType;
using simt::imm_i64;
using simt::KernelBuilder;
using simt::MemWidth;
using simt::Op;
using simt::SReg;
using simt::VReg;

namespace {

/// Emits gap_cost(len) = 0 when len == 0 else open + (len - 1) * extend.
VReg emit_gap_cost(KernelBuilder& kb, simt::Operand len, const align::SwParams& p) {
  const VReg cost = kb.iadd(imm_i64(p.gap_open),
                            kb.imul(kb.isub(len, imm_i64(1)), imm_i64(p.gap_extend)));
  const VReg zero = kb.setp(Cmp::kLe, DType::kI64, len, imm_i64(0));
  return kb.selp(zero, imm_i64(0), cost);
}

}  // namespace

simt::Kernel build_nw_kernel(CommMode mode, const align::SwParams& params) {
  const bool shared = mode == CommMode::kSharedMemory;
  KernelBuilder kb(shared ? "nw1_shared" : "nw2_shuffle", kSwBsize);

  const SReg p_query = kb.param();   // s0
  const SReg p_target = kb.param();  // s1
  const SReg p_m = kb.param();       // s2
  const SReg p_n = kb.param();       // s3
  const SReg p_result = kb.param();  // s4
  const SReg p_bound_h = kb.param(); // s5
  const SReg p_bound_f = kb.param(); // s6
  const SReg p_bands = kb.param();   // s7
  const SReg p_tiles = kb.param();   // s8

  int h1 = 0;
  int h2 = 0;
  int h3 = 0;
  int f1 = 0;
  int f2 = 0;
  if (shared) {
    h1 = kb.alloc_smem(kSwBsize * 4);
    h2 = kb.alloc_smem(kSwBsize * 4);
    h3 = kb.alloc_smem(kSwBsize * 4);
    f1 = kb.alloc_smem(kSwBsize * 4);
    f2 = kb.alloc_smem(kSwBsize * 4);
  }

  const VReg tid = kb.tid();
  const VReg own_off = kb.imul(tid, imm_i64(4));
  const VReg nb_off = kb.imul(kb.isub(tid, imm_i64(1)), imm_i64(4));
  const VReg is_t0 = kb.setp(Cmp::kEq, DType::kI64, tid, imm_i64(0));
  const VReg not_t0 = kb.setp(Cmp::kGt, DType::kI64, tid, imm_i64(0));
  const VReg is_t31 = kb.setp(Cmp::kEq, DType::kI64, tid, imm_i64(kSwBsize - 1));
  const SReg m1 = kb.ssub(p_m, imm_i64(1));
  const SReg n1 = kb.ssub(p_n, imm_i64(1));

  SReg sh1{};
  SReg sh2{};
  SReg sh3{};
  SReg sf1{};
  SReg sf2{};
  if (shared) {
    sh1 = kb.smov(imm_i64(h1));
    sh2 = kb.smov(imm_i64(h2));
    sh3 = kb.smov(imm_i64(h3));
    sf1 = kb.smov(imm_i64(f1));
    sf2 = kb.smov(imm_i64(f2));
  }

  const SReg band_base = kb.smov(imm_i64(0));
  kb.loop(p_bands);
  {
    const VReg i = kb.iadd(band_base, tid);  // 0-based row; DP row i+1
    const VReg row_valid = kb.setp(Cmp::kLt, DType::kI64, i, p_m);
    const VReg is_lastrow = kb.setp(Cmp::kEq, DType::kI64, i, m1);
    const VReg nb0 = kb.setp(Cmp::kGt, DType::kI64, band_base, imm_i64(0));

    const VReg qchar = kb.mov(imm_i64(0));
    kb.begin_pred(row_valid);
    kb.ldg_to(qchar, kb.iadd(p_query, i), 0, MemWidth::kB1);
    kb.end_pred();
    const VReg q_is_n = kb.setp(Cmp::kEq, DType::kI64, qchar, imm_i64('N'));

    // Global-alignment row boundary: H(I, 0) = gap_cost(I) with I = i + 1.
    const VReg row_bound = emit_gap_cost(kb, kb.iadd(i, imm_i64(1)), params);
    const VReg diag_row_bound = emit_gap_cost(kb, i, params);  // H(I-1, 0)

    const VReg e = kb.mov(imm_i64(kNegInf));
    VReg h_prev{};
    VReg h_pprev{};
    VReg f_prev{};
    if (!shared) {
      h_prev = kb.mov(imm_i64(0));
      h_pprev = kb.mov(imm_i64(0));
      f_prev = kb.mov(imm_i64(kNegInf));
    }

    const SReg step = kb.smov(imm_i64(0));
    kb.loop(p_tiles);
    {
      kb.loop(imm_i64(kSwBsize));
      {
        const VReg c = kb.isub(step, tid);  // 0-based column; DP col c + 1
        const VReg c4 = kb.imul(c, imm_i64(4));
        const VReg valid = kb.iand(
            kb.iand(kb.setp(Cmp::kGe, DType::kI64, c, imm_i64(0)),
                    kb.setp(Cmp::kLt, DType::kI64, c, p_n)),
            row_valid);
        const VReg is_c0 = kb.setp(Cmp::kEq, DType::kI64, c, imm_i64(0));
        const VReg not_c0 = kb.setp(Cmp::kNe, DType::kI64, c, imm_i64(0));

        const VReg tchar = kb.mov(imm_i64(0));
        kb.begin_pred(valid);
        kb.ldg_to(tchar, kb.iadd(p_target, c), 0, MemWidth::kB1);
        kb.end_pred();
        const VReg t_is_n = kb.setp(Cmp::kEq, DType::kI64, tchar, imm_i64('N'));
        const VReg no_n = kb.setp(Cmp::kEq, DType::kI64, kb.ior(q_is_n, t_is_n),
                                  imm_i64(0));
        const VReg chars_eq = kb.setp(Cmp::kEq, DType::kI64, qchar, tchar);
        const VReg sub = kb.selp(kb.iand(chars_eq, no_n), imm_i64(params.match),
                                 imm_i64(params.mismatch));

        // Neighbour fetch (LOAD phase).
        VReg left_raw{};
        VReg up_raw{};
        VReg diag_raw{};
        VReg f_raw{};
        if (shared) {
          left_raw = kb.mov(imm_i64(0));
          up_raw = kb.mov(imm_i64(0));
          diag_raw = kb.mov(imm_i64(0));
          f_raw = kb.mov(imm_i64(kNegInf));
          kb.begin_pred(valid);
          kb.lds_to(left_raw, kb.iadd(sh2, own_off));
          kb.end_pred();
          const VReg valid_nb = kb.iand(valid, not_t0);
          kb.begin_pred(valid_nb);
          kb.lds_to(up_raw, kb.iadd(sh2, nb_off));
          kb.lds_to(diag_raw, kb.iadd(sh3, nb_off));
          kb.lds_to(f_raw, kb.iadd(sf2, nb_off));
          kb.end_pred();
        } else {
          left_raw = h_prev;
          up_raw = kb.shfl_up(h_prev, imm_i64(1));
          diag_raw = kb.shfl_up(h_pprev, imm_i64(1));
          f_raw = kb.shfl_up(f_prev, imm_i64(1));
        }

        // Lane-0 boundary: the row above is the previous band's last row,
        // carried through global memory; band 0 uses the DP top row
        // H(0, J) = gap_cost(J) with J = c + 1.
        const VReg top_up = emit_gap_cost(kb, kb.iadd(c, imm_i64(1)), params);
        const VReg top_diag = emit_gap_cost(kb, c, params);
        const VReg vt0 = kb.iand(valid, kb.iand(is_t0, nb0));
        const VReg up_b = kb.mov(top_up);
        const VReg diag_b = kb.mov(top_diag);
        const VReg f_b = kb.mov(imm_i64(kNegInf));
        kb.begin_pred(vt0);
        kb.ldg_to(up_b, kb.iadd(p_bound_h, c4));
        kb.ldg_to(f_b, kb.iadd(p_bound_f, c4));
        kb.end_pred();
        const VReg vt0_nc0 = kb.iand(vt0, not_c0);
        kb.begin_pred(vt0_nc0);
        kb.ldg_to(diag_b, kb.iadd(p_bound_h,
                                  kb.imul(kb.isub(c, imm_i64(1)), imm_i64(4))));
        kb.end_pred();
        // For lane 0 in band > 0, the c == 0 diagonal is the previous
        // band's row boundary H(I-1, 0).
        const VReg diag_b2 = kb.selp(kb.iand(is_c0, nb0), diag_row_bound, diag_b);

        const VReg left = kb.selp(is_c0, row_bound, left_raw);
        const VReg up = kb.selp(is_t0, up_b, up_raw);
        const VReg diag =
            kb.selp(is_t0, diag_b2, kb.selp(is_c0, diag_row_bound, diag_raw));
        const VReg f_up = kb.selp(is_t0, f_b, f_raw);

        // Affine-gap global cell update (Gotoh).
        const VReg open_h = kb.iadd(left, imm_i64(params.gap_open));
        const VReg ext_h = kb.iadd(e, imm_i64(params.gap_extend));
        const VReg pe = kb.setp(Cmp::kGt, DType::kI64, ext_h, open_h);
        kb.emit_to(e, Op::kSelp, open_h, kb.selp(pe, ext_h, open_h), is_c0);

        const VReg open_v = kb.iadd(up, imm_i64(params.gap_open));
        const VReg ext_v = kb.iadd(f_up, imm_i64(params.gap_extend));
        const VReg f_cur = kb.imax(open_v, ext_v);

        const VReg diag_score = kb.iadd(diag, sub);
        const VReg h_cur = kb.imax(kb.imax(diag_score, f_cur), e);

        // The final DP cell (M, N) is the global score.
        const VReg at_result = kb.iand(
            kb.iand(valid, is_lastrow), kb.setp(Cmp::kEq, DType::kI64, c, n1));
        kb.begin_pred(at_result);
        kb.stg(p_result, h_cur);
        kb.end_pred();

        // Band boundary for the next band.
        const VReg at_boundary = kb.iand(valid, is_t31);
        kb.begin_pred(at_boundary);
        kb.stg(kb.iadd(p_bound_h, c4), h_cur);
        kb.stg(kb.iadd(p_bound_f, c4), f_cur);
        kb.end_pred();

        if (shared) {
          kb.begin_pred(valid);
          kb.sts(kb.iadd(sh1, own_off), h_cur);
          kb.sts(kb.iadd(sf1, own_off), f_cur);
          kb.end_pred();
          const SReg tmp_h = kb.smov(sh3);
          kb.sassign(sh3, sh2);
          kb.sassign(sh2, sh1);
          kb.sassign(sh1, tmp_h);
          const SReg tmp_f = kb.smov(sf2);
          kb.sassign(sf2, sf1);
          kb.sassign(sf1, tmp_f);
          kb.bar();
        } else {
          kb.assign(h_pprev, h_prev);
          kb.assign(h_prev, h_cur);
          kb.assign(f_prev, f_cur);
        }
        kb.sassign(step, kb.sadd(step, imm_i64(1)));
      }
      kb.endloop();
    }
    kb.endloop();
    kb.sassign(band_base, kb.sadd(band_base, imm_i64(kSwBsize)));
  }
  kb.endloop();

  return kb.build();
}

NwRunner::NwRunner(CommMode mode, const align::SwParams& params)
    : mode_(mode), params_(params), kernel_(build_nw_kernel(mode, params)) {}

NwBatchResult NwRunner::run_batch(const simt::DeviceSpec& device,
                                  const workload::SwBatch& batch,
                                  const NwRunOptions& options) const {
  const SwBatchExtent extent = check_sw_batch("NwRunner", batch, options);
  const std::size_t max_n = extent.max_n;
  std::vector<std::uint64_t> shape_keys(batch.size());
  for (std::size_t t = 0; t < batch.size(); ++t) {
    shape_keys[t] = shape_key(batch[t].query.size(), batch[t].target.size(),
                              SwRunOptions::shape_granularity);
  }

  std::vector<std::int64_t> result_addr(batch.size());
  // Lays out every task so each executing block keeps its addresses.
  const auto bind = [&](std::span<const std::size_t> execute, simt::GlobalMemory& gmem) {
    const auto bound_h = gmem.alloc(max_n * 4);
    const auto bound_f = gmem.alloc(max_n * 4);
    std::vector<simt::BlockArgs> args(batch.size());
    for (std::size_t t = 0; t < batch.size(); ++t) {
      const workload::SwTask& task = batch[t];
      const std::size_t m = task.query.size();
      const std::size_t n = task.target.size();
      const auto query = upload(gmem, task.query);
      const auto target = upload(gmem, task.target);
      result_addr[t] = gmem.alloc(4);
      args[t] = {
          static_cast<std::uint64_t>(query),
          static_cast<std::uint64_t>(target),
          static_cast<std::uint64_t>(m),
          static_cast<std::uint64_t>(n),
          static_cast<std::uint64_t>(result_addr[t]),
          static_cast<std::uint64_t>(bound_h),
          static_cast<std::uint64_t>(bound_f),
          static_cast<std::uint64_t>(sw_bands(m)),
          static_cast<std::uint64_t>(sw_tiles(n)),
      };
    }
    const BlockBuffer carries[] = {{5, max_n * 4}, {6, max_n * 4}};
    lay_out_replicas(args, shape_keys, options.mode, carries, gmem);
    return take_executed(args, execute);
  };

  simt::GlobalMemory gmem;
  NwBatchResult result;
  result.run.launch = launch_grid(kernel_, device, gmem, shape_keys, bind, options,
                                  {extent.h2d_bytes, batch.size() * 4},
                                  options.sdc_launch_id);
  result.run.cells = extent.cells;
  count_arena_bytes(gmem);
  if (options.collect_outputs) {
    result.scores.reserve(batch.size());
    for (std::size_t t = 0; t < batch.size(); ++t) {
      result.scores.push_back(gmem.read_i32_one(result_addr[t]));
    }
  }
  return result;
}

}  // namespace wsim::kernels
