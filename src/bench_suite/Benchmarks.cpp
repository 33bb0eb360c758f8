//===- Benchmarks.cpp - The sixteen paper benchmarks ---------------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "bench_suite/Benchmarks.h"

#include "interp/Interp.h"
#include "parser/Desugar.h"
#include "support/Utils.h"

using namespace fut;
using namespace fut::bench;

namespace {

Value iv(int32_t V) { return Value::scalar(PrimValue::makeI32(V)); }

Value fvecR(size_t N, uint64_t Seed, double Lo = 0.0, double Hi = 1.0) {
  SplitMix64 Rng(Seed);
  std::vector<double> Xs(N);
  for (double &X : Xs)
    X = Rng.nextDouble(Lo, Hi);
  return makeVectorValue(ScalarKind::F32, Xs);
}

Value ivecR(size_t N, uint64_t Seed, int64_t Lo, int64_t Hi) {
  SplitMix64 Rng(Seed);
  std::vector<int64_t> Xs(N);
  for (int64_t &X : Xs)
    X = Lo + static_cast<int64_t>(Rng.nextBelow(Hi - Lo + 1));
  return makeIntVectorValue(ScalarKind::I32, Xs);
}

Value fmatR(int64_t R, int64_t C, uint64_t Seed, double Lo = 0.0,
            double Hi = 1.0) {
  SplitMix64 Rng(Seed);
  std::vector<double> Xs(R * C);
  for (double &X : Xs)
    X = Rng.nextDouble(Lo, Hi);
  return makeMatrixValue(ScalarKind::F32, R, C, Xs);
}

Value imatR(int64_t R, int64_t C, uint64_t Seed, int64_t Lo, int64_t Hi) {
  SplitMix64 Rng(Seed);
  std::vector<PrimValue> Data;
  Data.reserve(R * C);
  for (int64_t I = 0; I < R * C; ++I)
    Data.push_back(PrimValue::makeI32(static_cast<int32_t>(
        Lo + static_cast<int64_t>(Rng.nextBelow(Hi - Lo + 1)))));
  return Value::array(ScalarKind::I32, {R, C}, std::move(Data));
}

std::vector<BenchmarkDef> makeBenchmarks() {
  std::vector<BenchmarkDef> Bs;

  //===------------------------------------------------------------------===//
  // Rodinia
  //===------------------------------------------------------------------===//

  {
    BenchmarkDef B;
    B.Name = "backprop";
    B.Suite = "rodinia";
    // Forward pass of one layer plus the output error reduction, which the
    // Rodinia reference leaves sequential on the host.
    B.Source =
        "fun main (xs: [n]f32) (ws: [h][n]f32) (ts: [h]f32): ([h]f32, f32) =\n"
        "  let hidden = map (\\(w: [n]f32): f32 ->\n"
        "        let s = reduce (+) 0.0 (map (*) w xs)\n"
        "        in 1.0 / (1.0 + exp (0.0 - s))) ws\n"
        "  let err = reduce (+) 0.0\n"
        "        (map (\\(o: f32) (t: f32): f32 -> (o - t) * (o - t))\n"
        "             hidden ts)\n"
        "  in (hidden, err)";
    B.MakeInputs = [] {
      return std::vector<Value>{fvecR(2048, 101, -1, 1),
                                fmatR(96, 2048, 102, -0.1, 0.1),
                                fvecR(96, 103)};
    };
    B.Ref.ReduceOnHost = true; // the reduction Rodinia left sequential
    B.Ref.Coalescing = false;
    B.Ref.HandTuningGTX = 1.32;  // otherwise decent training kernels
    B.Ref.HandTuningW8100 = 0.41;
    B.PaperSpeedupGTX = 2.27;
    B.PaperSpeedupW8100 = 3.22;
    B.Notes = "speedup related to a reduction Rodinia left sequential";
    Bs.push_back(std::move(B));
  }

  {
    BenchmarkDef B;
    B.Name = "cfd";
    B.Suite = "rodinia";
    // Flux computation with an indirect neighbour gather.
    B.Source =
        "fun main (rho: [n]f32) (nbs: [n][4]i32): [n]f32 =\n"
        "  map (\\(i: i32): f32 ->\n"
        "         let c = rho[i]\n"
        "         let f = loop (f = 0.0) for j < 4 do\n"
        "           let nb = nbs[i, j]\n"
        "           let other = if nb >= 0 then rho[nb] else c\n"
        "           in f + (other - c) * 0.5\n"
        "         in c + f * 0.25)\n"
        "      (iota n)";
    B.MakeInputs = [] {
      int64_t N = 8192;
      return std::vector<Value>{fvecR(N, 111, 0.5, 2),
                                imatR(N, 4, 112, -1, N - 1)};
    };
    // The CFD reference is well-tuned hand-written OpenCL.
    B.Ref.HandTuningGTX = 1.19;
    B.Ref.HandTuningW8100 = 1.16;
    B.PaperSpeedupGTX = 0.84;
    B.PaperSpeedupW8100 = 0.86;
    B.Notes = "reference is well-tuned; Futhark pays for extra copies";
    Bs.push_back(std::move(B));
  }

  {
    BenchmarkDef B;
    B.Name = "hotspot";
    B.Suite = "rodinia";
    B.Source =
        "fun main (t0: [r][c]f32) (p: [r][c]f32) (iters: i32): [r][c]f32 =\n"
        "  loop (t = t0) for it < iters do\n"
        "    map (\\(i: i32): [c]f32 ->\n"
        "      map (\\(j: i32): f32 ->\n"
        "        let ct = t[i, j]\n"
        "        let up = if i > 0 then t[i - 1, j] else ct\n"
        "        let dn = if i < r - 1 then t[i + 1, j] else ct\n"
        "        let lf = if j > 0 then t[i, j - 1] else ct\n"
        "        let rt = if j < c - 1 then t[i, j + 1] else ct\n"
        "        in ct + 0.1 * (up + dn + lf + rt - 4.0 * ct)\n"
        "           + 0.05 * p[i, j])\n"
        "        (iota c))\n"
        "      (iota r)";
    B.MakeInputs = [] {
      return std::vector<Value>{fmatR(96, 96, 121, 20, 80),
                                fmatR(96, 96, 122, 0, 1), iv(12)};
    };
    // The reference uses time tiling, which pays off on the NVIDIA part
    // but not on the AMD one (Section 6.1).
    B.Ref.HandTuningGTX = 1.27;
    B.Ref.HandTuningW8100 = 0.28;
    B.PaperSpeedupGTX = 0.79;
    B.PaperSpeedupW8100 = 3.59;
    B.Notes = "ref time tiling pays on NVIDIA, not on AMD; Futhark "
              "double-buffers by copy";
    Bs.push_back(std::move(B));
  }

  {
    BenchmarkDef B;
    B.Name = "kmeans";
    B.Suite = "rodinia";
    // Cluster sizes (Fig 4c) and flattened centre sums.
    B.Source =
        "fun main (k: i32) (kd: i32) (d: i32) (points: [n][d]f32)\n"
        "         (membership: [n]i32): ([k]i32, [kd]f32) =\n"
        "  let counts = stream_red (map (+))\n"
        "    (\\(acc: *[k]i32) (chunk: [chunksize]i32): [k]i32 ->\n"
        "       loop (acc) for i < chunksize do\n"
        "         let cl = chunk[i]\n"
        "         in acc with [cl] <- acc[cl] + 1)\n"
        "    (replicate k 0) membership\n"
        "  let sums = stream_red (map (+))\n"
        "    (\\(acc: *[kd]f32) (ps: [cs][d]f32) (ms: [cs]i32): [kd]f32 ->\n"
        "       loop (acc) for i < cs do\n"
        "         let cl = ms[i]\n"
        "         in loop (acc) for j < d do\n"
        "              let acc[cl * d + j] = acc[cl * d + j] + ps[i, j]\n"
        "              in acc)\n"
        "    (replicate kd 0.0) points membership\n"
        "  in (counts, sums)";
    B.MakeInputs = [] {
      int64_t N = 8192, K = 5, D = 4;
      return std::vector<Value>{iv(K), iv(K * D), iv(D),
                                fmatR(N, D, 131), ivecR(N, 132, 0, K - 1)};
    };
    // Rodinia does not parallelise the segmented reduction for the new
    // cluster centres: the cross-chunk combine runs on the host.
    B.Ref.SegReduceInterchange = false;
    B.Ref.ReduceOnHost = true;
    B.Ref.HandTuningGTX = 10.3; // counts/assignment kernels are tight
    B.Ref.HandTuningW8100 = 10.9; // the AMD ref run is faster (Table 1)
    B.PaperSpeedupGTX = 2.79;
    B.PaperSpeedupW8100 = 0.79;
    B.Notes = "ref leaves the segmented reduction (new centres) serial";
    Bs.push_back(std::move(B));
  }

  {
    BenchmarkDef B;
    B.Name = "lavamd";
    B.Suite = "rodinia";
    // Particles in boxes; forces from the home box's neighbour list
    // (indirect indexing), the tiling pattern the paper highlights.
    B.Source =
        "fun main (p: i32) (nn: i32) (pos: [b][p]f32)\n"
        "         (nbrs: [b][nn]i32): [b][p]f32 =\n"
        "  map (\\(bi: i32): [p]f32 ->\n"
        "    map (\\(pi: i32): f32 ->\n"
        "      let x = pos[bi, pi]\n"
        "      in loop (f = 0.0) for ni < nn do\n"
        "        let nb = nbrs[bi, ni]\n"
        "        let fi = loop (fi = 0.0) for qj < p do\n"
        "          let q = pos[nb, qj]\n"
        "          let dx = x - q\n"
        "          in fi + dx * 0.01 - dx * dx * 0.001\n"
        "        in f + fi)\n"
        "      (iota p))\n"
        "    (iota b)";
    B.MakeInputs = [] {
      int64_t BX = 48, PP = 24, NN = 8;
      return std::vector<Value>{iv(PP), iv(NN), fmatR(BX, PP, 141),
                                imatR(BX, NN, 142, 0, BX - 1)};
    };
    B.Ref.Tiling = false;
    B.Ref.HandTuningGTX = 2.43; // hand-written kernel is otherwise tighter
    B.Ref.HandTuningW8100 = 0.95;
    B.PaperSpeedupGTX = 0.76;
    B.PaperSpeedupW8100 = 1.27;
    B.Notes = "indirectly indexed tiling (Section 5.2's LavaMD pattern)";
    Bs.push_back(std::move(B));
  }

  {
    BenchmarkDef B;
    B.Name = "myocyte";
    B.Suite = "rodinia";
    // Per-instance sequential ODE solver over a state vector with
    // in-place updates; wins come from automatic coalescing.
    B.Source =
        "fun main (inits: [w][s]f32) (steps: i32): [w][s]f32 =\n"
        "  map (\\(st0: [s]f32): [s]f32 ->\n"
        "    let st1 = copy st0\n"
        "    in loop (st = st1) for t < steps do\n"
        "      loop (st) for j < s do\n"
        "        let prev = st[j]\n"
        "        let nb = st[(j + 1) % s]\n"
        "        let st[j] = prev + 0.01 * (nb - prev) * (1.0 - prev)\n"
        "        in st)\n"
        "  inits";
    B.MakeInputs = [] {
      return std::vector<Value>{fmatR(2048, 32, 151, 0, 1), iv(16)};
    };
    B.Ref.Coalescing = false; // tedious to do by hand on such programs
    B.Ref.HandTuningGTX = 0.66; // ref also misses other locality opts
    B.PaperSpeedupGTX = 4.92;
    B.Notes = "win attributed to automatic coalescing";
    Bs.push_back(std::move(B));
  }

  {
    BenchmarkDef B;
    B.Name = "nn";
    B.Suite = "rodinia";
    // k nearest neighbours: per iteration a fused distance map + min/argmin
    // reduction; the reference leaves the reductions on the CPU.
    B.Source =
        "fun main (xs: [n]f32) (ys: [n]f32) (k: i32): ([k]f32, [k]i32) =\n"
        "  let ds = map (\\(x: f32) (y: f32): f32 ->\n"
        "                  abs (x - 3.0) + abs (y - 4.0)) xs ys\n"
        "  let r = loop ((prev, bd, bi) =\n"
        "                  (-1.0, replicate k 0.0, replicate k 0))\n"
        "          for it < k do\n"
        "    let (mv, mi) = reduce\n"
        "        (\\(v1: f32, i1: i32) (v2: f32, i2: i32): (f32, i32) ->\n"
        "           if v1 < v2 then (v1, i1) else (v2, i2))\n"
        "        (1000000.0, -1)\n"
        "        (zip (map (\\(d: f32): f32 ->\n"
        "                     if d > prev then d else 1000000.0) ds)\n"
        "             (iota n))\n"
        "    in (mv, bd with [it] <- mv, bi with [it] <- mi)\n"
        "  let (prev, bd, bi) = r\n"
        "  in (bd, bi)";
    B.MakeInputs = [] {
      return std::vector<Value>{fvecR(16384, 161, 0, 100),
                                fvecR(16384, 162, 0, 100), iv(6)};
    };
    B.Ref.ReduceOnHost = true; // 100 reduces left on the CPU
    B.Ref.HandTuningGTX = 1.44; // the distance kernel itself is tight
    B.Ref.HandTuningW8100 = 1.17;
    B.PaperSpeedupGTX = 16.26;
    B.PaperSpeedupW8100 = 5.14;
    B.Notes = "ref reduces on the host; AMD gains less due to launch "
              "overhead";
    Bs.push_back(std::move(B));
  }

  {
    BenchmarkDef B;
    B.Name = "pathfinder";
    B.Suite = "rodinia";
    B.Source =
        "fun main (wall: [r][c]i32): [c]i32 =\n"
        "  let first = map (\\(j: i32): i32 -> wall[0, j]) (iota c)\n"
        "  in loop (cur = first) for i < r - 1 do\n"
        "    map (\\(j: i32): i32 ->\n"
        "           let l = if j > 0 then cur[j - 1] else cur[j]\n"
        "           let m = cur[j]\n"
        "           let rr = if j < c - 1 then cur[j + 1] else cur[j]\n"
        "           in wall[i + 1, j] + min (min l m) rr)\n"
        "        (iota c)";
    B.MakeInputs = [] { return std::vector<Value>{imatR(64, 4096, 171, 0, 9)}; };
    // The reference's time tiling does redundant work here.
    B.Ref.HandTuningGTX = 0.40;
    B.Ref.HandTuningW8100 = 0.36;
    B.PaperSpeedupGTX = 2.49;
    B.PaperSpeedupW8100 = 2.8;
    B.Notes = "ref time tiling does not pay off on the tested hardware";
    Bs.push_back(std::move(B));
  }

  {
    BenchmarkDef B;
    B.Name = "srad";
    B.Suite = "rodinia";
    // Speckle-reducing anisotropic diffusion: global statistics reduces
    // plus a stencil update per iteration.
    B.Source =
        "fun main (img0: [r][c]f32) (iters: i32): [r][c]f32 =\n"
        "  loop (img = img0) for it < iters do\n"
        "    let total = reduce (+) 0.0\n"
        "        (map (\\(row: [c]f32): f32 -> reduce (+) 0.0 row) img)\n"
        "    let mean = total / (f32 r * f32 c)\n"
        "    in map (\\(i: i32): [c]f32 ->\n"
        "         map (\\(j: i32): f32 ->\n"
        "            let ct = img[i, j]\n"
        "            let up = if i > 0 then img[i - 1, j] else ct\n"
        "            let lf = if j > 0 then img[i, j - 1] else ct\n"
        "            in ct + 0.2 * (up + lf - 2.0 * ct) * (ct / mean))\n"
        "           (iota c))\n"
        "         (iota r)";
    B.MakeInputs = [] {
      return std::vector<Value>{fmatR(96, 96, 181, 1, 2), iv(8)};
    };
    B.Ref.ReduceOnHost = true; // statistics reduces left unoptimised
    B.Ref.HandTuningGTX = 0.65; // plus per-iteration host bookkeeping
    B.Ref.HandTuningW8100 = 0.14;
    B.PaperSpeedupGTX = 1.24;
    B.PaperSpeedupW8100 = 5.6;
    B.Notes = "ref leaves (nested) reduces unoptimised";
    Bs.push_back(std::move(B));
  }

  //===------------------------------------------------------------------===//
  // FinPar
  //===------------------------------------------------------------------===//

  {
    BenchmarkDef B;
    B.Name = "locvolcalib";
    B.Suite = "finpar";
    // The outer map over options contains a sequential time loop which
    // itself contains inner maps and a scan — exploiting all parallelism
    // needs the G7 map-loop interchange.
    B.Source =
        "fun main (os: [o][m]f32) (steps: i32): [o][m]f32 =\n"
        "  map (\\(row0: [m]f32): [m]f32 ->\n"
        "    loop (row = row0) for t < steps do\n"
        "      let a = map (\\(j: i32): f32 ->\n"
        "           let lf = if j > 0 then row[j - 1] else row[j]\n"
        "           let rt = if j < m - 1 then row[j + 1] else row[j]\n"
        "           in 0.25 * lf + 0.5 * row[j] + 0.25 * rt)\n"
        "          (iota m)\n"
        "      let sc = scan (+) 0.0 a\n"
        "      let total = sc[m - 1]\n"
        "      in map (\\(v: f32): f32 -> v / (1.0 + total * 0.001)) sc)\n"
        "    os";
    B.MakeInputs = [] {
      return std::vector<Value>{fmatR(64, 128, 191, 0, 1), iv(12)};
    };
    // The FinPar reference is expert-tuned.
    B.Ref.HandTuningGTX = 1.1;
    B.Ref.HandTuningW8100 = 1.6;
    B.PaperSpeedupGTX = 0.94;
    B.PaperSpeedupW8100 = 0.62;
    B.Notes = "needs map-loop interchange (G7); AMD pays more for the "
              "coalescing transpositions";
    Bs.push_back(std::move(B));
  }

  {
    BenchmarkDef B;
    B.Name = "optionpricing";
    B.Suite = "finpar";
    // Fig 10's structure: a stream_map with an expensive independent
    // formula per chunk and a cheap recurrence within, fused with the
    // outer reduce into a stream_red; a Brownian-bridge-style in-place
    // loop per element (inexpressible without in-place updates).
    B.Source =
        "fun main (n: i32) (m: i32) (dirs: [m]f32): f32 =\n"
        "  let ys = stream_map (\\(is: [cs]i32): [cs]f32 ->\n"
        "        let seed = if cs > 0 then is[0] else 0\n"
        "        let a = loop (a = f32 seed) for q < 20 do\n"
        "                  a * 0.9 + 0.1\n"
        "        let t = map (\\(i: i32): f32 -> a + f32 i * 0.001) is\n"
        "        let y = scan (+) 0.0 t\n"
        "        in map (\\(v: f32): f32 ->\n"
        "             let bb = replicate m 0.0\n"
        "             let bb2 = loop (bb) for j < m do\n"
        "                 let bb[j] = v * dirs[j]\n"
        "                     + (if j > 0 then bb[j - 1] else 0.0) * 0.5\n"
        "                 in bb\n"
        "             in reduce (+) 0.0 bb2 * 0.001 + v * 0.01) y)\n"
        "      (iota n)\n"
        "  in reduce (+) 0.0 ys";
    B.MakeInputs = [] {
      return std::vector<Value>{iv(8192), iv(32), fvecR(32, 201, 0, 1)};
    };
    B.VerifyInterleave = 4096; // matches the device chunk count
    B.Ref.HandTuningGTX = 0.8;
    B.Ref.HandTuningW8100 = 0.85;
    B.PaperSpeedupGTX = 1.27;
    B.PaperSpeedupW8100 = 1.19;
    B.Notes = "measures sequentialisation of excess parallelism";
    Bs.push_back(std::move(B));
  }

  //===------------------------------------------------------------------===//
  // Parboil
  //===------------------------------------------------------------------===//

  {
    BenchmarkDef B;
    B.Name = "mriq";
    B.Suite = "parboil";
    // Per-voxel sum over the (invariant) k-space sample tables — the
    // one-dimensional tiling pattern.
    B.Source =
        "fun main (xs: [x]f32) (kx: [ks]f32) (phi: [ks]f32): [x]f32 =\n"
        "  map (\\(p: f32): f32 ->\n"
        "         reduce (+) 0.0\n"
        "           (map (\\(k: f32) (ph: f32): f32 -> ph * cos (k * p))\n"
        "                kx phi))\n"
        "      xs";
    B.MakeInputs = [] {
      return std::vector<Value>{fvecR(4096, 211, -1, 1),
                                fvecR(256, 212, 0, 6.28),
                                fvecR(256, 213, -1, 1)};
    };
    B.Ref.Tiling = false;
    B.Ref.HandTuningGTX = 2.81; // otherwise tight hand-written kernel
    B.Ref.HandTuningW8100 = 1.55;
    B.PaperSpeedupGTX = 1.30;
    B.PaperSpeedupW8100 = 1.25;
    B.Notes = "selected to demonstrate tiling";
    Bs.push_back(std::move(B));
  }

  //===------------------------------------------------------------------===//
  // Accelerate
  //===------------------------------------------------------------------===//

  {
    BenchmarkDef B;
    B.Name = "crystal";
    B.Suite = "accelerate";
    B.Source =
        "fun main (w: i32) (xs: [npix]f32): [npix]f32 =\n"
        "  map (\\(x: f32): f32 ->\n"
        "         reduce (+) 0.0\n"
        "           (map (\\(wi: i32): f32 ->\n"
        "                   cos (x * f32 (wi + 1) + f32 wi))\n"
        "                (iota w)))\n"
        "      xs";
    B.MakeInputs = [] {
      return std::vector<Value>{iv(24), fvecR(8192, 221, 0, 6.28)};
    };
    B.Ref.Fusion = false; // combinator-at-a-time execution
    B.Ref.HandTuningGTX = 1.13; // the unfused pipeline is itself decent
    B.PaperSpeedupGTX = 4.88;
    B.Notes = "fusion impact x10.1 in the paper's ablation";
    Bs.push_back(std::move(B));
  }

  {
    BenchmarkDef B;
    B.Name = "fluid";
    B.Suite = "accelerate";
    B.Source =
        "fun main (g0: [r][c]f32) (b: [r][c]f32) (iters: i32): [r][c]f32 =\n"
        "  loop (g = g0) for it < iters do\n"
        "    map (\\(i: i32): [c]f32 ->\n"
        "      map (\\(j: i32): f32 ->\n"
        "        let up = if i > 0 then g[i - 1, j] else 0.0\n"
        "        let dn = if i < r - 1 then g[i + 1, j] else 0.0\n"
        "        let lf = if j > 0 then g[i, j - 1] else 0.0\n"
        "        let rt = if j < c - 1 then g[i, j + 1] else 0.0\n"
        "        in (b[i, j] + 0.2 * (up + dn + lf + rt)) / 1.8)\n"
        "        (iota c))\n"
        "      (iota r)";
    B.MakeInputs = [] {
      return std::vector<Value>{fmatR(64, 64, 231), fmatR(64, 64, 232),
                                iv(10)};
    };
    B.Ref.Fusion = false;
    B.Ref.HandTuningGTX = 0.37; // Accelerate per-combinator scheduling
    B.PaperSpeedupGTX = 2.68;
    B.Notes = "iterated Jacobi solver";
    Bs.push_back(std::move(B));
  }

  {
    BenchmarkDef B;
    B.Name = "mandelbrot";
    B.Suite = "accelerate";
    B.Source =
        "fun main (w: i32) (h: i32) (limit: i32): [h][w]i32 =\n"
        "  map (\\(i: i32): [w]i32 ->\n"
        "    map (\\(j: i32): i32 ->\n"
        "      let cr = -2.0 + 3.0 * f32 j / f32 w\n"
        "      let ci = -1.5 + 3.0 * f32 i / f32 h\n"
        "      let res = loop ((zr, zi, cnt) = (0.0, 0.0, 0))\n"
        "                for t < limit do\n"
        "        let zr2 = zr * zr - zi * zi + cr\n"
        "        let zi2 = 2.0 * zr * zi + ci\n"
        "        let inside = zr2 * zr2 + zi2 * zi2 < 4.0\n"
        "        in (if inside then zr2 else zr,\n"
        "            if inside then zi2 else zi,\n"
        "            if inside then cnt + 1 else cnt)\n"
        "      let (zr, zi, cnt) = res\n"
        "      in cnt) (iota w)) (iota h)";
    B.MakeInputs = [] {
      return std::vector<Value>{iv(96), iv(96), iv(32)};
    };
    // Nothing to fuse; Accelerate's overhead is per-combinator scheduling.
    B.Ref.HandTuningGTX = 0.27;
    B.PaperSpeedupGTX = 3.80;
    B.Notes = "kept compute-bound: the loop is NOT interchanged (G7 "
              "heuristic)";
    Bs.push_back(std::move(B));
  }

  {
    BenchmarkDef B;
    B.Name = "nbody";
    B.Suite = "accelerate";
    B.Source =
        "fun main (xs: [n]f32) (ys: [n]f32) (ms: [n]f32): "
        "([n]f32, [n]f32) =\n"
        "  let r = map (\\(xi: f32) (yi: f32): (f32, f32) ->\n"
        "     let ds = map (\\(xj: f32) (yj: f32) (mj: f32): (f32, f32) ->\n"
        "          let dx = xj - xi\n"
        "          let dy = yj - yi\n"
        "          let r2 = dx * dx + dy * dy + 0.01\n"
        "          let f = mj / (r2 * sqrt r2)\n"
        "          in (f * dx, f * dy)) xs ys ms\n"
        "     in reduce (\\(a1: f32, b1: f32) (a2: f32, b2: f32): "
        "(f32, f32) ->\n"
        "          (a1 + a2, b1 + b2)) (0.0, 0.0) ds) xs ys\n"
        "  in r";
    B.MakeInputs = [] {
      return std::vector<Value>{fvecR(768, 241, -1, 1),
                                fvecR(768, 242, -1, 1),
                                fvecR(768, 243, 0.1, 1)};
    };
    B.Ref.Fusion = false;
    B.Ref.Tiling = false;
    B.Ref.HandTuningGTX = 1.99; // the CUDA kernels are otherwise decent
    B.Ref.HandTuningW8100 = 1.15;
    B.PaperSpeedupGTX = 6.85;
    B.Notes = "width-N map of folds over all N bodies; tiling impact "
              "x2.29";
    Bs.push_back(std::move(B));
  }

  return Bs;
}

} // namespace

const std::vector<BenchmarkDef> &fut::bench::allBenchmarks() {
  static const std::vector<BenchmarkDef> Bs = makeBenchmarks();
  return Bs;
}

const BenchmarkDef *fut::bench::findBenchmark(const std::string &Name) {
  for (const BenchmarkDef &B : allBenchmarks())
    if (B.Name == Name)
      return &B;
  return nullptr;
}

ErrorOr<BenchRun> fut::bench::runBenchmark(const BenchmarkDef &B,
                                           const CompilerOptions &Opts,
                                           const gpusim::DeviceParams &DP,
                                           bool Verify) {
  NameSource NS;
  auto C = compileSource(B.Source, NS, Opts);
  if (!C)
    return CompilerError(B.Name + ": " + C.getError().Message);
  std::vector<Value> Inputs = B.MakeInputs();

  gpusim::Device D(DP);
  D.setMemoryPlan(&C->MemPlan);
  auto R = D.runMain(C->P, Inputs);
  if (!R)
    return CompilerError(B.Name + " (device): " + R.getError().Message);

  if (Verify) {
    NameSource NS2;
    auto Ref = frontend(B.Source, NS2);
    if (!Ref)
      return Ref.getError();
    InterpOptions IOpts;
    IOpts.StreamInterleave = B.VerifyInterleave;
    Interpreter I(*Ref, IOpts);
    auto Want = I.run(Inputs);
    if (!Want)
      return CompilerError(B.Name + " (reference): " +
                           Want.getError().Message);
    if (Want->size() != R->Outputs.size())
      return CompilerError(B.Name + ": result arity mismatch");
    for (size_t J = 0; J < Want->size(); ++J)
      if (!R->Outputs[J].approxEqual((*Want)[J], 1e-4, 1e-5))
        return CompilerError(B.Name + ": device result " +
                             std::to_string(J) +
                             " deviates from the reference semantics");
  }

  BenchRun Out;
  Out.Cost = R->Cost;
  Out.Outputs = std::move(R->Outputs);
  return Out;
}

ErrorOr<SpeedupResult> fut::bench::measureSpeedup(
    const BenchmarkDef &B, const gpusim::DeviceParams &DP) {
  CompilerOptions Full;
  auto F = runBenchmark(B, Full, DP);
  if (!F)
    return F.getError();
  auto R = runBenchmark(B, refCompilerOptions(B.Ref), DP);
  if (!R)
    return R.getError();

  double Tuning =
      DP.Name == "w8100" ? B.Ref.HandTuningW8100 : B.Ref.HandTuningGTX;
  SpeedupResult S;
  S.FutharkCycles = F->Cost.TotalCycles;
  S.RefCycles = R->Cost.TotalCycles / Tuning;
  S.Speedup = S.RefCycles / S.FutharkCycles;
  S.FutharkCost = F->Cost;
  return S;
}
