//===- costline_golden_test.cpp - Pinned cost lines of the suite -----------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Byte-for-byte pins of CostReport::str() and an output hash for all
/// sixteen benchmarks in two configurations, plus examples/kmeans.fut:
///
///  * the pipeline cost model on one device — its cost line also carries
///    the roofline total and the warp profile (warps, divergent warps,
///    coalescer excess, bank conflicts), so it pins both models and every
///    per-lane observable the kernel simulator feeds them;
///  * the default (roofline) model sharded over two devices.
///
/// A few benchmarks are also pinned on the launch paths those two tables
/// never take: the --sync timeline, fixed-seed fault injection on one and
/// two devices, and a watchdog kill that falls back to the interpreter.
///
/// The goldens were produced before the kernel simulator's evaluator was
/// rewritten and must never be regenerated to make a simulator change
/// pass: simulated cycles change only on purpose.
///
//===----------------------------------------------------------------------===//

#include "bench_suite/Benchmarks.h"
#include "driver/Compiler.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>

using namespace fut;

namespace {

struct Golden {
  const char *Name;
  const char *Line;
  uint64_t OutHash;
};

/// FNV-1a over every output's kind, shape and element bits.
uint64_t hashOutputs(const std::vector<Value> &Outs) {
  uint64_t H = 0xcbf29ce484222325ULL;
  auto Mix = [&H](uint64_t X) {
    for (int I = 0; I < 8; ++I) {
      H ^= (X >> (8 * I)) & 0xff;
      H *= 0x100000001b3ULL;
    }
  };
  auto MixPrim = [&](const PrimValue &P) {
    Mix(static_cast<uint64_t>(P.kind()));
    if (P.isFloat()) {
      double D = P.asDouble();
      uint64_t Bits;
      std::memcpy(&Bits, &D, sizeof Bits);
      Mix(Bits);
    } else {
      Mix(static_cast<uint64_t>(P.asInt64()));
    }
  };
  for (const Value &V : Outs) {
    Mix(static_cast<uint64_t>(V.rank()));
    if (V.isScalar()) {
      MixPrim(V.getScalar());
      continue;
    }
    for (int64_t D : V.shape())
      Mix(static_cast<uint64_t>(D));
    for (const PrimValue &P : V.flat())
      MixPrim(P);
  }
  return H;
}

/// Compiles \p Src and runs its main exactly as `futharkcc --run` does
/// with the given cost model and device count.  \p RO carries any further
/// device and resilience settings (--sync, fault injection, watchdog);
/// \p WantFallback says whether the run must end on the interpreter.
void expectGolden(const std::string &Src, const std::vector<Value> &Args,
                  const char *Model, int Devices, const Golden &G,
                  DeviceRunOptions RO = {}, bool WantFallback = false) {
  SCOPED_TRACE(G.Name);
  NameSource NS;
  CompilerOptions CO;
  CO.Devices = Devices;
  auto C = compileSource(Src, NS, CO);
  ASSERT_TRUE(static_cast<bool>(C)) << C.getError().str();
  RO.Device.CostModelName = Model;
  RO.MemPlan = &C->MemPlan;
  if (Devices > 1) {
    RO.Shards = &C->Shards;
    RO.Devices = Devices;
  }
  auto R = runOnDevice(C->P, Args, RO);
  ASSERT_TRUE(static_cast<bool>(R)) << R.getError().str();
  EXPECT_EQ(R->InterpFallback, WantFallback);
  std::string Line = R->Cost.str();
  uint64_t Hash = hashOutputs(R->Outputs);
  EXPECT_EQ(Line, G.Line);
  EXPECT_EQ(Hash, G.OutHash);
  if (Line != G.Line || Hash != G.OutHash) {
    std::ostringstream OS;
    OS << "actual: {\"" << G.Name << "\",\n \"" << Line << "\",\n 0x"
       << std::hex << Hash << "ULL},";
    ADD_FAILURE() << OS.str();
  }
}

/// `--cost-model pipeline`, one device.
const Golden kPipeline[] = {
    {"backprop",
     "cycles=29630 (kernel=37122, host=32, transfer=0) launches=4 "
     "gtx=24617 (coalesced=24617, scattered=0) gaccess=590305 "
     "local=196608 private=786624 ops=984960 hostops=4 bytes=795392 "
     "retries=0 retrycycles=0 faults=0 wdkills=0 overlapsaved=7524 "
     "copybusy=0 computebusy=29622 peakbytes=795008 peakdemand=795008 "
     "freedbytes=795008 plannedpeak=795776 hoisted=0 "
     "reused=0 costmodel=pipeline rooflinecycles=29846 "
     "pipelinecycles=37122 warps=9 divergentwarps=0 coalescerexcess=0 "
     "bankconflictextra=0",
     0x53fc10bcaf67d98fULL},
    {"cfd",
     "cycles=9258 (kernel=11750, host=8, transfer=0) launches=2 "
     "gtx=4357 (coalesced=4357, scattered=0) gaccess=106496 local=40958 "
     "private=0 ops=262142 hostops=1 bytes=196608 retries=0 "
     "retrycycles=0 faults=0 wdkills=0 overlapsaved=2499 copybusy=0 "
     "computebusy=9250 peakbytes=196608 peakdemand=196608 freedbytes=0 "
     "plannedpeak=196608 hoisted=0 reused=0 "
     "costmodel=pipeline rooflinecycles=11743 pipelinecycles=11750 "
     "warps=256 divergentwarps=2 coalescerexcess=0 bankconflictextra=0",
     0x6dc614d3f45fb854ULL},
    {"hotspot",
     "cycles=83881 (kernel=141349, host=216, transfer=0) launches=24 "
     "gtx=52920 (coalesced=52920, scattered=0) gaccess=993024 local=0 "
     "private=0 ops=2979072 hostops=27 bytes=73728 retries=0 "
     "retrycycles=0 faults=0 wdkills=0 overlapsaved=57683 copybusy=0 "
     "computebusy=83849 peakbytes=73920 peakdemand=73920 "
     "freedbytes=407616 plannedpeak=73920 hoisted=11 "
     "reused=0 costmodel=pipeline rooflinecycles=141168 "
     "pipelinecycles=141349 warps=3492 divergentwarps=2304 "
     "coalescerexcess=0 bankconflictextra=0",
     0x4d1d02af79aa661aULL},
    {"kmeans",
     "cycles=49712 (kernel=59688, host=64, transfer=0) launches=5 "
     "gtx=20135 (coalesced=20135, scattered=0) gaccess=319513 "
     "local=110592 private=176128 ops=716800 hostops=8 bytes=163940 "
     "retries=0 retrycycles=0 faults=0 wdkills=0 overlapsaved=10040 "
     "copybusy=0 computebusy=49688 peakbytes=491540 peakdemand=491540 "
     "freedbytes=245760 plannedpeak=573540 hoisted=0 "
     "reused=0 costmodel=pipeline rooflinecycles=33054 "
     "pipelinecycles=59688 warps=258 divergentwarps=0 coalescerexcess=0 "
     "bankconflictextra=0",
     0xc574dbd969975ce3ULL},
    {"lavamd",
     "cycles=6302 (kernel=6294, host=8, transfer=0) launches=1 gtx=351 "
     "(coalesced=351, scattered=0) gaccess=10368 local=222336 private=0 "
     "ops=1578240 hostops=1 bytes=10752 retries=0 retrycycles=0 "
     "faults=0 wdkills=0 overlapsaved=0 copybusy=0 computebusy=6294 "
     "peakbytes=10752 peakdemand=10752 freedbytes=0 "
     "plannedpeak=10752 hoisted=0 reused=0 costmodel=pipeline "
     "rooflinecycles=5770 pipelinecycles=6294 warps=36 divergentwarps=0 "
     "coalescerexcess=0 bankconflictextra=0",
     0x764d443fdbc0cb69ULL},
    {"myocyte",
     "cycles=15206 (kernel=17698, host=8, transfer=0) launches=2 "
     "gtx=10241 (coalesced=10241, scattered=0) gaccess=262144 local=0 "
     "private=3276800 ops=10524672 hostops=1 bytes=524288 retries=0 "
     "retrycycles=0 faults=0 wdkills=0 overlapsaved=2499 copybusy=0 "
     "computebusy=15198 peakbytes=524288 peakdemand=524288 freedbytes=0 "
     "plannedpeak=524288 hoisted=0 reused=0 "
     "costmodel=pipeline rooflinecycles=17597 pipelinecycles=17698 "
     "warps=64 divergentwarps=0 coalescerexcess=0 bankconflictextra=0",
     0xb082f5fa897f2d35ULL},
    {"nn",
     "cycles=41855 (kernel=69325, host=224, transfer=6) launches=13 "
     "gtx=10764 (coalesced=10764, scattered=0) gaccess=344076 local=0 "
     "private=0 ops=802816 hostops=28 bytes=131168 retries=0 "
     "retrycycles=0 faults=0 wdkills=0 overlapsaved=27700 copybusy=6 "
     "computebusy=41825 peakbytes=196608 peakdemand=196608 "
     "freedbytes=458752 plannedpeak=196608 hoisted=0 "
     "reused=1 costmodel=pipeline rooflinecycles=69305 "
     "pipelinecycles=69325 warps=6656 divergentwarps=0 "
     "coalescerexcess=0 bankconflictextra=0",
     0x8e71adc5f8dc2e0dULL},
    {"pathfinder",
     "cycles=185224 (kernel=342716, host=1040, transfer=0) launches=64 "
     "gtx=56578 (coalesced=56578, scattered=0) gaccess=1298432 local=0 "
     "private=0 ops=3358594 hostops=130 bytes=1064960 retries=0 "
     "retrycycles=0 faults=0 wdkills=0 overlapsaved=158532 copybusy=0 "
     "computebusy=185216 peakbytes=1064960 peakdemand=1081344 "
     "freedbytes=1032192 plannedpeak=1081344 hoisted=62 "
     "reused=0 costmodel=pipeline rooflinecycles=342631 "
     "pipelinecycles=342716 warps=8192 divergentwarps=126 "
     "coalescerexcess=0 bankconflictextra=0",
     0xf81570c2ea1aa422ULL},
    {"srad",
     "cycles=121474 (kernel=201426, host=360, transfer=0) launches=33 "
     "gtx=90777 (coalesced=17049, scattered=73728) gaccess=535304 "
     "local=0 private=75264 ops=1260288 hostops=45 bytes=36864 "
     "retries=0 retrycycles=0 faults=0 wdkills=0 overlapsaved=80311 "
     "copybusy=0 computebusy=121426 peakbytes=36960 peakdemand=36960 "
     "freedbytes=261792 plannedpeak=37344 hoisted=7 "
     "reused=0 costmodel=pipeline rooflinecycles=201310 "
     "pipelinecycles=201426 warps=2376 divergentwarps=768 "
     "coalescerexcess=0 bankconflictextra=0",
     0xe5874ada4ac8d918ULL},
    {"locvolcalib",
     "cycles=150098 (kernel=277582, host=408, transfer=0) launches=52 "
     "gtx=35123 (coalesced=35123, scattered=0) gaccess=951808 local=0 "
     "private=8192 ops=2262592 hostops=51 bytes=65536 retries=0 "
     "retrycycles=0 faults=0 wdkills=0 overlapsaved=127892 copybusy=0 "
     "computebusy=150082 peakbytes=65792 peakdemand=65792 "
     "freedbytes=1182464 plannedpeak=98560 hoisted=11 "
     "reused=2 costmodel=pipeline rooflinecycles=274049 "
     "pipelinecycles=277582 warps=6194 divergentwarps=1536 "
     "coalescerexcess=0 bankconflictextra=0",
     0xc13f4c5f3aca404bULL},
    {"optionpricing",
     "cycles=9028 (kernel=11496, host=40, transfer=0) launches=2 "
     "gtx=705 (coalesced=705, scattered=0) gaccess=20481 local=524288 "
     "private=1089536 ops=2920448 hostops=5 bytes=128 retries=0 "
     "retrycycles=0 faults=0 wdkills=0 overlapsaved=2508 copybusy=0 "
     "computebusy=8996 peakbytes=16512 peakdemand=16512 freedbytes=128 "
     "plannedpeak=16512 hoisted=0 reused=0 "
     "costmodel=pipeline rooflinecycles=11471 pipelinecycles=11496 "
     "warps=256 divergentwarps=0 coalescerexcess=0 bankconflictextra=0",
     0x97f40aca400d9dfcULL},
    {"mriq",
     "cycles=8657 (kernel=8649, host=8, transfer=0) launches=1 gtx=512 "
     "(coalesced=512, scattered=0) gaccess=8192 local=2097152 "
     "private=4194304 ops=7348224 hostops=1 bytes=34816 retries=0 "
     "retrycycles=0 faults=0 wdkills=0 overlapsaved=0 copybusy=0 "
     "computebusy=8649 peakbytes=34816 peakdemand=34816 freedbytes=0 "
     "plannedpeak=34816 hoisted=0 reused=0 "
     "costmodel=pipeline rooflinecycles=8588 pipelinecycles=8649 "
     "warps=128 divergentwarps=0 coalescerexcess=0 bankconflictextra=0",
     0xb69ff68fc1d45c1fULL},
    {"crystal",
     "cycles=6005 (kernel=5989, host=16, transfer=0) launches=1 gtx=792 "
     "(coalesced=792, scattered=0) gaccess=16384 local=196608 "
     "private=589824 ops=1982464 hostops=2 bytes=65536 retries=0 "
     "retrycycles=0 faults=0 wdkills=0 overlapsaved=0 copybusy=0 "
     "computebusy=5989 peakbytes=65536 peakdemand=65536 freedbytes=0 "
     "plannedpeak=65536 hoisted=0 reused=0 "
     "costmodel=pipeline rooflinecycles=5968 pipelinecycles=5989 "
     "warps=256 divergentwarps=0 coalescerexcess=0 bankconflictextra=0",
     0x4345ccc87949d687ULL},
    {"fluid",
     "cycles=58250 (kernel=105718, host=184, transfer=0) launches=20 "
     "gtx=14080 (coalesced=14080, scattered=0) gaccess=326400 local=0 "
     "private=0 ops=938240 hostops=23 bytes=32768 retries=0 "
     "retrycycles=0 faults=0 wdkills=0 overlapsaved=47652 copybusy=0 "
     "computebusy=58218 peakbytes=32896 peakdemand=32896 "
     "freedbytes=148608 plannedpeak=32896 hoisted=9 "
     "reused=0 costmodel=pipeline rooflinecycles=105632 "
     "pipelinecycles=105718 warps=1300 divergentwarps=1280 "
     "coalescerexcess=0 bankconflictextra=0",
     0x4d30d01bf9088156ULL},
    {"mandelbrot",
     "cycles=10429 (kernel=12905, host=32, transfer=0) launches=2 "
     "gtx=579 (coalesced=579, scattered=0) gaccess=18528 local=0 "
     "private=0 ops=4278873 hostops=4 bytes=36864 retries=0 "
     "retrycycles=0 faults=0 wdkills=0 overlapsaved=2508 copybusy=0 "
     "computebusy=10405 peakbytes=37248 peakdemand=37248 freedbytes=0 "
     "plannedpeak=37248 hoisted=0 reused=0 "
     "costmodel=pipeline rooflinecycles=12090 pipelinecycles=12905 "
     "warps=291 divergentwarps=249 coalescerexcess=0 "
     "bankconflictextra=0",
     0xc0a9391aa6c95ca8ULL},
    {"nbody",
     "cycles=16582 (kernel=16574, host=8, transfer=0) launches=1 "
     "gtx=264 (coalesced=264, scattered=0) gaccess=1536 local=1771008 "
     "private=4128768 ops=9439488 hostops=1 bytes=15360 retries=0 "
     "retrycycles=0 faults=0 wdkills=0 overlapsaved=0 copybusy=0 "
     "computebusy=16574 peakbytes=15360 peakdemand=15360 freedbytes=0 "
     "plannedpeak=15360 hoisted=0 reused=0 "
     "costmodel=pipeline rooflinecycles=9609 pipelinecycles=16574 "
     "warps=24 divergentwarps=0 coalescerexcess=0 bankconflictextra=0",
     0x6ae4059edb49a7ccULL},
};

/// Default (roofline) model, `--devices 2`.
const Golden kTwoDevices[] = {
    {"backprop",
     "cycles=109400 (kernel=41488, host=32, transfer=99448) launches=6 "
     "gtx=28721 (coalesced=28721, scattered=0) gaccess=590305 "
     "local=196608 private=786624 ops=984960 hostops=4 bytes=1590976 "
     "retries=0 retrycycles=0 faults=0 wdkills=0 overlapsaved=31567 "
     "copybusy=99448 computebusy=28988 peakbytes=795008 "
     "peakdemand=795008 freedbytes=795008 "
     "plannedpeak=795776 hoisted=0 reused=0 devices=2 shardedlaunches=2 "
     "interdevbytes=795584 interdevcycles=99448 devpeaks=794816,794816",
     0x53fc10bcaf67d98fULL},
    {"cfd",
     "cycles=23245 (kernel=16743, host=8, transfer=20480) launches=3 "
     "gtx=4357 (coalesced=4357, scattered=0) gaccess=106496 local=40958 "
     "private=0 ops=262142 hostops=1 bytes=360448 retries=0 "
     "retrycycles=0 faults=0 wdkills=0 overlapsaved=13986 "
     "copybusy=20480 computebusy=11743 peakbytes=196608 "
     "peakdemand=196608 freedbytes=0 plannedpeak=196608 "
     "hoisted=0 reused=0 devices=2 shardedlaunches=1 "
     "interdevbytes=163840 interdevcycles=20480 devpeaks=180224,180224",
     0x6dc614d3f45fb854ULL},
    {"hotspot",
     "cycles=83700 (kernel=141168, host=216, transfer=0) launches=24 "
     "gtx=52920 (coalesced=52920, scattered=0) gaccess=993024 local=0 "
     "private=0 ops=2979072 hostops=27 bytes=73728 retries=0 "
     "retrycycles=0 faults=0 wdkills=0 overlapsaved=57684 copybusy=0 "
     "computebusy=83668 peakbytes=73920 peakdemand=73920 "
     "freedbytes=407616 plannedpeak=73920 hoisted=11 "
     "reused=0 devices=2 shardedlaunches=0 interdevbytes=0 "
     "interdevcycles=0 devpeaks=0,0",
     0x4d1d02af79aa661aULL},
    {"kmeans",
     "cycles=56925 (kernel=56279, host=64, transfer=71692) launches=9 "
     "gtx=28198 (coalesced=27942, scattered=256) gaccess=319513 "
     "local=110592 private=176128 ops=716800 hostops=8 bytes=737480 "
     "retries=0 retrycycles=0 faults=0 wdkills=0 overlapsaved=71110 "
     "copybusy=71692 computebusy=33779 peakbytes=491540 "
     "peakdemand=491540 freedbytes=245760 "
     "plannedpeak=573540 hoisted=0 reused=0 devices=2 shardedlaunches=4 "
     "interdevbytes=573540 interdevcycles=71692 devpeaks=327760,327760",
     0xc574dbd969975ce3ULL},
    {"lavamd",
     "cycles=5393 (kernel=10770, host=8, transfer=768) launches=2 "
     "gtx=350 (coalesced=350, scattered=0) gaccess=10368 local=222336 "
     "private=0 ops=1578240 hostops=1 bytes=16896 retries=0 "
     "retrycycles=0 faults=0 wdkills=0 overlapsaved=6153 copybusy=768 "
     "computebusy=9234 peakbytes=10752 peakdemand=10752 freedbytes=0 "
     "plannedpeak=10752 hoisted=0 reused=0 devices=2 "
     "shardedlaunches=1 interdevbytes=6144 interdevcycles=768 "
     "devpeaks=8448,8448",
     0x764d443fdbc0cb69ULL},
    {"myocyte",
     "cycles=37845 (kernel=22597, host=8, transfer=32768) launches=3 "
     "gtx=10241 (coalesced=10241, scattered=0) gaccess=262144 local=0 "
     "private=3276800 ops=10524672 hostops=1 bytes=786432 retries=0 "
     "retrycycles=0 faults=0 wdkills=0 overlapsaved=17527 "
     "copybusy=32768 computebusy=17597 peakbytes=524288 "
     "peakdemand=524288 freedbytes=0 plannedpeak=524288 "
     "hoisted=0 reused=0 devices=2 shardedlaunches=1 "
     "interdevbytes=262144 interdevcycles=32768 devpeaks=393216,393216",
     0xb082f5fa897f2d35ULL},
    {"nn",
     "cycles=45624 (kernel=74305, host=224, transfer=4102) launches=14 "
     "gtx=10764 (coalesced=10764, scattered=0) gaccess=344076 local=0 "
     "private=0 ops=802816 hostops=28 bytes=163936 retries=0 "
     "retrycycles=0 faults=0 wdkills=0 overlapsaved=33007 copybusy=4102 "
     "computebusy=46805 peakbytes=196608 peakdemand=196608 "
     "freedbytes=458752 plannedpeak=196608 hoisted=0 "
     "reused=1 devices=2 shardedlaunches=1 interdevbytes=32768 "
     "interdevcycles=4096 devpeaks=98304,98304",
     0x8e71adc5f8dc2e0dULL},
    {"pathfinder",
     "cycles=313659 (kernel=347631, host=1040, transfer=131072) "
     "launches=65 gtx=56578 (coalesced=56578, scattered=0) "
     "gaccess=1298432 local=0 private=0 ops=3358594 hostops=130 "
     "bytes=2113536 retries=0 retrycycles=0 faults=0 wdkills=0 "
     "overlapsaved=166083 copybusy=131072 computebusy=185131 "
     "peakbytes=1064960 peakdemand=1081344 freedbytes=1032192 "
     "plannedpeak=1081344 hoisted=62 reused=0 devices=2 "
     "shardedlaunches=1 interdevbytes=1048576 interdevcycles=131072 "
     "devpeaks=1056768,1056768",
     0xf81570c2ea1aa422ULL},
    {"srad",
     "cycles=121358 (kernel=201310, host=360, transfer=0) launches=33 "
     "gtx=90777 (coalesced=17049, scattered=73728) gaccess=535304 "
     "local=0 private=75264 ops=1260288 hostops=45 bytes=36864 "
     "retries=0 retrycycles=0 faults=0 wdkills=0 overlapsaved=80312 "
     "copybusy=0 computebusy=121310 peakbytes=36960 peakdemand=36960 "
     "freedbytes=261792 plannedpeak=37344 hoisted=7 "
     "reused=0 devices=2 shardedlaunches=0 interdevbytes=0 "
     "interdevcycles=0 devpeaks=0,0",
     0xe5874ada4ac8d918ULL},
    {"locvolcalib",
     "cycles=146462 (kernel=279049, host=408, transfer=4096) "
     "launches=53 gtx=35123 (coalesced=35123, scattered=0) "
     "gaccess=951808 local=0 private=8192 ops=2262592 hostops=51 "
     "bytes=98304 retries=0 retrycycles=0 faults=0 wdkills=0 "
     "overlapsaved=137090 copybusy=4096 computebusy=149049 "
     "peakbytes=65792 peakdemand=65792 freedbytes=1182464 "
     "plannedpeak=98560 hoisted=11 reused=2 devices=2 "
     "shardedlaunches=1 interdevbytes=32768 interdevcycles=4096 "
     "devpeaks=49152,49152",
     0xc13f4c5f3aca404bULL},
    {"optionpricing",
     "cycles=9317 (kernel=16471, host=40, transfer=5152) launches=3 "
     "gtx=705 (coalesced=705, scattered=0) gaccess=20481 local=524288 "
     "private=1089536 ops=2920448 hostops=5 bytes=41344 retries=0 "
     "retrycycles=0 faults=0 wdkills=0 overlapsaved=12345 copybusy=5152 "
     "computebusy=13907 peakbytes=16512 peakdemand=16512 freedbytes=128 "
     "plannedpeak=16512 hoisted=0 reused=0 devices=2 "
     "shardedlaunches=1 interdevbytes=41216 interdevcycles=5152 "
     "devpeaks=41216,41216",
     0x97f40aca400d9dfcULL},
    {"mriq",
     "cycles=6802 (kernel=13588, host=8, transfer=256) launches=2 "
     "gtx=512 (coalesced=512, scattered=0) gaccess=8192 local=2097152 "
     "private=4194304 ops=7348224 hostops=1 bytes=36864 retries=0 "
     "retrycycles=0 faults=0 wdkills=0 overlapsaved=7050 copybusy=256 "
     "computebusy=13076 peakbytes=34816 peakdemand=34816 freedbytes=0 "
     "plannedpeak=34816 hoisted=0 reused=0 devices=2 "
     "shardedlaunches=1 interdevbytes=2048 interdevcycles=256 "
     "devpeaks=18432,18432",
     0xb69ff68fc1d45c1fULL},
    {"crystal",
     "cycles=5500 (kernel=10968, host=16, transfer=12) launches=2 "
     "gtx=792 (coalesced=792, scattered=0) gaccess=16384 local=196608 "
     "private=589824 ops=1982464 hostops=2 bytes=65632 retries=0 "
     "retrycycles=0 faults=0 wdkills=0 overlapsaved=5496 copybusy=12 "
     "computebusy=10968 peakbytes=65536 peakdemand=65536 freedbytes=0 "
     "plannedpeak=65536 hoisted=0 reused=0 devices=2 "
     "shardedlaunches=1 interdevbytes=96 interdevcycles=12 "
     "devpeaks=32864,32864",
     0x4345ccc87949d687ULL},
    {"fluid",
     "cycles=58163 (kernel=105632, host=184, transfer=0) launches=20 "
     "gtx=14080 (coalesced=14080, scattered=0) gaccess=326400 local=0 "
     "private=0 ops=938240 hostops=23 bytes=32768 retries=0 "
     "retrycycles=0 faults=0 wdkills=0 overlapsaved=47652 copybusy=0 "
     "computebusy=58131 peakbytes=32896 peakdemand=32896 "
     "freedbytes=148608 plannedpeak=32896 hoisted=9 "
     "reused=0 devices=2 shardedlaunches=0 interdevbytes=0 "
     "interdevcycles=0 devpeaks=0,0",
     0x4d30d01bf9088156ULL},
    {"mandelbrot",
     "cycles=8570 (kernel=22091, host=32, transfer=0) launches=4 "
     "gtx=581 (coalesced=581, scattered=0) gaccess=18528 local=0 "
     "private=0 ops=4278873 hostops=4 bytes=36864 retries=0 "
     "retrycycles=0 faults=0 wdkills=0 overlapsaved=13552 copybusy=0 "
     "computebusy=17091 peakbytes=37248 peakdemand=37248 freedbytes=0 "
     "plannedpeak=37248 hoisted=0 reused=0 devices=2 "
     "shardedlaunches=2 interdevbytes=0 interdevcycles=0 "
     "devpeaks=18624,18624",
     0xc0a9391aa6c95ca8ULL},
    {"nbody",
     "cycles=7312 (kernel=14609, host=8, transfer=1152) launches=2 "
     "gtx=264 (coalesced=264, scattered=0) gaccess=1536 local=1771008 "
     "private=4128768 ops=9439488 hostops=1 bytes=24576 retries=0 "
     "retrycycles=0 faults=0 wdkills=0 overlapsaved=8456 copybusy=1152 "
     "computebusy=12305 peakbytes=15360 peakdemand=15360 freedbytes=0 "
     "plannedpeak=15360 hoisted=0 reused=0 devices=2 "
     "shardedlaunches=1 interdevbytes=9216 interdevcycles=1152 "
     "devpeaks=12288,12288",
     0x6ae4059edb49a7ccULL},
};

/// examples/kmeans.fut under the default options.
const Golden kKmeansExample =
    {"kmeans.fut",
     "cycles=20532 (kernel=33024, host=56, transfer=0) launches=6 "
     "gtx=7562 (coalesced=7562, scattered=0) gaccess=114708 local=0 "
     "private=28672 ops=294948 hostops=7 bytes=0 retries=0 "
     "retrycycles=0 faults=0 wdkills=0 overlapsaved=12548 copybusy=0 "
     "computebusy=20524 peakbytes=114712 peakdemand=114712 "
     "freedbytes=114712 plannedpeak=114712 hoisted=0 "
     "reused=1",
     0xcee6815e76080144ULL};

/// Launch paths the suite tables above never take, each pinned on a few
/// suite benchmarks: the serial --sync timeline, fixed-seed transient
/// faults (launch failures and detected corruption, retried in place) on
/// one and two devices, and a per-kernel watchdog kill that ends the run
/// on the reference interpreter.
const Golden kSync[] = {
    {"kmeans",
     "cycles=33118 (kernel=33054, host=64, transfer=0) launches=5 "
     "gtx=20135 (coalesced=20135, scattered=0) gaccess=319513 "
     "local=110592 private=176128 ops=716800 hostops=8 bytes=163940 "
     "retries=0 retrycycles=0 faults=0 wdkills=0 overlapsaved=0 "
     "copybusy=0 computebusy=0 peakbytes=491540 peakdemand=491540 "
     "freedbytes=245760 plannedpeak=573540 hoisted=0 reused=0",
     0xc574dbd969975ce3ULL},
    {"fluid",
     "cycles=105816 (kernel=105632, host=184, transfer=0) launches=20 "
     "gtx=14080 (coalesced=14080, scattered=0) gaccess=326400 local=0 "
     "private=0 ops=938240 hostops=23 bytes=32768 retries=0 "
     "retrycycles=0 faults=0 wdkills=0 overlapsaved=0 copybusy=0 "
     "computebusy=0 peakbytes=32896 peakdemand=32896 freedbytes=148608 "
     "plannedpeak=32896 hoisted=9 reused=0",
     0x4d30d01bf9088156ULL},
    {"srad",
     "cycles=201670 (kernel=201310, host=360, transfer=0) launches=33 "
     "gtx=90777 (coalesced=17049, scattered=73728) gaccess=535304 "
     "local=0 private=75264 ops=1260288 hostops=45 bytes=36864 "
     "retries=0 retrycycles=0 faults=0 wdkills=0 overlapsaved=0 "
     "copybusy=0 computebusy=0 peakbytes=36960 peakdemand=36960 "
     "freedbytes=261792 plannedpeak=37344 hoisted=7 reused=0",
     0xe5874ada4ac8d918ULL},
};
const Golden kFaultsOneDevice[] = {
    {"kmeans",
     "cycles=46505 (kernel=45981, host=64, transfer=0) launches=7 "
     "gtx=27454 (coalesced=27454, scattered=0) gaccess=430125 "
     "local=135168 private=208896 ops=1101824 hostops=8 bytes=163940 "
     "retries=3 retrycycles=8000 faults=3 wdkills=0 overlapsaved=7540 "
     "copybusy=0 computebusy=38481 peakbytes=491540 peakdemand=491540 "
     "freedbytes=245760 plannedpeak=573540 hoisted=0 reused=0",
     0xc574dbd969975ce3ULL},
    {"fluid",
     "cycles=124290 (kernel=126758, host=184, transfer=0) launches=24 "
     "gtx=16896 (coalesced=16896, scattered=0) gaccess=391680 local=0 "
     "private=0 ops=1125888 hostops=23 bytes=32768 retries=12 "
     "retrycycles=30000 faults=12 wdkills=0 overlapsaved=32652 "
     "copybusy=0 computebusy=94258 peakbytes=32896 peakdemand=32896 "
     "freedbytes=148608 plannedpeak=32896 hoisted=9 reused=0",
     0x4d30d01bf9088156ULL},
};
const Golden kFaultsTwoDevices[] = {
    {"kmeans",
     "cycles=79708 (kernel=80845, host=64, transfer=71692) launches=13 "
     "gtx=39612 (coalesced=39356, scattered=256) gaccess=430125 "
     "local=135168 private=208896 ops=1101824 hostops=8 bytes=737480 "
     "retries=3 retrycycles=8000 faults=3 wdkills=0 overlapsaved=80893 "
     "copybusy=71692 computebusy=63345 peakbytes=491540 "
     "peakdemand=491540 freedbytes=245760 plannedpeak=573540 hoisted=0 "
     "reused=0 devices=2 shardedlaunches=6 interdevbytes=573540 "
     "interdevcycles=71692 devpeaks=327760,327760",
     0xc574dbd969975ce3ULL},
    {"backprop",
     "cycles=118864 (kernel=55596, host=32, transfer=99448) launches=8 "
     "gtx=38990 (coalesced=38990, scattered=0) gaccess=787009 "
     "local=393216 private=1573056 ops=1968576 hostops=4 bytes=1590976 "
     "retries=1 retrycycles=2000 faults=1 wdkills=0 overlapsaved=38211 "
     "copybusy=99448 computebusy=43096 peakbytes=795008 "
     "peakdemand=795008 freedbytes=795008 plannedpeak=795776 hoisted=0 "
     "reused=0 devices=2 shardedlaunches=3 interdevbytes=795584 "
     "interdevcycles=99448 devpeaks=794816,794816",
     0x53fc10bcaf67d98fULL},
    {"mandelbrot",
     "cycles=15571 (kernel=32093, host=32, transfer=0) launches=6 "
     "gtx=586 (coalesced=586, scattered=0) gaccess=18624 local=0 "
     "private=0 ops=4279065 hostops=4 bytes=36864 retries=1 "
     "retrycycles=2000 faults=1 wdkills=0 overlapsaved=18553 "
     "copybusy=0 computebusy=27093 peakbytes=37248 peakdemand=37248 "
     "freedbytes=0 plannedpeak=37248 hoisted=0 reused=0 devices=2 "
     "shardedlaunches=3 interdevbytes=0 interdevcycles=0 "
     "devpeaks=18624,18624",
     0xc0a9391aa6c95ca8ULL},
};
const Golden kWatchdogFallback[] = {
    {"kmeans",
     "cycles=4916288 (kernel=1000, host=4915288, transfer=0) "
     "launches=1 gtx=0 (coalesced=0, scattered=0) gaccess=0 local=0 "
     "private=0 ops=0 hostops=614411 bytes=32768 retries=0 "
     "retrycycles=0 faults=0 wdkills=1 overlapsaved=0 copybusy=0 "
     "computebusy=0 peakbytes=32768 peakdemand=114688 freedbytes=0 "
     "plannedpeak=32768 hoisted=0 reused=0",
     0xc574dbd969975ce3ULL},
    {"srad",
     "cycles=10082914 (kernel=6346, host=10076568, transfer=0) "
     "launches=2 gtx=865 (coalesced=865, scattered=0) gaccess=18432 "
     "local=0 private=0 ops=0 hostops=1259571 bytes=0 retries=0 "
     "retrycycles=0 faults=0 wdkills=1 overlapsaved=0 copybusy=0 "
     "computebusy=0 peakbytes=0 peakdemand=384 freedbytes=0 "
     "plannedpeak=0 hoisted=0 reused=0",
     0xe5874ada4ac8d918ULL},
};
const Golden kWatchdogFallbackTwoDevices[] = {
    {"kmeans",
     "cycles=4920386 (kernel=1000, host=4915288, transfer=4098) "
     "launches=1 gtx=0 (coalesced=0, scattered=0) gaccess=0 local=0 "
     "private=0 ops=0 hostops=614411 bytes=65556 retries=0 "
     "retrycycles=0 faults=0 wdkills=1 overlapsaved=0 copybusy=0 "
     "computebusy=0 peakbytes=32768 peakdemand=114688 freedbytes=0 "
     "plannedpeak=32768 hoisted=0 reused=0",
     0xc574dbd969975ce3ULL},
};

DeviceRunOptions syncOptions() {
  DeviceRunOptions RO;
  RO.Device.AsyncTimeline = false;
  return RO;
}

DeviceRunOptions faultOptions() {
  DeviceRunOptions RO;
  RO.Resilience.Faults.LaunchFailRate = 0.3;
  RO.Resilience.Faults.CorruptRate = 0.2;
  RO.Resilience.Faults.Seed = 7;
  return RO;
}

DeviceRunOptions watchdogOptions() {
  DeviceRunOptions RO;
  RO.Device.WatchdogKernelCycles = 1000;
  return RO;
}

const Golden *findGolden(const Golden *Begin, const Golden *End,
                         const std::string &Name) {
  for (const Golden *G = Begin; G != End; ++G)
    if (Name == G->Name)
      return G;
  return nullptr;
}

/// Runs the benchmarks named in [Begin, End) under \p RO.
void expectNamed(const Golden *Begin, const Golden *End, const char *Model,
                 int Devices, const DeviceRunOptions &RO,
                 bool WantFallback = false) {
  for (const Golden *G = Begin; G != End; ++G) {
    const bench::BenchmarkDef *B = nullptr;
    for (const bench::BenchmarkDef &D : bench::allBenchmarks())
      if (D.Name == G->Name)
        B = &D;
    ASSERT_NE(B, nullptr) << "no suite benchmark " << G->Name;
    expectGolden(B->Source, B->MakeInputs(), Model, Devices, *G, RO,
                 WantFallback);
  }
}

void expectSuite(const Golden *Begin, const Golden *End, const char *Model,
                 int Devices) {
  ASSERT_EQ(static_cast<size_t>(End - Begin), bench::allBenchmarks().size());
  for (const bench::BenchmarkDef &B : bench::allBenchmarks()) {
    const Golden *G = findGolden(Begin, End, B.Name);
    ASSERT_NE(G, nullptr) << "no golden for " << B.Name;
    expectGolden(B.Source, B.MakeInputs(), Model, Devices, *G);
  }
}

} // namespace

TEST(CostLineGolden, SuitePipelineModelOneDevice) {
  expectSuite(std::begin(kPipeline), std::end(kPipeline), "pipeline", 1);
}

TEST(CostLineGolden, SuiteDefaultModelTwoDevices) {
  expectSuite(std::begin(kTwoDevices), std::end(kTwoDevices), "roofline", 2);
}

TEST(CostLineGolden, KmeansExample) {
  std::ifstream In(std::string(FUTHARKCC_EXAMPLES_DIR) + "/kmeans.fut");
  ASSERT_TRUE(In.good()) << "examples/kmeans.fut not found";
  std::stringstream SS;
  SS << In.rdbuf();
  expectGolden(SS.str(), {}, "roofline", 1, kKmeansExample);
}

TEST(CostLineGolden, SyncTimeline) {
  expectNamed(std::begin(kSync), std::end(kSync), "roofline", 1,
              syncOptions());
}

TEST(CostLineGolden, FaultInjectionOneDevice) {
  expectNamed(std::begin(kFaultsOneDevice), std::end(kFaultsOneDevice),
              "roofline", 1, faultOptions());
}

TEST(CostLineGolden, FaultInjectionTwoDevices) {
  expectNamed(std::begin(kFaultsTwoDevices), std::end(kFaultsTwoDevices),
              "roofline", 2, faultOptions());
}

TEST(CostLineGolden, WatchdogKillFallsBackToInterpreter) {
  expectNamed(std::begin(kWatchdogFallback), std::end(kWatchdogFallback),
              "roofline", 1, watchdogOptions(), /*WantFallback=*/true);
}

TEST(CostLineGolden, WatchdogKillFallsBackToInterpreterTwoDevices) {
  expectNamed(std::begin(kWatchdogFallbackTwoDevices),
              std::end(kWatchdogFallbackTwoDevices), "roofline", 2,
              watchdogOptions(), /*WantFallback=*/true);
}
