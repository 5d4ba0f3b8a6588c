// Sharded lane-fleet service: the shard-count-invariance contract (output
// bytes are a pure function of the request — identical for shards in
// {1,2,4,8}, over loopback and real fork()ed subprocess workers, equal to
// one-shot apps::runApp on every substrate including
// faulty ReRAM + TMR), wire-codec round-trip/rejection properties, worker
// warm state, and crash -> recover-byte-identically failure semantics
// (tests/test_shard_chaos.cpp hammers the full fault matrix).
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <initializer_list>
#include <random>
#include <thread>
#include <vector>

#include "apps/runner.hpp"
#include "img/synth.hpp"
#include "service/accelerator_service.hpp"
#include "shard/coordinator.hpp"
#include "shard/supervisor.hpp"
#include "shard/transport.hpp"
#include "shard/wire.hpp"
#include "shard/worker.hpp"

namespace aimsc {
namespace {

using service::Request;
using shard::DecodeError;
using shard::IoResult;
using shard::ShardCoordinator;
using shard::ShardTransportKind;
using shard::TileAssignment;
using shard::WireReply;
using shard::WireRequest;

/// Client-side frame storage for one request (mirrors tests/test_service).
struct ClientJob {
  Request request;
  img::Image out;
  apps::CompositingScene compositing;
  apps::MattingScene matting;
  img::Image src;
};

ClientJob makeJob(apps::AppKind app, core::DesignKind design, std::size_t size,
                  std::uint64_t seed, std::size_t replicas = 1) {
  ClientJob job;
  Request& q = job.request;
  q.app = app;
  q.design = design;
  q.streamLength = 64;
  q.seed = seed;
  q.redundancy.replicas = replicas;
  switch (app) {
    case apps::AppKind::Compositing:
      job.compositing = apps::makeCompositingScene(size, size, seed);
      q.src = job.compositing.background;
      q.aux1 = job.compositing.foreground;
      q.aux2 = job.compositing.alpha;
      job.out = img::Image(size, size);
      break;
    case apps::AppKind::Matting:
      job.matting = apps::makeMattingScene(size, size, seed);
      q.src = job.matting.composite;
      q.aux1 = job.matting.background;
      q.aux2 = job.matting.foreground;
      job.out = img::Image(size, size);
      break;
    case apps::AppKind::Bilinear:
      job.src = img::naturalScene(size, size, seed ^ 0xb111);
      q.src = job.src;
      q.upscaleFactor = 2;
      job.out = img::Image(size * 2, size * 2);
      break;
    default:  // Filters / Gamma / Morphology
      job.src = img::naturalScene(size, size, seed ^ 0xb111);
      q.src = job.src;
      job.out = img::Image(size, size);
      break;
  }
  q.out = job.out;
  return job;
}

/// The oracle every sharded run must match byte-for-byte: the one-shot
/// runner on a matching lane fleet (lanes=4, rowsPerTile=4 — the shard
/// tests' fleet shape).
apps::RunResult oracleRun(const ClientJob& job, std::size_t size) {
  apps::RunConfig cfg;
  cfg.width = size;
  cfg.height = size;
  cfg.streamLength = job.request.streamLength;
  cfg.seed = job.request.seed;
  cfg.faults = job.request.faults;
  cfg.redundancy = job.request.redundancy;
  cfg.upscaleFactor = job.request.upscaleFactor;
  apps::ParallelConfig par;
  par.lanes = 4;
  par.threads = 1;  // forces the lane-fleet path on every design
  par.rowsPerTile = 4;
  return apps::runAppDetailed(job.request.app, job.request.design, cfg, par);
}

/// Builds a randomized-but-valid wire request (property-test generator).
WireRequest randomRequest(std::mt19937_64& rng) {
  WireRequest wq;
  wq.tenant = static_cast<std::uint32_t>(rng());
  wq.seedNamespace = rng();
  wq.app = static_cast<apps::AppKind>(rng() % 6);
  wq.design = static_cast<core::DesignKind>(rng() % 7);  // incl. SwScSfmt
  wq.gamma = 0.5 + (rng() % 400) / 100.0;
  wq.upscaleFactor = 1 + rng() % 4;
  wq.streamLength = 16u << (rng() % 5);
  wq.seed = rng();
  wq.faults.deviceVariability = (rng() & 1) != 0;
  wq.faults.device.sigmaHrs = 0.45 + (rng() % 100) / 100.0;
  wq.faults.faultModelSamples = 1000 + rng() % 9000;
  wq.faults.stuckAtRate = (rng() % 100) / 1e4;
  wq.faults.transientFlipRate = (rng() % 100) / 1e5;
  wq.faults.wearDriftPerMegaCycle = (rng() % 100) / 1e3;
  wq.faults.wearPreloadCycles = rng() % (1u << 20);
  wq.lanes = 1 + rng() % 16;
  wq.rowsPerTile = 1 + rng() % 8;
  wq.assignment.laneSeedBase = rng();
  wq.assignment.laneStride = 1 + rng() % wq.lanes;
  wq.assignment.laneBegin = rng() % wq.assignment.laneStride;
  const std::uint32_t w = 1 + rng() % 32;
  const std::uint32_t h = 1 + rng() % 32;
  wq.assignment.rowBegin = 0;
  wq.assignment.rowEnd = h;
  const auto frame = [&](std::uint32_t fw, std::uint32_t fh) {
    shard::WireFrame f;
    f.width = fw;
    f.height = fh;
    f.pixels.resize(static_cast<std::size_t>(fw) * fh);
    for (auto& px : f.pixels) px = static_cast<std::uint8_t>(rng());
    return f;
  };
  wq.src = frame(w, h);
  if ((rng() & 1) != 0) {
    wq.aux1 = frame(w, h);
    wq.aux2 = frame(w, h);
  }
  return wq;
}

WireReply randomReply(std::mt19937_64& rng) {
  WireReply reply;
  if (rng() % 4 == 0) {
    reply.ok = false;
    reply.error = "synthetic failure " + std::to_string(rng() % 1000);
    return reply;
  }
  reply.width = 1 + rng() % 48;
  reply.height = 1 + rng() % 48;
  std::uint32_t row = 0;
  while (row < reply.height && rng() % 8 != 0) {
    shard::RowSegment s;
    s.rowBegin = row;
    s.rowEnd = std::min<std::uint32_t>(row + 1 + rng() % 4, reply.height);
    s.pixels.resize(static_cast<std::size_t>(s.rowEnd - s.rowBegin) *
                    reply.width);
    for (auto& px : s.pixels) px = static_cast<std::uint8_t>(rng());
    row = s.rowEnd + rng() % 3;
    reply.segments.push_back(std::move(s));
  }
  const std::size_t lanes = rng() % 8;
  for (std::size_t i = 0; i < lanes; ++i) {
    shard::LaneStats ls;
    ls.lane = static_cast<std::uint32_t>(i);
    ls.opCount = rng();
    ls.events.slReads = rng() % 100000;
    ls.events.rowWrites = rng() % 100000;
    ls.events.adcConversions = rng() % 100000;
    reply.laneStats.push_back(std::move(ls));
  }
  return reply;
}

TEST(ShardWire, RequestRoundTripsBitExactly) {
  std::mt19937_64 rng(0x5eed0001);
  for (int i = 0; i < 200; ++i) {
    const WireRequest wq = randomRequest(rng);
    const std::vector<std::uint8_t> bytes = shard::encodeRequest(wq);
    const WireRequest back = shard::decodeRequest(bytes);
    ASSERT_EQ(back, wq) << "round-trip " << i;
    // Re-encode is byte-stable (canonical form).
    ASSERT_EQ(shard::encodeRequest(back), bytes) << "re-encode " << i;
  }
}

TEST(ShardWire, ReplyRoundTripsBitExactly) {
  std::mt19937_64 rng(0x5eed0002);
  for (int i = 0; i < 200; ++i) {
    const WireReply reply = randomReply(rng);
    const std::vector<std::uint8_t> bytes = shard::encodeReply(reply);
    ASSERT_EQ(shard::decodeReply(bytes), reply) << "round-trip " << i;
  }
}

TEST(ShardWire, ToRequestPreservesFields) {
  std::mt19937_64 rng(0x5eed0003);
  const WireRequest wq = randomRequest(rng);
  const Request q = wq.toRequest();
  EXPECT_EQ(q.app, wq.app);
  EXPECT_EQ(q.design, wq.design);
  EXPECT_EQ(q.streamLength, wq.streamLength);
  EXPECT_EQ(q.seed, wq.seed);
  EXPECT_EQ(q.gamma, wq.gamma);
  EXPECT_EQ(q.faults.stuckAtRate, wq.faults.stuckAtRate);
  ASSERT_FALSE(q.src.empty());
  EXPECT_EQ(q.src.width(), wq.src.width);
  EXPECT_EQ(q.src.data(), wq.src.pixels.data());  // zero-copy view
}

TEST(ShardWire, EveryTruncationIsRejected) {
  std::mt19937_64 rng(0x5eed0004);
  const std::vector<std::uint8_t> bytes =
      shard::encodeRequest(randomRequest(rng));
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_THROW(
        shard::decodeRequest(std::span(bytes.data(), n)), DecodeError)
        << "prefix length " << n;
  }
  const std::vector<std::uint8_t> reply =
      shard::encodeReply(randomReply(rng));
  for (std::size_t n = 0; n < reply.size(); ++n) {
    EXPECT_THROW(shard::decodeReply(std::span(reply.data(), n)), DecodeError)
        << "reply prefix length " << n;
  }
}

TEST(ShardWire, EverySingleBitFlipIsRejected) {
  // The trailing FNV-1a 64 checksum catches every single-bit corruption of
  // these frames (deterministic: fixed seed, fixed frames).
  std::mt19937_64 rng(0x5eed0005);
  std::vector<std::uint8_t> bytes = shard::encodeRequest(randomRequest(rng));
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_THROW(shard::decodeRequest(bytes), DecodeError) << "bit " << bit;
    bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

TEST(ShardWire, ChecksumIsFnv1a64) {
  // Spot-check the checksum primitive against the published FNV-1a test
  // vectors so the wire format stays interoperable.
  const std::uint8_t empty[] = {0};
  EXPECT_EQ(shard::fnv1a64(std::span(empty, std::size_t{0})),
            0xcbf29ce484222325ull);
  const std::uint8_t a[] = {'a'};
  EXPECT_EQ(shard::fnv1a64(std::span(a, 1)), 0xaf63dc4c8601ec8cull);
}

/// A frame built by hand: \p magic, \p version, then \p body and a valid
/// checksum, so only the decoder's field checks can reject it.
std::vector<std::uint8_t> handFrame(std::uint32_t magic, std::uint16_t version,
                                    std::initializer_list<std::uint8_t> body) {
  std::vector<std::uint8_t> f;
  const auto put = [&f](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      f.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  put(magic, 4);
  put(version, 2);
  f.insert(f.end(), body);
  put(shard::fnv1a64(f), 8);
  return f;
}

TEST(ShardWire, RetiredKindsFaultAndVersionAreRejected) {
  const std::uint32_t rq = shard::kRequestMagic;
  const std::uint32_t rp = shard::kReplyMagic;
  // Controls: the hand-built frames are valid at the current version.
  EXPECT_EQ(shard::decodeRequest(handFrame(rq, 3, {4, 3})).fault,
            shard::WorkerFault::GarbageReply);
  EXPECT_FALSE(shard::decodeReply(handFrame(rp, 3, {1, 0, 0, 0, 0})).ok);

  // Request kinds 2 and 3 (retired crash and heartbeat requests, no body)
  // and worker fault 4 (retired drop-connection) no longer decode.
  EXPECT_THROW(shard::decodeRequest(handFrame(rq, 3, {2})), DecodeError);
  EXPECT_THROW(shard::decodeRequest(handFrame(rq, 3, {3})), DecodeError);
  EXPECT_THROW(shard::decodeRequest(handFrame(rq, 3, {4, 4})), DecodeError);

  // Version-2 frames, checksums intact: a Misbehave request, and an error
  // reply with the kind byte (1 = Result) that version 2 carried.
  EXPECT_THROW(shard::decodeRequest(handFrame(rq, 2, {4, 3})), DecodeError);
  EXPECT_THROW(shard::decodeReply(handFrame(rp, 2, {1, 1, 0, 0, 0, 0})),
               DecodeError);
}

/// A connected in-process AF_UNIX stream pair (no fork), closed on scope
/// exit: the framed I/O under test without a worker behind it.
struct SocketPair {
  int fd[2] = {-1, -1};
  SocketPair() {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fd) != 0) {
      throw std::runtime_error("socketpair failed");
    }
  }
  ~SocketPair() {
    closeEnd(0);
    closeEnd(1);
  }
  SocketPair(const SocketPair&) = delete;
  SocketPair& operator=(const SocketPair&) = delete;
  void closeEnd(int i) {
    if (fd[i] >= 0) ::close(fd[i]);
    fd[i] = -1;
  }
  /// Raw bytes from end 0, outside the framing.
  void sendRaw(std::initializer_list<std::uint8_t> bytes) const {
    const std::vector<std::uint8_t> b(bytes);
    ASSERT_EQ(::send(fd[0], b.data(), b.size(), 0),
              static_cast<ssize_t>(b.size()));
  }
};

using std::chrono::milliseconds;
constexpr milliseconds kBlock{0};
constexpr milliseconds kBudget{50};

TEST(ShardFramedIo, FramesRoundTripBlockingAndUnderADeadline) {
  SocketPair sp;
  const std::vector<std::uint8_t> frames[] = {{1, 2, 3, 250, 0, 7}, {}};
  for (const milliseconds deadline : {kBlock, milliseconds{1000}}) {
    for (const auto& sent : frames) {
      ASSERT_EQ(shard::writeFrame(sp.fd[0], sent, deadline), IoResult::Ok);
      std::vector<std::uint8_t> got = {9, 9};
      ASSERT_EQ(shard::readFrame(sp.fd[1], got, deadline), IoResult::Ok);
      EXPECT_EQ(got, sent) << "deadline " << deadline.count() << " ms";
    }
  }
}

TEST(ShardFramedIo, SilentPeerTimesOutWithinTheBudget) {
  using Clock = std::chrono::steady_clock;
  SocketPair sp;
  std::vector<std::uint8_t> got;
  // Nothing sent, then a length prefix whose body never comes: the budget
  // spans the whole frame, and silence is a timeout, not a closed peer.
  for (int partial = 0; partial < 2; ++partial) {
    if (partial == 1) sp.sendRaw({10, 0, 0, 0});
    const Clock::time_point t0 = Clock::now();
    EXPECT_EQ(shard::readFrame(sp.fd[1], got, kBudget), IoResult::Timeout);
    const auto took = Clock::now() - t0;
    EXPECT_GE(took, kBudget - milliseconds{5});
    EXPECT_LT(took, kBudget + milliseconds{1000});
  }
  // A reader that never reads: the write fills the socket buffer, then
  // times out.  SO_SNDTIMEO only makes a send that ignores the deadline
  // fail here slowly instead of hanging the suite.
  const timeval guard{3, 0};
  ASSERT_EQ(::setsockopt(sp.fd[1], SOL_SOCKET, SO_SNDTIMEO, &guard,
                         sizeof(guard)),
            0);
  const std::vector<std::uint8_t> big(8u << 20, 0x5a);
  const Clock::time_point t0 = Clock::now();
  EXPECT_EQ(shard::writeFrame(sp.fd[1], big, kBudget), IoResult::Timeout);
  EXPECT_LT(Clock::now() - t0, kBudget + milliseconds{1000});
}

TEST(ShardFramedIo, ClosedPeerReadsAndWritesAsClosed) {
  const std::vector<std::uint8_t> frame = {1, 2, 3};
  for (const milliseconds deadline : {kBlock, milliseconds{1000}}) {
    SocketPair sp;
    sp.closeEnd(0);
    std::vector<std::uint8_t> got;
    EXPECT_EQ(shard::readFrame(sp.fd[1], got, deadline), IoResult::Closed);
    // MSG_NOSIGNAL: EPIPE, not a SIGPIPE that kills the test.
    EXPECT_EQ(shard::writeFrame(sp.fd[1], frame, deadline), IoResult::Closed);
  }
  // A peer that closes mid-frame.
  for (const milliseconds deadline : {kBlock, milliseconds{1000}}) {
    SocketPair sp;
    sp.sendRaw({10, 0, 0, 0, 1, 2});
    sp.closeEnd(0);
    std::vector<std::uint8_t> got;
    EXPECT_EQ(shard::readFrame(sp.fd[1], got, deadline), IoResult::Closed);
  }
}

TEST(ShardFramedIo, OversizedLengthPrefixReadsAsClosed) {
  const std::uint32_t n = shard::kMaxFrameBytes + 1;
  for (const milliseconds deadline : {kBlock, milliseconds{1000}}) {
    SocketPair sp;
    sp.sendRaw({static_cast<std::uint8_t>(n), static_cast<std::uint8_t>(n >> 8),
                static_cast<std::uint8_t>(n >> 16),
                static_cast<std::uint8_t>(n >> 24)});
    std::vector<std::uint8_t> got;
    EXPECT_EQ(shard::readFrame(sp.fd[1], got, deadline), IoResult::Closed);
    EXPECT_TRUE(got.empty());  // refused before any allocation
  }
}

/// One replica through \p coord (tenant 1, no seed namespace), written
/// into the job's output buffer.
ShardCoordinator::ReplicaRun runOn(ShardCoordinator& coord, ClientJob& job) {
  ShardCoordinator::ReplicaRun run =
      coord.runReplica(job.request, 1, 0, job.request.seed);
  job.request.out.assign(run.pixels);
  return run;
}

/// The headline differential matrix: every substrate (including faulty
/// ReRAM under TMR), served by the sharded service over REAL subprocess
/// workers at shard counts {1, 2, 4, 8}, must
/// reproduce the one-shot runner's bytes and ledgers exactly.  Case list
/// covers all six apps.
TEST(ShardDifferential, ByteIdenticalAcrossShardCountsOnAllSubstrates) {
  struct Case {
    apps::AppKind app;
    core::DesignKind design;
    std::size_t replicas;
    bool faulty;
  };
  const Case cases[] = {
      {apps::AppKind::Gamma, core::DesignKind::Reference, 1, false},
      {apps::AppKind::Compositing, core::DesignKind::SwScLfsr, 1, false},
      {apps::AppKind::Matting, core::DesignKind::SwScSobol, 1, false},
      {apps::AppKind::Matting, core::DesignKind::SwScSfmt, 1, false},
      {apps::AppKind::Morphology, core::DesignKind::SwScSimd, 1, false},
      {apps::AppKind::Bilinear, core::DesignKind::BinaryCim, 1, false},
      {apps::AppKind::Filters, core::DesignKind::ReramSc, 1, false},
      // Faulty ReRAM + TMR: the full reliability stack over the wire.
      {apps::AppKind::Compositing, core::DesignKind::ReramSc, 3, true},
  };
  const std::size_t size = 16;
  for (const Case& c : cases) {
    ClientJob job = makeJob(c.app, c.design, size, 77, c.replicas);
    if (c.faulty) {
      job.request.faults = reliability::FaultPlan::deviceOnly(
          apps::defaultFaultyDevice(), 2000);
      job.request.faults.transientFlipRate = 1e-3;
    }
    const apps::RunResult oracle = oracleRun(job, size);

    for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
      service::ServiceConfig sc;
      sc.lanes = 4;
      sc.rowsPerTile = 4;
      sc.shards = shards;
      sc.shardTransport = ShardTransportKind::Subprocess;
      service::AcceleratorService svc(sc);
      std::fill(job.out.pixels().begin(), job.out.pixels().end(), 0);
      const service::RequestResult res = svc.run(1, job.request);

      EXPECT_EQ(job.out.pixels(), oracle.output.pixels())
          << apps::appName(c.app) << " on "
          << core::designKindName(c.design) << " at " << shards
          << " shards";
      EXPECT_EQ(res.opCount, oracle.opCount)
          << apps::appName(c.app) << " at " << shards << " shards";
      EXPECT_TRUE(res.events == oracle.events)
          << apps::appName(c.app) << " at " << shards << " shards";
    }
  }
}

TEST(ShardFramedIo, ConcurrentSpawnsLeaveNoWorkerHoldingASiblingsSocket) {
  // Four threads spawn and destroy subprocess channels at once.  A worker
  // forked on one thread must not inherit another spawn's new socketpair or
  // a socket closing mid-fork: that sibling's worker would then never see
  // EOF, and its channel's destructor would wait in waitpid forever.
  constexpr int kThreads = 4;
  constexpr int kRounds = 4;  // one channel per thread: at most 4 workers
  std::atomic<int> spawned{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&spawned] {
      for (int r = 0; r < kRounds; ++r) {
        const auto channels =
            shard::makeShardChannels(ShardTransportKind::Subprocess, 1);
        if (channels.front()->workerPid() > 0) ++spawned;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(spawned.load(), kThreads * kRounds);
}

TEST(ShardDifferential, AllTransportsAgree) {
  ClientJob job = makeJob(apps::AppKind::Compositing, core::DesignKind::ReramSc,
                          12, 5);
  std::vector<std::uint8_t> subprocessBytes;
  for (const ShardTransportKind kind :
       {ShardTransportKind::Subprocess, ShardTransportKind::Loopback}) {
    ShardCoordinator coord(shard::makeShardChannels(kind, 2), 4, 4);
    std::fill(job.out.pixels().begin(), job.out.pixels().end(), 0);
    runOn(coord, job);
    if (subprocessBytes.empty()) {
      subprocessBytes = job.out.pixels();
    } else {
      EXPECT_EQ(job.out.pixels(), subprocessBytes);
    }
  }
}

TEST(ShardDifferential, SurplusShardsIdleWithoutChangingBytes) {
  // More shards than lanes: the extra workers idle, bytes never change.
  ClientJob job = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr,
                          12, 9);
  const apps::RunResult oracle = oracleRun(job, 12);
  ShardCoordinator coord(
      shard::makeShardChannels(ShardTransportKind::Subprocess, 6), 4, 4);
  runOn(coord, job);
  EXPECT_EQ(job.out.pixels(), oracle.output.pixels());
}

TEST(ShardWorker, WarmFaultCachePersistsAcrossRequestsBitExactly) {
  // A worker's FaultModelCache memoizes Monte-Carlo misdecision tables
  // across requests (the PR-7 warm-state thesis, now per shard process):
  // the second identical request must hit the cache and reproduce the
  // first reply byte-for-byte.
  ClientJob job = makeJob(apps::AppKind::Compositing, core::DesignKind::ReramSc,
                          12, 5);
  job.request.faults = reliability::FaultPlan::deviceOnly(
      apps::defaultFaultyDevice(), 2000);
  TileAssignment assignment;
  assignment.laneSeedBase = job.request.seed;
  assignment.laneBegin = 0;
  assignment.laneStride = 1;
  assignment.rowBegin = 0;
  assignment.rowEnd = 12;
  const std::vector<std::uint8_t> frame = shard::encodeRequest(
      shard::makeWireRequest(job.request, 1, 0, job.request.seed, 4, 4,
                             assignment));

  shard::ShardWorker worker;
  const std::vector<std::uint8_t> first = worker.serve(frame);
  EXPECT_EQ(worker.faultCacheHits(), 0u);
  EXPECT_EQ(worker.faultCacheSize(), 4u);  // one table per lane seed
  const std::vector<std::uint8_t> second = worker.serve(frame);
  EXPECT_EQ(second, first);
  EXPECT_EQ(worker.faultCacheHits(), 4u);

  const WireReply reply = shard::decodeReply(first);
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.width, 12u);
  EXPECT_EQ(reply.laneStats.size(), 4u);
}

TEST(ShardWorker, MalformedAndInvalidFramesGetErrorReplies) {
  shard::ShardWorker worker;
  // Garbage bytes: decode fails, worker answers with an error reply.
  const std::vector<std::uint8_t> garbage = {1, 2, 3, 4, 5};
  const WireReply bad = shard::decodeReply(worker.serve(garbage));
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.error.empty());

  // Structurally valid frame with an invalid request (compositing without
  // aux frames): execution fails, still an error reply, worker stays up.
  ClientJob job = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr,
                          8, 1);
  job.request.app = apps::AppKind::Compositing;  // aux frames missing
  TileAssignment assignment;
  assignment.laneSeedBase = 1;
  assignment.rowEnd = 8;
  const WireReply err = shard::decodeReply(worker.serve(shard::encodeRequest(
      shard::makeWireRequest(job.request, 1, 0, 1, 4, 4, assignment))));
  EXPECT_FALSE(err.ok);

  // The same worker still serves good requests afterwards.
  job.request.app = apps::AppKind::Gamma;
  const WireReply ok = shard::decodeReply(worker.serve(shard::encodeRequest(
      shard::makeWireRequest(job.request, 1, 0, 1, 4, 4, assignment))));
  EXPECT_TRUE(ok.ok);
}

/// Fast-recovery retry policy for failure tests (real backoffs, small).
shard::RetryPolicy testRetryPolicy() {
  shard::RetryPolicy rp;
  rp.initialBackoff = std::chrono::milliseconds(1);
  rp.maxBackoff = std::chrono::milliseconds(8);
  return rp;
}

shard::ChannelDeadlines testDeadlines() {
  shard::ChannelDeadlines d;
  d.recv = std::chrono::milliseconds(2000);
  return d;
}

TEST(ShardFailure, SupervisorRecoversCrashedWorkerByteIdentically) {
  // PR-8's contract was "error, not hang"; the supervised fabric upgrades
  // it to "recover, byte-identically".  Kill -9 a worker between requests:
  // the next dispatch fails, the supervisor respawns and replays, and the
  // merged bytes match the fault-free oracle exactly.
  ClientJob job = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr,
                          8, 1);
  const apps::RunResult oracle = oracleRun(job, 8);
  ShardCoordinator coord(
      shard::makeSupervisedFabric(ShardTransportKind::Subprocess, 2,
                                  testDeadlines(), testRetryPolicy()),
      4, 4);
  runOn(coord, job);
  EXPECT_EQ(job.out.pixels(), oracle.output.pixels());

  const int pid = coord.fabric().channel(0).workerPid();
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);

  std::fill(job.out.pixels().begin(), job.out.pixels().end(), 0);
  runOn(coord, job);
  EXPECT_EQ(job.out.pixels(), oracle.output.pixels());
  EXPECT_GE(coord.fabric().stats().respawns, 1u);
  EXPECT_GE(coord.fabric().stats().retries, 1u);
  EXPECT_EQ(coord.fabric().stats().deadShards, 0u);
  EXPECT_FALSE(coord.fabric().dead(0));
}

TEST(ShardFailure, DeadShardDegradesOntoSurvivorByteIdentically) {
  // No retry budget at all: the first failure marks the shard dead, and
  // the coordinator re-dispatches its EXACT frame to the survivor.  The
  // bytes still match the oracle — worker identity never touches bits.
  ClientJob job = makeJob(apps::AppKind::Compositing, core::DesignKind::ReramSc,
                          12, 5);
  const apps::RunResult oracle = oracleRun(job, 12);
  shard::RetryPolicy rp = testRetryPolicy();
  rp.maxAttempts = 1;
  rp.maxRespawns = 0;
  ShardCoordinator coord(
      shard::makeSupervisedFabric(ShardTransportKind::Subprocess, 2,
                                  testDeadlines(), rp),
      4, 4);

  const int pid = coord.fabric().channel(0).workerPid();
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);

  runOn(coord, job);
  EXPECT_EQ(job.out.pixels(), oracle.output.pixels());
  EXPECT_TRUE(coord.fabric().dead(0));
  EXPECT_EQ(coord.fabric().stats().deadShards, 1u);
  EXPECT_GE(coord.reassignedDispatches(), 1u);
  EXPECT_EQ(coord.degradedReplicas(), 1u);

  // Subsequent runs keep degrading onto the survivor, never hang.
  std::fill(job.out.pixels().begin(), job.out.pixels().end(), 0);
  runOn(coord, job);
  EXPECT_EQ(job.out.pixels(), oracle.output.pixels());
}

TEST(ShardFailure, AllShardsDeadIsAnErrorNotAHang) {
  ClientJob job = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr,
                          8, 1);
  shard::RetryPolicy rp = testRetryPolicy();
  rp.maxAttempts = 1;
  rp.maxRespawns = 0;
  ShardCoordinator coord(
      shard::makeSupervisedFabric(ShardTransportKind::Subprocess, 2,
                                  testDeadlines(), rp),
      4, 4);
  for (std::size_t s = 0; s < 2; ++s) {
    const int pid = coord.fabric().channel(s).workerPid();
    ASSERT_GT(pid, 0);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
  }
  EXPECT_THROW(runOn(coord, job), std::runtime_error);
  // Still an error — and fast — on the next attempt too.
  EXPECT_THROW(runOn(coord, job), std::runtime_error);
}

TEST(ShardFailure, ServiceSurvivesWorkerCrashAndReportsOutcomes) {
  service::ServiceConfig sc;
  sc.lanes = 4;
  sc.rowsPerTile = 4;
  sc.shards = 2;
  sc.shardTransport = ShardTransportKind::Subprocess;
  sc.shardDeadlines = testDeadlines();
  sc.shardRetry = testRetryPolicy();
  service::AcceleratorService svc(sc);

  ClientJob job = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr,
                          8, 1);
  const std::vector<std::uint8_t> healthy = [&] {
    svc.run(1, job.request);
    return job.out.pixels();
  }();

  // Kill a worker: the service recovers and the ticket reads Ok with the
  // same bytes — a crash is an operational event, not a client-visible one.
  ASSERT_NE(svc.shardCoordinator(), nullptr);
  const int pid = svc.shardCoordinator()->fabric().channel(0).workerPid();
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);

  std::fill(job.out.pixels().begin(), job.out.pixels().end(), 0);
  const service::Ticket t = svc.submit(1, job.request);
  const service::TicketOutcome outcome = svc.waitOutcome(t);
  EXPECT_EQ(outcome.status, service::TicketStatus::Ok);
  EXPECT_TRUE(outcome.error.empty());
  EXPECT_EQ(job.out.pixels(), healthy);
  EXPECT_GE(svc.stats().shardRespawns, 1u);
  svc.shutdown();
}

TEST(ShardService, ShardedServiceMatchesUnshardedBitExactly) {
  // The ServiceConfig::shards knob is a deployment choice, not a bit
  // contract: the same mixed workload through 0 (in-process), loopback and
  // subprocess shard fan-outs must produce identical bytes and bills.
  const auto runAll = [](std::size_t shards, ShardTransportKind kind) {
    service::ServiceConfig sc;
    sc.lanes = 4;
    sc.rowsPerTile = 4;
    sc.shards = shards;
    sc.shardTransport = kind;
    service::AcceleratorService svc(sc);
    svc.setTenantSeedNamespace(2, 0xfeed);
    struct Outcome {
      std::vector<std::vector<std::uint8_t>> bytes;
      std::uint64_t opCount = 0;
      std::uint64_t slReads = 0;
    } outcome;
    std::vector<ClientJob> jobs;
    jobs.push_back(makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr,
                           12, 1));
    jobs.push_back(makeJob(apps::AppKind::Morphology,
                           core::DesignKind::SwScSimd, 12, 2));
    jobs.push_back(makeJob(apps::AppKind::Compositing,
                           core::DesignKind::ReramSc, 12, 3));
    jobs.push_back(makeJob(apps::AppKind::Filters, core::DesignKind::SwScLfsr,
                           12, 4, 3));
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const service::RequestResult res =
          svc.run(static_cast<service::TenantId>(i % 3), jobs[i].request);
      outcome.bytes.push_back(jobs[i].out.pixels());
      outcome.opCount += res.opCount;
      outcome.slReads += res.events.slReads;
    }
    return outcome;
  };

  const auto solo = runAll(0, ShardTransportKind::Loopback);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    for (const ShardTransportKind kind :
         {ShardTransportKind::Loopback, ShardTransportKind::Subprocess}) {
      const auto sharded = runAll(shards, kind);
      EXPECT_EQ(sharded.bytes, solo.bytes)
          << shards << " shards, kind " << static_cast<int>(kind);
      EXPECT_EQ(sharded.opCount, solo.opCount);
      EXPECT_EQ(sharded.slReads, solo.slReads);
    }
  }
}

TEST(ShardService, PipelinedClientsMatchInProcessBytesAndLedgers) {
  // The event loop keeps the replicas of every admitted request on the
  // workers at once, so frames of different requests queue behind each
  // other on each shard.  Which frames share a worker must not move a byte
  // or a bill: three clients, each cycling through a two-stage morphology,
  // a 3-replica filter and a faulty ReRAM compositing request, must get
  // the in-process service's bytes, results and tenant ledgers.
  constexpr std::size_t kClients = 3;
  const auto makeJobs = [] {
    std::vector<ClientJob> jobs;
    jobs.push_back(makeJob(apps::AppKind::Morphology,
                           core::DesignKind::SwScSimd, 16, 11));
    jobs.push_back(makeJob(apps::AppKind::Filters, core::DesignKind::SwScLfsr,
                           16, 12, 3));
    jobs.push_back(makeJob(apps::AppKind::Compositing,
                           core::DesignKind::ReramSc, 16, 13));
    jobs.back().request.faults = reliability::FaultPlan::deviceOnly(
        apps::defaultFaultyDevice(), 2000);
    return jobs;
  };
  struct Served {
    std::vector<std::vector<std::vector<std::uint8_t>>> bytes;  // [client][job]
    std::vector<std::vector<std::uint64_t>> opCounts;
    std::vector<service::TenantLedger> ledgers;
    std::size_t largestAdmission = 0;
  };
  const auto serve = [&](std::size_t shards) {
    service::ServiceConfig sc;
    sc.lanes = 4;
    sc.rowsPerTile = 4;
    sc.shards = shards;
    sc.shardTransport = ShardTransportKind::Subprocess;
    sc.startPaused = true;
    service::AcceleratorService svc(sc);
    Served out;
    out.bytes.resize(kClients);
    out.opCounts.resize(kClients);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::vector<ClientJob> jobs = makeJobs();
        out.bytes[c].resize(jobs.size());
        out.opCounts[c].resize(jobs.size());
        // Client c starts at job c, so the first admission mixes all three.
        for (std::size_t k = 0; k < jobs.size(); ++k) {
          const std::size_t j = (c + k) % jobs.size();
          const service::TicketOutcome o = svc.waitOutcome(
              svc.submit(static_cast<service::TenantId>(c), jobs[j].request));
          EXPECT_EQ(o.status, service::TicketStatus::Ok) << o.error;
          out.bytes[c][j] = jobs[j].out.pixels();
          out.opCounts[c][j] = o.result.opCount;
        }
      });
    }
    while (svc.queueDepth() < kClients) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    svc.resume();
    for (auto& th : clients) th.join();
    for (std::size_t c = 0; c < kClients; ++c) {
      out.ledgers.push_back(svc.tenantLedger(static_cast<service::TenantId>(c)));
    }
    const service::ServiceStats st = svc.stats();
    for (std::size_t k = 0; k < st.batchOccupancy.size(); ++k) {
      if (st.batchOccupancy[k] > 0) out.largestAdmission = k;
    }
    return out;
  };

  const Served solo = serve(0);
  const Served sharded = serve(4);
  EXPECT_GE(sharded.largestAdmission, 2u);
  EXPECT_EQ(sharded.bytes, solo.bytes);
  EXPECT_EQ(sharded.opCounts, solo.opCounts);
  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(sharded.ledgers[c].requests, solo.ledgers[c].requests);
    EXPECT_EQ(sharded.ledgers[c].pixels, solo.ledgers[c].pixels);
    EXPECT_EQ(sharded.ledgers[c].replicasRun, solo.ledgers[c].replicasRun);
    EXPECT_EQ(sharded.ledgers[c].opCount, solo.ledgers[c].opCount);
    EXPECT_TRUE(sharded.ledgers[c].events == solo.ledgers[c].events)
        << "tenant " << c;
  }
}

TEST(ShardService, WaitOutcomeForTimesOutThenRedeems) {
  service::ServiceConfig sc;
  sc.lanes = 4;
  sc.rowsPerTile = 4;
  sc.startPaused = true;  // the ticket cannot resolve while paused
  service::AcceleratorService svc(sc);
  ClientJob job = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr,
                          8, 1);
  const service::Ticket t = svc.submit(1, job.request);
  EXPECT_FALSE(
      svc.waitOutcomeFor(t, std::chrono::microseconds(1000)).has_value());
  svc.resume();
  const auto res =
      svc.waitOutcomeFor(t, std::chrono::microseconds(10'000'000));
  ASSERT_TRUE(res.has_value());
  EXPECT_GT(res->result.opCount, 0u);
  // Redeemed: the ticket is gone.
  EXPECT_THROW(svc.waitOutcomeFor(t, std::chrono::microseconds(1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace aimsc
