// lcbench -- the CORBA-LC repository benchmark (see perfbench/README.md).
//
//   lcbench --workload <colloc_small|tcp_small|tcp_bulk|naming_churn>
//           --seed <n> --seconds <s> --trace <0|1> [--corrupt-every <k>]
//
// Every workload is a closed loop driven by ONE caller thread through the
// public API, over at most one connection. Set-up (build the world, connect,
// warm up) is timed several times and reported as its median; then the run
// is measured in 0.2 s blocks and each wall-time metric is one quantile of
// its per-block values (see kSustainedQuantile). With --trace 1 the blocks
// alternate untraced and traced: traced blocks time the benchmark's own
// spans around calls into each layer's public functions (nothing inside
// src/ is instrumented) and give the per-layer metrics; untraced blocks give
// the tracing overhead.
//
// Output: a `host` line (fingerprint), a `detail` line (sample counts and
// the untraced wire figures), and as the LAST line the result object
// {"correct", "attempted", "failed", "metrics"}. --corrupt-every k makes the
// benchmark's servant return a wrong answer on every k-th call; the smoke
// test uses it to prove that a corrupted result is counted.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/utsname.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/node.hpp"
#include "idl/repository.hpp"
#include "orb/message.hpp"
#include "orb/orb.hpp"
#include "orb/tcp.hpp"
#include "orb/value.hpp"
#include "session/session.hpp"

// ---------------------------------------------------------------------------
// Allocation counting (orb.allocs_per_call): a replacement global operator
// new that counts while `g_count_allocs` is set. Stage replays run with
// `t_no_count` so only the workload's own calls are counted.

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
thread_local bool t_no_count = false;
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed) && !t_no_count) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

using namespace clc;

namespace {

constexpr const char* kIdl =
    "module perfbench {"
    " typedef sequence<octet> Chunk;"
    " interface Calc { long add(in long a, in long b); };"
    " interface Echo { Chunk echo(in Chunk data); };"
    "};";
constexpr const char* kCalc = "perfbench::Calc";
constexpr const char* kEcho = "perfbench::Echo";
constexpr std::size_t kTcpServerWorkers = 2;
constexpr std::size_t kTcpRecordHeader = 12;  // u32 length + u64 correlation
constexpr std::size_t kBulkChunk = 64 * 1024;
constexpr std::size_t kBulkWindow = 8;
constexpr double kBlockSeconds = 0.2;  // measured run = blocks of this length
constexpr int kMinBlocks = 10;
constexpr int kTrimThreshold = 1 << 30;  // bytes; see main()
constexpr std::size_t kMinSetups = 15;
constexpr std::size_t kMaxSetups = 400;
constexpr std::uint64_t kSetupSpanNs = 2'000'000'000;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Usage {
  double cpu_s = 0;
  std::uint64_t ctx_switches = 0;
  std::uint64_t minor_faults = 0;
};

Usage usage_now() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                1e6;
  u.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  u.minor_faults = static_cast<std::uint64_t>(ru.ru_minflt);
  return u;
}

/// Peak resident memory of this process image (VmHWM). Not ru_maxrss: on
/// Linux that survives execve and would report the launching process's
/// footprint whenever it was larger.
double peak_rss_mb_now() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::strtod(line + 6, nullptr);
  std::fclose(f);
  return kb / 1024.0;
}

/// Linearly interpolated quantile; 0 when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

[[noreturn]] void fail_setup(const char* why) {
  std::fprintf(stderr, "lcbench: set-up failed: %s\n", why);
  std::exit(3);
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Fixed-capacity latency sample (reservoir sampling past capacity), so
/// memory does not grow with throughput and peak RSS stays comparable.
class Samples {
 public:
  explicit Samples(std::uint64_t seed) : rng_(seed) { v_.reserve(kCap); }
  void add(std::uint64_t ns) {
    ++seen_;
    const auto x = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(ns, 0xffffffffu));
    if (v_.size() < kCap) {
      v_.push_back(x);
    } else if (const std::uint64_t j = rng_.next_below(seen_); j < kCap) {
      v_[j] = x;
    }
  }
  /// Nearest-rank quantile in µs; 0 when empty.
  [[nodiscard]] double quantile_us(double q) const {
    if (v_.empty()) return 0;
    std::vector<std::uint32_t> s = v_;
    const auto k = static_cast<std::size_t>(
        std::min<double>(static_cast<double>(s.size() - 1),
                         std::ceil(q * static_cast<double>(s.size())) - 1));
    std::nth_element(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(k),
                     s.end());
    return static_cast<double>(s[k]) / 1e3;
  }
  [[nodiscard]] std::uint64_t seen() const noexcept { return seen_; }

 private:
  static constexpr std::size_t kCap = 4096;
  std::vector<std::uint32_t> v_;
  std::uint64_t seen_ = 0;
  Rng rng_;
};

/// Thread-safe running sum for spans recorded on server/transport threads.
struct SpanSum {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> n{0};
  void add(std::uint64_t v) {
    ns.fetch_add(v, std::memory_order_relaxed);
    n.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] double mean_ns() const {
    return ratio(static_cast<double>(ns.load()), static_cast<double>(n.load()));
  }
};

/// Single-threaded running mean.
struct Mean {
  double sum = 0;
  std::uint64_t n = 0;
  void add(double v) {
    sum += v;
    ++n;
  }
  [[nodiscard]] double get() const { return ratio(sum, static_cast<double>(n)); }
};

/// One measured block: its own latency sample and resource deltas.
struct Block {
  explicit Block(std::uint64_t seed) : lat(seed) {}
  Samples lat;
  bool traced = false;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t ctx_switches = 0;
};

using Metrics = std::map<std::string, double>;

/// What the harness measured around the blocks, handed to layer_metrics.
struct RunTotals {
  std::uint64_t traced_ops = 0;
  std::uint64_t allocs = 0;       // counting operator new, traced blocks
  std::uint64_t alloc_bytes = 0;
  double untraced_p50_us = 0;
  double untraced_ops_per_s = 0;
};

// Run-level figures are one quantile of the per-block figures, chosen by
// how the shared host disturbs the workload (measured on a 4-vCPU VM).
// Single-threaded workloads run in core-speed regimes that differ by up to
// 1.6x and switch every second or so; the slower regime is present in
// nearly every run, so they report what 3 blocks in 4 meet or beat.
// Multi-threaded TCP workloads instead lose whole stretches of blocks to
// vCPU preemption, so they report what the quietest tenth of blocks reach.
// Every figure of a run (p50, p99, CPU per op, throughput) uses the same
// quantile, so they all describe the same kind of block.
constexpr double kSustainedQuantile = 0.75;
constexpr double kQuietQuantile = 0.10;

// ---------------------------------------------------------------------------
// Workload interface.

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the world, connect and warm up (timed as setup_s). Called
  /// several times, after teardown() from the second time on.
  virtual void setup() = 0;
  /// Run operations until `deadline_ns` (and, for deterministic prefixes,
  /// until the workload says the block may end).
  virtual void run_block(Block& b, std::uint64_t deadline_ns) = 0;
  /// Turn per-call tracing on or off between blocks.
  virtual void set_tracing(bool on) = 0;
  /// Per-layer metrics from the traced blocks.
  virtual void layer_metrics(Metrics& m, const RunTotals& t) = 0;
  /// Wire figures; naming_churn's come from a seeded deterministic prefix.
  virtual void wire_metrics(Metrics& m, std::uint64_t ops) = 0;
  /// Extra key/values for the detail line (strings already JSON-encoded).
  virtual std::vector<std::pair<std::string, std::string>> detail() {
    return {};
  }
  /// Release the world (threads, sockets) before the result is printed.
  virtual void teardown() = 0;
  /// Whether the workload's calls cross threads (see kQuietQuantile).
  [[nodiscard]] virtual bool multithreaded() const { return false; }
  /// Peak RSS after set-up and a fixed amount of work. Memory is flat after
  /// set-up on most workloads, so the default reads it at the end of the run.
  virtual double peak_rss_mb() { return peak_rss_mb_now(); }
};

// ---------------------------------------------------------------------------
// Stage replays: the public ORB stage functions, timed by the benchmark on
// the workload's own request. Each stage runs `reps` times per traced call
// and the calibrated clock-read cost is subtracted.

struct StageTimes {
  Mean find_operation, marshal_args, request_encode, request_decode,
      reply_encode, reply_decode, unmarshal_result;
};

std::uint64_t g_clock_cost_ns = 0;

void calibrate_clock() {
  std::vector<double> v;
  for (int i = 0; i < 2001; ++i) {
    const std::uint64_t a = now_ns();
    const std::uint64_t b = now_ns();
    v.push_back(static_cast<double>(b - a));
  }
  g_clock_cost_ns = static_cast<std::uint64_t>(median(v));
}

template <typename Fn>
double time_stage(int reps, Fn&& fn) {
  const std::uint64_t t0 = now_ns();
  for (int i = 0; i < reps; ++i) fn();
  const std::uint64_t dt = now_ns() - t0;
  return static_cast<double>(dt > g_clock_cost_ns ? dt - g_clock_cost_ns : 0) /
         reps;
}

/// Replay every client and server stage of one call to `iface::op` with
/// `args` producing `result`. Returns false if a stage fails (counts as a
/// wrong result: the replay mirrors what the ORB just did successfully).
bool replay_stages(const idl::InterfaceRepository& repo, const char* iface,
                   const std::string& op_name,
                   const std::vector<orb::Value>& args,
                   const orb::Value& result, int reps, StageTimes& st) {
  t_no_count = true;
  bool ok = true;
  Result<idl::OperationDef> op = Error{Errc::bad_state, "unset"};
  st.find_operation.add(time_stage(reps, [&] {
    op = repo.find_operation(iface, op_name);
  }));
  if (!op) {
    t_no_count = false;
    return false;
  }
  Bytes marshaled;
  st.marshal_args.add(time_stage(reps, [&] {
    orb::CdrWriter w;
    w.begin_encapsulation();
    for (std::size_t i = 0; i < op->params.size(); ++i)
      ok &= orb::marshal_value(args[i], op->params[i].type, repo, w).ok();
    marshaled = w.take();
  }));
  orb::RequestMessage req;
  req.request_id = RequestId{1};
  req.object_key = Uuid{1, 2};
  req.interface_name = iface;
  req.operation = op_name;
  req.args = marshaled;
  Bytes request_frame;
  st.request_encode.add(
      time_stage(reps, [&] { request_frame = req.encode(); }));
  st.request_decode.add(time_stage(reps, [&] {
    orb::CdrReader r(request_frame);
    auto type = orb::decode_frame_header(r);
    auto decoded = orb::RequestMessage::decode(r);
    ok &= type.ok() && decoded.ok();
    if (!decoded) return;
    orb::CdrReader ar(decoded->args);
    ok &= ar.begin_encapsulation().ok();
    for (const auto& p : op->params) ok &= orb::unmarshal_value(p.type, repo, ar).ok();
  }));
  Bytes reply_frame;
  st.reply_encode.add(time_stage(reps, [&] {
    orb::CdrWriter w;
    w.begin_encapsulation();
    ok &= orb::marshal_value(result, op->result, repo, w).ok();
    orb::ReplyMessage reply;
    reply.request_id = RequestId{1};
    reply.payload = w.take();
    reply_frame = reply.encode();
  }));
  Bytes payload;
  st.reply_decode.add(time_stage(reps, [&] {
    orb::CdrReader r(reply_frame);
    auto type = orb::decode_frame_header(r);
    auto reply = orb::ReplyMessage::decode(r);
    ok &= type.ok() && reply.ok();
    if (reply) payload = std::move(reply->payload);
  }));
  st.unmarshal_result.add(time_stage(reps, [&] {
    orb::CdrReader r(payload);
    ok &= r.begin_encapsulation().ok();
    auto v = orb::unmarshal_value(op->result, repo, r);
    ok &= v.ok() && *v == result;
  }));
  t_no_count = false;
  return ok;
}

// ---------------------------------------------------------------------------
// Benchmark-owned Transport decorator: times submit -> reply callback.

class TracingTransport final : public orb::Transport {
 public:
  TracingTransport(std::shared_ptr<orb::Transport> inner,
                   const std::atomic<bool>& tracing, SpanSum& span)
      : inner_(std::move(inner)), tracing_(tracing), span_(span) {}

  Result<Bytes> roundtrip(const std::string& endpoint,
                          BytesView frame) override {
    return inner_->roundtrip(endpoint, frame);
  }
  Result<void> send_oneway(const std::string& endpoint,
                           BytesView frame) override {
    return inner_->send_oneway(endpoint, frame);
  }
  void submit(const std::string& endpoint, BytesView frame,
              orb::ReplyCallback cb) override {
    if (!tracing_.load(std::memory_order_relaxed)) {
      inner_->submit(endpoint, frame, std::move(cb));
      return;
    }
    orb::ReplyCallback timed;
    {
      const bool saved = t_no_count;  // the wrapper is tracing cost
      t_no_count = true;
      timed = [span = &span_, t0 = now_ns(),
               cb = std::move(cb)](Result<Bytes> r) mutable {
        span->add(now_ns() - t0);
        cb(std::move(r));
      };
      t_no_count = saved;
    }
    inner_->submit(endpoint, frame, std::move(timed));
  }

 private:
  std::shared_ptr<orb::Transport> inner_;
  const std::atomic<bool>& tracing_;
  SpanSum& span_;
};

// ---------------------------------------------------------------------------
// Bare-socket floor: ping-pong of fixed-size records on one loopback TCP
// connection, one write per record, no ORB and no worker handoff.

bool write_all(int fd, const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t k = ::send(fd, p, n, MSG_NOSIGNAL);
    if (k <= 0) return false;
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

bool read_all(int fd, std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t k = ::recv(fd, p, n, 0);
    if (k <= 0) return false;
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

/// Median round trip in µs of `iters` request/reply exchanges of the given
/// record sizes; 0 if the sockets could not be set up.
double socket_floor_us(std::size_t req_bytes, std::size_t reply_bytes,
                       int iters) {
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (lfd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  if (::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(lfd, 1) != 0 ||
      ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(lfd);
    return 0;
  }
  const int cfd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (cfd < 0 ||
      ::connect(cfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (cfd >= 0) ::close(cfd);
    ::close(lfd);
    return 0;
  }
  const int sfd = ::accept(lfd, nullptr, nullptr);
  ::close(lfd);
  if (sfd < 0) {
    ::close(cfd);
    return 0;
  }
  const int one = 1;
  ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::setsockopt(sfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  std::thread echo([sfd, req_bytes, reply_bytes] {
    std::vector<std::uint8_t> in(req_bytes), out(reply_bytes, 0x5a);
    while (read_all(sfd, in.data(), in.size()) &&
           write_all(sfd, out.data(), out.size())) {
    }
  });
  std::vector<std::uint8_t> out(req_bytes, 0xa5), in(reply_bytes);
  std::vector<double> rtt;
  rtt.reserve(static_cast<std::size_t>(iters));
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t t0 = now_ns();
    if (!write_all(cfd, out.data(), out.size()) ||
        !read_all(cfd, in.data(), in.size()))
      break;
    rtt.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  ::shutdown(cfd, SHUT_RDWR);
  ::close(cfd);
  echo.join();
  ::close(sfd);
  return median(std::move(rtt));
}

/// Median µs of one memcpy of `bytes` between two distinct buffers.
double copy_floor_us(std::size_t bytes, int iters) {
  std::vector<std::uint8_t> src(bytes, 0x33), dst(bytes);
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(iters));
  for (int i = 0; i < iters; ++i) {
    src[static_cast<std::size_t>(i) % bytes] = static_cast<std::uint8_t>(i);
    const std::uint64_t t0 = now_ns();
    std::memcpy(dst.data(), src.data(), bytes);
    const std::uint64_t dt = now_ns() - t0;
    if (dst[static_cast<std::size_t>(i) % bytes] != src[static_cast<std::size_t>(i) % bytes])
      return 0;
    v.push_back(static_cast<double>(dt > g_clock_cost_ns ? dt - g_clock_cost_ns : 0) / 1e3);
  }
  return median(std::move(v));
}

// ---------------------------------------------------------------------------
// Invocation workloads: colloc_small, tcp_small, tcp_bulk.

enum class Kind { colloc_small, tcp_small, tcp_bulk };

class InvocationWorkload final : public Workload {
 public:
  InvocationWorkload(Kind kind, std::uint64_t seed, std::uint64_t corrupt_every)
      : kind_(kind), seed_(seed), corrupt_every_(corrupt_every) {
    Rng rng(seed);
    pairs_.resize(4096);
    for (auto& [a, b] : pairs_) {
      a = static_cast<std::int32_t>(rng.next_in(-1000000, 1000000));
      b = static_cast<std::int32_t>(rng.next_in(-1000000, 1000000));
    }
    if (kind_ == Kind::tcp_bulk) {
      chunks_.resize(16);
      for (auto& c : chunks_) {
        c.resize(kBulkChunk);
        for (std::size_t i = 0; i < c.size(); i += 8) {
          const std::uint64_t r = rng.next_u64();
          std::memcpy(c.data() + i, &r, std::min<std::size_t>(8, c.size() - i));
        }
      }
    }
  }

  void setup() override {
    world_.reset();  // one world at a time
    world_ = std::make_unique<World>();
    World& w = *world_;
    w.repo = std::make_shared<idl::InterfaceRepository>();
    if (!w.repo->register_idl(kIdl).ok()) fail_setup("IDL did not register");
    w.server = std::make_unique<orb::Orb>(NodeId{1}, w.repo);
    auto servant = std::make_shared<orb::DynamicServant>(
        kind_ == Kind::tcp_bulk ? kEcho : kCalc);
    servant->on("add", [this](orb::ServerRequest& req) -> Result<void> {
      World& ww = *world_;
      const bool tr = ww.tracing.load(std::memory_order_relaxed);
      const std::uint64_t t0 = tr ? now_ns() : 0;
      std::int32_t sum = req.arg(0).as<std::int32_t>() +
                         req.arg(1).as<std::int32_t>();
      if (corrupt()) ++sum;
      req.set_result(orb::Value(sum));
      if (tr) ww.servant_span.add(now_ns() - t0);
      return {};
    });
    servant->on("echo", [this](orb::ServerRequest& req) -> Result<void> {
      World& ww = *world_;
      const bool tr = ww.tracing.load(std::memory_order_relaxed);
      const std::uint64_t t0 = tr ? now_ns() : 0;
      Bytes data = std::move(req.args()[0].as<Bytes>());
      if (corrupt() && !data.empty()) data[data.size() / 2] ^= 0xff;
      req.set_result(orb::Value(std::move(data)));
      if (tr) ww.servant_span.add(now_ns() - t0);
      return {};
    });
    if (kind_ == Kind::colloc_small) {
      w.server->set_endpoint("loop:perfbench");
      w.target = w.server->activate(servant);
      w.caller = w.server.get();
    } else {
      w.listener = std::make_unique<orb::TcpServer>();
      auto endpoint = w.listener->start(
          [this](BytesView frame) -> Bytes {
            World& ww = *world_;
            const bool tr = ww.tracing.load(std::memory_order_relaxed);
            const std::uint64_t t0 = tr ? now_ns() : 0;
            Bytes reply = ww.server->handle_frame(frame);
            if (tr) ww.handle_span.add(now_ns() - t0);
            ww.wire_msgs.fetch_add(2, std::memory_order_relaxed);
            ww.wire_bytes.fetch_add(
                frame.size() + reply.size() + 2 * kTcpRecordHeader,
                std::memory_order_relaxed);
            ww.request_bytes.store(frame.size(), std::memory_order_relaxed);
            ww.reply_bytes.store(reply.size(), std::memory_order_relaxed);
            return reply;
          },
          0, kTcpServerWorkers);
      if (!endpoint) fail_setup("TcpServer did not start");
      w.server->set_endpoint(*endpoint);
      w.target = w.server->activate(servant);
      w.client = std::make_unique<orb::Orb>(NodeId{2}, w.repo);
      w.client->set_endpoint("tcp:127.0.0.1:0");
      w.client->add_transport(
          "tcp", std::make_shared<TracingTransport>(
                     std::make_shared<orb::TcpTransport>(), w.tracing,
                     w.transport_span));
      w.caller = w.client.get();
    }
    // Warm up: connect, fill caches and allocator pools.
    Block warm(seed_);
    const std::uint64_t warm_ops = kind_ == Kind::colloc_small ? 20000
                                   : kind_ == Kind::tcp_small  ? 2000
                                                               : 400;
    while (warm.ops < warm_ops) run_ops(warm, warm_ops - warm.ops, 0);
    if (warm.failed != 0 && corrupt_every_ == 0) fail_setup("warm-up failed");
    w.wire_msgs = 0;
    w.wire_bytes = 0;
  }

  void run_block(Block& b, std::uint64_t deadline_ns) override {
    const std::uint64_t batch = kind_ == Kind::tcp_bulk ? 4096 : 256;
    while (now_ns() < deadline_ns) run_ops(b, batch, deadline_ns);
  }

  void set_tracing(bool on) override {
    world_->tracing.store(on);
    traced_ = on;
  }

  void layer_metrics(Metrics& m, const RunTotals& t) override {
    World& w = *world_;
    const double call = call_span_.get() / 1e3;
    const double servant = w.servant_span.mean_ns() / 1e3;
    m["idl.find_operation_ns"] = st_.find_operation.get();
    m["orb.marshal_args_ns"] = st_.marshal_args.get();
    m["orb.request_encode_ns"] = st_.request_encode.get();
    m["orb.request_decode_ns"] = st_.request_decode.get();
    m["orb.reply_encode_ns"] = st_.reply_encode.get();
    m["orb.reply_decode_ns"] = st_.reply_decode.get();
    m["orb.unmarshal_result_ns"] = st_.unmarshal_result.get();
    m["orb.call_span_us"] = call;
    m["orb.servant_us"] = servant;
    // Client-side stages always lie inside the client's self time; on the
    // collocated path the server-side stages (and the server's operation
    // lookup) run on the caller thread too.
    double stages_ns = st_.find_operation.get() + st_.marshal_args.get() +
                       st_.request_encode.get() + st_.reply_decode.get() +
                       st_.unmarshal_result.get();
    double client_self = 0;
    if (kind_ == Kind::colloc_small) {
      client_self = call - servant;
      stages_ns += st_.find_operation.get() + st_.request_decode.get() +
                   st_.reply_encode.get();
    } else {
      const double transport = w.transport_span.mean_ns() / 1e3;
      const double handle = w.handle_span.mean_ns() / 1e3;
      client_self = call - transport;
      m["transport.span_us"] = transport;
      m["transport.self_us"] = transport - handle;
      m["orb.handle_frame_us"] = handle;
      m["orb.server_self_us"] = handle - servant;
      const std::size_t req =
          w.request_bytes.load() + kTcpRecordHeader;
      const std::size_t rep = w.reply_bytes.load() + kTcpRecordHeader;
      const double floor =
          socket_floor_us(req, rep, kind_ == Kind::tcp_bulk ? 2000 : 20000);
      m["transport.floor_rtt_us"] = floor;
      m["transport.ratio_to_floor"] = ratio(t.untraced_p50_us, floor);
      if (kind_ == Kind::tcp_bulk) {
        const double copy = copy_floor_us(kBulkChunk, 20000);
        m["transport.copy_floor_us"] = copy;
        m["transport.bulk_ratio_to_floor"] =
            ratio(ratio(1e6, t.untraced_ops_per_s), copy);
      }
    }
    m["orb.client_self_us"] = client_self;
    m["orb.unattributed_us"] = client_self - stages_ns / 1e3;
    m["orb.allocs_per_call"] =
        ratio(static_cast<double>(t.allocs), static_cast<double>(t.traced_ops));
    m["orb.alloc_bytes_per_call"] = ratio(static_cast<double>(t.alloc_bytes),
                                          static_cast<double>(t.traced_ops));
  }

  [[nodiscard]] bool multithreaded() const override {
    return kind_ != Kind::colloc_small;
  }

  void wire_metrics(Metrics& m, std::uint64_t ops) override {
    m["wire_bytes_per_op"] = ratio(static_cast<double>(world_->wire_bytes.load()),
                                   static_cast<double>(ops));
    m["wire_msgs_per_op"] = ratio(static_cast<double>(world_->wire_msgs.load()),
                                  static_cast<double>(ops));
  }

  void teardown() override { world_.reset(); }

 private:
  struct World {
    std::atomic<bool> tracing{false};
    SpanSum servant_span, handle_span, transport_span;
    std::atomic<std::uint64_t> wire_msgs{0}, wire_bytes{0};
    std::atomic<std::size_t> request_bytes{0}, reply_bytes{0};
    std::shared_ptr<idl::InterfaceRepository> repo;
    std::unique_ptr<orb::Orb> server;
    std::unique_ptr<orb::TcpServer> listener;  // stops before `server` dies
    std::unique_ptr<orb::Orb> client;          // joins its readers first
    orb::ObjectRef target;
    orb::Orb* caller = nullptr;
  };

  bool corrupt() {
    return corrupt_every_ != 0 &&
           served_.fetch_add(1, std::memory_order_relaxed) % corrupt_every_ ==
               corrupt_every_ - 1;
  }

  /// Up to `max_ops` operations (stopping early at `deadline_ns` if set).
  void run_ops(Block& b, std::uint64_t max_ops, std::uint64_t deadline_ns) {
    if (kind_ == Kind::tcp_bulk) {
      run_bulk(b, max_ops, deadline_ns);
      return;
    }
    World& w = *world_;
    for (std::uint64_t i = 0; i < max_ops; ++i) {
      const auto [a, c] = pairs_[next_++ % pairs_.size()];
      const std::uint64_t t0 = now_ns();
      auto r = w.caller->call(w.target, "add",
                              {orb::Value(a), orb::Value(c)});
      const std::uint64_t dt = now_ns() - t0;
      const std::int32_t want = a + c;
      bool ok = r.ok() && r->is<std::int32_t>() && r->as<std::int32_t>() == want;
      if (traced_) {
        call_span_.add(static_cast<double>(dt));
        ok &= replay_stages(*w.repo, kCalc, "add",
                            {orb::Value(a), orb::Value(c)}, orb::Value(want),
                            4, st_);
      }
      b.lat.add(dt);
      ++b.ops;
      b.failed += ok ? 0 : 1;
      if (deadline_ns != 0 && (i & 15) == 15 && now_ns() >= deadline_ns) break;
    }
  }

  /// Sliding window of kBulkWindow echoes; drained before returning.
  void run_bulk(Block& b, std::uint64_t max_ops, std::uint64_t deadline_ns) {
    World& w = *world_;
    struct InFlight {
      orb::PendingInvocation call;
      std::uint64_t t0;
      std::size_t chunk;
    };
    std::deque<InFlight> window;
    std::uint64_t issued = 0;
    auto issue = [&] {
      const std::size_t k = next_++ % chunks_.size();
      const std::uint64_t t0 = now_ns();
      window.push_back(InFlight{
          w.caller->invoke_async(w.target, "echo", {orb::Value(chunks_[k])}),
          t0, k});
      ++issued;
    };
    while (window.size() < kBulkWindow && issued < max_ops) issue();
    while (!window.empty()) {
      InFlight f = std::move(window.front());
      window.pop_front();
      auto out = f.call.take();
      const std::uint64_t dt = now_ns() - f.t0;
      const Bytes& want = chunks_[f.chunk];
      bool ok = out.ok() && !out->exception.has_value() &&
                out->result.is<Bytes>() && out->result.as<Bytes>() == want;
      if (traced_) call_span_.add(static_cast<double>(dt));
      b.lat.add(dt);
      ++b.ops;
      b.failed += ok ? 0 : 1;
      const bool more = issued < max_ops &&
                        (deadline_ns == 0 || now_ns() < deadline_ns);
      if (more) issue();
    }
    // Stage replays wait until the window has drained: run inside it they
    // would hold up the single caller thread and inflate every call span.
    if (traced_) {
      bool ok = true;
      for (std::size_t i = 0; i < kBulkWindow; ++i) {
        const orb::Value v(chunks_[i % chunks_.size()]);
        ok &= replay_stages(*w.repo, kEcho, "echo", {v}, v, 1, st_);
      }
      b.failed += ok ? 0 : 1;
    }
  }

  Kind kind_;
  std::uint64_t seed_;
  std::uint64_t corrupt_every_;
  std::atomic<std::uint64_t> served_{0};
  std::vector<std::pair<std::int32_t, std::int32_t>> pairs_;
  std::vector<Bytes> chunks_;
  std::uint64_t next_ = 0;
  bool traced_ = false;
  Mean call_span_;
  StageTimes st_;
  std::unique_ptr<World> world_;
};

// ---------------------------------------------------------------------------
// naming_churn: 16-node LocalNetwork on virtual time, 4 sessions calling
// 256 names by name, ~10% writes re-pointing a name to another host.

class NamingWorkload final : public Workload {
 public:
  static constexpr int kNodes = 16;
  static constexpr int kNames = 256;
  static constexpr int kSessions = 4;
  static constexpr int kWorkingSet = 16;
  static constexpr double kWriteShare = 0.10;
  static constexpr Duration kStep = milliseconds(2);  // virtual time per op
  /// Wire counts are taken over this many operations from the start of the
  /// measured run, so they repeat exactly for a seed.
  static constexpr std::uint64_t kPrefixOps = 20000;

  NamingWorkload(std::uint64_t seed, std::uint64_t corrupt_every)
      : seed_(seed), corrupt_every_(corrupt_every) {}

  void setup() override {
    world_.reset();
    world_ = std::make_unique<World>();
    World& w = *world_;
    w.rng.reseed(seed_);
    for (int i = 0; i < kNodes; ++i) w.nodes.push_back(&w.net.add_node());
    w.net.settle();
    for (int i = 0; i < kNodes; ++i) {
      core::Node& node = *w.nodes[static_cast<std::size_t>(i)];
      if (!node.orb().repository().register_idl(kIdl).ok())
        fail_setup("IDL did not register");
      auto servant = std::make_shared<orb::DynamicServant>(kCalc);
      const std::int32_t tag = host_tag(i);
      servant->on("add", [this, tag](orb::ServerRequest& req) -> Result<void> {
        std::int32_t sum = req.arg(0).as<std::int32_t>() +
                           req.arg(1).as<std::int32_t>() + tag;
        if (corrupt()) ++sum;
        req.set_result(orb::Value(sum));
        return {};
      });
      w.refs.push_back(node.orb().activate(servant));
      w.dir_published.push_back(&node.metrics().counter("dir.notifications_sent"));
      w.heartbeats.push_back(&node.metrics().counter("cohesion.heartbeats_sent"));
      w.gossip.push_back(&node.metrics().counter("dir.gossip_rounds"));
    }
    w.bytes = &w.net.transport().metrics().counter("transport.bytes");
    w.msgs = &w.net.transport().metrics().counter("transport.messages");
    for (int n = 0; n < kNames; ++n) {
      const int host = static_cast<int>(w.rng.next_below(kNodes));
      w.names.push_back("svc." + std::to_string(n));
      w.host.push_back(host);
      w.nodes[static_cast<std::size_t>(host)]->publish_service(
          w.names.back(), w.refs[static_cast<std::size_t>(host)]);
    }
    for (int s = 0; s < kSessions; ++s) {
      const int on = 1 + s * (kNodes / kSessions);  // nodes 2, 6, 10, 14
      core::Node& node = *w.nodes[static_cast<std::size_t>(on)];
      session::SessionConfig cfg;
      for (NodeId replica : node.directory_replicas())
        if (auto ref = node.directory_ref(replica); ref.ok())
          cfg.directory.push_back(*ref);
      auto sess = std::make_unique<session::Session>(node.orb(), cfg);
      sess->set_clock(&w.net.clock());
      sess->set_sleep_fn([&w](Duration d) { w.net.advance(d); });
      w.sessions.push_back(std::move(sess));
      w.cache_hits.push_back(&node.orb().metrics().counter("session.cache_hits"));
      w.calls.push_back(&node.orb().metrics().counter("session.calls"));
      w.rebinds.push_back(&node.orb().metrics().counter("session.rebinds"));
      std::vector<int> ws;
      while (static_cast<int>(ws.size()) < kWorkingSet) {
        const int n = static_cast<int>(w.rng.next_below(kNames));
        if (std::find(ws.begin(), ws.end(), n) == ws.end()) ws.push_back(n);
      }
      w.working_sets.push_back(std::move(ws));
    }
    // Warm up: every session binds its whole working set once.
    Block warm(seed_);
    for (int s = 0; s < kSessions; ++s)
      for (int n : w.working_sets[static_cast<std::size_t>(s)]) read(warm, s, n);
    if (warm.failed != 0 && corrupt_every_ == 0) fail_setup("warm-up failed");
    w.net.advance(kStep, kStep);
    w.op_hash = 0xcbf29ce484222325ULL;
    w.prefix_start = {w.bytes->value(), w.msgs->value(), sum(w.dir_published)};
  }

  void run_block(Block& b, std::uint64_t deadline_ns) override {
    World& w = *world_;
    // The deterministic prefix always completes, however short the run.
    while (now_ns() < deadline_ns || w.ops < kPrefixOps) {
      one_op(b);
      if (w.ops == kPrefixOps) {
        w.prefix = {w.bytes->value() - w.prefix_start.bytes,
                    w.msgs->value() - w.prefix_start.msgs,
                    sum(w.dir_published) - w.prefix_start.notifications};
        w.prefix_writes = w.writes;
        w.prefix_hash = w.op_hash;
        w.prefix_rss_mb = peak_rss_mb_now();
      }
    }
  }

  void set_tracing(bool on) override { traced_ = on; }

  void layer_metrics(Metrics& m, const RunTotals&) override {
    const double vs = to_seconds(t_.virtual_us);
    m["session.read_p50_us"] = t_.reads.quantile_us(0.50);
    m["session.read_p99_us"] = t_.reads.quantile_us(0.99);
    m["session.cache_hit_ratio"] = ratio(static_cast<double>(t_.cache_hits),
                                         static_cast<double>(t_.session_calls));
    m["session.rebinds_per_kop"] =
        ratio(1000.0 * static_cast<double>(t_.rebinds),
              static_cast<double>(t_.reads.seen() + t_.writes.seen()));
    m["dir.write_p50_us"] = t_.writes.quantile_us(0.50);
    m["dir.write_p99_us"] = t_.writes.quantile_us(0.99);
    m["dir.read_bytes_per_op"] = ratio(static_cast<double>(t_.read_bytes),
                                       static_cast<double>(t_.reads.seen()));
    m["dir.write_bytes_per_op"] = ratio(static_cast<double>(t_.write_bytes),
                                        static_cast<double>(t_.writes.seen()));
    m["core.background_bytes_per_vs"] =
        ratio(static_cast<double>(t_.background_bytes), vs);
    m["cohesion.heartbeats_per_vs"] =
        ratio(static_cast<double>(t_.heartbeats), vs);
    m["dir.gossip_rounds_per_vs"] = ratio(static_cast<double>(t_.gossip), vs);
    m["core.advance_us_per_vs"] = ratio(static_cast<double>(t_.advance_ns) / 1e3, vs);
  }

  void wire_metrics(Metrics& m, std::uint64_t) override {
    const World& w = *world_;
    m["wire_bytes_per_op"] =
        ratio(static_cast<double>(w.prefix.bytes), static_cast<double>(kPrefixOps));
    m["wire_msgs_per_op"] =
        ratio(static_cast<double>(w.prefix.msgs), static_cast<double>(kPrefixOps));
    m["dir.notifications_per_write"] =
        ratio(static_cast<double>(w.prefix.notifications),
              static_cast<double>(w.prefix_writes));
  }

  std::vector<std::pair<std::string, std::string>> detail() override {
    char hash[32];
    std::snprintf(hash, sizeof hash, "\"%016llx\"",
                  static_cast<unsigned long long>(world_->prefix_hash));
    return {{"prefix_ops", std::to_string(kPrefixOps)},
            {"prefix_writes", std::to_string(world_->prefix_writes)},
            {"op_sequence_hash", hash}};
  }

  /// The sessions' event logs grow with every operation, so a reading at
  /// the end of the run would track throughput: read it after the prefix.
  double peak_rss_mb() override { return world_->prefix_rss_mb; }

  void teardown() override { world_.reset(); }

 private:
  struct Counts {
    std::uint64_t bytes = 0, msgs = 0, notifications = 0;
  };
  struct World {
    core::LocalNetwork net;
    std::vector<core::Node*> nodes;
    std::vector<orb::ObjectRef> refs;
    std::vector<std::string> names;
    std::vector<int> host;  // current binding of each name (ground truth)
    std::vector<std::unique_ptr<session::Session>> sessions;
    std::vector<std::vector<int>> working_sets;
    std::vector<obs::Counter*> dir_published, heartbeats, gossip, cache_hits,
        calls, rebinds;
    obs::Counter* bytes = nullptr;
    obs::Counter* msgs = nullptr;
    Rng rng;
    std::uint64_t ops = 0, writes = 0;
    std::uint64_t op_hash = 0, prefix_hash = 0, prefix_writes = 0;
    double prefix_rss_mb = 0;
    Counts prefix_start, prefix;
    ~World() { sessions.clear(); }  // sessions before their nodes' orbs
  };
  struct Traced {
    explicit Traced(std::uint64_t seed) : reads(seed), writes(seed + 1) {}
    Samples reads, writes;
    std::uint64_t read_bytes = 0, write_bytes = 0, background_bytes = 0;
    std::uint64_t heartbeats = 0, gossip = 0, advance_ns = 0;
    std::uint64_t cache_hits = 0, session_calls = 0, rebinds = 0;
    Duration virtual_us = 0;
  };

  static std::int32_t host_tag(int host) { return 1000000 * (host + 1); }

  static std::uint64_t sum(const std::vector<obs::Counter*>& cs) {
    std::uint64_t s = 0;
    for (const obs::Counter* c : cs) s += c->value();
    return s;
  }

  bool corrupt() {
    return corrupt_every_ != 0 && ++served_ % corrupt_every_ == 0;
  }

  void mix(std::uint64_t v) {
    World& w = *world_;
    w.op_hash = (w.op_hash ^ v) * 0x100000001b3ULL;
  }

  /// One session read; returns its latency. Counts into `b`.
  std::uint64_t read(Block& b, int s, int n) {
    World& w = *world_;
    const auto a = static_cast<std::int32_t>(w.rng.next_in(-100000, 100000));
    const auto c = static_cast<std::int32_t>(w.rng.next_in(-100000, 100000));
    const std::uint64_t t0 = now_ns();
    auto r = w.sessions[static_cast<std::size_t>(s)]->call(
        w.names[static_cast<std::size_t>(n)], "add",
        {orb::Value(a), orb::Value(c)});
    const std::uint64_t dt = now_ns() - t0;
    const std::int32_t want = a + c + host_tag(w.host[static_cast<std::size_t>(n)]);
    const bool ok = r.ok() && r->is<std::int32_t>() && r->as<std::int32_t>() == want;
    b.lat.add(dt);
    ++b.ops;
    b.failed += ok ? 0 : 1;
    return dt;
  }

  void one_op(Block& b) {
    World& w = *world_;
    const bool is_write = w.rng.chance(kWriteShare);
    const std::uint64_t bytes0 = traced_ ? w.bytes->value() : 0;
    if (is_write) {
      const int n = static_cast<int>(w.rng.next_below(kNames));
      const int from = w.host[static_cast<std::size_t>(n)];
      const int to = static_cast<int>(
          (static_cast<std::uint64_t>(from) + 1 + w.rng.next_below(kNodes - 1)) %
          kNodes);
      mix(0x10000u + static_cast<std::uint64_t>(n) * 64 + static_cast<std::uint64_t>(to));
      const std::uint64_t t0 = now_ns();
      w.nodes[static_cast<std::size_t>(to)]->publish_service(
          w.names[static_cast<std::size_t>(n)], w.refs[static_cast<std::size_t>(to)]);
      const std::uint64_t dt = now_ns() - t0;
      w.host[static_cast<std::size_t>(n)] = to;
      // The write is visible on the lowest-id directory replica.
      auto rec = w.nodes[0]->directory().lookup(w.names[static_cast<std::size_t>(n)]);
      const bool ok = rec.ok() && rec->ref == w.refs[static_cast<std::size_t>(to)];
      b.lat.add(dt);
      ++b.ops;
      b.failed += ok ? 0 : 1;
      ++w.writes;
      if (traced_) {
        t_.writes.add(dt);
        t_.write_bytes += w.bytes->value() - bytes0;
      }
    } else {
      const int s = static_cast<int>(w.ops % kSessions);
      const auto& ws = w.working_sets[static_cast<std::size_t>(s)];
      const int n = ws[w.rng.next_below(ws.size())];
      mix(static_cast<std::uint64_t>(s) * 1024 + static_cast<std::uint64_t>(n));
      std::uint64_t hits0 = 0, calls0 = 0, rebinds0 = 0;
      if (traced_) {
        hits0 = sum(w.cache_hits);
        calls0 = sum(w.calls);
        rebinds0 = sum(w.rebinds);
      }
      const std::uint64_t dt = read(b, s, n);
      if (traced_) {
        t_.reads.add(dt);
        t_.read_bytes += w.bytes->value() - bytes0;
        t_.cache_hits += sum(w.cache_hits) - hits0;
        t_.session_calls += sum(w.calls) - calls0;
        t_.rebinds += sum(w.rebinds) - rebinds0;
      }
    }
    ++w.ops;
    // Virtual time moves one step per operation: heartbeats, checkpoint
    // rounds and directory anti-entropy run beside the calls.
    if (traced_) {
      const std::uint64_t bytes1 = w.bytes->value();
      const std::uint64_t hb0 = sum(w.heartbeats), g0 = sum(w.gossip);
      const std::uint64_t t0 = now_ns();
      w.net.advance(kStep, kStep);
      t_.advance_ns += now_ns() - t0;
      t_.background_bytes += w.bytes->value() - bytes1;
      t_.heartbeats += sum(w.heartbeats) - hb0;
      t_.gossip += sum(w.gossip) - g0;
      t_.virtual_us += kStep;
    } else {
      w.net.advance(kStep, kStep);
    }
  }

  std::uint64_t seed_;
  std::uint64_t corrupt_every_;
  std::uint64_t served_ = 0;
  bool traced_ = false;
  Traced t_{seed_ ^ 0x7ace};
  std::unique_ptr<World> world_;
};

// ---------------------------------------------------------------------------
// Host fingerprint and output.

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += ch;
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

std::string host_line() {
  utsname u{};
  ::uname(&u);
  std::string s = "{\"host\": {";
  s += "\"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
  s += ", \"cpu_model\": " + json_string(cpu_model());
  s += ", \"kernel\": " + json_string(std::string(u.sysname) + " " + u.release);
  s += ", \"machine\": " + json_string(u.machine);
  s += ", \"compiler\": " + json_string(LCBENCH_COMPILER);
  s += ", \"cmake_build_type\": " + json_string(LCBENCH_BUILD_TYPE);
  s += ", \"tcp_server_workers\": " + std::to_string(kTcpServerWorkers);
  s += "}}";
  return s;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";  // run.py rejects a null metric
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must list exactly BENCHMARK.json's end_to_end and per_layer metrics.
// call_p99_us and ops_per_s are per-layer, not end-to-end: a vCPU-preemption
// episode on the shared host can cover a whole TCP run and moves them by up
// to 10x, past any bound the benchmark may set (README.md, "Steadiness").
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},       {"call_p50_us", "us"},     {"cpu_us_per_op", "us"},
    {"peak_rss_mb", "MB"},  {"success_rate", "ratio"},
};
constexpr MetricDef kPerLayer[] = {
    {"call_p99_us", "us"},
    {"ops_per_s", "1/s"},
    {"idl.find_operation_ns", "ns"},
    {"orb.marshal_args_ns", "ns"},
    {"orb.request_encode_ns", "ns"},
    {"orb.request_decode_ns", "ns"},
    {"orb.reply_encode_ns", "ns"},
    {"orb.reply_decode_ns", "ns"},
    {"orb.unmarshal_result_ns", "ns"},
    {"orb.call_span_us", "us"},
    {"orb.client_self_us", "us"},
    {"orb.unattributed_us", "us"},
    {"orb.handle_frame_us", "us"},
    {"orb.servant_us", "us"},
    {"orb.server_self_us", "us"},
    {"orb.allocs_per_call", "count"},
    {"orb.alloc_bytes_per_call", "B"},
    {"transport.span_us", "us"},
    {"transport.self_us", "us"},
    {"transport.ctx_switches_per_call", "count"},
    {"mem.minor_faults_per_op", "count"},
    {"transport.floor_rtt_us", "us"},
    {"transport.ratio_to_floor", "ratio"},
    {"transport.copy_floor_us", "us"},
    {"transport.bulk_ratio_to_floor", "ratio"},
    {"session.read_p50_us", "us"},
    {"session.read_p99_us", "us"},
    {"session.cache_hit_ratio", "ratio"},
    {"session.rebinds_per_kop", "count"},
    {"dir.write_p50_us", "us"},
    {"dir.write_p99_us", "us"},
    {"dir.notifications_per_write", "count"},
    {"dir.read_bytes_per_op", "B"},
    {"dir.write_bytes_per_op", "B"},
    {"core.background_bytes_per_vs", "B/vs"},
    {"cohesion.heartbeats_per_vs", "1/vs"},
    {"dir.gossip_rounds_per_vs", "1/vs"},
    {"core.advance_us_per_vs", "us/vs"},
    {"trace_overhead_pct", "%"},
    {"wire_bytes_per_op", "B"},
    {"wire_msgs_per_op", "count"},
    {"error_rate", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::uint64_t corrupt_every = 0;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--corrupt-every") {
      a.corrupt_every = std::strtoull(v.c_str(), &end, 10);
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: lcbench --workload <colloc_small|tcp_small|tcp_bulk|"
                 "naming_churn> --seed <n> --seconds <s> --trace <0|1> "
                 "[--corrupt-every <k>]\n");
    return 2;
  }
  std::unique_ptr<Workload> wl;
  if (args.workload == "colloc_small" || args.workload == "tcp_small" ||
      args.workload == "tcp_bulk") {
    const Kind kind = args.workload == "colloc_small" ? Kind::colloc_small
                      : args.workload == "tcp_small"  ? Kind::tcp_small
                                                      : Kind::tcp_bulk;
    wl = std::make_unique<InvocationWorkload>(kind, args.seed,
                                              args.corrupt_every);
  } else if (args.workload == "naming_churn") {
    wl = std::make_unique<NamingWorkload>(args.seed, args.corrupt_every);
  } else {
    std::fprintf(stderr, "lcbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  // Keep freed heap memory in the process. With glibc's default trim
  // threshold, whether a thread arena hands its freed top back to the
  // kernel depends on how the first large frees of the run interleave, so
  // tcp_bulk runs fell into two modes (about 2 or 16 page faults per 64 KiB
  // echo, 150 or 200+ us of CPU per op). Pinning it removes that coin flip;
  // allocation and copying still cost what they cost.
  mallopt(M_TRIM_THRESHOLD, kTrimThreshold);
  calibrate_clock();
  std::printf("%s\n", host_line().c_str());

  // Set-up, repeated until it has run kMinSetups times and for
  // kSetupSpanNs in all (at most kMaxSetups times); the last world is the
  // one measured. A single set-up takes 10-150 ms, shorter than the host's
  // core-speed regimes, so a fixed handful would sample only one of them.
  // Tearing the previous world down is not part of set-up.
  std::vector<double> setups;
  const std::uint64_t setup_start = now_ns();
  while (setups.size() < kMinSetups ||
         (setups.size() < kMaxSetups &&
          now_ns() - setup_start < kSetupSpanNs)) {
    if (!setups.empty()) wl->teardown();
    const std::uint64_t t0 = now_ns();
    wl->setup();
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  // Measured blocks. With tracing, even blocks are untraced, odd traced.
  std::vector<Block> blocks;
  const int n_blocks = std::max(
      kMinBlocks, static_cast<int>(std::lround(args.seconds / kBlockSeconds)));
  blocks.reserve(static_cast<std::size_t>(n_blocks));
  const auto block_ns = static_cast<std::uint64_t>(args.seconds * 1e9 / n_blocks);
  std::uint64_t traced_ops = 0, traced_allocs = 0, traced_alloc_bytes = 0;
  std::uint64_t all_ctx = 0, all_faults = 0;
  for (int i = 0; i < n_blocks; ++i) {
    blocks.emplace_back(args.seed * 131 + static_cast<std::uint64_t>(i));
    Block& b = blocks.back();
    b.traced = args.trace && i % 2 == 1;
    wl->set_tracing(b.traced);
    const std::uint64_t a0 = g_allocs.load(), ab0 = g_alloc_bytes.load();
    g_count_allocs.store(b.traced);
    const Usage u0 = usage_now();
    const std::uint64_t t0 = now_ns();
    wl->run_block(b, t0 + block_ns);
    b.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    const Usage u1 = usage_now();
    g_count_allocs.store(false);
    wl->set_tracing(false);
    b.cpu_s = u1.cpu_s - u0.cpu_s;
    b.ctx_switches = u1.ctx_switches - u0.ctx_switches;
    all_ctx += b.ctx_switches;
    all_faults += u1.minor_faults - u0.minor_faults;
    if (b.traced) {
      traced_ops += b.ops;
      traced_allocs += g_allocs.load() - a0;
      traced_alloc_bytes += g_alloc_bytes.load() - ab0;
    }
  }

  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> p50, p99, ops_s, cpu, tp50;
  for (const Block& b : blocks) {
    attempted += b.ops;
    failed += b.failed;
    if (b.traced) {
      tp50.push_back(b.lat.quantile_us(0.50));
      continue;
    }
    p50.push_back(b.lat.quantile_us(0.50));
    p99.push_back(b.lat.quantile_us(0.99));
    ops_s.push_back(ratio(static_cast<double>(b.ops), b.wall_s));
    cpu.push_back(ratio(b.cpu_s * 1e6, static_cast<double>(b.ops)));
  }
  Metrics m;
  m["setup_s"] = median(setups);
  const double q = wl->multithreaded() ? kQuietQuantile : kSustainedQuantile;
  m["call_p50_us"] = quantile(p50, q);
  m["call_p99_us"] = quantile(p99, q);
  m["ops_per_s"] = quantile(ops_s, 1 - q);
  m["cpu_us_per_op"] = quantile(cpu, q);
  m["success_rate"] =
      1.0 - ratio(static_cast<double>(failed), static_cast<double>(attempted));
  wl->wire_metrics(m, attempted);
  if (args.trace) {
    wl->layer_metrics(m, RunTotals{traced_ops, traced_allocs,
                                   traced_alloc_bytes, m["call_p50_us"],
                                   m["ops_per_s"]});
    m["transport.ctx_switches_per_call"] =
        ratio(static_cast<double>(all_ctx), static_cast<double>(attempted));
    m["mem.minor_faults_per_op"] =
        ratio(static_cast<double>(all_faults), static_cast<double>(attempted));
    m["trace_overhead_pct"] =
        100.0 * (ratio(quantile(tp50, q),
                       m["call_p50_us"]) - 1.0);
    m["error_rate"] =
        ratio(static_cast<double>(failed), static_cast<double>(attempted));
  }
  const auto extra = wl->detail();
  const double peak_rss = wl->peak_rss_mb();
  wl->teardown();
  m["peak_rss_mb"] = peak_rss;

  // Detail line: sample counts and the figures of the other mode.
  std::string detail = "{\"detail\": {\"workload\": " + json_string(args.workload) +
                       ", \"seed\": " + std::to_string(args.seed) +
                       ", \"trace\": " + (args.trace ? "1" : "0") +
                       ", \"samples\": " + std::to_string(attempted) +
                       ", \"blocks\": " + std::to_string(n_blocks) +
                       ", \"setups\": " + std::to_string(setups.size()) +
                       ", \"error_rate\": " +
                       json_number(ratio(static_cast<double>(failed),
                                         static_cast<double>(attempted)));
  auto series = [](const std::vector<double>& v) {
    std::string a = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
      a += (i == 0 ? "" : ", ") + json_number(v[i]);
    return a + "]";
  };
  detail += ", \"setup_s\": " + series(setups) +
            ", \"block_p50_us\": " + series(p50) +
            ", \"block_p99_us\": " + series(p99) +
            ", \"block_ops_per_s\": " + series(ops_s) +
            ", \"block_cpu_us_per_op\": " + series(cpu);
  for (const char* k : {"call_p99_us", "ops_per_s", "wire_bytes_per_op",
                        "wire_msgs_per_op", "dir.notifications_per_write"})
    if (m.count(k) != 0) detail += ", " + json_string(k) + ": " + json_number(m[k]);
  for (const auto& [k, v] : extra) detail += ", " + json_string(k) + ": " + v;
  detail += "}}";
  std::printf("%s\n", detail.c_str());

  std::string out = "{\"correct\": ";
  out += failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& d) {
    const auto it = m.find(d.name);
    // A layer a workload does not cross reports 0.
    const double v = it == m.end() ? 0.0 : it->second;
    out += first ? "" : ", ";
    first = false;
    out += json_string(d.name) + ": {\"value\": " + json_number(v) +
           ", \"unit\": " + json_string(d.unit) + "}";
  };
  if (args.trace) {
    for (const MetricDef& d : kPerLayer) emit(d);
  } else {
    for (const MetricDef& d : kEndToEnd) emit(d);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return 0;
}
