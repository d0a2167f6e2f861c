#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <thread>

#include "util/cancel.h"

namespace themis::perfbench {
namespace {

constexpr int kGeneratorNice = -10;

Outcome::Kind Classify(const char* line, size_t size) {
  static constexpr char kKey[] = "\"status\":\"";
  const char* end = line + size;
  const char* found = std::search(line, end, kKey, kKey + sizeof(kKey) - 1);
  if (found == end) return Outcome::Kind::kError;
  const char* value = found + sizeof(kKey) - 1;
  auto is = [&](const char* word) {
    const size_t n = std::strlen(word);
    return static_cast<size_t>(end - value) > n &&
           std::memcmp(value, word, n) == 0 && value[n] == '"';
  };
  if (is("OK")) return Outcome::Kind::kOk;
  if (is("ResourceExhausted")) return Outcome::Kind::kRejected;
  return Outcome::Kind::kError;
}

/// Drops the consumed prefix of a stream buffer once it is large (or all
/// of it), so a buffer that never drains to a line boundary stays small.
void Compact(std::string* buffer, size_t* offset) {
  if (*offset == buffer->size()) {
    buffer->clear();
    *offset = 0;
  } else if (*offset >= (1u << 16)) {
    buffer->erase(0, *offset);
    *offset = 0;
  }
}

/// Drives one connection through its share of the schedule: request
/// indices first, first + stride, ... Returns an empty string on
/// success, else what went wrong.
std::string DriveConnection(int fd, const std::vector<QueryText>& texts,
                            const std::vector<uint32_t>& order, int64_t start_ns,
                            double interval_ns, size_t first, size_t stride,
                            size_t max_outstanding, double drain_timeout_s,
                            std::vector<Outcome>* outcomes,
                            std::atomic<bool>* aborted) {
  const size_t total = order.size();
  const bool closed_loop = interval_ns <= 0;
  size_t next_send = first;  // next request index to send
  size_t next_recv = first;  // next request index awaiting its answer
  size_t outstanding = 0;
  bool stop_sending = false;
  std::string out;
  size_t out_offset = 0;
  std::string in;
  size_t in_offset = 0;
  char buffer[1 << 16];
  int64_t last_progress_ns = util::SteadyNowNs();
  auto due = [&](size_t i) {
    return start_ns + static_cast<int64_t>(std::llround(i * interval_ns));
  };

  for (;;) {
    int64_t now = util::SteadyNowNs();
    while (!stop_sending && next_send < total && due(next_send) <= now) {
      if (outstanding >= max_outstanding) {
        if (closed_loop) break;  // the next answer frees a slot
        stop_sending = true;
        aborted->store(true, std::memory_order_relaxed);
        break;
      }
      Outcome& outcome = (*outcomes)[next_send];
      outcome.text = order[next_send];
      outcome.send_ns = now;
      out += texts[outcome.text].line;
      out += '\n';
      ++outstanding;
      next_send += stride;
    }
    while (out_offset < out.size()) {
      const ssize_t n = ::send(fd, out.data() + out_offset,
                               out.size() - out_offset,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        out_offset += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return std::string("send: ") + std::strerror(errno);
    }
    Compact(&out, &out_offset);
    for (;;) {
      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), MSG_DONTWAIT);
      if (n > 0) {
        in.append(buffer, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return n == 0 ? "server closed the connection"
                    : std::string("recv: ") + std::strerror(errno);
    }
    if (in_offset < in.size()) {
      now = util::SteadyNowNs();
      for (;;) {
        const size_t newline = in.find('\n', in_offset);
        if (newline == std::string::npos) break;
        if (next_recv >= next_send) return "answer without a request";
        Outcome& outcome = (*outcomes)[next_recv];
        const char* line = in.data() + in_offset;
        const size_t size = newline - in_offset;
        outcome.recv_ns = now;
        outcome.hash = HashBytes(line, size);
        outcome.length = static_cast<uint32_t>(size);
        outcome.kind = Classify(line, size);
        --outstanding;
        next_recv += stride;
        in_offset = newline + 1;
        last_progress_ns = now;
      }
      Compact(&in, &in_offset);
    }
    const bool sending_done = stop_sending || next_send >= total;
    if (sending_done && outstanding == 0 && out.empty()) return "";

    now = util::SteadyNowNs();
    int64_t wait_ns = 50'000'000;
    const bool window_full = closed_loop && outstanding >= max_outstanding;
    if (!sending_done && !window_full) {
      wait_ns = std::max<int64_t>(0, due(next_send) - now);
    }
    if (sending_done &&
        now - last_progress_ns > static_cast<int64_t>(drain_timeout_s * 1e9)) {
      return "no answer within the drain timeout";
    }
    if (wait_ns > 0) {
      pollfd pfd{fd, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)),
                 0};
      const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                             static_cast<long>(wait_ns % 1'000'000'000)};
      if (::ppoll(&pfd, 1, &timeout, nullptr) < 0 && errno != EINTR) {
        return std::string("ppoll: ") + std::strerror(errno);
      }
    }
  }
}

}  // namespace

uint64_t HashBytes(const char* data, size_t size) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

Result<LoadGenerator> LoadGenerator::Connect(uint16_t port,
                                             size_t connections) {
  std::vector<int> fds;
  LoadGenerator generator(std::move(fds));
  for (size_t i = 0; i < connections; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return Status::IoError(std::string("socket: ") + std::strerror(errno));
    generator.fds_.push_back(fd);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      return Status::IoError(std::string("connect: ") + std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return generator;
}

LoadGenerator::LoadGenerator(LoadGenerator&& other) noexcept
    : fds_(std::move(other.fds_)) {
  other.fds_.clear();
}

LoadGenerator::~LoadGenerator() {
  for (int fd : fds_) ::close(fd);
}

Result<Segment> LoadGenerator::Run(const std::vector<QueryText>& texts,
                                   const std::vector<uint32_t>& order,
                                   double rate, size_t max_outstanding,
                                   std::vector<Outcome> slots,
                                   double drain_timeout_s) const {
  Segment segment;
  segment.rate = rate;
  segment.outcomes = std::move(slots);
  segment.outcomes.assign(order.size(), Outcome());
  const double interval_ns = rate > 0 ? 1e9 / rate : 0;
  // A short lead so every thread is parked before the first due time.
  const int64_t start_ns = util::SteadyNowNs() + 2'000'000;
  for (size_t i = 0; i < order.size(); ++i) {
    segment.outcomes[i].due_ns =
        start_ns + static_cast<int64_t>(std::llround(i * interval_ns));
  }
  std::atomic<bool> aborted{false};
  std::vector<std::string> errors(fds_.size());
  std::vector<std::thread> threads;
  threads.reserve(fds_.size());
  for (size_t c = 0; c < fds_.size(); ++c) {
    threads.emplace_back([&, c] {
      // The generator must not queue behind the server's pool threads on
      // a busy machine, or its own lateness would be charged to the
      // server. Raising priority needs privileges; without them the
      // thread keeps the default and the lateness report shows it.
      ::setpriority(PRIO_PROCESS, static_cast<id_t>(::gettid()),
                    kGeneratorNice);
      errors[c] = DriveConnection(fds_[c], texts, order, start_ns,
                                  interval_ns, c, fds_.size(),
                                  max_outstanding, drain_timeout_s,
                                  &segment.outcomes, &aborted);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::string& error : errors) {
    if (!error.empty()) return Status::IoError("load generator: " + error);
  }
  segment.aborted = aborted.load();
  return segment;
}

double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  const size_t rank = std::min(
      values.size() - 1,
      static_cast<size_t>(std::ceil(q * static_cast<double>(values.size()))) -
          (q > 0 ? 1 : 0));
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

LatencySummary Summarize(const std::vector<Outcome>& outcomes) {
  LatencySummary summary;
  std::vector<double> latency;
  std::vector<double> late;
  std::vector<double> final_fifth;
  const size_t final_begin = outcomes.size() - outcomes.size() / 5;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& outcome = outcomes[i];
    if (outcome.kind == Outcome::Kind::kUnsent) continue;
    late.push_back((outcome.send_ns - outcome.due_ns) / 1e6);
    if (outcome.kind != Outcome::Kind::kOk) continue;
    const double ms = (outcome.recv_ns - outcome.due_ns) / 1e6;
    latency.push_back(ms);
    if (i >= final_begin) final_fifth.push_back(ms);
  }
  summary.samples = latency.size();
  if (latency.empty()) return summary;
  summary.p50_ms = Quantile(latency, 0.5);
  for (double p : {0.99, 0.95, 0.9, 0.5}) {
    if (static_cast<double>(latency.size()) * (1 - p) >= 10 || p == 0.5) {
      summary.tail_percentile = p * 100;
      summary.tail_ms = Quantile(latency, p);
      break;
    }
  }
  summary.late_p99_ms = Quantile(late, 0.99);
  summary.late_max_ms = *std::max_element(late.begin(), late.end());
  summary.final_fifth_p50_ms = Median(final_fifth);
  return summary;
}

LatencySummary SummarizeWindows(const std::vector<Outcome>& outcomes,
                                size_t windows) {
  LatencySummary all = Summarize(outcomes);
  if (windows <= 1) return all;
  std::vector<double> p50, tail, percentile;
  for (size_t w = 0; w < windows; ++w) {
    const std::vector<Outcome> slice(
        outcomes.begin() + outcomes.size() * w / windows,
        outcomes.begin() + outcomes.size() * (w + 1) / windows);
    const LatencySummary s = Summarize(slice);
    p50.push_back(s.p50_ms);
    tail.push_back(s.tail_ms);
    percentile.push_back(s.tail_percentile);
  }
  all.p50_ms = Median(p50);
  all.tail_ms = Median(tail);
  all.tail_percentile = *std::min_element(percentile.begin(), percentile.end());
  return all;
}

}  // namespace themis::perfbench
