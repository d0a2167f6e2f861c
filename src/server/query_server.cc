#include "server/query_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "simd/simd.h"
#include "sql/executor.h"
#include "util/cpu_topology.h"
#include "util/eventfd.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace themis::server {

namespace {

/// epoll_event.data.u64 tags. Sessions use their id (>= 2).
constexpr uint64_t kListenTag = 0;
constexpr uint64_t kWakeTag = 1;

/// Framing bound per session, matching RecvLine's: a peer streaming bytes
/// with no newline may not grow the input buffer without limit.
constexpr size_t kMaxBufferedBytes = 64ull << 20;

/// How long a shutdown waits for unflushed responses once every admitted
/// request has its answer: a peer that stops reading forfeits its
/// responses after this grace instead of pinning Stop() forever.
constexpr std::chrono::seconds kShutdownFlushGrace{10};

/// Retired encode buffers a session keeps for reuse. Small: pipelining
/// depth beyond this just allocates, and idle sessions pin at most this
/// many empty-but-reserved strings.
constexpr size_t kSessionScratchSlots = 8;

/// Scatter-gather bound per sendmsg: 32 completed responses (payload +
/// newline each) leave in one syscall; deeper completed prefixes simply
/// loop.
constexpr size_t kMaxFlushIovecs = 64;

size_t DefaultIoThreads() {
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::max<size_t>(1, std::min<size_t>(4, hw / 4));
}

}  // namespace

/// One FIFO slot of a session: the response payload once `done`, plus the
/// cancel token the pool task polls (null for inline answers). Shared
/// between the owning I/O thread and the pool task, and kept alive by the
/// task even if the session closes first.
///
/// The payload is either `owned` — bytes encoded into this slot (seeded
/// with a recycled session scratch buffer at admission) — or `shared`, a
/// refcounted handle into the response byte cache; `shared` wins when
/// set. Neither carries the '\n' framing: the flush path appends it via
/// scatter-gather, so cached payloads are served without a single copy.
struct QueryServer::PendingResponse {
  std::shared_ptr<util::CancelToken> cancel;
  std::string owned;
  util::ImmutableBuffer shared;
  /// The response bytes once `done` (no '\n' framing).
  const std::string& payload() const { return shared ? shared.str() : owned; }
  std::atomic<bool> done{false};
  /// Monotonic stamp of the request line's arrival on the I/O thread —
  /// the base of the always-on end-to-end latency histogram.
  int64_t received_ns = 0;
  /// Monotonic stamp of the admission decision; with the pool task's
  /// start it bounds the kQueueWait span.
  int64_t admitted_ns = 0;
  /// Non-null when this request is traced (sampled by trace_sample_n);
  /// owned here so the trace lives exactly as long as the request.
  std::unique_ptr<obs::TraceContext> trace;
};

/// One client connection. Only its owning I/O thread touches it.
struct QueryServer::Session {
  int fd = -1;
  uint64_t id = 0;
  /// Bytes read but not yet parsed into request lines.
  std::string in;
  /// Responses in request order; the completed prefix is flushable.
  std::deque<std::shared_ptr<PendingResponse>> fifo;
  /// Bytes of the front slot's payload-plus-newline already sent — the
  /// partial-write continuation point for the scatter-gather flush.
  size_t out_pos = 0;
  bool want_write = false;  // EPOLLOUT armed
  bool peer_gone = false;   // read side saw EOF / error
  /// Retired `owned` encode buffers (capacity kept, contents cleared),
  /// handed to the next admitted request so the steady-state uncached
  /// path re-encodes into warm allocations instead of growing fresh ones.
  std::vector<std::string> scratch;
  /// Per-session defaults installed by the `set` verb, applied to later
  /// requests that omit `mode` / `deadline_ms`.
  core::AnswerMode default_mode = core::AnswerMode::kHybrid;
  uint64_t default_deadline_ms = 0;
};

/// Response-cache coordinates of one resolved kQuery (see
/// MakeCacheIntent). `eligible` false means the miss path encodes
/// without admitting.
struct QueryServer::CacheIntent {
  bool eligible = false;
  std::string probe_key;
  std::string full_key;
  std::string relation;
  uint64_t generation = 0;
};

/// One epoll event loop. `mu` guards only the cross-thread mailbox
/// (incoming sockets, completed session ids, the shutdown flag);
/// `sessions` is loop-thread-private.
struct QueryServer::IoThread {
  size_t index = 0;
  int epoll_fd = -1;
  util::EventFd wake;
  std::thread thread;

  std::mutex mu;
  std::vector<int> incoming;
  std::vector<uint64_t> completed;
  bool shutdown = false;

  std::unordered_map<uint64_t, std::unique_ptr<Session>> sessions;

  ~IoThread() {
    if (epoll_fd >= 0) ::close(epoll_fd);
  }
};

QueryServer::QueryServer(const core::Catalog* catalog)
    : QueryServer(catalog, Options()) {}

QueryServer::QueryServer(const core::Catalog* catalog, Options options)
    : catalog_(catalog),
      options_(std::move(options)),
      max_inflight_(catalog_->options().max_inflight) {
  metrics_ = std::make_unique<obs::ServingMetrics>(options_.slow_query_log_k);
  if (options_.enable_response_cache) {
    response_cache_ = std::make_unique<ResponseCache>(
        catalog_->options().response_cache_bytes);
  }
}

QueryServer::~QueryServer() { Stop(); }

Status QueryServer::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (listen_fd_ >= 0 || !io_.empty()) {
    return Status::FailedPrecondition("server already started");
  }
  // Belt and braces with MSG_NOSIGNAL: no write to a vanished peer may
  // kill the process.
  ::signal(SIGPIPE, SIG_IGN);

  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status status =
        Status::IoError(std::string("bind: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 1024) < 0) {
    const Status status =
        Status::IoError(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    const Status status =
        Status::IoError(std::string("getsockname: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }

  num_io_threads_ =
      options_.io_threads > 0 ? options_.io_threads : DefaultIoThreads();

  io_.reserve(num_io_threads_);
  for (size_t i = 0; i < num_io_threads_; ++i) {
    auto io = std::make_unique<IoThread>();
    io->index = i;
    io->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (io->epoll_fd < 0 || !io->wake.valid()) {
      io_.clear();
      ::close(fd);
      return Status::IoError("epoll/eventfd setup failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    ::epoll_ctl(io->epoll_fd, EPOLL_CTL_ADD, io->wake.fd(), &ev);
    io_.push_back(std::move(io));
  }
  // The listen socket lives on thread 0, edge-triggered like the
  // sessions: one wakeup per connection burst, accepted until EAGAIN.
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = kListenTag;
  ::epoll_ctl(io_[0]->epoll_fd, EPOLL_CTL_ADD, fd, &ev);

  // Catalog mutations (Build / InsertSample / InsertAggregate /
  // DropRelation) invalidate the relation's cached response bytes in the
  // same breath as the result memo, so stale bytes can never be served.
  if (response_cache_ != nullptr && mutation_listener_id_ == 0) {
    mutation_listener_id_ = catalog_->AddMutationListener(
        [this](const std::string& relation) {
          response_cache_->Invalidate(relation);
        });
  }

  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  for (size_t i = 0; i < num_io_threads_; ++i) {
    io_[i]->thread = std::thread([this, i] { IoLoop(i); });
  }
  THEMIS_LOG(Info) << "query server listening on 127.0.0.1:" << port_
                   << " (" << num_io_threads_ << " io threads, max_inflight "
                   << max_inflight_ << ", trace_sample_n "
                   << options_.trace_sample_n << ")";
  return Status::OK();
}

void QueryServer::Stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (listen_fd_ < 0 && io_.empty()) return;  // never started / stopped
  stopping_.store(true, std::memory_order_release);
  for (const std::unique_ptr<IoThread>& io : io_) {
    {
      std::lock_guard<std::mutex> io_lock(io->mu);
      io->shutdown = true;
    }
    io->wake.Signal();
  }
  // The I/O threads drain on their own: each keeps flushing until every
  // admitted request has posted its response and every connected peer has
  // read it (or the flush grace lapses).
  for (const std::unique_ptr<IoThread>& io : io_) {
    if (io->thread.joinable()) io->thread.join();
  }
  // Pool tasks may outlive their session (peer vanished mid-query, or the
  // flush grace lapsed). Each touches this server and its I/O thread
  // mailbox until its very last action, the drain-count decrement — so
  // Stop() may not free anything before the count hits zero.
  {
    std::unique_lock<std::mutex> drain(drain_mu_);
    drain_cv_.wait(drain, [this] { return tasks_active_ == 0; });
  }
  if (mutation_listener_id_ != 0) {
    catalog_->RemoveMutationListener(mutation_listener_id_);
    mutation_listener_id_ = 0;
  }
  io_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
  THEMIS_LOG(Info) << "query server stopped (served_ok "
                   << served_ok_.load(std::memory_order_relaxed)
                   << ", served_error "
                   << served_error_.load(std::memory_order_relaxed)
                   << ", rejected_overload "
                   << rejected_overload_.load(std::memory_order_relaxed)
                   << ")";
}

void QueryServer::IoLoop(size_t index) {
  IoThread& io = *io_[index];
  std::vector<epoll_event> events(64);
  bool shutdown = false;
  std::chrono::steady_clock::time_point flush_deadline{};
  for (;;) {
    // Once shutdown is requested the loop polls: the remaining wakeups
    // (task completions, final EPOLLOUTs) still arrive through epoll, but
    // the flush grace needs a clock check even when nothing fires.
    const int timeout_ms = shutdown ? 50 : -1;
    const int n = ::epoll_wait(io.epoll_fd, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      const uint32_t ev = events[i].events;
      if (tag == kListenTag) {
        AcceptReady(io);
        continue;
      }
      if (tag == kWakeTag) {
        io.wake.Drain();  // mailbox handled below
        continue;
      }
      if (ev & EPOLLOUT) FlushSession(io, tag, shutdown);
      if (ev & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) {
        HandleReadable(io, tag);
      }
    }
    DrainMailbox(io, &shutdown);
    if (shutdown) {
      if (flush_deadline == std::chrono::steady_clock::time_point{}) {
        flush_deadline = std::chrono::steady_clock::now() +
                         kShutdownFlushGrace;
        // First pass: flush what is already complete; sessions with
        // nothing in flight close immediately.
        std::vector<uint64_t> ids;
        ids.reserve(io.sessions.size());
        for (const auto& [id, session] : io.sessions) ids.push_back(id);
        for (uint64_t id : ids) FlushSession(io, id, true);
      }
      if (io.sessions.empty() ||
          std::chrono::steady_clock::now() >= flush_deadline) {
        break;
      }
    }
  }
  // Forced teardown of whatever survived the grace: cancel the work so
  // the pool stops burning cycles for peers that will never read.
  for (const auto& [id, session] : io.sessions) {
    for (const std::shared_ptr<PendingResponse>& slot : session->fifo) {
      if (slot->cancel && !slot->done.load(std::memory_order_acquire)) {
        slot->cancel->Cancel();
      }
    }
    ::close(session->fd);
    open_sessions_.fetch_sub(1, std::memory_order_relaxed);
  }
  io.sessions.clear();
}

void QueryServer::AcceptReady(IoThread& io) {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN (burst drained) or a fatal listen error
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      continue;
    }
    const size_t target = accepted_connections_.fetch_add(
                              1, std::memory_order_relaxed) %
                          num_io_threads_;
    if (target == io.index) {
      AdoptSocket(io, fd);
      continue;
    }
    IoThread& peer = *io_[target];
    {
      std::lock_guard<std::mutex> peer_lock(peer.mu);
      peer.incoming.push_back(fd);
    }
    peer.wake.Signal();
  }
}

void QueryServer::AdoptSocket(IoThread& io, int fd) {
  // Responses are single short lines flushed as one send: never delay
  // them behind Nagle.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto session = std::make_unique<Session>();
  session->fd = fd;
  session->id = next_session_id_.fetch_add(1, std::memory_order_relaxed);
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
  ev.data.u64 = session->id;
  if (::epoll_ctl(io.epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
    ::close(fd);
    return;
  }
  open_sessions_.fetch_add(1, std::memory_order_relaxed);
  io.sessions.emplace(session->id, std::move(session));
}

void QueryServer::DrainMailbox(IoThread& io, bool* shutdown) {
  std::vector<int> incoming;
  std::vector<uint64_t> completed;
  {
    std::lock_guard<std::mutex> io_lock(io.mu);
    incoming.swap(io.incoming);
    completed.swap(io.completed);
    if (io.shutdown) *shutdown = true;
  }
  for (int fd : incoming) {
    if (*shutdown) {
      ::close(fd);
      continue;
    }
    AdoptSocket(io, fd);
  }
  for (uint64_t id : completed) FlushSession(io, id, *shutdown);
}

void QueryServer::HandleReadable(IoThread& io, uint64_t session_id) {
  auto it = io.sessions.find(session_id);
  if (it == io.sessions.end()) return;
  Session& session = *it->second;
  bool framing_abuse = false;
  for (;;) {  // edge-triggered: drain until EAGAIN
    char chunk[16384];
    const ssize_t n = ::recv(session.fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      session.in.append(chunk, static_cast<size_t>(n));
      if (session.in.size() > kMaxBufferedBytes) {
        framing_abuse = true;
        break;
      }
      continue;
    }
    if (n == 0) {
      session.peer_gone = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    session.peer_gone = true;  // ECONNRESET and friends
    break;
  }
  if (framing_abuse) {
    for (const std::shared_ptr<PendingResponse>& slot : session.fifo) {
      if (slot->cancel && !slot->done.load(std::memory_order_acquire)) {
        slot->cancel->Cancel();
      }
    }
    CloseSession(io, session_id);
    return;
  }
  // Requests already in flight when the peer disconnects are cancelled;
  // the lines delivered together with the close (including a final
  // unterminated one) are still parsed and answered below — the
  // distinction between abandoning work and a half-closing client that
  // still reads its answers.
  const size_t inflight_before_eof =
      session.peer_gone ? session.fifo.size() : 0;
  if (!stopping_.load(std::memory_order_acquire)) {
    size_t newline;
    while ((newline = session.in.find('\n')) != std::string::npos) {
      std::string line = session.in.substr(0, newline);
      session.in.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (Trim(line).empty()) continue;
      HandleLine(io, session, line);
    }
    if (session.peer_gone && !session.in.empty()) {
      std::string line = std::move(session.in);
      session.in.clear();
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!Trim(line).empty()) HandleLine(io, session, line);
    }
  }
  if (session.peer_gone) {
    const size_t limit = std::min(inflight_before_eof, session.fifo.size());
    for (size_t i = 0; i < limit; ++i) {
      const std::shared_ptr<PendingResponse>& slot = session.fifo[i];
      if (slot->cancel && !slot->done.load(std::memory_order_acquire)) {
        slot->cancel->Cancel();
      }
    }
  }
  FlushSession(io, session_id, stopping_.load(std::memory_order_acquire));
}

void QueryServer::FlushSession(IoThread& io, uint64_t session_id,
                               bool stopping) {
  auto it = io.sessions.find(session_id);
  if (it == io.sessions.end()) return;
  Session& session = *it->second;
  static char kNewline = '\n';
  bool blocked = false;
  for (;;) {
    // Gather the FIFO's completed prefix — responses leave in request
    // order no matter which finished first — as one scatter-gather write:
    // payload + '\n' per slot, no staging copy. `out_pos` offsets into
    // the front slot when a previous write stopped partway.
    iovec iov[kMaxFlushIovecs];
    size_t niov = 0;
    bool front = true;
    for (const std::shared_ptr<PendingResponse>& slot : session.fifo) {
      if (!slot->done.load(std::memory_order_acquire)) break;
      if (niov + 2 > kMaxFlushIovecs) break;
      const std::string& payload = slot->payload();
      const size_t skip = front ? session.out_pos : 0;
      front = false;
      if (skip < payload.size()) {
        iov[niov].iov_base = const_cast<char*>(payload.data() + skip);
        iov[niov].iov_len = payload.size() - skip;
        ++niov;
      }
      // skip == payload.size() means exactly the newline remains; a slot
      // whose newline was sent retires immediately below, so skip never
      // reaches past it.
      iov[niov].iov_base = &kNewline;
      iov[niov].iov_len = 1;
      ++niov;
    }
    if (niov == 0) break;  // nothing flushable right now
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = niov;
    const ssize_t n = ::sendmsg(session.fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        blocked = true;  // partial write: EPOLLOUT continues it
        break;
      }
      // EPIPE/ECONNRESET: nothing can be delivered — stop the work.
      session.peer_gone = true;
      for (const std::shared_ptr<PendingResponse>& slot : session.fifo) {
        if (slot->cancel && !slot->done.load(std::memory_order_acquire)) {
          slot->cancel->Cancel();
        }
      }
      CloseSession(io, session_id);
      return;
    }
    // Retire fully sent slots, recycling their encode buffers; a partial
    // slot keeps its progress in out_pos.
    size_t sent = static_cast<size_t>(n);
    while (sent > 0) {
      PendingResponse& done_slot = *session.fifo.front();
      const size_t remaining =
          done_slot.payload().size() + 1 - session.out_pos;
      if (sent < remaining) {
        session.out_pos += sent;
        break;
      }
      sent -= remaining;
      session.out_pos = 0;
      if (done_slot.owned.capacity() > 0 &&
          session.scratch.size() < kSessionScratchSlots) {
        done_slot.owned.clear();
        session.scratch.push_back(std::move(done_slot.owned));
      }
      session.fifo.pop_front();
    }
  }
  if (blocked != session.want_write) {
    session.want_write = blocked;
    epoll_event ev{};
    ev.data.u64 = session.id;
    ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET |
                (blocked ? EPOLLOUT : 0u);
    ::epoll_ctl(io.epoll_fd, EPOLL_CTL_MOD, session.fd, &ev);
  }
  const bool drained = !blocked && session.fifo.empty();
  if (drained && (session.peer_gone || stopping)) {
    // Graceful close: the kernel still delivers what was just written.
    CloseSession(io, session_id);
  }
}

void QueryServer::CloseSession(IoThread& io, uint64_t session_id) {
  auto it = io.sessions.find(session_id);
  if (it == io.sessions.end()) return;
  ::close(it->second->fd);  // close() also removes the fd from epoll
  io.sessions.erase(it);
  open_sessions_.fetch_sub(1, std::memory_order_relaxed);
}

void QueryServer::HandleLine(IoThread& io, Session& session,
                             const std::string& line) {
  // Inline answers still enter the FIFO (already resolved) so responses
  // never reorder around in-flight pool work on the same session.
  const auto push_inline = [&session](std::string response) {
    auto slot = std::make_shared<PendingResponse>();
    slot->owned = std::move(response);
    slot->done.store(true, std::memory_order_release);
    session.fifo.push_back(std::move(slot));
  };

  // One clock read per request line: the base of the always-on end-to-end
  // latency histogram. When tracing is on it also anchors the kParse
  // span; with tracing off no further clocks are read here.
  const int64_t received_ns = util::SteadyNowNs();
  const bool trace_possible = options_.trace_sample_n > 0;

  auto request = ParseRequest(line);
  const int64_t parse_end_ns = trace_possible ? util::SteadyNowNs() : 0;
  if (!request.ok()) {
    // Answered inline, never admitted: served_ok/served_error count only
    // admitted requests, so admitted == served_ok + served_error +
    // inflight stays an invariant for monitors.
    push_inline(EncodeErrorResponse(request.status()));
    return;
  }
  // STATS and METRICS bypass admission control and the pool: they answer
  // inline from counters, so overload stays observable while it is
  // happening.
  if (request->verb == WireRequest::Verb::kStats) {
    push_inline(ExecuteStats());
    return;
  }
  if (request->verb == WireRequest::Verb::kMetrics) {
    push_inline(EncodeMetricsResponse(MetricsText()));
    return;
  }
  // The `set` verb installs session defaults and answers inline — it
  // spends no admission slot, like STATS.
  if (request->verb == WireRequest::Verb::kSet) {
    if (request->has_mode) session.default_mode = request->mode;
    if (request->has_deadline) {
      session.default_deadline_ms = request->deadline_ms;
    }
    push_inline(EncodeOkResponse());
    return;
  }
  // Session defaults, resolved before the cache probe so the probe key
  // reflects the mode this request will actually execute under.
  if (!request->has_mode) request->mode = session.default_mode;
  if (!request->has_deadline && session.default_deadline_ms > 0) {
    request->deadline_ms = session.default_deadline_ms;
  }

  // Tier-4 hot path: a repeat of a memoized answer is served from its
  // exact cached bytes right here on the I/O thread — no admission slot,
  // no pool handoff, no JSON encode. Counted as admitted + served_ok with
  // its latency recorded, so the monitoring identities (admitted ==
  // served_ok + served_error + inflight; histogram count == served_ok +
  // served_error) hold exactly. Hits skip trace sampling: there are no
  // stages to trace.
  if (response_cache_ != nullptr &&
      request->verb == WireRequest::Verb::kQuery) {
    std::string probe_key;
    probe_key.reserve(request->relation.size() + request->sql.size() + 10);
    probe_key += request->relation;
    probe_key += '\x1f';
    probe_key += AnswerModeWireName(request->mode);
    probe_key += '\x1f';
    probe_key += request->sql;
    util::ImmutableBuffer hit = response_cache_->Lookup(probe_key);
    if (hit) {
      admitted_.fetch_add(1, std::memory_order_relaxed);
      served_ok_.fetch_add(1, std::memory_order_relaxed);
      metrics_->request_latency.Record(
          std::max<int64_t>(0, util::SteadyNowNs() - received_ns));
      auto slot = std::make_shared<PendingResponse>();
      slot->received_ns = received_ns;
      slot->shared = std::move(hit);
      slot->done.store(true, std::memory_order_release);
      session.fifo.push_back(std::move(slot));
      return;
    }
  }
  // Admission control: claim an in-flight slot or bounce. The slot covers
  // the request from here until its pool task finishes.
  bool admitted = false;
  if (max_inflight_ == 0) {
    inflight_.fetch_add(1, std::memory_order_acq_rel);
    admitted = true;
  } else {
    size_t current = inflight_.load(std::memory_order_relaxed);
    while (current < max_inflight_) {
      if (inflight_.compare_exchange_weak(current, current + 1,
                                          std::memory_order_acq_rel)) {
        admitted = true;
        break;
      }
    }
  }
  if (!admitted) {
    rejected_overload_.fetch_add(1, std::memory_order_relaxed);
    push_inline(EncodeErrorResponse(Status::ResourceExhausted(
        "server overloaded: " + std::to_string(max_inflight_) +
        " requests already in flight")));
    return;
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);

  // The deadline budget starts now, at admission — queue time on the pool
  // counts against it.
  auto slot = std::make_shared<PendingResponse>();
  slot->cancel = std::make_shared<util::CancelToken>(
      std::min(request->deadline_ms, kMaxDeadlineMs));
  slot->received_ns = received_ns;
  // Seed the slot with a recycled encode buffer: the uncached response
  // path encodes into capacity a previous response already grew.
  if (!session.scratch.empty()) {
    slot->owned = std::move(session.scratch.back());
    session.scratch.pop_back();
  }

  // Sampling decision, after admission so rejected requests never burn a
  // sampling slot: every Nth admitted request.
  if (trace_possible) {
    const uint64_t seq = request_seq_.fetch_add(1, std::memory_order_relaxed);
    if (seq % options_.trace_sample_n == 0) {
      slot->trace = std::make_unique<obs::TraceContext>(received_ns);
      slot->trace->RecordSpan(obs::Stage::kParse, received_ns, parse_end_ns);
      slot->trace->RecordSpan(obs::Stage::kAdmission, parse_end_ns,
                              util::SteadyNowNs());
      slot->trace->SetSql(request->verb == WireRequest::Verb::kBatch
                              ? "<batch of " +
                                    std::to_string(request->batch.size()) +
                                    ">"
                              : request->sql);
    }
    slot->admitted_ns = util::SteadyNowNs();
  }
  session.fifo.push_back(slot);

  Submit(io.index, session.id, std::move(*request), std::move(slot));
}

void QueryServer::Submit(size_t io_index, uint64_t session_id,
                         WireRequest request,
                         std::shared_ptr<PendingResponse> slot) {
  {
    std::lock_guard<std::mutex> drain(drain_mu_);
    ++tasks_active_;
  }
  catalog_->pool()->Submit([this, io_index, session_id,
                            request = std::move(request),
                            slot = std::move(slot)] {
    obs::TraceContext* trace = slot->trace.get();
    if (trace != nullptr) {
      trace->RecordSpan(obs::Stage::kQueueWait, slot->admitted_ns,
                        util::SteadyNowNs());
    }
    try {
      if (options_.request_hook) options_.request_hook();
      ExecuteRequest(request, *slot, trace);
    } catch (...) {
      served_error_.fetch_add(1, std::memory_order_relaxed);
      if (trace != nullptr) trace->SetStatus("Internal");
      responses_encoded_.fetch_add(1, std::memory_order_relaxed);
      slot->shared.reset();
      slot->owned = EncodeErrorResponse(
          Status::Internal("request task threw an exception"));
    }
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    RecordRequestDone(*slot, util::SteadyNowNs());
    slot->done.store(true, std::memory_order_release);
    PostCompletion(io_index, session_id);
    // Very last action: release the drain count. After this the server
    // may be torn down, so nothing below may touch `this`.
    {
      std::lock_guard<std::mutex> drain(drain_mu_);
      --tasks_active_;
      drain_cv_.notify_all();
    }
  });
}

void QueryServer::PostCompletion(size_t io_index, uint64_t session_id) {
  IoThread& owner = *io_[io_index];
  {
    std::lock_guard<std::mutex> owner_lock(owner.mu);
    owner.completed.push_back(session_id);
  }
  owner.wake.Signal();
}

namespace {

/// The wire taxonomy treats the SQL text as part of the client's request:
/// a query the parser rejects is the client's mistake, so kParseError
/// (an internal library code that also covers config-file parsing)
/// crosses the wire as InvalidArgument. Every other code passes through.
Status AsWireStatus(const Status& status) {
  if (status.code() != StatusCode::kParseError) return status;
  return Status::InvalidArgument(status.message());
}

}  // namespace

QueryServer::CacheIntent QueryServer::MakeCacheIntent(
    const WireRequest& request,
    const core::Catalog::ResolvedQuery& resolved) {
  CacheIntent intent;
  const std::string& fingerprint = resolved.plan->fingerprint;
  if (response_cache_ == nullptr || fingerprint.empty()) return intent;
  const std::string& relation = resolved.evaluator->relation();
  // Generation snapshot *before* execution: if the relation mutates while
  // the query runs, Admit() sees the moved generation and refuses the
  // stale bytes.
  intent.generation = response_cache_->Generation(relation);
  intent.probe_key.reserve(request.relation.size() + request.sql.size() + 10);
  intent.probe_key += request.relation;
  intent.probe_key += '\x1f';
  intent.probe_key += AnswerModeWireName(request.mode);
  intent.probe_key += '\x1f';
  intent.probe_key += request.sql;
  intent.full_key.reserve(relation.size() + fingerprint.size() + 32);
  intent.full_key += relation;
  intent.full_key += '\x1f';
  intent.full_key += std::to_string(intent.generation);
  intent.full_key += '\x1f';
  intent.full_key += AnswerModeWireName(request.mode);
  intent.full_key += '\x1f';
  intent.full_key += fingerprint;
  intent.relation = relation;
  intent.eligible = true;
  return intent;
}

void QueryServer::FinalizeOutcome(const Result<sql::QueryResult>& result,
                                  const CacheIntent& intent,
                                  PendingResponse& slot) {
  if (result.ok()) {
    served_ok_.fetch_add(1, std::memory_order_relaxed);
    if (intent.eligible) {
      // Second chance: a racing duplicate, or another text with the same
      // plan fingerprint, may have admitted these exact bytes while this
      // request executed — reuse them, skip the encode.
      util::ImmutableBuffer cached =
          response_cache_->LookupFull(intent.full_key);
      if (cached) {
        slot.shared = std::move(cached);
        return;
      }
      std::string encoded = std::move(slot.owned);
      EncodeResultResponseTo(*result, &encoded);
      responses_encoded_.fetch_add(1, std::memory_order_relaxed);
      util::ImmutableBuffer payload(std::move(encoded));
      slot.shared = payload;
      response_cache_->Admit(intent.probe_key, intent.full_key,
                             intent.relation, intent.generation,
                             std::move(payload));
      return;
    }
    EncodeResultResponseTo(*result, &slot.owned);
    responses_encoded_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const Status& status = result.status();
  served_error_.fetch_add(1, std::memory_order_relaxed);
  if (status.code() == StatusCode::kDeadlineExceeded) {
    served_deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
  } else if (status.code() == StatusCode::kCancelled) {
    served_cancelled_.fetch_add(1, std::memory_order_relaxed);
  }
  responses_encoded_.fetch_add(1, std::memory_order_relaxed);
  slot.owned = EncodeErrorResponse(AsWireStatus(status));
}

void QueryServer::ExecuteRequest(const WireRequest& request,
                                 PendingResponse& slot,
                                 obs::TraceContext* trace) {
  const util::CancelToken* cancel = slot.cancel.get();
  if (request.verb == WireRequest::Verb::kBatch) {
    auto results =
        catalog_->QueryBatch(request.batch, request.mode, cancel, trace);
    if (trace != nullptr) {
      trace->SetStatus(results.ok()
                           ? "OK"
                           : StatusCodeName(results.status().code()));
    }
    if (!results.ok()) {
      served_error_.fetch_add(1, std::memory_order_relaxed);
      const Status& status = results.status();
      if (status.code() == StatusCode::kDeadlineExceeded) {
        served_deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      } else if (status.code() == StatusCode::kCancelled) {
        served_cancelled_.fetch_add(1, std::memory_order_relaxed);
      }
      responses_encoded_.fetch_add(1, std::memory_order_relaxed);
      slot.owned = EncodeErrorResponse(AsWireStatus(status));
      return;
    }
    served_ok_.fetch_add(1, std::memory_order_relaxed);
    obs::ScopedSpan span(trace, obs::Stage::kSerialize);
    responses_encoded_.fetch_add(1, std::memory_order_relaxed);
    slot.owned = EncodeBatchResponse(*results);
    return;
  }
  // One route and one plan-cache probe: the cache intent and the
  // execution share the resolved plan. Routing and planning errors are
  // answered, never cached.
  auto resolved = catalog_->Resolve(request.relation, request.sql, trace);
  CacheIntent intent;
  if (resolved.ok()) intent = MakeCacheIntent(request, *resolved);
  const Result<sql::QueryResult> result =
      resolved.ok()
          ? resolved->evaluator->ExecutePlan(*resolved->plan, request.mode,
                                             cancel, trace)
          : Result<sql::QueryResult>(resolved.status());
  if (trace != nullptr) {
    trace->SetStatus(result.ok() ? "OK"
                                 : StatusCodeName(result.status().code()));
  }
  obs::ScopedSpan span(trace, obs::Stage::kSerialize);
  FinalizeOutcome(result, intent, slot);
}

void QueryServer::RecordRequestDone(PendingResponse& slot, int64_t end_ns) {
  const int64_t total_ns = std::max<int64_t>(0, end_ns - slot.received_ns);
  metrics_->request_latency.Record(total_ns);
  obs::TraceContext* trace = slot.trace.get();
  if (trace == nullptr) return;
  for (size_t i = 0; i < obs::kNumStages; ++i) {
    const auto stage = static_cast<obs::Stage>(i);
    if (trace->StageCount(stage) == 0) continue;
    metrics_->stage_latency[i].Record(trace->StageTotalNs(stage));
  }
  // Every sampled trace is offered to the worst-K log, so the log always
  // holds the worst of what was observed.
  if (metrics_->slow_log.capacity() == 0) return;
  metrics_->slow_log.Offer(trace->Finish(total_ns));
}

std::string QueryServer::ExecuteStats() {
  ServerStats stats;
  stats.server = counters();
  stats.host = HostStatsNow();
  stats.relations = catalog_->Stats();
  stats.slow_queries = metrics_->slow_log.Snapshot();
  return EncodeStatsResponse(stats);
}

std::string QueryServer::MetricsText() const {
  using obs::prom::AppendHeader;
  using obs::prom::AppendHistogramNs;
  using obs::prom::AppendSample;
  using obs::prom::Labels;

  std::string out;
  const ServerCounters c = counters();

  const auto counter = [&out](const std::string& name, const char* help,
                              double value) {
    AppendHeader(&out, name, help, "counter");
    AppendSample(&out, name, {}, value);
  };
  const auto gauge = [&out](const std::string& name, const char* help,
                            double value) {
    AppendHeader(&out, name, help, "gauge");
    AppendSample(&out, name, {}, value);
  };

  AppendHeader(&out, "themis_requests_total",
               "Admitted requests that completed, by outcome.", "counter");
  AppendSample(&out, "themis_requests_total", {{"outcome", "ok"}},
               static_cast<double>(c.served_ok));
  AppendSample(&out, "themis_requests_total", {{"outcome", "error"}},
               static_cast<double>(c.served_error));

  counter("themis_requests_deadline_exceeded_total",
          "Requests that unwound cooperatively past their deadline.",
          static_cast<double>(c.served_deadline_exceeded));
  counter("themis_requests_cancelled_total",
          "Requests cancelled by client disconnect mid-query.",
          static_cast<double>(c.served_cancelled));
  counter("themis_requests_rejected_overload_total",
          "Requests bounced by admission control.",
          static_cast<double>(c.rejected_overload));
  counter("themis_requests_admitted_total",
          "Requests admitted past admission control.",
          static_cast<double>(c.admitted));
  counter("themis_connections_accepted_total", "Accepted TCP connections.",
          static_cast<double>(c.accepted_connections));
  // The response-byte-cache families are always exposed (zeros when the
  // cache is off) so dashboards and the CI smoke can rely on presence.
  counter("themis_responses_encoded_total",
          "Response payloads JSON-encoded by the serving path "
          "(byte-cache hits serve without encoding).",
          static_cast<double>(c.responses_encoded));
  counter("themis_response_cache_hits_total",
          "Requests served from cached response bytes.",
          static_cast<double>(c.response_cache_hits));
  counter("themis_response_cache_misses_total",
          "Response byte cache probes that found nothing.",
          static_cast<double>(c.response_cache_misses));
  counter("themis_response_cache_evictions_total",
          "Response byte cache entries dropped by budget or invalidation.",
          static_cast<double>(c.response_cache_evictions));
  counter("themis_response_cache_rejections_total",
          "Payloads refused admission (over budget, or stale by "
          "generation).",
          static_cast<double>(c.response_cache_rejections));

  gauge("themis_inflight_requests",
        "Requests currently queued or executing on the pool.",
        static_cast<double>(c.inflight));
  gauge("themis_active_connections",
        "Sessions currently registered with an I/O thread.",
        static_cast<double>(c.active_connections));
  gauge("themis_max_inflight", "Admission-control in-flight bound.",
        static_cast<double>(c.max_inflight));
  gauge("themis_io_threads", "Epoll event-loop threads.",
        static_cast<double>(c.io_threads));
  gauge("themis_response_cache_entries",
        "Resident response byte cache entries.",
        static_cast<double>(c.response_cache_entries));
  gauge("themis_response_cache_bytes",
        "Resident bytes of cached response payloads.",
        static_cast<double>(c.response_cache_bytes));
  gauge("themis_response_cache_capacity_bytes",
        "Response byte cache budget (0 = unbounded; 0 with the cache "
        "disabled).",
        static_cast<double>(c.response_cache_capacity));

  AppendHeader(&out, "themis_request_latency_seconds",
               "End-to-end request latency (arrival on the I/O thread to "
               "response ready), all admitted requests.",
               "histogram");
  AppendHistogramNs(&out, "themis_request_latency_seconds", {},
                    metrics_->request_latency.TakeSnapshot());

  // The stage family only appears once a trace has recorded into it —
  // a histogram TYPE header with zero bucket series is not a valid
  // exposition, and with sampling off there is nothing to say.
  bool stage_header_written = false;
  for (size_t i = 0; i < obs::kNumStages; ++i) {
    const obs::Histogram::Snapshot snap = metrics_->stage_latency[i].TakeSnapshot();
    if (snap.count == 0) continue;
    if (!stage_header_written) {
      AppendHeader(&out, "themis_stage_latency_seconds",
                   "Per-request total time in each serving stage (traced "
                   "requests only).",
                   "histogram");
      stage_header_written = true;
    }
    AppendHistogramNs(&out, "themis_stage_latency_seconds",
                      {{"stage", obs::StageName(static_cast<obs::Stage>(i))}},
                      snap);
  }

  // Per-relation cache and executor counters, labeled by relation.
  const std::map<std::string, core::RelationStats> relations =
      catalog_->Stats();
  const auto relation_family =
      [&out, &relations](const std::string& name, const char* help,
                         const char* type,
                         const std::function<double(
                             const core::RelationStats&)>& get) {
        AppendHeader(&out, name, help, type);
        for (const auto& [relation, stats] : relations) {
          AppendSample(&out, name, {{"relation", relation}}, get(stats));
        }
      };
  if (!relations.empty()) {
    relation_family("themis_plan_cache_hits_total", "Plan cache hits.",
                    "counter", [](const core::RelationStats& s) {
                      return static_cast<double>(s.plan_cache_hits);
                    });
    relation_family("themis_plan_cache_misses_total", "Plan cache misses.",
                    "counter", [](const core::RelationStats& s) {
                      return static_cast<double>(s.plan_cache_misses);
                    });
    relation_family("themis_result_memo_hits_total", "Result memo hits.",
                    "counter", [](const core::RelationStats& s) {
                      return static_cast<double>(s.result_memo.hits);
                    });
    relation_family("themis_result_memo_misses_total",
                    "Result memo misses.", "counter",
                    [](const core::RelationStats& s) {
                      return static_cast<double>(s.result_memo.misses);
                    });
    relation_family("themis_result_memo_entries", "Resident memo entries.",
                    "gauge", [](const core::RelationStats& s) {
                      return static_cast<double>(s.result_memo.entries);
                    });
    relation_family("themis_inference_cache_hits_total",
                    "BN inference cache hits.", "counter",
                    [](const core::RelationStats& s) {
                      return static_cast<double>(s.inference_cache.hits);
                    });
    relation_family("themis_inference_cache_misses_total",
                    "BN inference cache misses.", "counter",
                    [](const core::RelationStats& s) {
                      return static_cast<double>(s.inference_cache.misses);
                    });
    relation_family("themis_executor_rows_scanned_total",
                    "Rows fed through the filter pipeline.", "counter",
                    [](const core::RelationStats& s) {
                      return static_cast<double>(s.executor.rows_scanned);
                    });
    relation_family("themis_executor_shards_executed_total",
                    "Scan/join shards whose body ran.", "counter",
                    [](const core::RelationStats& s) {
                      return static_cast<double>(s.executor.shards_executed);
                    });
  }
  return out;
}

HostStats HostStatsNow() {
  const util::CpuTopology& topo = util::CpuTopology::Host();
  HostStats host;
  host.num_cpus = topo.num_cpus;
  host.l1d_bytes = topo.l1d_bytes;
  host.l2_bytes = topo.l2_bytes;
  host.l3_bytes = topo.l3_bytes;
  host.cache_line_bytes = topo.cache_line_bytes;
  host.cache_probed = topo.probed;
  host.simd_backend = simd::BackendName(simd::FromEnv());
  host.shard_target_bytes = sql::AutoShardTargetBytes();
  return host;
}

ServerCounters QueryServer::counters() const {
  ServerCounters counters;
  counters.accepted_connections =
      accepted_connections_.load(std::memory_order_relaxed);
  counters.active_connections =
      open_sessions_.load(std::memory_order_relaxed);
  counters.admitted = admitted_.load(std::memory_order_relaxed);
  counters.served_ok = served_ok_.load(std::memory_order_relaxed);
  counters.served_error = served_error_.load(std::memory_order_relaxed);
  counters.served_deadline_exceeded =
      served_deadline_exceeded_.load(std::memory_order_relaxed);
  counters.served_cancelled =
      served_cancelled_.load(std::memory_order_relaxed);
  counters.rejected_overload =
      rejected_overload_.load(std::memory_order_relaxed);
  counters.inflight = inflight_.load(std::memory_order_acquire);
  counters.max_inflight = max_inflight_;
  counters.io_threads = num_io_threads_;
  counters.responses_encoded =
      responses_encoded_.load(std::memory_order_relaxed);
  if (response_cache_ != nullptr) {
    const ResponseCache::Stats cache = response_cache_->stats();
    counters.response_cache_hits = cache.hits;
    counters.response_cache_misses = cache.misses;
    counters.response_cache_evictions = cache.evictions;
    counters.response_cache_rejections = cache.rejections;
    counters.response_cache_entries = cache.entries;
    counters.response_cache_bytes = cache.bytes;
    counters.response_cache_capacity = cache.capacity;
  }
  return counters;
}

}  // namespace themis::server
