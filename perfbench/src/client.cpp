// Socket load generators for the served workloads.
//
//   solarbench mix <socket> <plan> <records_out> <bodies_out>
//     Open loop. Plan lines tagged A go out on one connection and lines
//     tagged B on a second, each at its due time whether or not earlier
//     replies have arrived. One spinning thread sends A and reads its
//     replies; B has a sleeping sender and a blocked receiver. Bodies of B
//     replies are written to bodies_out.
//   solarbench closed <socket> <plan> <count> <records_out>
//     Closed loop: the first `count` A lines on one connection, each sent
//     after the previous reply arrived (socket round-trip time).
//
// Records: one line per request, "<conn> <plan index> <due> <sent> <recv>
// <ok> <fnv1a hex>", times in ns from the start of the schedule; recv is -1
// when no reply arrived. ok is 1 when the reply opens with {"ok":true.
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "plan.h"
#include "spans.h"

namespace perfbench {
namespace {

class Connection {
 public:
  explicit Connection(const std::string& path) {
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path too long: " + path);
    }
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket: " + errno_text());
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      const std::string text = errno_text();
      ::close(fd_);
      throw std::runtime_error("connect " + path + ": " + text);
    }
    // A server that stops answering must end the run, not hang it.
    timeval timeout{};
    timeout.tv_sec = 60;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool send_all(const std::string& data) const {
    std::size_t done = 0;
    while (done < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + done, data.size() - done,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      done += static_cast<std::size_t>(n);
    }
    return true;
  }

  // Reads one reply line (without the newline); false on hangup, error or
  // timeout.
  bool read_line(std::string& line) {
    while (!take_line(line)) {
      if (!fill(/*wait=*/true)) return false;
    }
    return true;
  }

  // Moves one complete buffered line into `line`; false if none is buffered.
  bool take_line(std::string& line) {
    const std::size_t newline = buffer_.find('\n', scanned_);
    if (newline == std::string::npos) {
      scanned_ = buffer_.size();
      return false;
    }
    line.assign(buffer_, 0, newline);
    buffer_.erase(0, newline + 1);
    scanned_ = 0;
    return true;
  }

  // Appends whatever has arrived to the buffer; with `wait`, blocks until
  // something does. False on hangup, error or timeout.
  bool fill(bool wait) {
    char chunk[65536];
    for (;;) {
      const ssize_t n =
          ::recv(fd_, chunk, sizeof(chunk), wait ? 0 : MSG_DONTWAIT);
      if (n > 0) {
        buffer_.append(chunk, static_cast<std::size_t>(n));
        return true;
      }
      if (n < 0 && errno == EINTR) continue;
      return n < 0 && !wait && (errno == EAGAIN || errno == EWOULDBLOCK);
    }
  }

  // Unblocks a receiver waiting in recv().
  void abort() const { ::shutdown(fd_, SHUT_RDWR); }

 private:
  static std::string errno_text() { return std::strerror(errno); }

  int fd_ = -1;
  std::string buffer_;
  std::size_t scanned_ = 0;
};

struct Outcome {
  int conn = 0;
  std::size_t index = 0;
  std::int64_t due = 0;
  std::int64_t sent = -1;
  std::int64_t recv = -1;
  bool ok = false;
  std::uint64_t hash = 0;
};

bool reply_ok(const std::string& body) {
  return body.rfind("{\"ok\":true", 0) == 0;
}

// Sleeps until shortly before `target`, then spins, so sends leave on time
// without a core spinning between them.
void wait_until(std::int64_t target) {
  constexpr std::int64_t kSpinNs = 100'000;
  for (;;) {
    const std::int64_t left = target - now_ns();
    if (left <= 0) return;
    if (left > kSpinNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - kSpinNs));
    }
  }
}

void write_records(const std::string& path,
                   const std::vector<Outcome>& outcomes) {
  std::ofstream out(path);
  char hex[17];
  for (const Outcome& o : outcomes) {
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(o.hash));
    out << o.conn << ' ' << o.index << ' ' << o.due << ' ' << o.sent << ' '
        << o.recv << ' ' << (o.ok ? 1 : 0) << ' ' << hex << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

// Connection A: one spinning thread sends each hit at its due time and
// reads the replies in between, so neither a send nor a reply waits for a
// sleeping thread to be woken. False if the connection failed or the
// server stopped answering.
bool drive_hits(Connection& conn, const std::vector<std::size_t>& ks,
                const std::vector<std::string>& wire,
                std::vector<Outcome>& outcomes, std::int64_t t0) {
  constexpr std::int64_t kReplyTimeoutNs = 60'000'000'000;
  std::size_t next_send = 0;
  std::size_t next_recv = 0;
  std::string body;
  std::int64_t last_progress = now_ns();
  while (next_recv < ks.size()) {
    const std::int64_t now = now_ns();
    if (next_send < ks.size() && now >= t0 + outcomes[ks[next_send]].due) {
      outcomes[ks[next_send]].sent = now - t0;
      if (!conn.send_all(wire[ks[next_send]])) return false;
      ++next_send;
      continue;
    }
    if (next_recv == next_send) continue;
    if (!conn.fill(/*wait=*/false)) return false;
    while (next_recv < next_send && conn.take_line(body)) {
      Outcome& o = outcomes[ks[next_recv++]];
      o.recv = now_ns() - t0;
      o.ok = reply_ok(body);
      o.hash = fnv1a(body);
      last_progress = now_ns();
    }
    if (now - last_progress > kReplyTimeoutNs) return false;
  }
  return true;
}

}  // namespace

int run_mix(const std::string& socket_path, const std::string& plan_path,
            const std::string& records_path, const std::string& bodies_path) {
  const std::vector<PlanOp> plan = read_plan(plan_path);
  std::vector<Outcome> outcomes;
  std::vector<std::string> wire;
  std::vector<std::size_t> per_conn[2];
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (plan[i].tag != 'A' && plan[i].tag != 'B') continue;
    Outcome o;
    o.conn = plan[i].tag == 'A' ? 0 : 1;
    o.index = i;
    o.due = plan[i].due_ns;
    per_conn[o.conn].push_back(outcomes.size());
    outcomes.push_back(o);
    wire.push_back(plan[i].payload + '\n');
  }
  std::vector<std::string> bodies(outcomes.size());

  Connection conns[2] = {Connection(socket_path), Connection(socket_path)};
  // Precise sleeps: the default 50 us timer slack would make sends late.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  const std::int64_t t0 = now_ns() + 20'000'000;
  {
    // Connection B (a few requests a second): a sender sleeping until each
    // due time and a receiver blocked on the replies.
    const std::vector<std::size_t>& misses = per_conn[1];
    std::jthread miss_receiver([&] {
      std::string body;
      for (const std::size_t k : misses) {
        if (!conns[1].read_line(body)) return;
        Outcome& o = outcomes[k];
        o.recv = now_ns() - t0;
        o.ok = reply_ok(body);
        o.hash = fnv1a(body);
        bodies[k] = body;
      }
    });
    std::jthread miss_sender([&] {
      for (const std::size_t k : misses) {
        wait_until(t0 + outcomes[k].due);
        outcomes[k].sent = now_ns() - t0;
        if (!conns[1].send_all(wire[k])) return;
      }
    });
    if (!drive_hits(conns[0], per_conn[0], wire, outcomes, t0)) {
      conns[0].abort();
      conns[1].abort();
    }
  }  // the miss threads join here

  write_records(records_path, outcomes);
  std::ofstream out(bodies_path);
  for (const std::size_t k : per_conn[1]) {
    out << outcomes[k].index << ' ' << bodies[k] << '\n';
  }
  return out ? 0 : 1;
}

int run_closed(const std::string& socket_path, const std::string& plan_path,
               std::size_t count, const std::string& records_path) {
  const std::vector<PlanOp> plan = read_plan(plan_path);
  Connection conn(socket_path);
  std::vector<Outcome> outcomes;
  std::string body;
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < plan.size() && outcomes.size() < count; ++i) {
    if (plan[i].tag != 'A') continue;
    const std::string line = plan[i].payload + '\n';
    Outcome o;
    o.index = i;
    o.sent = o.due = now_ns() - t0;
    const bool ok = conn.send_all(line) && conn.read_line(body);
    if (ok) {
      o.recv = now_ns() - t0;
      o.ok = reply_ok(body);
      o.hash = fnv1a(body);
    }
    outcomes.push_back(o);
    if (!ok) break;
  }
  write_records(records_path, outcomes);
  return 0;
}

}  // namespace perfbench
