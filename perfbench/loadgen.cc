#include "loadgen.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>

#include "report.h"
#include "util/net.h"

namespace farmer {
namespace perfbench {
namespace {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint32_t Below(Rng& rng, std::size_t bound) {
  return static_cast<std::uint32_t>(rng.NextBelow(bound));
}

}  // namespace

serve::QueryRequest ToRequest(const QuerySpec& q, const BinaryDataset& dataset) {
  serve::QueryRequest r;
  r.limit = q.limit;
  switch (q.kind) {
    case QuerySpec::Kind::kCover: {
      r.op = serve::QueryRequest::Op::kCover;
      const ItemVector& row = dataset.row(q.row);
      r.items.reserve(row.size());
      for (std::size_t i = 0; i < row.size(); ++i) {
        if (i != q.drop_a && i != q.drop_b) r.items.push_back(row[i]);
      }
      break;
    }
    case QuerySpec::Kind::kTopk:
      r.op = serve::QueryRequest::Op::kTopkConfidence;
      r.k = q.k;
      break;
    case QuerySpec::Kind::kContains:
      r.op = serve::QueryRequest::Op::kContains;
      r.items = q.items;
      break;
    case QuerySpec::Kind::kFilter:
      r.op = serve::QueryRequest::Op::kFilter;
      r.min_support = q.min_support;
      r.min_confidence = q.min_confidence;
      break;
    case QuerySpec::Kind::kReload:
      r.op = serve::QueryRequest::Op::kReload;
      break;
  }
  return r;
}

QueryMix::QueryMix(const BinaryDataset& dataset,
                   const serve::RuleGroupSnapshot& snapshot,
                   std::size_t min_support, std::uint64_t seed)
    : dataset_(dataset), snapshot_(snapshot), min_support_(min_support) {
  Rng rng(seed ^ 0x5EEDF00Dull);
  while (warm_.size() < kWorkingSet) warm_.push_back(Make(rng, true));
}

QuerySpec QueryMix::Next(Rng& rng) {
  if (rng.NextBelow(2) == 0) return warm_[rng.NextBelow(warm_.size())];
  return Make(rng, false);
}

QuerySpec QueryMix::Make(Rng& rng, bool warm) {
  QuerySpec q;
  q.warm = warm;
  const std::uint32_t pick = Below(rng, 10);
  q.kind = pick < 4   ? QuerySpec::Kind::kCover
           : pick < 6 ? QuerySpec::Kind::kTopk
           : pick < 8 ? QuerySpec::Kind::kContains
                      : QuerySpec::Kind::kFilter;
  // Key collisions are rare (the key spaces are large); redraw until
  // the key is new so cold reads never hit the cache.
  for (std::size_t attempt = 0; !Fill(rng, warm, attempt, &q); ++attempt) {
  }
  return q;
}

bool QueryMix::Fill(Rng& rng, bool warm, std::size_t attempt, QuerySpec* q) {
  std::string key;
  switch (q->kind) {
    case QuerySpec::Kind::kCover: {
      // The classifier's lookup: every rule a sample satisfies. A cold
      // key leaves two of the row's items out.
      q->limit = 10;
      q->row = Below(rng, dataset_.num_rows());
      const std::size_t len = dataset_.row(q->row).size();
      if (!warm && len >= 2) {
        // Two distinct positions, ordered, so equal item sets never get
        // two different keys.
        q->drop_a = Below(rng, len);
        q->drop_b = Below(rng, len - 1);
        if (q->drop_b >= q->drop_a) {
          ++q->drop_b;
        } else {
          std::swap(q->drop_a, q->drop_b);
        }
      }
      key = "c" + std::to_string(q->row) + ":" + std::to_string(q->drop_a) +
            ":" + std::to_string(q->drop_b);
      break;
    }
    case QuerySpec::Kind::kTopk:
      q->k = 1 + Below(rng, 100);
      // The limit never cuts a top-k answer (k <= 100); varying it is
      // what gives a cold top-k read its own key.
      q->limit = warm ? 100 : 101 + Below(rng, 9900);
      key = "t" + std::to_string(q->k) + ":" + std::to_string(q->limit);
      break;
    case QuerySpec::Kind::kContains: {
      q->limit = 100;
      q->items.clear();
      // Items of one antecedent, so the answer is not empty; once a
      // small snapshot (top-k) has used those combinations up, items of
      // one dataset row.
      const std::size_t want = 1 + Below(rng, 3);
      const ItemVector* pool = &dataset_.row(Below(rng, dataset_.num_rows()));
      if (attempt < 8 && !snapshot_.groups.empty()) {
        pool = &snapshot_.groups[Below(rng, snapshot_.groups.size())].antecedent;
      }
      for (std::size_t i = 0; i < want && !pool->empty(); ++i) {
        q->items.push_back((*pool)[Below(rng, pool->size())]);
      }
      if (q->items.empty()) {
        q->items.push_back(
            static_cast<ItemId>(Below(rng, dataset_.num_items())));
      }
      std::sort(q->items.begin(), q->items.end());
      q->items.erase(std::unique(q->items.begin(), q->items.end()),
                     q->items.end());
      key = "n";
      for (ItemId item : q->items) {
        key += ':';
        key += std::to_string(item);
      }
      break;
    }
    case QuerySpec::Kind::kFilter: {
      q->limit = 100;
      q->min_support = static_cast<std::uint32_t>(min_support_) + Below(rng, 16);
      const std::uint32_t micros = Below(rng, 500000);
      q->min_confidence = 0.5 + static_cast<double>(micros) * 1e-6;
      key = "f" + std::to_string(q->min_support) + ":" + std::to_string(micros);
      break;
    }
    case QuerySpec::Kind::kReload:
      return true;
  }
  return issued_.insert(key).second;
}

void WindowStats::Append(const WindowStats& chunk, double offset_s) {
  latency_us.insert(latency_us.end(), chunk.latency_us.begin(),
                    chunk.latency_us.end());
  for (double t : chunk.due_s) due_s.push_back(t + offset_s);
  warm_us.insert(warm_us.end(), chunk.warm_us.begin(), chunk.warm_us.end());
  cold_us.insert(cold_us.end(), chunk.cold_us.begin(), chunk.cold_us.end());
  reload_ms.insert(reload_ms.end(), chunk.reload_ms.begin(),
                   chunk.reload_ms.end());
  lag_ms.insert(lag_ms.end(), chunk.lag_ms.begin(), chunk.lag_ms.end());
  attempted += chunk.attempted;
  failed += chunk.failed;
  failures.insert(failures.end(), chunk.failures.begin(), chunk.failures.end());
}

double IntervalP99(const WindowStats& stats, double interval_s) {
  std::vector<std::vector<double>> slices;
  for (std::size_t i = 0; i < stats.latency_us.size(); ++i) {
    const auto slice = static_cast<std::size_t>(stats.due_s[i] / interval_s);
    if (slice >= slices.size()) slices.resize(slice + 1);
    slices[slice].push_back(stats.latency_us[i]);
  }
  std::vector<double> p99s;
  for (const std::vector<double>& slice : slices) {
    if (slice.size() >= 1000) p99s.push_back(Percentile(slice, 99));
  }
  return p99s.empty() ? Percentile(stats.latency_us, 99) : Median(p99s);
}

LoadClient::~LoadClient() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

Status LoadClient::Connect(int port, std::size_t connections) {
  for (std::size_t i = 0; i < connections; ++i) {
    Conn c;
    const Status s = net::ConnectToHost("127.0.0.1", port, 5.0, &c.fd);
    if (!s.ok()) return s;
    net::SetTcpNoDelay(c.fd);
    if (!net::SendAll(c.fd, std::string_view(serve::kBinaryPreamble,
                                             serve::kBinaryPreambleSize))) {
      ::close(c.fd);
      return Status::IoError("sending the FQP1 preamble failed");
    }
    if (!net::SetNonBlocking(c.fd)) {
      ::close(c.fd);
      return Status::IoError("cannot make the client socket non-blocking");
    }
    conns_.push_back(std::move(c));
  }
  return Status::Ok();
}

WindowStats LoadClient::Run(QueryMix& mix, Rng& rng, double rate,
                            double seconds, bool reloads,
                            std::size_t sample_every,
                            std::vector<SampledReply>* samples) {
  constexpr double kDrainSeconds = 3.0;
  // A BC reload holds its shard for 20-30 ms. With one every 2 s, the
  // requests it delays are about 1% of the total, so p99 flipped between
  // the stall and the query tail from run to run; every 0.5 s they are
  // several percent and p99 measures the stall.
  constexpr double kReloadEvery = 0.5;
  struct Slot {
    std::uint64_t due_ns = 0;
    QuerySpec spec;
    std::size_t conn = 0;
    bool sampled = false;
    bool done = false;
  };

  // The schedule: reads evenly spaced, reloads at 0.25 s, 0.75 s, ...
  std::vector<Slot> slots;
  const std::size_t reads =
      std::max<std::size_t>(1, static_cast<std::size_t>(rate * seconds));
  const double gap_ns = 1e9 / rate;
  for (std::size_t i = 0; i < reads; ++i) {
    Slot s;
    s.due_ns = static_cast<std::uint64_t>(static_cast<double>(i) * gap_ns);
    s.spec = mix.Next(rng);
    s.sampled = sample_every > 0 && i % sample_every == sample_every / 2;
    slots.push_back(std::move(s));
  }
  if (reloads) {
    for (double t = kReloadEvery / 2; t < seconds; t += kReloadEvery) {
      Slot s;
      s.due_ns = static_cast<std::uint64_t>(t * 1e9);
      s.spec.kind = QuerySpec::Kind::kReload;
      slots.push_back(std::move(s));
    }
  }
  std::stable_sort(slots.begin(), slots.end(),
                   [](const Slot& a, const Slot& b) { return a.due_ns < b.due_ns; });
  for (std::size_t i = 0; i < slots.size(); ++i) {
    slots[i].conn = i % conns_.size();
  }

  WindowStats stats;
  stats.attempted = slots.size();
  stats.lag_ms.reserve(slots.size());
  stats.latency_us.reserve(slots.size());
  const std::uint64_t base_id = next_id_;
  next_id_ += slots.size();
  auto fail = [&stats](const std::string& what) {
    ++stats.failed;
    if (stats.failures.size() < 5) stats.failures.push_back(what);
  };

  std::size_t next = 0;
  std::size_t outstanding = 0;
  const std::uint64_t start = NowNs();
  std::uint64_t drain_deadline = 0;
  std::vector<pollfd> fds(conns_.size());

  auto complete = [&](std::size_t idx, serve::FrameStatus status,
                      std::string json, std::uint64_t now) {
    Slot& s = slots[idx];
    if (s.done) return;
    s.done = true;
    --outstanding;
    if (status != serve::FrameStatus::kOk) {
      fail(std::string("reply status ") + serve::FrameStatusCode(status));
      return;
    }
    const double us = static_cast<double>(now - (start + s.due_ns)) / 1e3;
    if (s.spec.kind == QuerySpec::Kind::kReload) {
      stats.reload_ms.push_back(us / 1e3);
      return;
    }
    stats.latency_us.push_back(us);
    stats.due_s.push_back(static_cast<double>(s.due_ns) / 1e9);
    (s.spec.warm ? stats.warm_us : stats.cold_us).push_back(us);
    if (s.sampled && samples != nullptr) {
      samples->push_back(SampledReply{s.spec, std::move(json)});
    }
  };
  auto kill_conn = [&](std::size_t c, const char* why) {
    if (conns_[c].dead) return;
    conns_[c].dead = true;
    for (std::size_t i = 0; i < next; ++i) {
      if (slots[i].conn == c && !slots[i].done) {
        slots[i].done = true;
        --outstanding;
        fail(why);
      }
    }
  };

  while (true) {
    std::uint64_t now = NowNs();
    while (next < slots.size() && start + slots[next].due_ns <= now) {
      Slot& s = slots[next];
      stats.lag_ms.push_back(
          static_cast<double>(now - (start + s.due_ns)) / 1e6);
      ++next;
      ++outstanding;
      Conn& c = conns_[s.conn];
      if (c.dead) {
        s.done = true;
        --outstanding;
        fail("send on a closed connection");
        continue;
      }
      serve::QueryRequest request = ToRequest(s.spec, dataset_);
      request.bin_id = base_id + (next - 1);
      c.out += serve::EncodeBinaryRequest(request);
    }
    for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
      Conn& c = conns_[ci];
      while (!c.dead && c.out_pos < c.out.size()) {
        const ssize_t n = ::send(c.fd, c.out.data() + c.out_pos,
                                 c.out.size() - c.out_pos,
                                 MSG_DONTWAIT | MSG_NOSIGNAL);
        if (n > 0) {
          c.out_pos += static_cast<std::size_t>(n);
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          kill_conn(ci, "send failed");
        }
      }
      if (c.out_pos == c.out.size()) {
        c.out.clear();
        c.out_pos = 0;
      }
    }
    if (next == slots.size()) {
      if (outstanding == 0) break;
      if (drain_deadline == 0) {
        drain_deadline = now + static_cast<std::uint64_t>(kDrainSeconds * 1e9);
      }
      if (now >= drain_deadline) break;
    }

    const std::uint64_t wake =
        next < slots.size() ? start + slots[next].due_ns : drain_deadline;
    const std::uint64_t wait_ns = wake > now ? wake - now : 0;
    for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
      fds[ci].fd = conns_[ci].dead ? -1 : conns_[ci].fd;
      fds[ci].events = POLLIN;
      if (conns_[ci].out_pos < conns_[ci].out.size()) fds[ci].events |= POLLOUT;
      fds[ci].revents = 0;
    }
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait_ns / 1000000000ull);
    ts.tv_nsec = static_cast<long>(wait_ns % 1000000000ull);
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) continue;
    now = NowNs();
    for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
      if (fds[ci].revents == 0 || conns_[ci].dead) continue;
      Conn& c = conns_[ci];
      if ((fds[ci].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        char chunk[1 << 16];
        while (true) {
          const ssize_t n = ::recv(c.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
          if (n > 0) {
            c.in.append(chunk, static_cast<std::size_t>(n));
            continue;
          }
          if (n < 0 && errno == EINTR) continue;
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          kill_conn(ci, n == 0 ? "server closed the connection"
                               : "receive failed");
          break;
        }
        while (c.in.size() - c.in_pos >= 4) {
          std::uint32_t len = 0;
          std::memcpy(&len, c.in.data() + c.in_pos, sizeof(len));
          if (c.in.size() - c.in_pos < 4 + static_cast<std::size_t>(len)) break;
          serve::FrameStatus status = serve::FrameStatus::kOk;
          std::uint64_t id = 0;
          std::string json;
          const Status decoded = serve::DecodeResponseFrame(
              std::string_view(c.in.data() + c.in_pos + 4, len), &status, &id,
              &json);
          c.in_pos += 4 + static_cast<std::size_t>(len);
          if (!decoded.ok()) {
            kill_conn(ci, "undecodable reply frame");
            break;
          }
          // Replies to an earlier window's stragglers are ignored.
          if (id >= base_id && id < base_id + next) {
            complete(static_cast<std::size_t>(id - base_id), status,
                     std::move(json), now);
          }
        }
        if (c.in_pos == c.in.size()) {
          c.in.clear();
          c.in_pos = 0;
        } else if (c.in_pos > (1u << 20)) {
          c.in.erase(0, c.in_pos);
          c.in_pos = 0;
        }
      }
    }
  }
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (!slots[i].done) fail("no reply within the drain time");
  }
  return stats;
}

}  // namespace perfbench
}  // namespace farmer
