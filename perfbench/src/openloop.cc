#include "openloop.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "core/isobar.h"
#include "server/client.h"
#include "server/protocol.h"

namespace perfbench {
namespace {

namespace server = isobar::server;

enum class Kind { kCompress, kDecompress, kPing };
enum SlotStatus { kUnanswered = -1, kOk = 0, kBusy = 1, kError = 2 };

struct Slot {
  Kind kind = Kind::kPing;
  const Job* job = nullptr;
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  int64_t done_ns = 0;
  int status = kUnanswered;
  Bytes reply;
  int64_t queue_ns = -1;  ///< Submit to start; in-process queue only.
};

std::vector<Slot> BuildSchedule(const std::vector<Job>& compress_jobs,
                                const std::vector<Job>& decompress_jobs,
                                const OpenLoopOptions& options,
                                int64_t start_ns) {
  const size_t n = std::max<size_t>(
      1, static_cast<size_t>(options.rate * options.seconds));
  const double interval_ns = 1e9 / options.rate;
  isobar::Xoshiro256 rng(options.seed);
  // Stratified draws keep the mix the same under every seed: each block of
  // ten arrivals holds the configured compress share in shuffled order,
  // and each pool is walked through a shuffled order of all its jobs.
  auto shuffled = [&rng](size_t size) {
    std::vector<size_t> order(size);
    for (size_t i = 0; i < size; ++i) order[i] = i;
    for (size_t i = size; i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextBounded(i)]);
    }
    return order;
  };
  const size_t compress_per_block = static_cast<size_t>(
      options.compress_share * 10.0 + 0.5);
  std::vector<size_t> block;
  const std::vector<size_t> compress_order = shuffled(compress_jobs.size());
  const std::vector<size_t> decompress_order = shuffled(decompress_jobs.size());
  size_t next_compress = 0, next_decompress = 0;
  std::vector<Slot> slots(n);
  for (size_t i = 0; i < n; ++i) {
    Slot& slot = slots[i];
    slot.due_ns = start_ns + static_cast<int64_t>(interval_ns * i);
    if (i % 10 == 0) block = shuffled(10);
    if (options.ping_every != 0 && i % options.ping_every == 0) continue;
    const bool compress =
        decompress_jobs.empty() ||
        (!compress_jobs.empty() && block[i % 10] < compress_per_block);
    slot.kind = compress ? Kind::kCompress : Kind::kDecompress;
    if (compress) {
      slot.job = &compress_jobs[compress_order[next_compress++ %
                                               compress_order.size()]];
    } else {
      slot.job = &decompress_jobs[decompress_order[next_decompress++ %
                                                   decompress_order.size()]];
    }
  }
  return slots;
}

void SleepUntilNs(int64_t due_ns) {
  const int64_t wait = due_ns - NowNs();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
}

/// Verifies every reply after the run and folds the slots into a result.
OpenLoopResult Summarize(std::vector<Slot>& slots,
                         const OpenLoopOptions& options) {
  OpenLoopResult result;
  const double miss_ms = options.reply_timeout_s * 1e3;
  int64_t last_done = 0;
  for (size_t i = 0; i < slots.size(); ++i) {
    Slot& slot = slots[i];
    result.lag_ms.Add(static_cast<double>(slot.send_ns - slot.due_ns) / 1e6);
    last_done = std::max(last_done, slot.done_ns);
    auto fail = [&](const std::string& why) {
      ++result.failed;
      if (result.failures.size() < 4) {
        result.failures.push_back("request " + std::to_string(i + 1) + ": " +
                                  why);
      }
    };
    if (slot.kind == Kind::kPing) {
      if (slot.status == kOk) {
        result.ping_us.Add(static_cast<double>(slot.done_ns - slot.send_ns) /
                           1e3);
      } else {
        fail("ping unanswered");
      }
      continue;
    }
    ++result.requests;
    const bool compress = slot.kind == Kind::kCompress;
    const Bytes& original = *slot.job->original;
    bool ok = slot.status == kOk;
    if (slot.status == kBusy) {
      ++result.busy;
      fail("shed (BUSY)");
    } else if (slot.status == kError) {
      fail(std::string("error reply: ") +
           std::string(slot.reply.begin(), slot.reply.end()));
    } else if (slot.status == kUnanswered) {
      fail("unanswered");
    }
    if (ok && compress) {
      // kSpeed picks are not bit-reproducible, so a compress reply is
      // checked by decoding it locally.
      auto decoded = isobar::IsobarCompressor::Decompress(slot.reply);
      ok = decoded.ok() && *decoded == original;
      if (!ok) fail("compress reply does not decode to the payload");
      result.compress_in += original.size();
      result.compress_out += slot.reply.size();
    } else if (ok) {
      ok = slot.reply == original;
      if (!ok) fail("decompress reply differs from the original bytes");
    }
    const double latency_ms =
        ok ? static_cast<double>(slot.done_ns - slot.due_ns) / 1e6 : miss_ms;
    (compress ? result.compress_ms : result.decompress_ms).Add(latency_ms);
    if (ok && slot.queue_ns >= 0) {
      result.wait_ms.Add(static_cast<double>(slot.queue_ns) / 1e6);
    }
    slot.reply = Bytes();
  }
  if (!slots.empty()) {
    result.drain_ms =
        std::max(0.0, static_cast<double>(last_done - slots.back().send_ns) /
                          1e6);
  }
  return result;
}

/// Per-connection hand-off between the pacing sender and the reply reader.
struct Lane {
  server::Client client;
  std::mutex mutex;
  std::condition_variable cv;
  size_t sent = 0;
  bool closed = false;
};

}  // namespace

OpenLoopResult RunSocketOpenLoop(const std::string& socket_path,
                                 const std::vector<Job>& compress_jobs,
                                 const std::vector<Job>& decompress_jobs,
                                 const OpenLoopOptions& options) {
  const size_t lanes_n = std::max<size_t>(1, options.connections);
  std::vector<std::unique_ptr<Lane>> lanes;
  for (size_t c = 0; c < lanes_n; ++c) {
    auto lane = std::make_unique<Lane>();
    auto client = server::Client::ConnectUnix(socket_path);
    if (!client.ok()) {
      OpenLoopResult failed;
      failed.failed = 1;
      failed.failures.push_back(client.status().ToString());
      return failed;
    }
    lane->client = std::move(*client);
    (void)lane->client.SetReceiveTimeout(options.reply_timeout_s);
    lanes.push_back(std::move(lane));
  }
  std::vector<Slot> slots = BuildSchedule(compress_jobs, decompress_jobs,
                                          options, NowNs() + 20'000'000);
  const uint64_t aux = server::PackCompressAux(server::CompressAux{});

  // One reader per connection blocks in ReadResponse while the sender
  // keeps sending on schedule. Client::Send touches only the socket, and
  // ReadResponse only the reader's own parse state, so one sender and one
  // reader may share a connection.
  std::vector<std::thread> readers;
  for (size_t c = 0; c < lanes_n; ++c) {
    readers.emplace_back([&, c] {
      Lane& lane = *lanes[c];
      size_t received = 0;
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(lane.mutex);
          lane.cv.wait(lock,
                       [&] { return lane.sent > received || lane.closed; });
          if (received >= lane.sent) break;  // closed and drained
        }
        auto response = lane.client.ReadResponse();
        const int64_t now = NowNs();
        if (!response.ok()) break;  // the rest stay unanswered
        const uint64_t rid = response->request_id;
        if (rid == 0 || rid > slots.size()) break;
        Slot& slot = slots[rid - 1];
        slot.done_ns = now;
        slot.status = response->ok() ? kOk : response->busy() ? kBusy : kError;
        slot.reply = std::move(response->payload);
        ++received;
      }
    });
  }

  for (size_t i = 0; i < slots.size(); ++i) {
    Slot& slot = slots[i];
    Lane& lane = *lanes[i % lanes_n];
    SleepUntilNs(slot.due_ns);
    slot.send_ns = NowNs();
    Status sent;
    if (slot.kind == Kind::kPing) {
      sent = lane.client.Send(server::Op::kPing, i + 1, 0, {});
    } else {
      sent = lane.client.Send(slot.kind == Kind::kCompress
                                  ? server::Op::kCompress
                                  : server::Op::kDecompress,
                              i + 1,
                              slot.kind == Kind::kCompress
                                  ? (aux & ~0xFFull) | slot.job->width
                                  : 0,
                              *slot.job->payload);
    }
    if (!sent.ok()) continue;  // stays unanswered
    {
      std::lock_guard<std::mutex> lock(lane.mutex);
      ++lane.sent;
    }
    lane.cv.notify_one();
  }
  for (auto& lane : lanes) {
    {
      std::lock_guard<std::mutex> lock(lane->mutex);
      lane->closed = true;
    }
    lane->cv.notify_one();
  }
  for (std::thread& reader : readers) reader.join();
  return Summarize(slots, options);
}

OpenLoopResult RunQueueOpenLoop(isobar::server::JobQueue& queue,
                                const std::vector<Job>& compress_jobs,
                                const std::vector<Job>& decompress_jobs,
                                const OpenLoopOptions& options) {
  OpenLoopOptions no_pings = options;
  no_pings.ping_every = 0;
  std::vector<Slot> slots = BuildSchedule(compress_jobs, decompress_jobs,
                                          no_pings, NowNs() + 5'000'000);
  const size_t lanes_n = std::max<size_t>(1, options.connections);
  for (size_t i = 0; i < slots.size(); ++i) {
    Slot& slot = slots[i];
    SleepUntilNs(slot.due_ns);
    slot.send_ns = NowNs();
    server::JobRequest request;
    request.kind = slot.kind == Kind::kCompress ? server::JobKind::kCompress
                                                : server::JobKind::kDecompress;
    request.input = *slot.job->payload;
    request.width = slot.job->width;
    const server::Admission admission = queue.Submit(
        i % lanes_n, std::move(request), [&slot](server::JobResult result) {
          slot.done_ns = NowNs();
          slot.status = result.status.ok() ? kOk : kError;
          slot.reply = result.status.ok()
                           ? std::move(result.output)
                           : Bytes(result.status.message().begin(),
                                   result.status.message().end());
          slot.queue_ns = result.queue_nanos;
        });
    if (admission != server::Admission::kAdmitted) {
      slot.status = kBusy;
      slot.done_ns = slot.send_ns;
    }
  }
  queue.WaitIdle();
  return Summarize(slots, no_pings);
}

}  // namespace perfbench
