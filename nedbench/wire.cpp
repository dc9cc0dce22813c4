// wire-mix and wire-repeat: the 19 questions POSTed as JSON to the
// benchmark's ned_serve over one loopback keep-alive connection, one
// request at a time (closed loop, one client).
//
// wire-mix: every request bypasses the answer cache, so every request
// executes; the subtree cache is on (shipped default).
//
// wire-repeat: ned_serve --persist <fresh dir>, answer cache on. Round 0
// asks each question once under budget class 0. Every later round r asks
// each question once under the new class r (first seen: executes, is
// journaled and stored) and three times under classes drawn by the seed
// from the 16 before it (repeats, served from the answer cache), all
// shuffled together. The window keeps the repeats' working set (19 x 16
// answers) inside the default 8 MiB answer cache while older classes are
// evicted. A class is a row budget of 1e9 + r rows, which never trips but
// is part of both cache keys. Only the repeats are timed: a first-seen
// answer waits on the answer store's file writes, whose cost on a shared
// disk moved 3x between runs (README.md); their allocations and memory
// still count, and the traced run reports their time.

#include "wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <thread>

#include "common/strings.h"
#include "layers.h"
#include "net/http.h"
#include "net/wire.h"
#include "persist/journal.h"
#include "persist/wire.h"

extern char** environ;

namespace nedbench {

// ---- HttpClient -----------------------------------------------------------

HttpClient::~HttpClient() { Close(); }

bool HttpClient::Connect(int port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval timeout{30, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  buffer_.clear();
  return true;
}

void HttpClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool HttpClient::RoundTrip(std::string_view request,
                           ned::net::HttpResponse* response) {
  size_t off = 0;
  while (off < request.size()) {
    const ssize_t n =
        ::send(fd_, request.data() + off, request.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  char chunk[64 * 1024];
  while (true) {
    if (!buffer_.empty()) {
      auto parsed = ned::net::ParseHttpResponse(buffer_, response);
      if (!parsed.ok()) return false;
      if (*parsed > 0) {
        buffer_.erase(0, *parsed);
        return true;
      }
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

std::string HttpPost(const std::string& body) {
  return ned::StrCat("POST /v1/whynot HTTP/1.1\r\nHost: bench\r\nContent-Length: ",
                     body.size(), "\r\n\r\n", body);
}

std::string HttpGet(const std::string& target) {
  return "GET " + target + " HTTP/1.1\r\nHost: bench\r\n\r\n";
}

// ---- ServerProcess --------------------------------------------------------

namespace {

/// Reads from `fd` into `buffer` until it holds a whole line, which moves
/// to `line`; false on EOF or after `timeout_ms`.
bool ReadLine(int fd, std::string* buffer, std::string* line, int timeout_ms) {
  const Clock::time_point start = Clock::now();
  while (true) {
    const size_t nl = buffer->find('\n');
    if (nl != std::string::npos) {
      *line = buffer->substr(0, nl);
      buffer->erase(0, nl + 1);
      return true;
    }
    const int left = timeout_ms - static_cast<int>(MsSince(start));
    if (left <= 0) return false;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, left) <= 0) continue;
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return false;
    buffer->append(chunk, static_cast<size_t>(n));
  }
}

}  // namespace

ServerProcess::~ServerProcess() { Stop(); }

bool ServerProcess::Start(const std::string& binary,
                          const std::vector<std::string>& extra_args,
                          std::string* error) {
  int out[2], alloc[2];
  if (::pipe2(out, O_CLOEXEC) != 0) {
    *error = "pipe2 failed";
    return false;
  }
  if (::pipe2(alloc, O_CLOEXEC) != 0) {
    ::close(out[0]);
    ::close(out[1]);
    *error = "pipe2 failed";
    return false;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], 1);
  posix_spawn_file_actions_adddup2(&actions, alloc[1], 3);

  std::vector<std::string> argv_s = {binary, "--port", "0", "--scale", "1"};
  argv_s.insert(argv_s.end(), extra_args.begin(), extra_args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::vector<std::string> env_s = {"NEDBENCH_ALLOC_FD=3"};
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::string_view(*e).rfind("NEDBENCH_ALLOC_FD=", 0) != 0) env_s.push_back(*e);
  }
  std::vector<char*> envp;
  for (std::string& e : env_s) envp.push_back(e.data());
  envp.push_back(nullptr);

  const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), envp.data());
  posix_spawn_file_actions_destroy(&actions);
  ::close(out[1]);
  ::close(alloc[1]);
  out_fd_ = out[0];
  alloc_fd_ = alloc[0];
  if (rc != 0) {
    pid_ = -1;
    *error = "cannot start " + binary;
    return false;
  }
  std::string line;
  while (ReadLine(out_fd_, &out_buffer_, &line, 60'000)) {
    const std::string marker = "ned_serve: listening on ";
    if (line.rfind(marker, 0) == 0) {
      port_ = std::atoi(line.c_str() + line.rfind(':') + 1);
      return port_ > 0;
    }
  }
  *error = "ned_serve did not report its port";
  return false;
}

bool ServerProcess::AllocSnapshot(uint64_t* allocs) {
  if (pid_ <= 0 || ::kill(pid_, SIGUSR1) != 0) return false;
  std::string line;
  if (!ReadLine(alloc_fd_, &alloc_buffer_, &line, 10'000)) return false;
  *allocs = std::strtoull(line.c_str(), nullptr, 10);
  return true;
}

int ServerProcess::Stop(int sig) {
  if (pid_ <= 0) return exit_code_;
  ::kill(pid_, sig);
  int status = 0;
  const Clock::time_point start = Clock::now();
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    // Drain its stdout so shutdown lines never block it on a full pipe.
    pollfd pfd{out_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 10) > 0) {
      char chunk[4096];
      if (::read(out_fd_, chunk, sizeof(chunk)) <= 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    if (MsSince(start) > 20'000) ::kill(pid_, SIGKILL);
  }
  pid_ = -1;
  ::close(out_fd_);
  ::close(alloc_fd_);
  exit_code_ = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  return exit_code_;
}

// ---- the workloads --------------------------------------------------------

namespace {

/// One request of the stream.
struct Ask {
  size_t question = 0;
  int budget_class = 0;  ///< wire-repeat only
  bool first_seen = true;
};

/// Per (question, first-seen-or-repeat) timings.
struct Timings {
  std::vector<double> client_ms, overhead_ms;
};

/// Prometheus text: the value of the series `name{labels}` (0 if absent).
double MetricValue(const std::string& text, const std::string& series) {
  size_t pos = 0;
  while ((pos = text.find(series, pos)) != std::string::npos) {
    const bool line_start = pos == 0 || text[pos - 1] == '\n';
    const size_t after = pos + series.size();
    if (line_start && after < text.size() && text[after] == ' ') {
      return std::strtod(text.c_str() + after + 1, nullptr);
    }
    pos = after;
  }
  return 0;
}

constexpr int kRepeatsPerRound = 3;     // wire-repeat: repeats per question
constexpr int kClassWindow = 16;        // wire-repeat: classes repeats draw from
// The memory window, over which heap_allocs_per_answer and peak_rss_mb
// are read: this many rounds after round 0 on every run, whatever its
// length; about half of a 20 s run on the README's host, and a run lasts
// until its memory window is done.
constexpr int kMixWindowRounds = 180;
constexpr int kRepeatWindowRounds = 120;

}  // namespace

int RunWire(const Args& args, bool repeat, Report* report) {
  // The client's own copy of the data: the questions it asks and the
  // oracle answers it checks against.
  auto registry = ned::UseCaseRegistry::Build(1);
  if (!registry.ok()) {
    report->Fail("UseCaseRegistry::Build: " + registry.status().ToString());
    return 1;
  }
  std::vector<Question> questions = ListQuestions(*registry, report);
  AddOracleAnswers(&questions, report);
  if (questions.empty()) return 1;
  const size_t n = questions.size();

  // Set-up: kSetupStarts cold starts of ned_serve, each in a fresh --persist
  // directory on wire-repeat, each timed from spawn to /readyz answering
  // 200, after a memory walk. All but the last, which serves the workload,
  // are killed again once ready: they served nothing, and the serving one
  // goes through the drain path at the end.
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::path persist_dir;
  std::unique_ptr<ServerProcess> server_holder;
  HttpClient client;
  ned::net::HttpResponse http;
  std::vector<double> setups, setup_refs;
  for (int k = 0; k < kSetupStarts; ++k) {
    if (server_holder != nullptr) {
      client.Close();
      server_holder->Stop(SIGKILL);
      fs::remove_all(persist_dir, ec);
    }
    persist_dir = fs::path(args.scratch_dir) /
                  ned::StrCat("persist-", ::getpid(), "-", k);
    fs::remove_all(persist_dir, ec);
    std::vector<std::string> server_args;
    if (repeat) {
      fs::create_directories(persist_dir, ec);
      server_args = {"--persist", persist_dir.string()};
    }
    setup_refs.push_back(ReferenceMs());
    server_holder = std::make_unique<ServerProcess>();
    std::string error;
    const Clock::time_point setup_start = Clock::now();
    if (!server_holder->Start(args.serve_binary, server_args, &error)) {
      report->Fail(error);
      return 1;
    }
    bool ready = false;
    while (!ready && MsSince(setup_start) < 60'000) {
      ready = (client.Connect(server_holder->port()) &&
               client.RoundTrip(HttpGet("/readyz"), &http) && http.status == 200);
      if (!ready) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    setups.push_back(MsSince(setup_start));
    if (!ready) {
      report->Fail("ned_serve never became ready");
      return 1;
    }
  }
  ServerProcess& server = *server_holder;
  const double setup_ms = Min(setups);
  const double setup_ref_ms = Min(setup_refs);

  std::mt19937_64 rng(args.seed);
  std::vector<Timings> miss(n), hit(n), traced_miss(n), traced_hit(n);
  std::vector<std::optional<ned::AnswerSummary>> first(n);
  std::vector<double> refs, pings;
  WireLayerSamples samples;
  uint64_t first_seen_sent = 0, requests_sent = 0;
  uint64_t allocs_start = 0, allocs_end = 0;
  uint64_t window_answers = 0;
  double rss_mb = 0, window_s = 0;
  std::vector<std::string> executed_keys;
  bool injected = false;

  const int window_rounds = repeat ? kRepeatWindowRounds : kMixWindowRounds;
  const Clock::time_point start = Clock::now();
  for (int round = 0;; ++round) {
    // Round 0 fills the caches and is not timed. In the traced run, timed
    // rounds alternate with and without collect_trace.
    const bool traced = args.trace && round % 2 == 0 && round > 0;
    std::vector<Ask> asks;
    for (size_t i = 0; i < n; ++i) asks.push_back({i, round, true});
    if (repeat && round > 0) {
      std::uniform_int_distribution<int> old_class(std::max(0, round - kClassWindow),
                                                   round - 1);
      for (int k = 0; k < kRepeatsPerRound; ++k) {
        for (size_t i = 0; i < n; ++i) asks.push_back({i, old_class(rng), false});
      }
    }
    std::shuffle(asks.begin(), asks.end(), rng);

    for (const Ask& ask : asks) {
      const Question& q = questions[ask.question];
      ned::WhyNotRequest request;
      request.key = ned::StrCat("s", args.seed, "-r", round, "-", requests_sent);
      request.db_name = q.use_case->db_name;
      request.sql = q.use_case->sql;
      request.question = q.use_case->question;
      request.bypass_answer_cache = !repeat;
      request.collect_trace = traced;
      if (repeat) request.row_budget = 1'000'000'000 + static_cast<size_t>(ask.budget_class);
      const std::string body = ned::net::RenderWhyNotRequestJson(request);
      const std::string wire_request = HttpPost(body);
      ++report->attempted;
      ++requests_sent;
      if (ask.first_seen) ++first_seen_sent;

      const Clock::time_point t0 = Clock::now();
      const bool sent = client.RoundTrip(wire_request, &http);
      const double client_ms = MsSince(t0);
      auto parsed = sent ? ned::net::ParseWhyNotResponseJson(http.body)
                         : ned::Result<ned::net::WireResponse>(
                               ned::Status::Internal("connection lost"));
      if (!sent || !parsed.ok() || http.status != 200 || parsed->code != ned::StatusCode::kOk) {
        report->OperationFailed(q.use_case->name + ": request failed: HTTP " +
                     std::to_string(http.status) + " " +
                     (parsed.ok() ? parsed->message : parsed.status().ToString()));
        if (!sent) return 1;
        continue;
      }
      ned::net::WireResponse& response = *parsed;
      if (args.inject == "crossed-key" && !injected) {
        response.key += "-other";
        injected = true;
      } else if (!injected) {
        injected = InjectAnswerFault(args.inject, &response.answer);
      }
      if (response.key != request.key) {
        report->Fail(q.use_case->name + ": response key " + response.key +
                     " != requested " + request.key);
      }
      const bool from_cache = response.served_from_answer_cache;
      if (from_cache == ask.first_seen || response.served_from_answer_store) {
        report->Fail(q.use_case->name + ": " +
                     (ask.first_seen ? "first-seen request" : "repeat") +
                     (from_cache ? " was" : " was not") +
                     " served from the answer cache");
      }
      if (!from_cache) executed_keys.push_back(request.key);
      if (!first[ask.question]) {
        const std::string bad = CheckAnswer(response.answer, q);
        if (!bad.empty()) report->Fail(bad);
        first[ask.question] = response.answer;
      } else if (!SameAnswer(*first[ask.question], response.answer)) {
        report->Fail(q.use_case->name + ": answer differs from the first answer");
      }
      if (round == 0) continue;
      auto& by_kind = traced ? (ask.first_seen ? traced_miss : traced_hit)
                             : (ask.first_seen ? miss : hit);
      by_kind[ask.question].client_ms.push_back(client_ms);
      by_kind[ask.question].overhead_ms.push_back(
          client_ms - response.queue_ms - response.exec_ms);
      if (args.trace && !traced) samples.Add(request, body, http.body, response, client_ms);
    }
    refs.push_back(ReferenceMs());
    pings.push_back(PingPongMs());

    if (round == 0 || round == window_rounds) {
      uint64_t allocs = 0;
      if (!server.AllocSnapshot(&allocs)) {
        report->Fail("allocation snapshot failed");
        return 1;
      }
      if (round == 0) {
        allocs_start = allocs;
        window_answers = 0;
      } else {
        allocs_end = allocs;
        rss_mb = PeakRssMb(server.pid());
        window_s = MsSince(start) / 1000;
      }
    }
    if (round > 0 && round <= window_rounds) window_answers += asks.size();
    if (round >= window_rounds && MsSince(start) >= args.seconds * 1000 &&
        (!args.trace || round % 2 == 0)) {
      break;
    }
  }

  double executions = 0, cache_hits = 0, store_hits = 0;
  if (client.RoundTrip(HttpGet("/metrics"), &http) && http.status == 200) {
    executions = MetricValue(http.body, "ned_service_requests_total{event=\"completed\"}");
    cache_hits = MetricValue(http.body, "ned_answer_cache_total{event=\"hit\"}");
    store_hits = MetricValue(http.body, "ned_answer_store_total{event=\"hit\"}");
  } else {
    report->Fail("GET /metrics failed");
  }
  client.Close();
  const double rss_end_mb = PeakRssMb(server.pid());
  const int exit_code = server.Stop();
  if (exit_code != 0) report->Fail("ned_serve exited with " + std::to_string(exit_code));

  // Independent totals: the server's books against the client's counts.
  if (executions + cache_hits + store_hits != static_cast<double>(requests_sent)) {
    report->Fail(ned::StrCat("server counted ", executions, " executions + ",
                             cache_hits, " cache hits + ", store_hits,
                             " store hits for ", requests_sent, " requests"));
  }
  const uint64_t expected_executions = repeat ? first_seen_sent : requests_sent;
  if (executions != static_cast<double>(expected_executions)) {
    report->Fail(ned::StrCat("server executed ", executions, " requests, the client sent ",
                             expected_executions, " first-seen ones"));
  }
  double journal_bytes = 0, store_bytes = 0;
  if (repeat) {
    // Read the journal back: one ACCEPT and one COMPLETE per execution.
    std::map<std::string, std::pair<int, int>> records;
    std::vector<ned::JournalRecord> recovered;
    journal_bytes = static_cast<double>(DirBytes((persist_dir / "journal").string()));
    store_bytes = static_cast<double>(DirBytes((persist_dir / "store").string()));
    ned::JournalOptions options;
    options.dir = (persist_dir / "journal").string();
    auto journal = ned::Journal::Open(options, &recovered);
    if (!journal.ok()) report->Fail("journal read-back: " + journal.status().ToString());
    for (const ned::JournalRecord& record : recovered) {
      std::string key;
      if (record.type == ned::JournalRecordType::kAccept) {
        ned::WhyNotRequest decoded;
        if (ned::DecodeRequest(record.payload, &decoded).ok()) key = decoded.key;
        ++records[key].first;
      } else if (record.type == ned::JournalRecordType::kComplete) {
        ned::wire::Reader reader(record.payload);
        reader.GetStr(&key);
        ++records[key].second;
      } else {
        report->Fail("journal holds a SHED record");
      }
    }
    for (const std::string& key : executed_keys) {
      auto it = records.find(key);
      if (it == records.end() || it->second != std::make_pair(1, 1)) {
        report->Fail("journal lacks one ACCEPT and one COMPLETE for " + key);
        break;
      }
    }
    if (records.size() != executed_keys.size()) {
      report->Fail(ned::StrCat("journal holds ", records.size(), " keys for ",
                               executed_keys.size(), " executions"));
    }
  }
  fs::remove_all(persist_dir, ec);

  // answer_ms: the median of each question's timed round trips, averaged
  // over the 19. A round trip pays both the CPU work the memory walk
  // measures and the wake-ups the ping-pong measures, and on the README's
  // host it moved more than either alone, so it is corrected by both. wire-mix
  // times every request; wire-repeat its repeats (see the file comment).
  const double ref_ms = Median(refs);
  const double ping_ms = Median(pings);
  const double host_factor =
      (kReferenceNominalMs / ref_ms) * (kPingPongNominalMs / ping_ms);
  auto answer_ms = [&](const std::vector<Timings>& timed) {
    std::vector<double> per_question;
    for (const Timings& t : timed) per_question.push_back(Median(t.client_ms));
    return Mean(per_question) * host_factor;
  };
  const std::vector<Timings>& timed = repeat ? hit : miss;
  const std::vector<Timings>& traced_timed = repeat ? traced_hit : traced_miss;
  const double answers_per_window = static_cast<double>(window_answers);
  {
    std::vector<std::vector<double>> raw;
    for (const Timings& t : timed) raw.push_back(t.client_ms);
    PrintRawTimings(questions, raw);
  }
  std::cerr << "nedbench: raw setup_ms=" << setup_ms << " (in start order:";
  for (double ms : setups) std::cerr << " " << ms;
  std::cerr << ") setup_ref_ms=" << setup_ref_ms << " ref_ms=" << ref_ms
            << " ping_ms=" << ping_ms << " rounds=" << refs.size()
            << " requests=" << requests_sent << " window_s=" << window_s
            << " rss_end_mb=" << rss_end_mb
            << " answer_ms_raw=" << answer_ms(timed) / host_factor << "\n";
  if (!args.trace) {
    report->Add("setup_s", setup_ms / 1000 * kReferenceNominalMs / setup_ref_ms, "s");
    report->Add("answer_ms", answer_ms(timed), "ms");
    report->Add("heap_allocs_per_answer",
                static_cast<double>(allocs_end - allocs_start) / answers_per_window,
                "count");
    report->Add("peak_rss_mb", rss_mb, "MB");
    return 0;
  }

  report->Add("obs.trace_overhead",
              answer_ms(traced_timed) / answer_ms(timed), "ratio");
  LayerProbe probe(*registry, questions, args, report);
  probe.Engine();
  probe.Service();
  probe.Codec(&samples);
  probe.Baseline();
  probe.Catalog();
  probe.AddHostReferences(ref_ms, ping_ms);
  std::vector<double> overhead, hit_ms, miss_ms;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> all = miss[i].overhead_ms;
    all.insert(all.end(), hit[i].overhead_ms.begin(), hit[i].overhead_ms.end());
    overhead.push_back(Median(all));
    miss_ms.push_back(Median(miss[i].client_ms));
    if (repeat) hit_ms.push_back(Median(hit[i].client_ms));
  }
  // The workload's own readings replace the probe's where both exist.
  probe.Set("net.overhead_ms", Mean(overhead), "ms");
  probe.Set("cache.subtree_hit_ratio", samples.SubtreeHitRatio(), "ratio");
  probe.Set("cache.answer_hit_ratio", cache_hits / static_cast<double>(requests_sent),
            "ratio");
  if (repeat) {
    probe.Set("cache.miss_answer_ms", Mean(miss_ms), "ms");
    probe.Set("cache.hit_answer_ms", Mean(hit_ms), "ms");
    probe.Set("persist.journal_bytes_per_answer",
              journal_bytes / static_cast<double>(requests_sent), "B");
    probe.Set("persist.store_bytes_per_answer",
              store_bytes / static_cast<double>(requests_sent), "B");
  }
  probe.Finish();
  return 0;
}

}  // namespace nedbench
