#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <thread>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point origin) {
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

/// Parses the unsigned integer after `"key":` in a JSON body, or -1.
int64_t JsonInt(const std::string& body, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t at = body.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtoll(body.c_str() + at + needle.size(), nullptr, 10);
}

std::string Lower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

}  // namespace

Connection::~Connection() { Close(); }

void Connection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool Connection::Connect() {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval timeout{30, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

int Connection::Post(const std::string& path, const std::string& body,
                     std::string* response) {
  if (fd_ < 0 && !Connect()) return 0;
  std::string request = "POST " + path +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                        "Content-Type: application/json\r\n"
                        "Content-Length: " +
                        std::to_string(body.size()) + "\r\n\r\n" + body;
  size_t off = 0;
  while (off < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + off, request.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      Close();
      return 0;
    }
    off += static_cast<size_t>(n);
  }
  char chunk[16384];
  size_t header_end = std::string::npos;
  while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      Close();
      return 0;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
  const std::string head = Lower(buffer_.substr(0, header_end));
  int status = 0;
  if (head.rfind("http/1.", 0) == 0 && head.size() > 12) {
    status = std::atoi(head.c_str() + 9);
  }
  size_t length = 0;
  const size_t cl = head.find("content-length:");
  if (cl != std::string::npos) {
    length = std::strtoul(head.c_str() + cl + 15, nullptr, 10);
  }
  const size_t body_start = header_end + 4;
  while (buffer_.size() < body_start + length) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      Close();
      return 0;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
  response->assign(buffer_, body_start, length);
  buffer_.erase(0, body_start + length);
  if (head.find("connection: close") != std::string::npos) Close();
  return status;
}

StreamResult RunOpenLoop(const StreamSpec& spec, double seconds,
                         double grace) {
  StreamResult result;
  result.spec = spec;
  std::vector<RequestRecord>& records = result.records;
  records.resize(static_cast<size_t>(
      std::max(std::floor(spec.rate * seconds + 1e-9), 0.0)));
  std::atomic<int64_t> next{0};
  const double limit = seconds + grace;
  // A short lead so every worker is waiting before the first due time.
  const Clock::time_point origin =
      Clock::now() + std::chrono::milliseconds(50);
  std::vector<std::thread> workers;
  for (int c = 0; c < spec.conns; ++c) {
    workers.emplace_back([&] {
      Connection conn(spec.port);
      std::string response;
      for (;;) {
        const int64_t i = next.fetch_add(1);
        if (i >= static_cast<int64_t>(records.size())) break;
        RequestRecord& r = records[static_cast<size_t>(i)];
        r.due = static_cast<double>(i) / spec.rate;
        r.taken = SecondsSince(origin);
        if (r.taken < r.due) {
          std::this_thread::sleep_until(
              origin + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(r.due)));
        }
        r.sent_at = SecondsSince(origin);
        if (r.sent_at > limit) continue;  // Abandoned: never sent.
        r.sent = true;
        r.status = conn.Post(
            "/score", spec.bodies[static_cast<size_t>(i) % spec.bodies.size()],
            &response);
        r.done = SecondsSince(origin);
        if (r.status == 200) {
          r.request_id = static_cast<uint64_t>(
              std::max<int64_t>(JsonInt(response, "request_id"), 0));
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  return result;
}

double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const double rank = std::ceil(q * static_cast<double>(values->size()));
  const size_t index = static_cast<size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values->size()))) - 1;
  return (*values)[index];
}

std::string SummarizeJson(const StreamResult& result, double seconds,
                          double limit_s) {
  // A failed request never meets a latency limit: it enters the latency
  // distribution as infinitely late.
  constexpr double kMissed = 1e12;
  int64_t sent = 0, succeeded = 0;
  std::vector<double> latency, lag;
  std::map<int, int64_t> statuses;
  for (const RequestRecord& r : result.records) {
    sent += r.sent ? 1 : 0;
    const bool ok = r.sent && r.status == 200 && r.done <= limit_s;
    succeeded += ok ? 1 : 0;
    latency.push_back(ok ? (r.done - r.due) * 1e3 : kMissed);
    ++statuses[r.sent ? r.status : -1];
    // Generator lateness counts only requests whose connection was free
    // before they were due; the rest waited on the server.
    if (r.sent && r.taken <= r.due) lag.push_back((r.sent_at - r.due) * 1e3);
  }
  const auto attempted = static_cast<int64_t>(result.records.size());
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"rate\":%.6g,\"seconds\":%.6g,\"conns\":%d,"
      "\"attempted\":%lld,\"sent\":%lld,\"succeeded\":%lld,"
      "\"failed\":%lld,\"p50_ms\":%.6f,\"p90_ms\":%.6f,\"p99_ms\":%.6f,"
      "\"lag_p99_ms\":%.6f,\"lag_n\":%zu,\"statuses\":{",
      result.spec.rate, seconds, result.spec.conns,
      static_cast<long long>(attempted), static_cast<long long>(sent),
      static_cast<long long>(succeeded),
      static_cast<long long>(attempted - succeeded),
      Quantile(&latency, 0.50), Quantile(&latency, 0.90),
      Quantile(&latency, 0.99),
      Quantile(&lag, 0.99), lag.size());
  std::string out = buf;
  bool first = true;
  for (const auto& [status, count] : statuses) {
    out += (first ? "\"" : ",\"") + std::to_string(status) +
           "\":" + std::to_string(count);
    first = false;
  }
  out += "}}";
  return out;
}

void DumpRecords(const StreamResult& result, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  for (const RequestRecord& r : result.records) {
    std::fprintf(f, "%.4f %.4f %.4f %d %llu\n", r.due * 1e3,
                 r.sent ? (r.done - r.due) * 1e3 : -1.0,
                 r.sent ? (r.done - r.sent_at) * 1e3 : -1.0,
                 r.sent ? r.status : -1,
                 static_cast<unsigned long long>(r.request_id));
  }
  std::fclose(f);
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

}  // namespace perfbench
