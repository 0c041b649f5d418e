// Open-loop HTTP load generation for the repository benchmark.
//
// The generator owns its own minimal HTTP/1.1 keep-alive client so that the
// measuring apparatus stays fixed while the server under test changes.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One blocking keep-alive connection to 127.0.0.1:port. A failed round
/// trip closes the socket; the next call reconnects.
class Connection {
 public:
  explicit Connection(int port) : port_(port) {}
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// POSTs `body` to `path`. Returns the HTTP status, or 0 on a transport
  /// error (connect, send, receive or framing). `response` gets the body.
  int Post(const std::string& path, const std::string& body,
           std::string* response);

 private:
  bool Connect();
  void Close();

  int port_;
  int fd_ = -1;
  std::string buffer_;
};

/// One request schedule: `rate` POST /score requests per second, bodies
/// cycled in order.
struct StreamSpec {
  int port = 0;
  std::vector<std::string> bodies;
  double rate = 0.0;
  int conns = 1;
};

/// What happened to request i of a stream. Times are seconds since the
/// schedule origin; `sent` is false for requests never sent because the
/// step deadline passed first.
struct RequestRecord {
  double due = 0.0;
  double taken = 0.0;  // When a free connection claimed the request.
  double sent_at = 0.0;
  double done = 0.0;
  bool sent = false;
  int status = 0;
  uint64_t request_id = 0;
};

struct StreamResult {
  StreamSpec spec;
  std::vector<RequestRecord> records;
};

/// Runs the stream for `seconds` on an open-loop schedule (request i is due
/// at i / rate) with `conns` worker threads, one connection each; a worker
/// claims the next due request when it is free, so requests due while every
/// connection is busy wait in the generator and that wait counts in their
/// latency. Requests not sent by `seconds + grace` are abandoned; in-flight
/// ones are always awaited so the server's state stays known.
StreamResult RunOpenLoop(const StreamSpec& spec, double seconds, double grace);

/// Summary of one stream as a JSON object. `limit_s` is the step deadline
/// (seconds + grace) after which a completion counts as failed.
std::string SummarizeJson(const StreamResult& result, double seconds,
                          double limit_s);

/// Per-request lines: due_ms latency_ms rtt_ms status request_id.
void DumpRecords(const StreamResult& result, const std::string& path);

/// Reads one body per line.
std::vector<std::string> ReadLines(const std::string& path);

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
double Quantile(std::vector<double>* values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
