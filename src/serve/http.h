#ifndef VGOD_SERVE_HTTP_H_
#define VGOD_SERVE_HTTP_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/status.h"

namespace vgod::serve {

/// One parsed HTTP request. Header names are lower-cased.
struct HttpRequest {
  std::string method;
  std::string target;
  /// Protocol version from the request line — "HTTP/1.1" or "HTTP/1.0"
  /// (anything else is rejected 400 by the transport). HTTP/1.0
  /// connections default to close-after-response unless the client sent
  /// `connection: keep-alive`.
  std::string version = "HTTP/1.1";
  std::map<std::string, std::string> headers;
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// Streaming response (SSE): headers go out without a content-length,
  /// `body` is the initial payload, and the connection stays open for
  /// HttpServer::PushStream() until either side closes. The connection's
  /// request parser retires — a streaming response is the last exchange
  /// on its connection.
  bool stream = false;
  /// Invoked on the event thread once the stream is installed, with the
  /// connection id PushStream() takes — the subscription hook.
  std::function<void(uint64_t)> on_stream_open;

  /// The one place response content types are chosen: every JSON
  /// endpoint builds through Json(), the Prometheus exposition through
  /// Prometheus() (text/plain; version=0.0.4 per the exposition spec),
  /// and SSE subscriptions through EventStream() (text/event-stream,
  /// stream=true).
  static HttpResponse Json(int status, std::string body);
  static HttpResponse Prometheus(std::string body);
  static HttpResponse EventStream(std::string initial_payload);
};

/// Splits a request target at the first '?' into path and query
/// ("/metrics?format=prometheus" -> {"/metrics", "format=prometheus"}).
void SplitTarget(const std::string& target, std::string* path,
                 std::string* query);

/// Value of `key` in an application/x-www-form-urlencoded query string
/// ("a=1&b=2"), percent-decoded ('+' is a space, %XX a byte), or "" when
/// absent. A malformed escape in the requested value ("%", "%g1", "%a")
/// is InvalidArgument — endpoints map it to 400 so reserved characters
/// cannot be smuggled past parameter validation undecoded.
Result<std::string> QueryParam(const std::string& query,
                               const std::string& key);

/// Maps an HTTP status code to its reason phrase ("OK", "Not Found", ...).
const char* HttpStatusReason(int status);

/// Failure-class name for an error status (400 -> "bad_request", 413 ->
/// "payload_too_large", 431 -> "header_fields_too_large", ... —
/// docs/ROBUSTNESS.md), shared by the serve.errors.* counters and the
/// access log's error_class field.
const char* HttpErrorClass(int status);

/// Bumps the per-failure-class serve.errors.* counter for an error
/// response `status` (400 -> serve.errors.bad_request, 413 ->
/// serve.errors.payload_too_large, ... — docs/ROBUSTNESS.md). Both the
/// transport (parse-level rejects) and the request handler route every
/// error response through this, so /metrics accounts for each class of
/// hostile input the server absorbed.
void CountHttpError(int status);

/// Bumps the per-outcome serve.http.status.{2xx,3xx,4xx,5xx,other}
/// counter; the transport calls this for every response it produces,
/// including pre-handler rejects.
void CountStatusClass(int status);

/// Reactor transport knobs (docs/SERVING.md "Transport").
struct TransportOptions {
  /// Accepted connections beyond this are answered 503 and closed
  /// (admission control; serve.transport.rejected / serve.errors.*).
  int max_connections = 1024;
  /// Keep-alive connections idle longer than this are closed by the
  /// event loop (serve.transport.idle_closed). <= 0 disables the sweep.
  int idle_timeout_ms = 30000;
  /// Worker threads running the request handler. These are the only
  /// threads the transport adds beyond the single event thread — cost
  /// per connection is an epoll registration, never a thread.
  int dispatch_threads = 4;
};

/// Nonblocking epoll reactor HTTP/1.1 server. A single event thread owns
/// the listen socket and every connection fd: it accepts, reads into
/// per-connection buffers, runs an incremental request parser (draining
/// every pipelined request already buffered), and writes responses —
/// all nonblocking. Complete requests are handed to a small fixed
/// dispatch pool which invokes the handler; the handler answers through
/// a Responder (callable from any thread), and the event thread writes
/// the response out. At most one request per connection is in the
/// handler at a time, which is what keeps pipelined responses in order.
class HttpServer {
 public:
  /// Completes one request. Copyable, thread-safe, callable exactly once
  /// from any thread; a no-op after the server stopped or the connection
  /// died (completions are keyed by a monotonic connection id, so a
  /// recycled fd can never receive a stale response).
  using Responder = std::function<void(HttpResponse)>;
  using Handler = std::function<void(const HttpRequest&, Responder)>;

  explicit HttpServer(Handler handler, TransportOptions options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = pick an ephemeral port, see port()) and
  /// starts the event thread + dispatch pool.
  Status Start(int port);

  /// The bound port (valid after a successful Start).
  int port() const { return port_; }

  /// Stops accepting, closes every connection, joins the event thread
  /// and the dispatch pool. Responders outstanding at this point (e.g.
  /// held by an engine still draining) become safe no-ops. Idempotent.
  void Stop();

  /// Appends `data` to a live streaming connection (installed by a
  /// stream=true response). Safe from any thread; the event thread does
  /// the write. Returns false when the connection is gone or the server
  /// stopped — the caller's cue to drop the subscriber. Streaming
  /// connections are exempt from the idle sweep; pushing a periodic SSE
  /// comment doubles as dead-peer detection.
  bool PushStream(uint64_t conn_id, std::string data);

  /// Live streaming connections right now.
  size_t StreamCount() const;

 private:
  /// Per-connection reactor state, owned exclusively by the event thread.
  struct Connection {
    int fd = -1;
    /// Monotonic id; cross-thread completions address the connection by
    /// this, not the fd, so kernel fd recycling cannot misroute a
    /// response.
    uint64_t id = 0;
    std::string in;   // Received bytes not yet parsed.
    std::string out;  // Serialized responses awaiting send.
    /// Parsed requests awaiting dispatch (HTTP/1.1 pipelining); `second`
    /// is that request's close-after-response flag.
    std::deque<std::pair<HttpRequest, bool>> ready;
    bool busy = false;           // One request is in the handler.
    bool inflight_close = false; // Close flag of the in-handler request.
    bool close_after_flush = false;
    bool peer_eof = false;
    bool reading_paused = false; // Backpressure: ready queue is full.
    bool streaming = false;      // SSE: open-ended response in progress.
    uint32_t interest = 0;       // Current epoll event mask.
    /// A parse-level error (400/413/431) waiting for earlier pipelined
    /// responses to flush first, so rejects never jump the queue.
    int deferred_error = 0;
    // Incremental parser state. kDead: a parse error or an explicit
    // `connection: close` request retired the parser; remaining input is
    // ignored.
    enum class Parse { kHeaders, kBody, kDead } parse = Parse::kHeaders;
    HttpRequest partial;
    size_t body_needed = 0;
    std::chrono::steady_clock::time_point last_active;
  };

  /// A complete request en route to a dispatch worker.
  struct DispatchItem {
    uint64_t conn_id = 0;
    HttpRequest request;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// A handler response en route back to the event thread.
  struct Completion {
    uint64_t conn_id = 0;
    HttpResponse response;
  };

  /// A PushStream payload en route to the event thread.
  struct StreamChunk {
    uint64_t conn_id = 0;
    std::string data;
  };

  void EventLoop();
  void DispatchLoop();
  void AcceptReady();
  bool ReadReady(Connection& conn);   // false: connection was closed.
  void ParseInput(Connection& conn);
  void EarlyError(Connection& conn, int status);
  void EmitEarlyError(Connection& conn, int status);
  void PumpDispatch(Connection& conn);
  void HandleCompletions();
  bool FlushOut(Connection& conn);    // false: connection was closed.
  void Settle(Connection& conn);      // May close `conn`; don't touch after.
  void UpdateInterest(Connection& conn);
  void CloseConnection(int fd);
  void CloseIdleConnections();
  void CompleteRequest(uint64_t conn_id, HttpResponse response);

  Handler handler_;
  TransportOptions options_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: completions + Stop() wake the loop.
  int port_ = 0;
  std::thread event_thread_;
  std::vector<std::thread> dispatch_pool_;

  // --- Event-thread-only state (no locking by design) ---
  uint64_t next_conn_id_ = 1;
  std::unordered_map<int, Connection> conns_;        // Keyed by fd.
  std::unordered_map<uint64_t, int> conn_fd_by_id_;

  // --- Cross-thread state, guarded by mu_ ---
  mutable std::mutex mu_;
  std::condition_variable dispatch_cv_;
  std::deque<DispatchItem> dispatch_queue_;
  std::vector<Completion> completions_;
  std::vector<StreamChunk> stream_chunks_;
  /// Connection ids with a live stream — the PushStream liveness check.
  /// Maintained by the event thread (install / close), read anywhere.
  std::vector<uint64_t> live_streams_;
  bool started_ = false;
  bool stop_requested_ = false;
  bool stopped_ = false;   // Stop() ran (idempotence guard).
  bool retired_ = false;   // wake_fd_ about to close; Responders no-op.
};

}  // namespace vgod::serve

#endif  // VGOD_SERVE_HTTP_H_
