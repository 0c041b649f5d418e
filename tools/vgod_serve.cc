// vgod_serve — the standalone scoring server.
//
//   vgod_serve --bundle=model.vgodb --graph=g.graph [--port=8080]
//              [--num_threads=N] [--max-queue=1024] [--slow-ring=16]
//              [--dispatch-threads=4] [--streaming] ...
//
// Loads a model bundle (exported by `vgod_cli detect --save-bundle` or
// `vgod_cli export-bundle`) and the resident graph, then serves
// POST /score, GET /healthz, GET /metrics (?format=prometheus for text
// exposition), GET /debug/slow, GET /debug/drift, GET /debug/alerts, and
// the GET /events SSE stream over HTTP/1.1 on loopback until
// SIGINT/SIGTERM, draining in-flight work before exiting. Set
// VGOD_ACCESS_LOG=PATH (or "-" for stderr) for a structured JSON access
// log, one line per request. The flags are parsed by
// serve::ParseServerOptions, shared with `vgod_cli serve`; see
// docs/SERVING.md.
#include <atomic>
#include <csignal>
#include <cstdio>

#include "core/args.h"
#include "serve/server.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

}  // namespace

int main(int argc, char** argv) {
  using namespace vgod;

  Result<ArgParser> args = ArgParser::Parse(argc, argv);
  Result<serve::ServerOptions> options =
      args.ok() ? serve::ParseServerOptions(args.value())
                : Result<serve::ServerOptions>(args.status());
  if (!options.ok()) {
    std::fprintf(stderr,
                 "error: %s\nusage: vgod_serve\n%s"
                 "env:   VGOD_ACCESS_LOG=PATH|-  JSON access log\n",
                 options.status().ToString().c_str(),
                 serve::kServerFlagsUsage);
    return 2;
  }
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  return serve::RunServer(options.value(), &g_stop);
}
