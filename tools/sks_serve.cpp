//===- tools/sks_serve.cpp - Synthesis-as-a-service daemon -----------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The synthesis daemon: newline-delimited JSON requests in, newline-
// delimited JSON responses out (service/Protocol.h documents the schema).
//
//   echo '{"id": 1, "n": 3}' | sks-serve --cache-dir /tmp/sks-cache
//   sks-serve --socket /tmp/sks.sock --cache-dir /tmp/sks-cache
//
// By default requests arrive on stdin and responses leave on stdout; with
// --socket the daemon listens on an AF_UNIX stream socket and serves
// connections one at a time (requests within a connection still run
// concurrently). Responses may arrive out of order — clients correlate by
// the echoed "id". Service counters go to stderr at exit.
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"
#include "service/SynthService.h"
#include "support/Env.h"
#include "support/Timing.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace sks;

namespace {

struct ServeOptions {
  std::string CacheDir;
  std::string SocketPath;
  std::string DefaultBackend = "portfolio";
  unsigned Workers = 2;
  size_t MaxQueue = 64;
  double DefaultTimeout = 0;
};

void usage(const char *Argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --cache-dir <dir>   content-addressed kernel cache (omit to run\n"
      "                      uncached; in-flight dedup still applies)\n"
      "  --socket <path>     listen on an AF_UNIX socket instead of stdin\n"
      "  --backend <name>    default policy for requests that omit one\n"
      "                      (default portfolio)\n"
      "  --workers <k>       synthesis worker threads (default 2)\n"
      "  --queue <k>         admission bound: max queued jobs, 0 unbounded\n"
      "                      (default 64; overflow answers status "
      "rejected)\n"
      "  --timeout <s>       default per-request budget in seconds\n"
      "                      (default unlimited)\n",
      Argv0);
}

bool parseArgs(int Argc, char **Argv, ServeOptions &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (Arg == "--cache-dir") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.CacheDir = V;
    } else if (Arg == "--socket") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.SocketPath = V;
    } else if (Arg == "--backend") {
      const char *V = Next();
      if (!V)
        return false;
      Opts.DefaultBackend = V;
    } else if (Arg == "--workers") {
      uint64_t V;
      if (!parseFlag("--workers", Next(), 1, 1024, V))
        return false;
      Opts.Workers = static_cast<unsigned>(V);
    } else if (Arg == "--queue") {
      uint64_t V;
      if (!parseFlag("--queue", Next(), 0, SIZE_MAX, V))
        return false;
      Opts.MaxQueue = static_cast<size_t>(V);
    } else if (Arg == "--timeout") {
      if (!parseFlag("--timeout", Next(), /*Positive=*/false,
                     Opts.DefaultTimeout))
        return false;
    } else {
      return false;
    }
  }
  bool PolicyOk = Opts.DefaultBackend == "portfolio";
  for (const std::string &Name : backendNames())
    PolicyOk = PolicyOk || Opts.DefaultBackend == Name;
  return PolicyOk;
}

/// One request/response stream: serializes response writes (completions
/// fire from worker threads) and counts outstanding requests so the
/// stream can drain before it closes.
class Stream {
public:
  /// \p WriteLine must emit one line (with trailing newline) to the
  /// client; calls are already serialized by the stream's mutex.
  explicit Stream(std::function<void(const std::string &)> WriteLine)
      : WriteLine(std::move(WriteLine)) {}

  void emit(const std::string &Line) {
    std::lock_guard<std::mutex> Lock(Mutex);
    WriteLine(Line + "\n");
  }

  void beginRequest() { Outstanding.fetch_add(1, std::memory_order_relaxed); }

  void endRequest() {
    if (Outstanding.fetch_sub(1, std::memory_order_relaxed) == 1) {
      std::lock_guard<std::mutex> Lock(DrainMutex);
      DrainCv.notify_all();
    }
  }

  /// Blocks until every beginRequest() has been matched by endRequest().
  void drain() {
    std::unique_lock<std::mutex> Lock(DrainMutex);
    DrainCv.wait(Lock, [&] {
      return Outstanding.load(std::memory_order_relaxed) == 0;
    });
  }

private:
  std::function<void(const std::string &)> WriteLine;
  std::mutex Mutex;
  std::atomic<size_t> Outstanding{0};
  std::mutex DrainMutex;
  std::condition_variable DrainCv;
};

/// Handles one request line: parse errors answer immediately; valid
/// requests are submitted and answered by the completion, which may run
/// in a worker thread after this function returns.
void handleLine(SynthService &Service, Stream &Out, const std::string &Line) {
  // Skip blank lines so interactive use is forgiving.
  if (Line.find_first_not_of(" \t\r") == std::string::npos)
    return;

  WireRequest Wire;
  std::string Error;
  if (!parseRequestLine(Line, Wire, Error)) {
    Out.emit(errorLine(Wire.Id, Error));
    return;
  }

  // Capture by value: the completion outlives this frame.
  std::string Id = Wire.Id;
  unsigned N = Wire.Req.N;
  auto Start = std::make_shared<Stopwatch>();
  Out.beginRequest();
  Service.submit(Wire.Req,
                 [&Out, Id, N, Start](const SynthOutcome &O, bool Cached) {
                   Out.emit(responseLine(Id, O, N, Cached, Start->seconds()));
                   Out.endRequest();
                 });
}

/// Reads newline-delimited requests from \p In until EOF, then drains.
void serveFile(SynthService &Service, std::FILE *In, Stream &Out) {
  std::string Line;
  for (int C; (C = std::fgetc(In)) != EOF;) {
    if (C != '\n') {
      Line.push_back(static_cast<char>(C));
      continue;
    }
    handleLine(Service, Out, Line);
    Line.clear();
  }
  if (!Line.empty())
    handleLine(Service, Out, Line);
  Out.drain();
}

int serveStdin(SynthService &Service) {
  Stream Out([](const std::string &Chunk) {
    std::fwrite(Chunk.data(), 1, Chunk.size(), stdout);
    std::fflush(stdout);
  });
  serveFile(Service, stdin, Out);
  return 0;
}

/// Writes all of \p Chunk to \p Fd, retrying short writes; gives up
/// silently on a closed peer (the request still completed server-side).
void writeAll(int Fd, const std::string &Chunk) {
  size_t Off = 0;
  while (Off < Chunk.size()) {
    ssize_t W = ::write(Fd, Chunk.data() + Off, Chunk.size() - Off);
    if (W <= 0)
      return;
    Off += static_cast<size_t>(W);
  }
}

int serveSocket(SynthService &Service, const std::string &Path) {
  int ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    std::perror("sks-serve: socket");
    return 1;
  }
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    std::fprintf(stderr, "sks-serve: socket path too long\n");
    ::close(ListenFd);
    return 1;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  ::unlink(Path.c_str()); // Stale socket from a previous run.
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
          0 ||
      ::listen(ListenFd, 8) < 0) {
    std::perror("sks-serve: bind/listen");
    ::close(ListenFd);
    return 1;
  }
  std::fprintf(stderr, "sks-serve: listening on %s\n", Path.c_str());

  // Connections are served one at a time; requests within a connection
  // run concurrently and responses interleave by id.
  for (;;) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      break;
    Stream Out([Fd](const std::string &Chunk) { writeAll(Fd, Chunk); });
    std::string Line;
    char Buf[4096];
    for (ssize_t R; (R = ::read(Fd, Buf, sizeof(Buf))) > 0;) {
      for (ssize_t I = 0; I != R; ++I) {
        if (Buf[I] != '\n') {
          Line.push_back(Buf[I]);
          continue;
        }
        handleLine(Service, Out, Line);
        Line.clear();
      }
    }
    if (!Line.empty())
      handleLine(Service, Out, Line);
    Out.drain();
    ::close(Fd);
  }
  ::close(ListenFd);
  ::unlink(Path.c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  ServeOptions Cli;
  if (!parseArgs(Argc, Argv, Cli)) {
    usage(Argv[0]);
    return 2;
  }

  ServiceOptions Opts;
  Opts.CacheDir = Cli.CacheDir;
  Opts.DefaultPolicy = Cli.DefaultBackend;
  Opts.Workers = Cli.Workers;
  Opts.MaxQueue = Cli.MaxQueue;
  Opts.DefaultTimeoutSeconds = Cli.DefaultTimeout;
  SynthService Service(Opts);
  if (!Cli.CacheDir.empty() &&
      (!Service.cache() || !Service.cache()->valid())) {
    std::fprintf(stderr, "sks-serve: cannot use cache dir '%s'\n",
                 Cli.CacheDir.c_str());
    return 1;
  }

  int Rc = Cli.SocketPath.empty() ? serveStdin(Service)
                                  : serveSocket(Service, Cli.SocketPath);

  ServiceStats S = Service.stats();
  std::fprintf(stderr,
               "sks-serve: %llu received, %llu cache hits, %llu coalesced, "
               "%llu synthesized, %llu rejected\n",
               static_cast<unsigned long long>(S.Received),
               static_cast<unsigned long long>(S.CacheHits),
               static_cast<unsigned long long>(S.Coalesced),
               static_cast<unsigned long long>(S.Synthesized),
               static_cast<unsigned long long>(S.Rejected));
  return Rc;
}
