// pskd: the performance-skeleton prediction daemon.
//
// Pipe mode (default) reads PSKF frames (svc/frame.h) from stdin and
// writes one response frame per request to stdout, in arrival order.  A
// kFlush frame (or EOF) is the batch boundary: everything admitted since
// the previous flush executes on the worker pool and the responses are
// written back.  Every request gets a definite status -- requests shed at
// admission (kOverloaded) or failing to decode (kBadInput) answer
// immediately, in their arrival slot.
//
//   psk trace --app=CG --out=cg.trace
//   psk skeleton --trace=cg.trace --target=0.5 --out=cg.skel
//   ... build request frames (tests/svc_test.cc shows the encoding) ...
//   pskd --queue=64 --deadline=10 < requests.bin > responses.bin
//
// Socket mode (--listen=unix:<path> or tcp:<host>:<port>) accepts many
// concurrent connections, each with its own framed session
// (svc/session.h): responses stream back per connection as they complete,
// a disconnect cancels only that connection's queued requests, and all
// sessions share one admission-controlled service and hot-skeleton store.
// The bound address is announced on stderr ("pskd: listening on ...") so
// callers using an ephemeral TCP port can read it back.
//
// A pipe stream that ends mid-frame is a client disconnect: queued
// requests are canceled cooperatively (they answer kCanceled, not
// silence) and pskd exits with the validation/format code.
//
// Exit codes match psk: 1 usage/configuration, 2 protocol/format errors on
// the stream, 3 runtime failures.
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "svc/frame.h"
#include "svc/service.h"
#include "svc/session.h"
#include "svc/transport.h"
#include "util/cli.h"
#include "util/error.h"

namespace {

using namespace psk;

int usage() {
  std::fprintf(
      stderr,
      "usage: pskd [--flag=value ...] < requests > responses\n"
      "  --listen=ADDR      serve connections on unix:<path> or\n"
      "                     tcp:<host>:<port> instead of stdin/stdout;\n"
      "                     tcp port 0 binds an ephemeral port (announced\n"
      "                     on stderr)\n"
      "  --max-conns=N      socket mode: exit after N connections have\n"
      "                     ended (default 0 = serve forever)\n"
      "  --max-inflight=N   socket mode: per-connection in-flight cap\n"
      "                     (default 32); a connection past it sheds its\n"
      "                     own requests with 'overloaded'\n"
      "  --queue=N          admission queue capacity (default 64); requests\n"
      "                     beyond it shed with status 'overloaded'\n"
      "  --workers=N        execution threads (default: hardware threads)\n"
      "  --deadline=S       default per-request deadline in seconds when the\n"
      "                     request carries none (default 30; 0 = none)\n"
      "  --validate=MODE    override the per-request validate mode with\n"
      "                     strict|salvage|off (default: honour the request)\n"
      "  --no-salvage-fallback  reject unparsable strict uploads instead of\n"
      "                     salvaging them into a degraded response\n"
      "  --max-frame-mb=N   frame body cap in MiB (default 64); larger\n"
      "                     declared sizes are rejected before allocation\n"
      "  --store-dir=D      durable skeleton-store tier: retained skeletons\n"
      "                     spill to D and survive daemon restart (default:\n"
      "                     memory-only)\n"
      "  --store-disk-mb=N  cap on the durable tier in MiB (default 1024)\n"
      "  --chaos-seed=N     enable deterministic fault injection seeded by N\n"
      "  --chaos-profile=P  chaos preset (light|heavy|disk|network) or a\n"
      "                     comma list of knob=value pairs (default: light\n"
      "                     when --chaos-seed is given)\n"
      "  --metrics-out=F    write svc.* and cache.* counters to F at exit\n"
      "  --cache-dir=D --cache-mem=N --no-cache   result-cache knobs (as psk)\n"
      "exit codes: 1 usage/configuration, 2 protocol/format, 3 runtime\n");
  return 1;
}

/// One arrival slot: either an immediate response (shed at admission,
/// undecodable request) or a placeholder filled from drain() in order.
struct Slot {
  std::optional<svc::ResponseHeader> immediate;
};

struct Session {
  svc::Service* service = nullptr;
  std::optional<svc::ValidateMode> validate_override;
  std::vector<Slot> slots;
  /// Cancel flags of the requests admitted since the last flush, so a
  /// disconnect can cancel everything still queued.
  std::vector<std::shared_ptr<std::atomic<bool>>> cancels;
};

void write_response(const svc::ResponseHeader& response) {
  std::string body;
  svc::encode_response(body, response);
  std::string framed;
  // A response body past the u32 length field cannot be framed; failing
  // loudly (exit 2) beats desyncing every later frame on the stream.
  svc::append_frame(framed, svc::FrameKind::kResponse, body).or_throw();
  std::fwrite(framed.data(), 1, framed.size(), stdout);
}

void handle_request(Session& session, const std::string& body) {
  Slot slot;
  archive::Result<svc::RequestHeader> decoded = svc::decode_request(body);
  if (!decoded.ok()) {
    svc::ResponseHeader response;
    // The id is the first field; when even that is missing it stays 0.
    if (body.size() >= 4) {
      archive::Cursor in(body);
      response.id = in.u32();
    }
    response.status = svc::StatusCode::kBadInput;
    response.message = "bad request: " + decoded.error().render();
    slot.immediate = std::move(response);
    session.slots.push_back(std::move(slot));
    return;
  }
  svc::Request request;
  request.header = decoded.take();
  if (session.validate_override) {
    request.header.validate = *session.validate_override;
  }
  request.cancel = std::make_shared<std::atomic<bool>>(false);
  session.cancels.push_back(request.cancel);
  slot.immediate = session.service->submit(std::move(request));
  session.slots.push_back(std::move(slot));
}

/// Executes the admitted batch and writes every arrival slot's response in
/// order: immediate answers stay in place, drained answers fill the rest.
void flush(Session& session) {
  const std::vector<svc::ResponseHeader> drained = session.service->drain();
  std::size_t next = 0;
  for (const Slot& slot : session.slots) {
    if (slot.immediate) {
      write_response(*slot.immediate);
    } else {
      write_response(drained[next++]);
    }
  }
  std::fflush(stdout);
  session.slots.clear();
  session.cancels.clear();
}

svc::ServiceOptions make_service_options(const util::Cli& cli) {
  svc::ServiceOptions options;
  const std::int64_t queue = cli.get_int("queue", 64);
  util::require(queue >= 1, "--queue must be >= 1");
  options.queue_capacity = static_cast<std::size_t>(queue);
  options.workers = static_cast<int>(cli.get_int("workers", 0));
  options.default_deadline_seconds = cli.get_double("deadline", 30.0);
  util::require(options.default_deadline_seconds >= 0,
                "--deadline must be >= 0");
  options.salvage_fallback = !cli.get_bool("no-salvage-fallback", false);
  options.store_dir = cli.get("store-dir", "");
  const std::int64_t store_disk_mb = cli.get_int("store-disk-mb", 1024);
  util::require(store_disk_mb >= 1 && store_disk_mb <= (1 << 20),
                "--store-disk-mb must be in [1, 1048576]");
  options.store_disk_bytes = static_cast<std::size_t>(store_disk_mb) << 20;
  if (!cli.get_bool("no-cache", false)) {
    cache::CacheOptions cache_options;
    const std::int64_t entries = cli.get_int("cache-mem", 4096);
    util::require(entries >= 0, "--cache-mem must be >= 0");
    cache_options.memory_entries = static_cast<std::size_t>(entries);
    cache_options.disk_dir = cli.get("cache-dir", "");
    options.framework.result_cache =
        std::make_shared<cache::ResultCache>(cache_options);
  }
  return options;
}

std::size_t parse_max_body(const util::Cli& cli) {
  const std::int64_t max_frame_mb = cli.get_int("max-frame-mb", 64);
  // Bounded on both sides: `N << 20` on an unclamped 64-bit N silently
  // overflows size_t (a 32-bit size_t wraps at 4096), turning a typo into
  // a cap of 0 that rejects every frame -- or worse, a huge one.
  util::require(max_frame_mb >= 1 && max_frame_mb <= 1024,
                "--max-frame-mb must be in [1, 1024]");
  return static_cast<std::size_t>(max_frame_mb) << 20;
}

std::optional<svc::ValidateMode> parse_validate_override(
    const util::Cli& cli) {
  const std::string validate = cli.get("validate", "");
  if (validate.empty()) return std::nullopt;
  return svc::parse_validate_mode(validate);
}

/// Builds the fault-injection schedule when --chaos-seed/--chaos-profile
/// ask for one; null (zero overhead, identical code paths) otherwise.
std::unique_ptr<svc::ChaosSchedule> make_chaos(const util::Cli& cli) {
  const std::string seed_text = cli.get("chaos-seed", "");
  const std::string profile_text = cli.get("chaos-profile", "");
  if (seed_text.empty() && profile_text.empty()) return nullptr;
  const std::int64_t seed = cli.get_int("chaos-seed", 1);
  util::require(seed >= 0, "--chaos-seed must be >= 0");
  const svc::ChaosProfile profile =
      svc::parse_chaos_profile(profile_text.empty() ? "light" : profile_text);
  return std::make_unique<svc::ChaosSchedule>(
      static_cast<std::uint64_t>(seed), profile);
}

/// Operator-facing shutdown summary: the recovery machinery's counters, so
/// a soak or an incident leaves a trace of what actually fired.
void print_shutdown_summary(const svc::Service& service,
                            const svc::ChaosSchedule* chaos) {
  const auto u = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  const svc::StoreStats store = service.skeleton_store().stats();
  std::fprintf(stderr,
               "pskd: store: %llu hit(s), %llu disk hit(s), %llu miss(es), "
               "%llu evicted, %llu restored, %llu quarantined, "
               "%llu disk write failure(s)\n",
               u(store.hits), u(store.disk_hits), u(store.misses),
               u(store.evicted), u(store.restored), u(store.verify_failures),
               u(store.disk_write_failures));
  const svc::ServiceStats stats = service.stats();
  if (stats.hung_detected != 0 || stats.workers_replaced != 0 ||
      stats.late_results_discarded != 0) {
    std::fprintf(stderr,
                 "pskd: supervisor: %llu hung request(s) answered, "
                 "%llu worker(s) replaced, %llu late result(s) discarded\n",
                 u(stats.hung_detected), u(stats.workers_replaced),
                 u(stats.late_results_discarded));
  }
  if (chaos != nullptr) {
    const svc::ChaosStats injected = chaos->stats();
    for (std::size_t site = 0; site < svc::kChaosSiteCount; ++site) {
      if (injected.consulted[site] == 0) continue;
      std::fprintf(stderr, "pskd: chaos: %s: injected %llu of %llu\n",
                   svc::chaos_site_name(static_cast<svc::ChaosSite>(site)),
                   u(injected.injected[site]), u(injected.consulted[site]));
    }
  }
}

void write_metrics(const util::Cli& cli, const svc::Service& service,
                   const svc::ServiceOptions& options) {
  const std::string metrics_out = cli.get("metrics-out", "");
  if (metrics_out.empty()) return;
  obs::MetricsRegistry metrics;
  service.publish(metrics);
  if (options.framework.result_cache) {
    options.framework.result_cache->publish(metrics);
  }
  std::ofstream out(metrics_out);
  util::require(out.good(), "--metrics-out: cannot open " + metrics_out);
  out << metrics.to_kv(0.0);
}

/// Socket mode: live service + one session per accepted connection.
int serve_socket(const util::Cli& cli, const std::string& listen) {
  const std::unique_ptr<svc::ChaosSchedule> chaos = make_chaos(cli);
  svc::ServiceOptions options = make_service_options(cli);
  options.chaos = chaos.get();
  const svc::ListenAddress address = svc::parse_listen_address(listen);

  svc::SessionOptions session_options;
  session_options.max_frame_bytes = parse_max_body(cli);
  session_options.validate_override = parse_validate_override(cli);
  session_options.chaos = chaos.get();
  const std::int64_t max_inflight = cli.get_int("max-inflight", 32);
  util::require(max_inflight >= 1, "--max-inflight must be >= 1");
  session_options.max_inflight = static_cast<std::size_t>(max_inflight);
  const std::int64_t max_conns = cli.get_int("max-conns", 0);
  util::require(max_conns >= 0, "--max-conns must be >= 0");

  svc::Service service(options);
  svc::SocketServer server(address, service, session_options);
  // Per-request deliver closures route every response to its session; the
  // global callback only sees requests submitted without one.
  service.start([](const svc::ResponseHeader&) {});
  std::fprintf(stderr, "pskd: listening on %s\n",
               svc::listen_address_name(server.bound_address()).c_str());
  server.serve(static_cast<std::size_t>(max_conns));
  server.stop();
  // Drain before the metrics snapshot so every admitted request is counted.
  service.stop();

  const svc::SocketServerStats stats = server.stats();
  std::fprintf(stderr,
               "pskd: served %llu connection(s): %llu clean, %llu mid-frame, "
               "%llu bad-stream, %llu write-failed, %llu accept retry(ies)\n",
               static_cast<unsigned long long>(stats.accepted),
               static_cast<unsigned long long>(stats.clean),
               static_cast<unsigned long long>(stats.mid_frame),
               static_cast<unsigned long long>(stats.bad_stream),
               static_cast<unsigned long long>(stats.write_failed),
               static_cast<unsigned long long>(stats.accept_retries));
  print_shutdown_summary(service, chaos.get());
  write_metrics(cli, service, options);
  return 0;
}

int serve(const util::Cli& cli) {
  const std::unique_ptr<svc::ChaosSchedule> chaos = make_chaos(cli);
  svc::ServiceOptions options = make_service_options(cli);
  options.chaos = chaos.get();
  const std::size_t max_body = parse_max_body(cli);

  Session session;
  svc::Service service(options);
  session.service = &service;
  session.validate_override = parse_validate_override(cli);

  std::string buffer;
  char chunk[1 << 16];
  bool stream_ok = true;
  std::string stream_error;
  while (stream_ok) {
    const std::size_t got = std::fread(chunk, 1, sizeof chunk, stdin);
    if (got > 0) buffer.append(chunk, got);
    bool progressed = true;
    while (progressed && stream_ok) {
      svc::Frame frame;
      std::size_t consumed = 0;
      archive::Error error;
      switch (svc::try_parse_frame(buffer, max_body, frame, consumed, error)) {
        case svc::ParseProgress::kFrame:
          buffer.erase(0, consumed);
          if (frame.kind == svc::FrameKind::kRequest) {
            handle_request(session, frame.body);
          } else if (frame.kind == svc::FrameKind::kFlush) {
            flush(session);
          } else if (frame.kind == svc::FrameKind::kHealth) {
            // Health bypasses the batch boundary: the probe answers
            // immediately, ahead of any queued responses.
            std::string health_body;
            svc::encode_health(health_body, service.health());
            std::string framed;
            svc::append_frame(framed, svc::FrameKind::kHealth, health_body)
                .or_throw();
            std::fwrite(framed.data(), 1, framed.size(), stdout);
            std::fflush(stdout);
          } else {
            stream_ok = false;
            stream_error = "unexpected response frame from client";
          }
          break;
        case svc::ParseProgress::kNeedMore:
          progressed = false;
          break;
        case svc::ParseProgress::kBad:
          stream_ok = false;
          stream_error = error.render();
          break;
      }
    }
    if (got < sizeof chunk) {
      if (std::ferror(stdin)) {
        stream_ok = false;
        stream_error = "read failure on stdin";
      }
      if (std::feof(stdin)) break;
    }
  }

  const bool truncated = stream_ok && !buffer.empty();
  if (!stream_ok || truncated) {
    // Client disconnect / bad stream: cancel whatever is still queued so
    // every admitted request answers (kCanceled), never hangs.
    for (const auto& cancel : session.cancels) cancel->store(true);
  }
  flush(session);  // EOF is the final batch boundary

  print_shutdown_summary(service, chaos.get());
  write_metrics(cli, service, options);

  if (!stream_ok) throw FormatError("request stream: " + stream_error);
  if (truncated) {
    throw FormatError("request stream ended mid-frame (" +
                      std::to_string(buffer.size()) +
                      " trailing byte(s)); queued requests were canceled");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  try {
    if (cli.get_bool("help", false)) return usage();
    cli.require_known({"listen", "max-conns", "max-inflight", "queue",
                       "workers", "deadline", "validate",
                       "no-salvage-fallback", "max-frame-mb", "store-dir",
                       "store-disk-mb", "chaos-seed", "chaos-profile",
                       "metrics-out", "cache-dir", "cache-mem", "no-cache",
                       "help"});
    const std::string listen = cli.get("listen", "");
    if (!listen.empty()) return serve_socket(cli, listen);
    return serve(cli);
  } catch (const ConfigError& error) {
    std::fprintf(stderr, "pskd: %s\n", error.what());
    return 1;
  } catch (const FormatError& error) {
    std::fprintf(stderr, "pskd: %s\n", error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "pskd: %s\n", error.what());
    return 3;
  }
}
