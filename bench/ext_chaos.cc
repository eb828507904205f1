// Extension: chaos soak -- the prediction service under seeded fault
// injection, with misbehaving clients and a mid-soak daemon restart.
//
// The robustness contract pskd claims (svc/service.h) is only worth
// stating if it survives the failure modes a deployment actually sees:
// torn writes, mid-frame disconnects, slow-loris peers, disk write
// failures, bit rot, hung workers, and the daemon being killed and
// restarted under load.  This soak drives all of them at once, from a
// deterministic seed, and asserts the contract held:
//
//   - every logical request a well-behaved client sent was answered
//     exactly once, and ended kOk (retries are the client's job;
//     RetryingClient reconnects, backs off and replays by hash);
//   - misbehaving clients (mid-frame aborts, slow-loris trickles,
//     hard disconnects) damage only their own connection -- the
//     well-behaved clients' answers stay byte-correct throughout;
//   - the skeleton store never serves bytes that fail their checksum:
//     after the soak, every entry a fresh store will serve from the
//     survivor directory verifies against its content hash;
//   - service accounting stays exact under chaos: for each daemon
//     incarnation, completed == submitted (nothing dropped, nothing
//     double-answered);
//   - across the restart, the disk tier serves primed skeletons to
//     hash-replaying clients without a single container re-upload.
//
// Every failure is reproducible: the failing (seed, profile) pair is
// written to --failing-out (CI uploads it as an artifact) and the soak
// exits non-zero.
//
// Flags:
//   --seeds=a,b,c    comma-separated chaos seeds (default 1,2,3,4,5;
//                    --quick trims to the first 2)
//   --profile=P      chaos profile (preset or knob=value list;
//                    default heavy)
//   --clients=N      well-behaved closed-loop clients (default 4)
//   --requests=N     logical requests per client (default 24, quick 8)
//   --restart=B      kill and restart the daemon mid-soak (default true)
//   --failing-out=F  where to record a failing schedule (default
//                    ext_chaos_failing.txt)
//   --metrics-out=F  flat key=value summary dump
//   --quick          small counts for CI smoke
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/nas.h"
#include "archive/archive.h"
#include "archive/codec.h"
#include "archive/wire.h"
#include "core/framework.h"
#include "obs/metrics.h"
#include "svc/chaos.h"
#include "svc/service.h"
#include "svc/store.h"
#include "svc/transport.h"
#include "util/cli.h"
#include "util/error.h"

namespace {

using namespace psk;

void sleep_ms(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// PSKARCH1 container bytes of a small MG skeleton, built once.
std::string make_upload() {
  core::SkeletonFramework framework;
  const trace::Trace trace = framework.record(
      apps::find_benchmark("MG").make(apps::NasClass::kS), "MG");
  const skeleton::Skeleton skeleton =
      framework.make_skeleton(framework.make_signature(trace, 10.0), 10.0);
  std::string payload;
  archive::encode(payload, skeleton);
  std::string out;
  archive::write_frame(out, archive::PayloadKind::kSkeleton,
                       archive::kSkeletonVersion, payload);
  return out;
}

svc::RequestHeader make_header(std::uint32_t id, const std::string& upload) {
  svc::RequestHeader header;
  header.id = id;
  header.op = svc::RequestOp::kPredict;
  header.seed = 7;
  header.repetitions = 1;
  header.deadline_seconds = 30.0;
  header.scenario = "dedicated";
  header.archive_bytes = upload;
  return header;
}

/// One daemon incarnation: a service on a given store directory plus a
/// socket listener with chaos-injecting sessions.
struct Daemon {
  std::unique_ptr<svc::Service> service;
  std::unique_ptr<svc::SocketServer> server;
  std::thread serving;

  Daemon(const svc::ListenAddress& address, const std::string& store_dir,
         svc::ChaosSchedule* chaos) {
    svc::ServiceOptions options;
    options.queue_capacity = 32;
    options.workers = 2;
    options.store_dir = store_dir;
    options.supervisor_grace_seconds = 0.1;
    options.supervisor_poll_seconds = 0.01;
    options.chaos = chaos;
    service = std::make_unique<svc::Service>(options);
    service->start([](const svc::ResponseHeader&) {});
    svc::SessionOptions session_options;
    session_options.chaos = chaos;
    server = std::make_unique<svc::SocketServer>(address, *service,
                                                 session_options);
    serving = std::thread([this] { server->serve(); });
  }

  /// Stops accepting, drains, and returns the incarnation's final stats.
  svc::ServiceStats shutdown() {
    server->stop();
    serving.join();
    service->stop();
    return service->stats();
  }
};

/// A soak-level contract violation: reproducible from (seed, profile).
struct SoakFailure {
  std::uint64_t seed;
  std::string profile;
  std::string what;
};

void check(bool ok, std::uint64_t seed, const std::string& profile,
           const std::string& what) {
  if (!ok) throw SoakFailure{seed, profile, what};
}

struct SoakResult {
  std::uint64_t requests = 0;
  std::uint64_t retries = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t replays_by_hash = 0;
  std::uint64_t reuploads = 0;
  std::uint64_t health_probes_ok = 0;
  std::uint64_t evil_connections = 0;
  std::uint64_t injected_total = 0;
};

/// Misbehaving peers: each damages its own connection on purpose and must
/// not disturb anyone else.  Runs a fixed small set of shapes.
void run_evil_clients(const svc::ListenAddress& address,
                      const std::string& upload, SoakResult& result) {
  const svc::RequestHeader header = make_header(900001, upload);
  std::string framed;
  {
    std::string body;
    svc::encode_request(body, header);
    svc::append_frame(framed, svc::FrameKind::kRequest, body);
  }
  for (int shape = 0; shape < 3; ++shape) {
    try {
      svc::SocketClient client(address);
      ++result.evil_connections;
      if (shape == 0) {
        // Mid-frame abort: die halfway through a request.
        client.send_bytes(std::string_view(framed).substr(0, framed.size() / 2));
        client.close();
      } else if (shape == 1) {
        // Slow-loris: trickle a full valid frame a few bytes at a time,
        // then vanish without reading the response.
        std::size_t sent = 0;
        while (sent < framed.size()) {
          const std::size_t chunk = std::min<std::size_t>(64, framed.size() - sent);
          client.send_bytes(std::string_view(framed).substr(sent, chunk));
          sent += chunk;
          sleep_ms(1);
        }
        client.close();
      } else {
        // Garbage: bytes that will never parse as a frame.
        client.send_bytes("this was never a frame");
        client.close();
      }
    } catch (const ConfigError&) {
      // The listener was mid-restart; the shapes are best-effort noise.
    }
  }
}

/// One full soak at one chaos seed.  Throws SoakFailure on any contract
/// violation.
SoakResult soak_one_seed(std::uint64_t seed, const std::string& profile_text,
                         int clients, int per_client, bool restart,
                         const std::string& upload,
                         const std::vector<double>& expected_values) {
  svc::ChaosSchedule chaos(seed, svc::parse_chaos_profile(profile_text));
  const std::string store_dir = "/tmp/ext_chaos_" +
                                std::to_string(::getpid()) + "_s" +
                                std::to_string(seed);
  svc::ListenAddress address;
  address.kind = svc::ListenAddress::Kind::kUnix;
  address.path = store_dir + ".sock";
  // Declared before every daemon and store of the soak, so it runs after
  // they are gone and after the survivor check read the directory, on
  // success and on a SoakFailure alike.
  struct RemoveOnExit {
    const svc::ListenAddress& address;
    const std::string& store_dir;
    ~RemoveOnExit() {
      std::error_code ignored;
      std::filesystem::remove(address.path, ignored);
      std::filesystem::remove_all(store_dir, ignored);
    }
  } remove_on_exit{address, store_dir};

  auto daemon = std::make_unique<Daemon>(address, store_dir, &chaos);
  std::vector<svc::ServiceStats> incarnations;

  const int total = clients * per_client;
  std::atomic<int> answered_ok{0};
  std::atomic<int> answered_other{0};
  std::atomic<std::uint32_t> next_id{1};
  std::atomic<std::uint64_t> health_ok{0};
  std::string first_error;
  std::mutex error_mutex;

  // Generous policy: the soak deliberately overlaps calls with a daemon
  // restart, so a client may need several reconnect attempts.
  svc::RetryPolicy policy;
  policy.max_attempts = 10;
  policy.initial_backoff_seconds = 0.005;
  policy.max_backoff_seconds = 0.25;

  std::vector<svc::RetryStats> client_stats(
      static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      svc::RetryingClient client(address, policy);
      for (int i = 0; i < per_client; ++i) {
        const svc::ResponseHeader response =
            client.call(make_header(next_id.fetch_add(1), upload));
        if (response.status == svc::StatusCode::kOk &&
            response.values == expected_values) {
          answered_ok.fetch_add(1);
        } else {
          answered_other.fetch_add(1);
          std::lock_guard<std::mutex> lock(error_mutex);
          if (first_error.empty()) {
            first_error = "status " +
                          std::string(svc::status_name(response.status)) +
                          ": " + response.message;
          }
        }
        if (i % 8 == 3 && client.query_health().has_value()) {
          health_ok.fetch_add(1);
        }
      }
      client_stats[static_cast<std::size_t>(c)] = client.stats();
    });
  }

  SoakResult result;
  // Noise from misbehaving peers while the real clients work.
  run_evil_clients(address, upload, result);

  if (restart) {
    // Kill the daemon once roughly half the traffic has landed, then bring
    // a new incarnation up on the same store directory and socket path.
    while (answered_ok.load() + answered_other.load() < total / 2) {
      sleep_ms(1);
    }
    incarnations.push_back(daemon->shutdown());
    daemon.reset();
    daemon = std::make_unique<Daemon>(address, store_dir, &chaos);
    run_evil_clients(address, upload, result);
  }

  for (std::thread& thread : threads) thread.join();
  incarnations.push_back(daemon->shutdown());
  const svc::StoreStats store = daemon->service->skeleton_store().stats();
  daemon.reset();

  // --- the contract ---------------------------------------------------
  check(answered_other.load() == 0, seed, profile_text,
        "a well-behaved request did not end kOk with the expected bytes: " +
            first_error);
  check(answered_ok.load() == total, seed, profile_text,
        "answered " + std::to_string(answered_ok.load()) + " of " +
            std::to_string(total) + " logical requests");
  for (const svc::ServiceStats& stats : incarnations) {
    // Exactly once, loudly: every submit produced one response.
    check(stats.completed == stats.submitted, seed, profile_text,
          "an incarnation completed " + std::to_string(stats.completed) +
              " of " + std::to_string(stats.submitted) + " submits");
  }
  const svc::ChaosProfile profile = svc::parse_chaos_profile(profile_text);
  const bool disk_faults =
      profile.store_write_fail_rate > 0 || profile.store_corrupt_rate > 0;
  if (restart && !disk_faults) {
    // With no disk faults injected, the disk tier must have carried the
    // primed skeleton across the restart: hash replays kept working, so no
    // client ever re-uploaded the container.  (Under disk chaos a spill
    // may legitimately have failed or rotted -- the kNotFound -> re-upload
    // fallback is then the *correct* behaviour, asserted above by every
    // request still ending kOk.)
    std::uint64_t reuploads = 0;
    for (const svc::RetryStats& stats : client_stats) {
      reuploads += stats.reuploads;
    }
    check(store.restored >= 1, seed, profile_text,
          "the restarted daemon restored no disk entries");
    check(reuploads == 0, seed, profile_text,
          std::to_string(reuploads) +
              " container re-upload(s) despite the disk tier");
  }
  // The survivor directory never serves checksum-failing bytes: everything
  // a fresh store will return verifies against its content hash.
  {
    svc::StoreOptions verify_options;
    verify_options.disk_dir = store_dir;
    svc::SkeletonStore verify(verify_options);
    const std::uint64_t hash = archive::fingerprint64(upload);
    const std::optional<std::string> bytes = verify.get(hash);
    if (bytes.has_value()) {
      check(archive::fingerprint64(*bytes) == hash, seed, profile_text,
            "the store served bytes that fail their content hash");
    }
    check(verify.stats().verify_failures == 0 || !bytes.has_value() ||
              archive::fingerprint64(*bytes) == hash,
          seed, profile_text, "quarantine did not isolate corrupt entries");
  }

  result.requests = static_cast<std::uint64_t>(total);
  for (const svc::RetryStats& stats : client_stats) {
    result.retries += stats.retries;
    result.reconnects += stats.connects;
    result.replays_by_hash += stats.replays_by_hash;
    result.reuploads += stats.reuploads;
  }
  result.health_probes_ok = health_ok.load();
  const svc::ChaosStats chaos_stats = chaos.stats();
  for (std::size_t site = 0; site < svc::kChaosSiteCount; ++site) {
    result.injected_total += chaos_stats.injected[site];
  }
  return result;
}

std::vector<std::uint64_t> parse_seeds(const std::string& text) {
  std::vector<std::uint64_t> seeds;
  std::stringstream in(text);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (token.empty()) continue;
    seeds.push_back(std::stoull(token));
  }
  util::require(!seeds.empty(), "--seeds: no seeds in '" + text + "'");
  return seeds;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Cli cli(argc, argv);
    cli.require_known({"seeds", "profile", "clients", "requests", "restart",
                       "failing-out", "metrics-out", "quick"});
    const bool quick = cli.get_bool("quick", false);
    std::vector<std::uint64_t> seeds =
        parse_seeds(cli.get("seeds", "1,2,3,4,5"));
    if (quick && seeds.size() > 2) seeds.resize(2);
    const std::string profile = cli.get("profile", "heavy");
    const int clients = static_cast<int>(cli.get_int("clients", 4));
    const int per_client =
        static_cast<int>(cli.get_int("requests", quick ? 8 : 24));
    const bool restart = cli.get_bool("restart", true);
    const std::string failing_out =
        cli.get("failing-out", "ext_chaos_failing.txt");
    util::require(clients > 0, "--clients must be positive");
    util::require(per_client > 0, "--requests must be positive");
    svc::parse_chaos_profile(profile);  // fail fast on a bad profile

    std::printf("=== Extension: chaos soak ===\n");
    std::printf("profile %s, %zu seed(s), %d client(s) x %d request(s), "
                "restart %s\n\n",
                profile.c_str(), seeds.size(), clients, per_client,
                restart ? "on" : "off");

    const std::string upload = make_upload();
    // The chaos-free reference answer every soak response must match.
    std::vector<double> expected_values;
    {
      svc::Service reference;
      svc::Request request;
      request.header = make_header(1, upload);
      reference.submit(std::move(request));
      const std::vector<svc::ResponseHeader> responses = reference.drain();
      util::require(responses.size() == 1 &&
                        responses[0].status == svc::StatusCode::kOk,
                    "reference prediction failed");
      expected_values = responses[0].values;
    }

    SoakResult total;
    for (const std::uint64_t seed : seeds) {
      try {
        const SoakResult one = soak_one_seed(seed, profile, clients,
                                             per_client, restart, upload,
                                             expected_values);
        std::printf("seed %llu: %llu ok, %llu retry(ies), %llu connect(s), "
                    "%llu hash replay(s), %llu fault(s) injected\n",
                    static_cast<unsigned long long>(seed),
                    static_cast<unsigned long long>(one.requests),
                    static_cast<unsigned long long>(one.retries),
                    static_cast<unsigned long long>(one.reconnects),
                    static_cast<unsigned long long>(one.replays_by_hash),
                    static_cast<unsigned long long>(one.injected_total));
        total.requests += one.requests;
        total.retries += one.retries;
        total.reconnects += one.reconnects;
        total.replays_by_hash += one.replays_by_hash;
        total.reuploads += one.reuploads;
        total.health_probes_ok += one.health_probes_ok;
        total.evil_connections += one.evil_connections;
        total.injected_total += one.injected_total;
      } catch (const SoakFailure& failure) {
        std::ofstream out(failing_out);
        out << "seed=" << failure.seed << "\n"
            << "profile=" << failure.profile << "\n"
            << "failure=" << failure.what << "\n";
        std::fprintf(stderr,
                     "ext_chaos: FAILED at seed %llu (profile %s): %s\n"
                     "ext_chaos: failing schedule -> %s\n",
                     static_cast<unsigned long long>(failure.seed),
                     failure.profile.c_str(), failure.what.c_str(),
                     failing_out.c_str());
        return 1;
      }
    }

    if (restart) {
      // Durability pass: the same soak under network-only chaos, where the
      // disk tier is fault-free -- the restart must serve primed skeletons
      // from disk without a single container re-upload.
      try {
        const SoakResult durable = soak_one_seed(
            seeds.front(), "network", clients, per_client, true, upload,
            expected_values);
        std::printf("durability: restart served %llu hash replay(s) from "
                    "disk, 0 re-upload(s)\n",
                    static_cast<unsigned long long>(durable.replays_by_hash));
        total.requests += durable.requests;
        total.replays_by_hash += durable.replays_by_hash;
      } catch (const SoakFailure& failure) {
        std::ofstream out(failing_out);
        out << "seed=" << failure.seed << "\n"
            << "profile=" << failure.profile << "\n"
            << "failure=" << failure.what << "\n";
        std::fprintf(stderr, "ext_chaos: durability pass FAILED: %s\n",
                     failure.what.c_str());
        return 1;
      }
    }

    std::printf("\nall seeds: %llu request(s) answered exactly once, "
                "%llu injected fault(s), %llu evil connection(s), "
                "0 re-upload(s)\n",
                static_cast<unsigned long long>(total.requests),
                static_cast<unsigned long long>(total.injected_total),
                static_cast<unsigned long long>(total.evil_connections));

    const std::string metrics_out = cli.get("metrics-out", "");
    if (!metrics_out.empty()) {
      obs::MetricsRegistry metrics;
      metrics.counter("bench.chaos.seeds")
          .add(static_cast<double>(seeds.size()));
      metrics.counter("bench.chaos.requests")
          .add(static_cast<double>(total.requests));
      metrics.counter("bench.chaos.retries")
          .add(static_cast<double>(total.retries));
      metrics.counter("bench.chaos.reconnects")
          .add(static_cast<double>(total.reconnects));
      metrics.counter("bench.chaos.replays_by_hash")
          .add(static_cast<double>(total.replays_by_hash));
      metrics.counter("bench.chaos.reuploads")
          .add(static_cast<double>(total.reuploads));
      metrics.counter("bench.chaos.health_probes_ok")
          .add(static_cast<double>(total.health_probes_ok));
      metrics.counter("bench.chaos.injected")
          .add(static_cast<double>(total.injected_total));
      metrics.counter("bench.chaos.answered_exactly_once").add(1.0);
      std::ofstream out(metrics_out);
      util::require(out.good(), "cannot open " + metrics_out);
      out << metrics.to_kv(0.0);
      std::printf("metrics -> %s\n", metrics_out.c_str());
    }
    return 0;
  } catch (const ConfigError& error) {
    std::fprintf(stderr, "ext_chaos: %s\n", error.what());
    return 2;
  } catch (const psk::Error& error) {
    std::fprintf(stderr, "ext_chaos: %s\n", error.what());
    return 1;
  }
}
