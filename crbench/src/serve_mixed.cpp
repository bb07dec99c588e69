// serve-mixed: independent tenants sending to an in-process server with two
// shards over one connection. Set-up starts the server and warms its shards'
// session caches with the most popular configs. A latency phase then sends
// on a seeded Poisson schedule at a fixed offered rate (open loop: a job is
// timed from when it was due, so a stall also charges the jobs queued
// behind it); a separate saturation phase keeps a fixed number of jobs in
// flight to find capacity.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <map>
#include <thread>

#include "attack/spectre.hpp"
#include "core/corpus.hpp"
#include "core/job.hpp"
#include "hid/detector.hpp"
#include "layers.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace crbench {

using namespace crs;

namespace {

constexpr double kOfferedRate = 120.0;  ///< jobs/s in the latency phase
constexpr std::size_t kShards = 2;
/// More configs than the shards' session caches hold (2 x 8), so the
/// popularity tail misses.
constexpr std::size_t kConfigs = 40;
constexpr double kZipf = 0.8;
/// Jobs the saturation phase keeps in flight.
constexpr std::uint64_t kInFlight = 64;
/// Equal time slices of the saturation phase: capacity is their median
/// rate, and traced runs trace every other one.
constexpr std::size_t kWindows = 7;
/// Set-up repetitions (fresh server each); the last one serves the phases.
constexpr int kSetups = 5;

/// The seeded job mix: mostly single-attempt standalone scenario jobs over
/// kConfigs configs with Zipf popularity, some tiny program jobs, a few
/// small campaign jobs. Kinds come in shuffled blocks with fixed counts,
/// and popularity rank r always gets variant r % 4 and shard r % kShards,
/// so the seed changes identities, jitter and order but not the mix's cost
/// or its balance across shards.
class Mix {
 public:
  Mix(std::uint64_t seed, bool tiny) : rng_(sub_seed(seed, 1)) {
    const auto variants = attack::all_variants();
    const std::size_t n = tiny ? 6 : kConfigs;
    for (std::uint64_t salt = 0; configs_.size() < n; ++salt) {
      core::JobSpec probe;
      probe.kind = core::JobKind::kScenario;
      core::ScenarioConfig& c = probe.scenario.config;
      c.rop_injected = false;
      c.variant = variants[configs_.size() % variants.size()];
      c.host_scale = 2000 + salt;  // session identity
      c.seed = sub_seed(seed, 1000 + salt);
      if (shard_of(probe) != configs_.size() % kShards) continue;
      configs_.push_back(c);
    }
    double total = 0.0;
    for (std::size_t r = 0; r < configs_.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipf);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
    // Campaign jobs keep fixed sizes and seeds, so their cost (which sets
    // the head-of-line blocking in the tail) does not vary with the seed;
    // the seed only picks their routing identity.
    for (std::uint64_t salt = sub_seed(seed, 3) % 1000;
         campaigns_.size() < kShards; ++salt) {
      core::JobSpec spec;
      spec.kind = core::JobKind::kCampaign;
      auto& cc = spec.campaign.config;
      cc.scenario.rop_injected = false;
      cc.scenario.host_scale = 1500;
      cc.scenario.seed = salt;  // routing identity only: the campaign reseeds
      cc.attempts = 3;
      cc.seed = 2000 + campaigns_.size();
      spec.campaign.corpus_windows = 60;
      if (shard_of(spec) == campaigns_.size() % kShards) {
        campaigns_.push_back(spec);
      }
    }
  }

  /// One single-attempt scenario job for each of the `n` most popular
  /// configs, ids from `first_id`.
  std::vector<core::JobSpec> most_popular(std::size_t n,
                                          std::uint64_t first_id) const {
    std::vector<core::JobSpec> out;
    for (std::size_t r = 0; r < std::min(n, configs_.size()); ++r) {
      core::JobSpec spec;
      spec.kind = core::JobKind::kScenario;
      spec.scenario.config = configs_[r];
      spec.scenario.attempts = 1;
      spec.id = first_id + r;
      out.push_back(spec);
    }
    return out;
  }

  /// Every distinct job the mix can send (ids 0).
  std::vector<core::JobSpec> distinct() const {
    std::vector<core::JobSpec> out = most_popular(configs_.size(), 0);
    for (std::uint64_t k = 0; k < kProgramSizes; ++k) {
      out.push_back(program_job(k));
    }
    for (core::JobSpec spec : campaigns_) {
      spec.id = 0;
      out.push_back(spec);
    }
    return out;
  }

  /// The next job of the mix; without `campaigns`, campaign jobs are
  /// skipped.
  core::JobSpec next(std::uint64_t id, bool campaigns = true) {
    if (block_.empty()) {
      // 400 jobs: 345 scenario, 54 program, 1 campaign.
      block_.assign(345, core::JobKind::kScenario);
      block_.insert(block_.end(), 54, core::JobKind::kProgram);
      block_.push_back(core::JobKind::kCampaign);
      for (std::size_t i = block_.size(); i > 1; --i) {
        std::swap(block_[i - 1], block_[rng_.next_below(i)]);
      }
    }
    const core::JobKind kind = block_.back();
    block_.pop_back();
    if (kind == core::JobKind::kCampaign && !campaigns) {
      return next(id, campaigns);
    }
    core::JobSpec spec;
    if (kind == core::JobKind::kCampaign) {
      spec = campaigns_[campaign_count_++ % campaigns_.size()];
    } else if (kind == core::JobKind::kProgram) {
      spec = program_job(rng_.next_below(kProgramSizes));
    } else {
      const double v = rng_.next_double();
      std::size_t r = 0;
      while (r + 1 < cdf_.size() && cdf_[r] < v) ++r;
      spec.kind = core::JobKind::kScenario;
      spec.scenario.config = configs_[r];
      spec.scenario.attempts = 1;
    }
    spec.id = id;
    return spec;
  }

 private:
  static constexpr std::uint64_t kProgramSizes = 8;

  /// A tiny counting-loop program job; `k` picks its length.
  static core::JobSpec program_job(std::uint64_t k) {
    core::JobSpec spec;
    spec.kind = core::JobKind::kProgram;
    spec.program.source = "main:\n  movi r1, 0\n  movi r2, " +
                          std::to_string(2000 + 1000 * k) +
                          "\nloop:\n  add r1, r1, r2\n  addi r2, r2, -1\n"
                          "  bnez r2, loop\n  call exit_\n";
    return spec;
  }

  static std::size_t shard_of(const core::JobSpec& spec) {
    return static_cast<std::size_t>(core::job_affinity_key(spec) % kShards);
  }

  Rng rng_;
  std::vector<core::ScenarioConfig> configs_;  ///< by popularity rank
  std::vector<double> cdf_;
  std::vector<core::JobSpec> campaigns_;
  std::size_t campaign_count_ = 0;
  std::vector<core::JobKind> block_;
};

std::string spec_key(core::JobSpec spec) {
  spec.id = 0;
  return core::serialize_job(spec);
}

struct Outcome {
  bool done = false;
  bool ok = false;
  std::string status;
  std::uint64_t payload_hash = 0;
  double recv_s = 0.0;
};

std::uint64_t hash_of(const std::string& payload) {
  return Digest().str(payload).value();
}

/// One connection shared by the sending thread and a receiving thread
/// (submit only writes the socket, next_event only reads it).
class Tenant {
 public:
  explicit Tenant(std::uint16_t port)
      : client_(serve::Client::connect_tcp(port)),
        receiver_([this] { receive(); }) {}
  ~Tenant() {
    bool wake = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closing_ = true;
      wake = !broken_;
    }
    // A PONG unblocks the receiver's read so it can see closing_.
    if (wake) {
      try {
        client_.ping();
      } catch (const std::exception&) {
      }
    }
    receiver_.join();
  }
  Tenant(const Tenant&) = delete;
  Tenant& operator=(const Tenant&) = delete;

  void submit(const core::JobSpec& spec) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++sent_;
    }
    client_.submit(spec);
  }

  /// Blocks until fewer than `n` submitted jobs lack a terminal frame.
  void wait_in_flight_below(std::uint64_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return sent_ - finished_ < n || broken_; });
  }

  /// Blocks until every submitted job has a terminal frame.
  void drain() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return finished_ == sent_ || broken_; });
  }

  std::map<std::uint64_t, Outcome> outcomes() {
    std::lock_guard<std::mutex> lock(mutex_);
    return outcomes_;
  }

 private:
  void receive() {
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (closing_ && finished_ == sent_) return;
      }
      serve::Client::Event ev;
      try {
        ev = client_.next_event();
      } catch (const std::exception&) {
        std::lock_guard<std::mutex> lock(mutex_);
        broken_ = true;
        cv_.notify_all();
        return;
      }
      if (ev.type != serve::FrameType::kResult &&
          ev.type != serve::FrameType::kRejected) {
        continue;
      }
      const double t = now_s();
      std::lock_guard<std::mutex> lock(mutex_);
      Outcome& o = outcomes_[ev.id];
      o.done = true;
      o.recv_s = t;
      o.ok = ev.type == serve::FrameType::kResult && ev.status == "ok";
      o.status = ev.type == serve::FrameType::kResult ? ev.status
                                                      : "rejected:" + ev.reason;
      o.payload_hash = hash_of(ev.payload);
      ++finished_;
      cv_.notify_all();
    }
  }

  serve::Client client_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::uint64_t, Outcome> outcomes_;
  std::uint64_t sent_ = 0;
  std::uint64_t finished_ = 0;
  bool closing_ = false;
  bool broken_ = false;
  std::thread receiver_;  // last: started after the members it uses
};

serve::ServeConfig serve_config() {
  serve::ServeConfig c;
  c.shards = static_cast<int>(kShards);
  c.queue_capacity = 4096;
  c.tcp_port = 0;
  return c;
}

/// Expected payload hash per job (keyed by spec_key).
using Expected = std::map<std::string, std::uint64_t>;

/// One set-up: server construction, first PONG, the warm-up jobs until
/// their last RESULT, then the oracle's expected payloads (in-process
/// core::run_job of every distinct job the mix can send). Returns seconds;
/// every warm-up job must come back ok.
double time_setup(std::unique_ptr<serve::Server>& server,
                  const std::vector<core::JobSpec>& warmup,
                  const std::vector<core::JobSpec>& distinct,
                  Expected& expected, Report& report) {
  const auto t0 = Clock::now();
  server = std::make_unique<serve::Server>(serve_config());
  server->start();
  serve::Client c = serve::Client::connect_tcp(server->port());
  c.ping();
  while (c.next_event().type != serve::FrameType::kPong) {
  }
  for (const core::JobSpec& spec : warmup) c.submit(spec);
  std::size_t ok = 0;
  for (std::size_t done = 0; done < warmup.size();) {
    const serve::Client::Event ev = c.next_event();
    if (ev.type != serve::FrameType::kResult &&
        ev.type != serve::FrameType::kRejected) {
      continue;
    }
    ++done;
    if (ev.type == serve::FrameType::kResult && ev.status == "ok") ++ok;
  }
  expected.clear();
  for (const core::JobSpec& spec : distinct) {
    expected[spec_key(spec)] = hash_of(core::run_job(spec).payload);
  }
  const double s = elapsed_ms(t0) / 1e3;
  report.check(ok == warmup.size(),
               fmt("set-up warm-up: %zu of %zu jobs ok", ok, warmup.size()));
  return s;
}

}  // namespace

void run_serve_workload(const RunOptions& o, Report& report) {
  if (o.trace) time_first_baselines({core::ScenarioConfig{}});

  // Set-up: server construction, first PONG, a warm-up that fills both
  // shards' session caches with the most popular configs, and the oracle's
  // expected payloads; repeated on fresh servers (the first repetition also
  // pays the process's cold builds), the last server serves the phases.
  Mix mix(o.seed, o.tiny);
  const serve::ServeConfig scfg = serve_config();
  const std::vector<core::JobSpec> warmup = mix.most_popular(
      scfg.session_cache_capacity * kShards, std::uint64_t{1} << 40);
  const std::vector<core::JobSpec> distinct = mix.distinct();
  std::unique_ptr<serve::Server> server;
  std::vector<double> setup_s;
  Expected expected, first;
  for (int i = 0; i < (o.trace || o.tiny ? 1 : kSetups); ++i) {
    if (server) server->shutdown(true);
    setup_s.push_back(time_setup(server, warmup, distinct, expected, report));
    if (i == 0) first = expected;
  }
  report.check(expected == first,
               "in-process run_job gives the same payloads every set-up");
  report.set("setup_s", median(setup_s), "s", setup_s.size(),
             fmt("server start, first PONG, %zu warm-up jobs and the "
                 "oracle's %zu in-process jobs, median",
                 warmup.size(), distinct.size()));

  MemoDelta memo;
  std::vector<core::JobSpec> sent;
  std::vector<double> due_s, send_s;
  const double t_lat = o.tiny ? 0.5 : 0.6 * o.seconds;
  const double t_sat = o.tiny ? 0.2 : 0.4 * o.seconds;
  std::size_t latency_jobs = 0;
  double sat0 = 0.0, sat1 = 0.0;  // saturation phase, first to last send
  // Derived queue waits need the round trip measured after the phases.
  std::vector<std::pair<double, std::string>> latency_by_key;
  std::map<std::string, double> service_ms;
  {
    Tenant tenant(server->port());
    // Latency phase: Poisson arrivals at the fixed offered rate.
    Rng arrivals(sub_seed(o.seed, 2));
    std::vector<double> schedule;
    for (double t = 0.0;;) {
      t += -std::log(1.0 - arrivals.next_double()) / kOfferedRate;
      if (t >= t_lat) break;
      schedule.push_back(t);
    }
    const double origin = now_s() + 0.01;
    for (const double at : schedule) {
      const core::JobSpec spec = mix.next(sent.size());
      const double due = origin + at;
      // Spin rather than sleep: a sleeping generator's wake-up latency would
      // be charged to the job as lateness.
      while (now_s() < due) {
      }
      send_s.push_back(now_s());
      due_s.push_back(due);
      tenant.submit(spec);
      sent.push_back(spec);
    }
    tenant.drain();
    latency_jobs = sent.size();

    // Saturation phase: a closed loop that keeps kInFlight jobs queued, so
    // both shards stay busy. It sends the mix without its campaign jobs: a
    // campaign job fans its attempts out on a pool of its own, and two
    // overlapping ones put eight more busy threads on the machine, which
    // made capacity and peak memory swing between runs. The phase is split
    // into kWindows equal time slices; traced runs trace every other one.
    const double slice_s = t_sat / kWindows;
    const auto slice_of = [&](double t) {
      return std::min(kWindows - 1, static_cast<std::size_t>((t - sat0) /
                                                             slice_s));
    };
    const auto traced_slice = [&](std::size_t k) {
      return o.trace && k % 2 == 1;
    };
    sat0 = now_s();
    for (double t = sat0; t - sat0 < t_sat; t = now_s()) {
      Tracer::instance().set_enabled(traced_slice(slice_of(t)));
      tenant.wait_in_flight_below(kInFlight);
      const core::JobSpec spec = mix.next(sent.size(), false);
      send_s.push_back(now_s());
      due_s.push_back(send_s.back());
      tenant.submit(spec);
      sent.push_back(spec);
    }
    sat1 = now_s();
    tenant.drain();
    Tracer::instance().set_enabled(o.trace);

    // Oracle: every job accepted and ok, with a payload byte-identical to
    // in-process core::run_job of the same spec (compared by hash).
    const auto outcomes = tenant.outcomes();
    if (o.trace) {
      // Service time in-process, cold (first use on this thread) then warm,
      // for every distinct job sent.
      for (const core::JobSpec& spec : sent) {
        const std::string key = spec_key(spec);
        if (service_ms.count(key) != 0) continue;
        const std::string metric =
            "core.run_job_ms." + core::job_kind_name(spec.kind);
        for (int rep = 0; rep < 2; ++rep) {
          const auto t0 = Clock::now();
          const std::uint64_t h = hash_of(
              timed(metric, [&] { return core::run_job(spec); }).payload);
          service_ms[key] = elapsed_ms(t0);
          report.check(h == expected[key],
                       "in-process run_job repeats the set-up's payload");
        }
      }
    }
    if (o.plant_fault && !sent.empty()) expected[spec_key(sent[0])] ^= 1;

    std::vector<double> latency_ms;
    std::map<std::string, std::vector<double>> latency_by_kind;
    Digest digest;
    std::map<std::string, int> kinds;
    for (std::size_t id = 0; id < sent.size(); ++id) {
      const auto it = outcomes.find(id);
      const bool arrived = it != outcomes.end() && it->second.done;
      const bool ok = arrived && it->second.ok &&
                      expected.count(spec_key(sent[id])) != 0 &&
                      it->second.payload_hash ==
                          expected.at(spec_key(sent[id]));
      report.check(ok, fmt("job %zu (%s): %s", id,
                           core::job_kind_name(sent[id].kind).c_str(),
                           !arrived ? "no terminal frame"
                           : !it->second.ok ? it->second.status.c_str()
                                            : "payload differs from run_job"));
      if (!arrived) continue;
      if (id < latency_jobs) {
        const double ms = (it->second.recv_s - due_s[id]) * 1e3;
        latency_ms.push_back(ms);
        latency_by_kind[core::job_kind_name(sent[id].kind)].push_back(ms);
        samples().add("serve.generator_late_ms",
                      (send_s[id] - due_s[id]) * 1e3);
        if (o.trace) {
          Tracer::instance().record("serve.job", due_s[id],
                                    it->second.recv_s, id);
          latency_by_key.emplace_back(ms, spec_key(sent[id]));
        }
        digest.u64(id).str(core::job_kind_name(sent[id].kind))
            .u64(it->second.payload_hash);
        ++kinds[core::job_kind_name(sent[id].kind)];
      }
    }
    latency_by_kind["all"] = latency_ms;
    for (const auto& [kind, xs] : latency_by_kind) {
      report.info(fmt("latency phase %-8s n=%-5zu p50 %7.3f  p75 %7.3f  "
                      "p90 %7.3f  p95 %7.3f  p99 %7.3f ms",
                      kind.c_str(), xs.size(), median(xs), percentile(xs, 75),
                      percentile(xs, 90), percentile(xs, 95),
                      percentile(xs, 99)));
    }
    std::string mix_line = "latency-phase job mix:";
    for (const auto& [k, n] : kinds) mix_line += fmt(" %s=%d", k.c_str(), n);
    report.digest(mix_line);
    report.digest("latency-phase served payload digest: " + digest.hex());
    report.digest("The simulator's timing model has not been validated against "
                  "hardware; simulated cycles are model outputs.");

    // Completions per saturation slice; traced slices also get a span per
    // job, from send to RESULT.
    std::vector<double> done(kWindows, 0.0);
    for (std::size_t id = latency_jobs; id < sent.size(); ++id) {
      const auto it = outcomes.find(id);
      if (it == outcomes.end() || !it->second.done) continue;
      const double recv = it->second.recv_s;
      if (recv >= sat0 && recv < sat1) done[slice_of(recv)] += 1.0;
      if (traced_slice(slice_of(send_s[id]))) {
        Tracer::instance().record("serve.job", send_s[id], recv, id);
      }
    }
    const double last_s = sat1 - sat0 - slice_s * (kWindows - 1);
    std::vector<double> rates;
    double sat_jobs = 0.0;
    for (std::size_t k = 0; k < kWindows; ++k) {
      rates.push_back(done[k] / (k + 1 < kWindows ? slice_s : last_s));
      sat_jobs += done[k];
    }
    if (!o.trace) {
      const Tail t = tail(latency_ms);
      report.set("ops_per_s", median(rates), "1/s",
                 static_cast<std::size_t>(sat_jobs),
                 fmt("capacity_jobs_per_s: saturation-phase completion "
                     "rate, median of %zu windows (overall %.1f)",
                     rates.size(), sat_jobs / (sat1 - sat0)));
      report.set("op_ms_p50", median(latency_ms), "ms", latency_ms.size(),
                 fmt("job_ms_p50: scheduled send to RESULT at %.0f jobs/s",
                     kOfferedRate));
      report.info(fmt("tail (reported, not bounded): job_ms_p%.0f = %.3f ms "
                      "over %zu jobs",
                      t.pct, t.value, latency_ms.size()));
      const auto late = samples().get("serve.generator_late_ms");
      report.info(fmt("generator lateness p95: %.3f ms", percentile(late, 95)));
    } else {
      // Traced slices against untraced ones: mean completion rate, and the
      // share of traced time that no job span covers.
      double traced_rate = 0.0, untraced_rate = 0.0, traced_s = 0.0;
      double unattributed_s = 0.0;
      std::size_t n_traced = 0;
      const auto spans = Tracer::instance().spans();
      for (std::size_t k = 0; k + 1 < kWindows; ++k) {
        if (!traced_slice(k)) {
          untraced_rate += rates[k];
          continue;
        }
        traced_rate += rates[k];
        ++n_traced;
        const double a = sat0 + slice_s * k, b = a + slice_s;
        std::vector<Span> in_slice;
        for (const Span& sp : spans) {
          if (sp.end_s > a && sp.start_s < b) in_slice.push_back(sp);
        }
        traced_s += slice_s;
        unattributed_s += slice_s * unattributed_frac(in_slice, a, b);
      }
      const std::size_t n_untraced = kWindows - 1 - n_traced;
      samples().add("trace.overhead_frac",
                    (untraced_rate / n_untraced) / (traced_rate / n_traced) -
                        1.0);
      samples().add("trace.unattributed_frac", unattributed_s / traced_s);
    }
  }

  // Admission ledger after a draining shutdown.
  server->shutdown(true);
  const serve::ServeStats st = server->stats();
  const std::size_t expected_received = sent.size() + warmup.size();
  report.check(st.received == expected_received &&
                   st.received == st.accepted + st.rejected &&
                   st.accepted == st.completed + st.cancelled,
               fmt("Server::stats reconcile: received %llu (sent %zu), "
                   "accepted %llu, rejected %llu, completed %llu, "
                   "cancelled %llu",
                   static_cast<unsigned long long>(st.received),
                   expected_received,
                   static_cast<unsigned long long>(st.accepted),
                   static_cast<unsigned long long>(st.rejected),
                   static_cast<unsigned long long>(st.completed),
                   static_cast<unsigned long long>(st.cancelled)));
  samples().add("serve.rejected", static_cast<double>(st.rejected));
  samples().add("serve.completed", static_cast<double>(st.completed));
  if (!o.trace) return;
  memo.commit();

  // Anatomy: round trips, codec cost per sent spec, replays of the first
  // two scenario jobs.
  {
    serve::Server probe(serve_config());
    probe.start();
    serve::Client c = serve::Client::connect_tcp(probe.port());
    for (int i = 0; i < 20; ++i) samples().add("serve.rtt_us", ping_ms(c));
    probe.shutdown(true);
  }
  for (std::size_t i = 0; i < std::min<std::size_t>(sent.size(), 200); ++i) {
    const double ms = codec_ms(sent[i]);
    report.check(ms >= 0, "codec round trip of job " + std::to_string(i));
    if (ms >= 0) samples().add("serve.codec_us", ms);
  }
  // Derived, not measured: latency - in-process warm service - round trip.
  const double rtt_ms = median(samples().get("serve.rtt_us"));
  for (const auto& [ms, key] : latency_by_key) {
    samples().add("serve.queue_wait_ms", ms - service_ms[key] - rtt_ms);
  }
  // The campaign jobs' defender, built and fitted as run_campaign_job does
  // it, and its scoring of one of the campaign's attempts.
  for (const core::JobSpec& spec : sent) {
    if (spec.kind != core::JobKind::kCampaign) continue;
    const core::CampaignConfig& cc = spec.campaign.config;
    core::CorpusConfig ccfg;
    ccfg.windows_per_class = spec.campaign.corpus_windows;
    ccfg.secret = cc.scenario.secret;
    ccfg.seed = spec.campaign.corpus_seed;
    ml::Dataset train;
    timed("core.corpus_s", [&] {
      train = core::build_benign_corpus(ccfg);
      train.append_all(core::build_attack_corpus(ccfg));
      return 0;
    });
    hid::HidDetector detector(cc.detector);
    timed("ml.fit_s." + cc.detector.classifier, [&] {
      detector.fit(train);
      return 0;
    });
    core::ScenarioConfig sc = cc.scenario;
    sc.seed = cc.seed;
    core::ScenarioRun run;
    reference_attempt("campaign-job", sc, cc.seed * 7919 + 1, &run);
    timed("hid.score_ms",
          [&] { return detector.detection_rate(run.attack_windows); });
    break;
  }
  int replays = 0;
  for (const core::JobSpec& spec : sent) {
    if (spec.kind != core::JobKind::kScenario || replays >= 2) continue;
    const auto& cfg = spec.scenario.config;
    const std::string label =
        fmt("scenario-job-%llu", static_cast<unsigned long long>(spec.id));
    replay_attempt(reference_attempt(label, cfg, cfg.seed), report);
    ++replays;
  }
}

}  // namespace crbench
