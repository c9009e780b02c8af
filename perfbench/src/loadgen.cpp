// The `serve` workload's open-loop load generator: one process, a few
// client connections to a cmetile-serve daemon, a seeded request mix sent
// at a fixed offered rate.
//
//   1. Prefill: send the base requests (distinct fingerprints) and wait
//      for every reply, so the warm path has answers to hit; then print
//      READY on stdout.
//   2. Open loop: every slot has a due time; it is sent when due whatever
//      the replies are doing, and its latency runs from the due time, so a
//      late generator shows up as lag (reported), never as hidden delay.
//      The mix is warm repeats (Zipf over the prefilled fingerprints), cold
//      fresh fingerprints, and coalescable twins: a copy of a cold request
//      sent on another connection in the same instant.
//   3. Checks after the loop: twins got byte-identical responses, and a
//      seeded sample of ok replies equals an in-process core::optimize.
//
// Cold and base requests use OptimizerOptions::shrink_for_smoke().

#include <poll.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <random>

#include "common.hpp"
#include "kernels/kernels.hpp"
#include "serve/wire.hpp"
#include "support/rng.hpp"
#include "sweep/protocol.hpp"
#include "sweep/request_json.hpp"
#include "sweep/result_cache.hpp"
#include "sweep/transport.hpp"

namespace perfbench {

namespace {

enum class Class { Warm, Cold, Twin, Base };

const char* to_string(Class c) {
  switch (c) {
    case Class::Warm: return "warm";
    case Class::Cold: return "cold";
    case Class::Twin: return "twin";
    case Class::Base: return "base";
  }
  return "?";
}

/// Kernel x kind shapes the base and cold requests cycle through.
std::vector<std::pair<std::string, core::OptimizeKind>> request_shapes() {
  std::vector<std::pair<std::string, core::OptimizeKind>> shapes;
  for (const kernels::KernelSpec& spec : kernels::registry())
    for (const core::OptimizeKind kind :
         {core::OptimizeKind::Tiling, core::OptimizeKind::Padding, core::OptimizeKind::Joint})
      shapes.emplace_back(spec.name, kind);
  return shapes;
}

core::OptimizeRequest shaped_request(const std::pair<std::string, core::OptimizeKind>& shape,
                                     std::uint64_t ga_seed) {
  const kernels::KernelSpec spec = *kernels::find_kernel(shape.first);
  core::OptimizerOptions options;
  options.shrink_for_smoke();
  options.ga.seed = ga_seed;
  options.objective.estimator.seed = derive_seed(ga_seed, 0xE57);
  return core::OptimizeRequest{shape.second,
                               kernels::build_kernel(spec.name, spec.sized ? spec.default_size : 0),
                               {},
                               cache::Hierarchy::single(cache::CacheConfig{8 * 1024, 32, 1}),
                               options};
}

/// One request on the wire.
struct Sent {
  Class cls = Class::Warm;
  std::size_t request = 0;  ///< index into the request table
  std::size_t conn = 0;
  double due = 0.0;         ///< seconds since the loop origin
  double sent = -1.0;
  double replied = -1.0;
  bool ok = false;
  std::string line;  ///< raw reply, kept only where a check needs it
  bool keep_line = false;
};

/// The {"id":N,"ok":... prefix of a reply line, without a full parse.
bool scan_reply(std::string_view line, i64& id, bool& ok) {
  const std::size_t at = line.find("\"id\":");
  if (at == std::string_view::npos) return false;
  id = std::strtoll(line.data() + at + 5, nullptr, 10);
  ok = line.find("\"ok\":true") != std::string_view::npos;
  return true;
}

std::string_view response_bytes(std::string_view line) {
  const std::size_t at = line.find("\"response\":");
  return at == std::string_view::npos ? std::string_view{} : line.substr(at);
}

struct Connection {
  std::unique_ptr<sweep::Channel> channel;
  std::string buffer;
  bool open = true;
};

class Generator {
 public:
  Generator(std::vector<Connection>& conns, std::vector<Sent>& sent)
      : conns_(conns), sent_(sent) {}

  void send(std::size_t id, const std::string& line, Clock::time_point origin) {
    sent_[id].sent = seconds_since(origin);
    if (!conns_[sent_[id].conn].channel->send_line(line)) sent_[id].sent = -2.0;
  }

  /// Wait up to `timeout_s` for replies and stamp them. Returns false once
  /// every connection has reached EOF (the daemon exits after its last
  /// reply; replies still buffered on other connections are read first).
  bool pump(double timeout_s, Clock::time_point origin) {
    std::vector<pollfd> fds;
    for (const Connection& c : conns_)
      fds.push_back(pollfd{c.open ? c.channel->read_fd() : -1, POLLIN, 0});
    timespec ts{(time_t)timeout_s, (long)((timeout_s - std::floor(timeout_s)) * 1e9)};
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) return any_open();
    char chunk[65536];
    for (std::size_t c = 0; c < fds.size(); ++c) {
      if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      const long n = conns_[c].channel->read_some(chunk, sizeof chunk);
      if (n == 0) conns_[c].open = false;
      if (n <= 0) continue;
      const double now = seconds_since(origin);
      std::string& buffer = conns_[c].buffer;
      buffer.append(chunk, (std::size_t)n);
      std::size_t begin = 0, newline;
      while ((newline = buffer.find('\n', begin)) != std::string::npos) {
        const std::string_view line(buffer.data() + begin, newline - begin);
        i64 id = -1;
        bool ok = false;
        if (scan_reply(line, id, ok) && id >= 0 && (std::size_t)id < sent_.size() &&
            sent_[id].replied < 0) {
          Sent& s = sent_[id];
          s.replied = now;
          s.ok = ok;
          if (s.keep_line || !ok) s.line = std::string(line);
          ++replies_;
        }
        begin = newline + 1;
      }
      buffer.erase(0, begin);
    }
    return any_open();
  }

  bool any_open() const {
    return std::any_of(conns_.begin(), conns_.end(), [](const Connection& c) { return c.open; });
  }

  std::size_t replies() const { return replies_; }

 private:
  std::vector<Connection>& conns_;
  std::vector<Sent>& sent_;
  std::size_t replies_ = 0;
};

}  // namespace

/// Client connections of the one generator process.
constexpr std::size_t kConnections = 4;
/// Ok replies re-solved in-process after the loop: half warm, half cold.
constexpr std::size_t kVerify = 8;

int run_loadgen(const CliArgs& args) {
  const std::string connect = args.get("daemon", "");
  const std::uint64_t seed = (std::uint64_t)required_int(args, "seed");
  const std::string out_path = args.get("out", "");
  const double rate = required_double(args, "rate");
  const std::size_t count = (std::size_t)required_int(args, "count");
  const std::size_t prefill = (std::size_t)required_int(args, "prefill");
  const bool prefill_only = args.get_bool("prefill-only", false);
  const std::string codec_dir = args.get("codec-dir", "");
  if (connect.empty() || (out_path.empty() && !prefill_only))
    throw std::runtime_error("--daemon=H:P and --out=FILE are required");

  // -- The request table: base (prefilled) requests, then cold ones. ------
  // The shapes are cycled in one fixed shuffled order, so every seed
  // prefills the same shapes and sends each cold shape equally often; the
  // seed varies the GA seeds, the mix order and the warm picks.
  const auto shapes = request_shapes();
  std::vector<std::size_t> shape_order(shapes.size());
  for (std::size_t i = 0; i < shape_order.size(); ++i) shape_order[i] = i;
  std::shuffle(shape_order.begin(), shape_order.end(), std::mt19937_64(0x5EA7));
  std::mt19937_64 rng(seed);

  const std::size_t warm_n = (std::size_t)std::llround(0.85 * (double)count);
  const std::size_t cold_n = (std::size_t)std::llround(0.10 * (double)count);
  const std::size_t twin_n = std::min(cold_n, count - warm_n - cold_n);
  std::vector<core::OptimizeRequest> requests;
  for (std::size_t i = 0; i < prefill + cold_n; ++i) {
    const auto& shape = shapes[shape_order[i % shapes.size()]];
    requests.push_back(shaped_request(shape, derive_seed(seed, i, 0x5E7)));
  }

  // -- Slots: base requests first (untimed), then the open-loop mix. ------
  std::vector<Sent> sent;
  for (std::size_t i = 0; i < prefill; ++i)
    sent.push_back(Sent{Class::Base, i, i % kConnections});
  std::vector<Class> mix(warm_n, Class::Warm);
  mix.insert(mix.end(), cold_n, Class::Cold);
  std::shuffle(mix.begin(), mix.end(), rng);
  std::vector<bool> twinned(cold_n, false);
  std::fill(twinned.begin(), twinned.begin() + (std::ptrdiff_t)twin_n, true);
  std::shuffle(twinned.begin(), twinned.end(), rng);
  // Zipf(1) over the prefilled fingerprints for warm repeats.
  std::vector<double> zipf_cdf(prefill);
  double zipf_total = 0.0;
  for (std::size_t r = 0; r < prefill; ++r) zipf_cdf[r] = (zipf_total += 1.0 / (double)(r + 1));
  std::uniform_real_distribution<double> unit(0.0, zipf_total);

  const double duration = (double)count / rate;
  const double slot_gap = duration / (double)mix.size();
  std::size_t next_cold = 0, conn = 0;
  for (std::size_t k = 0; k < mix.size(); ++k) {
    const double due = (double)k * slot_gap;
    if (mix[k] == Class::Warm) {
      const std::size_t rank =
          (std::size_t)(std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), unit(rng)) -
                        zipf_cdf.begin());
      sent.push_back(Sent{Class::Warm, std::min(rank, prefill - 1), conn, due});
    } else {
      const std::size_t request = prefill + next_cold;
      sent.push_back(Sent{Class::Cold, request, conn, due});
      if (twinned[next_cold]) sent.push_back(Sent{Class::Twin, request, (conn + 1) % kConnections, due});
      ++next_cold;
    }
    conn = (conn + 1) % kConnections;
  }
  // Keep the raw reply lines the checks need: cold and twin replies, and a
  // seeded sample of warm ones for the in-process comparison.
  std::vector<std::size_t> warm_ids;
  for (std::size_t id = 0; id < sent.size(); ++id) {
    if (sent[id].cls == Class::Warm) warm_ids.push_back(id);
    else sent[id].keep_line = true;
  }
  std::shuffle(warm_ids.begin(), warm_ids.end(), rng);
  for (std::size_t i = 0; i < std::min(kVerify / 2, warm_ids.size()); ++i)
    sent[warm_ids[i]].keep_line = true;
  std::vector<std::string> lines(sent.size());
  for (std::size_t id = 0; id < sent.size(); ++id)
    lines[id] = sweep::job_line((i64)id, requests[sent[id].request]);

  // -- Connect and prefill. ----------------------------------------------
  std::vector<Connection> conns;
  for (std::size_t c = 0; c < kConnections; ++c) {
    std::unique_ptr<sweep::Channel> channel = sweep::connect_channel(connect, 30.0);
    if (channel == nullptr || !channel->send_line(sweep::client_hello_line()))
      throw std::runtime_error("cannot connect to " + connect);
    conns.push_back(Connection{std::move(channel), {}});
  }
  Generator generator(conns, sent);
  Clock::time_point origin = Clock::now();
  for (std::size_t id = 0; id < prefill; ++id) generator.send(id, lines[id], origin);
  const double prefill_deadline = 120.0;
  while (generator.replies() < prefill && seconds_since(origin) < prefill_deadline) {
    if (!generator.pump(0.05, origin)) break;
  }
  for (std::size_t id = 0; id < prefill; ++id)
    if (!sent[id].ok) throw std::runtime_error("prefill request " + std::to_string(id) + " failed");
  std::cout << "READY" << std::endl;
  if (prefill_only) return 0;

  // -- The open loop. ------------------------------------------------------
  origin = Clock::now();
  std::size_t next = prefill;
  const double deadline = duration + 90.0;
  bool alive = true;
  while (alive && generator.replies() < sent.size() && seconds_since(origin) < deadline) {
    const double now = seconds_since(origin);
    for (; next < sent.size() && sent[next].due <= now; ++next)
      generator.send(next, lines[next], origin);
    const double wait = next < sent.size() ? std::max(0.0, sent[next].due - seconds_since(origin))
                                           : 0.05;
    alive = generator.pump(std::min(wait, 0.05), origin);
  }
  for (Connection& c : conns) c.channel->shutdown();

  // -- Checks. -------------------------------------------------------------
  i64 failed = 0;
  std::size_t missing = 0;
  for (std::size_t id = prefill; id < sent.size(); ++id) {
    if (sent[id].replied < 0) ++missing;
    else if (!sent[id].ok) std::cerr << "loadgen: request " << id << " failed: " << sent[id].line << "\n";
  }
  if (missing > 0) {
    std::cerr << "loadgen: " << missing << " requests got no reply\n";
    failed += (i64)missing;
  }
  // Twins: byte-identical responses to their cold original.
  std::size_t twins = 0, twin_mismatch = 0;
  for (std::size_t id = prefill + 1; id < sent.size(); ++id) {
    if (sent[id].cls != Class::Twin) continue;
    const Sent& a = sent[id - 1];
    const Sent& b = sent[id];
    ++twins;
    if (!a.ok || !b.ok || response_bytes(a.line).empty() ||
        response_bytes(a.line) != response_bytes(b.line)) {
      ++twin_mismatch;
      std::cerr << "loadgen: twin " << id << " differs from request " << id - 1 << "\n";
    }
  }
  failed += (i64)twin_mismatch;
  // Sampled ok replies (half cold, half warm) against in-process answers;
  // the CME cut over every ok cold reply.
  std::vector<std::size_t> cold_ids;
  std::vector<double> cold_cut;
  for (std::size_t id = prefill; id < sent.size(); ++id) {
    if (sent[id].cls != Class::Cold || !sent[id].ok) continue;
    cold_ids.push_back(id);
    const std::optional<serve::Reply> reply = serve::reply_of_line(sent[id].line);
    if (reply && reply->response && reply->response->before.weighted_cost > 0.0)
      cold_cut.push_back(1.0 - reply->response->after.weighted_cost /
                                   reply->response->before.weighted_cost);
  }
  std::shuffle(cold_ids.begin(), cold_ids.end(), rng);
  const std::size_t cold_sample = std::min(kVerify - kVerify / 2, cold_ids.size());
  std::vector<std::size_t> sample(cold_ids.begin(),
                                  cold_ids.begin() + (std::ptrdiff_t)cold_sample);
  for (std::size_t id = prefill; id < sent.size(); ++id)
    if (sent[id].cls == Class::Warm && sent[id].keep_line && sent[id].ok) sample.push_back(id);
  std::size_t verify_failures = 0;
  for (const std::size_t id : sample) {
    const std::optional<serve::Reply> reply = serve::reply_of_line(sent[id].line);
    const core::OptimizeRequest& request = requests[sent[id].request];
    const core::OptimizeResponse local = core::optimize(request);
    std::string error;
    if (!reply || !reply->response) error = "reply does not decode";
    else if (outcome_signature(*reply->response) != outcome_signature(local))
      error = "served answer differs from in-process core::optimize";
    else error = check_answer(request, *reply->response);
    if (!error.empty()) {
      ++verify_failures;
      std::cerr << "loadgen: request " << id << ": " << error << "\n";
    }
  }
  failed += (i64)verify_failures;

  sweep::Json doc = sweep::Json::object();
  sweep::Json classes = sweep::Json::array(), oks = sweep::Json::array();
  std::vector<double> due_s, sent_s, replied_s;
  for (std::size_t id = prefill; id < sent.size(); ++id) {
    const Sent& s = sent[id];
    classes.push(sweep::Json::string(to_string(s.cls)));
    oks.push(sweep::Json::boolean(s.ok));
    due_s.push_back(s.due);
    sent_s.push_back(s.sent);
    replied_s.push_back(s.replied);
  }
  doc.set("class", std::move(classes));
  doc.set("ok", std::move(oks));
  doc.set("due_s", json_of_doubles(due_s));
  doc.set("sent_s", json_of_doubles(sent_s));
  doc.set("replied_s", json_of_doubles(replied_s));
  doc.set("twins", sweep::Json::integer((i64)twins));
  doc.set("verified", sweep::Json::integer((i64)sample.size()));
  doc.set("cold_cut", json_of_doubles(cold_cut));
  doc.set("failed", sweep::Json::integer(failed));

  if (!codec_dir.empty()) {
    // Codec and result-cache layer timings over the prefilled requests and
    // their served responses (the exact bytes the warm path forwards).
    std::vector<double> encode_us, decode_us, store_us, load_us;
    const sweep::ResultCache store(codec_dir);
    for (int round = 0; round < 20; ++round) {
      for (std::size_t id = 0; id < prefill; ++id) {
        const core::OptimizeRequest& request = requests[sent[id].request];
        Clock::time_point t0 = Clock::now();
        const std::string canonical = sweep::json_of_request(request).dump();
        const sweep::Fingerprint fp = sweep::fingerprint_of(request);
        encode_us.push_back(1e6 * seconds_since(t0));
        (void)canonical;
        const std::optional<serve::Reply> reply = serve::reply_of_line(sent[id].line);
        if (!reply || !reply->response) continue;
        const std::string payload = sweep::json_of_response(*reply->response).dump();
        t0 = Clock::now();
        const std::optional<sweep::Json> parsed = sweep::Json::parse(payload);
        const bool decoded = parsed && sweep::response_of_json(*parsed).has_value();
        decode_us.push_back(1e6 * seconds_since(t0));
        if (!decoded) ++failed;
        t0 = Clock::now();
        store.store_json(fp, payload);
        store_us.push_back(1e6 * seconds_since(t0));
        t0 = Clock::now();
        const std::optional<std::string> loaded = store.load_json(fp);
        load_us.push_back(1e6 * seconds_since(t0));
        if (loaded != payload) ++failed;
      }
    }
    sweep::Json codec = sweep::Json::object();
    codec.set("request_encode_us", json_of_doubles(encode_us));
    codec.set("response_decode_us", json_of_doubles(decode_us));
    codec.set("cache_store_us", json_of_doubles(store_us));
    codec.set("cache_load_us", json_of_doubles(load_us));
    doc.set("codec", std::move(codec));
    doc.set("failed", sweep::Json::integer(failed));
  }
  return write_json(out_path, doc) ? 0 : 1;
}

}  // namespace perfbench
