// neurobench — the repository benchmark (see ../README.md).
//
//   neurobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload in this process through the public API neurod and the
// trainers use, checks its outputs, and prints a metrics table followed by
// one JSON line: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set; with --trace 1 a separate,
// instrumented run reports the per-layer set.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "core/network.hpp"
#include "core/parallel_trainer.hpp"
#include "data/dataset.hpp"
#include "loadgen.hpp"
#include "loihi/chip.hpp"
#include "obs/timer.hpp"
#include "online/engine.hpp"
#include "runtime/compiled_model.hpp"
#include "runtime/model_spec.hpp"
#include "stats.hpp"

using namespace neuro;
using perfbench::now_us;

namespace {

// ---- results ---------------------------------------------------------------

struct MetricDef {
    const char* name;
    const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"rss_mb", "MB"},
    {"p50_us", "us"},
};

// Every per-layer metric, reported by every workload's traced run; a layer
// a workload does not run reports 0.
const std::vector<MetricDef> kPerLayer = {
    // workload-level results: the tail of the end-to-end sample, then the
    // results that only some workloads have
    {"p90_us", "us"}, {"p99_us", "us"},
    {"p50_us.low", "us"}, {"p99_us.low", "us"},
    {"p50_us.high", "us"}, {"p99_us.high", "us"},
    {"slo_rps", "1/s"}, {"error_rate", "ratio"},
    {"update_lag_ms", "ms"}, {"learned_accuracy", "ratio"},
    {"train_sps", "1/s"}, {"accuracy", "ratio"},
    // loihi
    {"loihi.predict_us", "us"}, {"loihi.train_us", "us"},
    {"loihi.sweep_ns_per_comp", "ns"}, {"loihi.accum_ns_per_synop", "ns"},
    {"loihi.comp_updates_per_req", "count"}, {"loihi.synops_per_req", "count"},
    {"loihi.spikes_per_req", "count"},
    // runtime
    {"runtime.compile_ms", "ms"}, {"runtime.open_sessions_ms", "ms"},
    {"runtime.publish_us", "us"}, {"runtime.weight_bytes", "B"},
    // serve
    {"serve.server_p50_us", "us"}, {"serve.sojourn_p50_us", "us"},
    {"serve.sojourn_p99_us", "us"}, {"serve.mean_batch", "count"},
    {"serve.peak_queue_depth", "count"}, {"serve.shed", "count"},
    {"serve.codel_dropped", "count"}, {"serve.deadline_dropped", "count"},
    {"serve.feedback_dropped", "count"}, {"serve.weight_refreshes", "count"},
    // netd
    {"netd.wire_us", "us"}, {"netd.encode_us", "us"}, {"netd.decode_us", "us"},
    {"netd.bytes_per_req", "B"}, {"netd.frames_in", "count"},
    {"netd.responses_out", "count"},
    // online
    {"online.feedback_seen", "count"}, {"online.trained", "count"},
    {"online.candidates", "count"}, {"online.published", "count"},
    {"online.rollbacks", "count"}, {"online.errors", "count"},
    // core
    {"core.epoch_s", "s"}, {"core.evaluate_s", "s"},
    {"core.parallel_eff", "ratio"}, {"core.weight_checksum", "count"},
    // client (validity of the load generator)
    {"client.gen_lag_p99_us", "us"}, {"client.sent", "count"},
    {"client.ok", "count"}, {"client.failed", "count"},
    {"client.low.sent", "count"}, {"client.low.ok", "count"},
    {"client.low.failed", "count"}, {"client.low.gen_lag_p99_us", "us"},
    {"client.high.sent", "count"}, {"client.high.ok", "count"},
    {"client.high.failed", "count"}, {"client.high.gen_lag_p99_us", "us"},
    {"client.ladder.sent", "count"}, {"client.ladder.ok", "count"},
    {"client.ladder.failed", "count"},
    {"client.ladder.gen_lag_p99_us", "us"},
    // obs
    {"obs.trace_tax", "ratio"}, {"trace.coverage", "ratio"},
};

struct Result {
    bool trace = false;
    bool correct = true;
    std::vector<std::string> problems;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> values;

    void set(const std::string& name, double v) { values[name] = v; }
    void fail(const std::string& why) {
        correct = false;
        problems.push_back(why);
    }
};

/// Peak resident memory of this process image. VmHWM, not getrusage():
/// ru_maxrss carries the pre-exec high-water mark of the process that
/// forked us, so under a larger parent it reports the parent's RSS.
double peak_rss_mb() {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (!f) return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof(line), f))
        if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    std::fclose(f);
    return kib / 1024.0;
}

std::string fmt(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

/// Prints the table (every metric with its unit) and the JSON result line.
void emit(const std::string& workload, const Result& r) {
    const auto& defs = r.trace ? kPerLayer : kEndToEnd;
    std::printf("# workload %s (%s run)\n", workload.c_str(),
                r.trace ? "traced" : "untraced");
    for (const auto& p : r.problems) std::printf("# FAILED: %s\n", p.c_str());
    std::string json = "{\"correct\": ";
    json += r.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.attempted);
    json += ", \"failed\": " + std::to_string(r.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto& d : defs) {
        const auto it = r.values.find(d.name);
        const double v = it == r.values.end() ? 0.0 : it->second;
        std::printf("%-34s %16s %s\n", d.name, fmt(v).c_str(), d.unit);
        if (!first) json += ", ";
        first = false;
        json += common::json_quote(d.name) + ": {\"value\": " + fmt(v) +
                ", \"unit\": " + common::json_quote(d.unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

// ---- shared helpers --------------------------------------------------------

std::vector<common::Tensor> images_of(const data::Dataset& d) {
    std::vector<common::Tensor> out;
    out.reserve(d.size());
    for (const auto& s : d.samples) out.push_back(s.image);
    return out;
}

data::Dataset digits(std::size_t count, std::uint64_t seed, std::size_t side) {
    data::GenOptions gen;
    gen.count = count;
    gen.seed = seed;
    gen.height = side;
    gen.width = side;
    return data::make_digits(gen);
}

/// Deterministic per-run stream seeds derived from the workload seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
    std::uint64_t s = seed * 0x9E3779B97F4A7C15ULL + salt;
    return common::splitmix64(s);
}

std::uint32_t checksum(const runtime::WeightSnapshot& w) {
    std::uint32_t h = 2166136261u;  // FNV-1a over the little-endian words
    for (const auto& layer : w.layers)
        for (const std::int32_t v : layer)
            for (int b = 0; b < 4; ++b) {
                h ^= static_cast<std::uint32_t>(v >> (8 * b)) & 0xffu;
                h *= 16777619u;
            }
    return h;
}

std::size_t weight_bytes(const runtime::WeightSnapshot& w) {
    std::size_t n = 0;
    for (const auto& layer : w.layers) n += layer.size() * sizeof(std::int32_t);
    return n;
}

template <typename F>
double time_us(F&& f) {
    const double t0 = now_us();
    f();
    return now_us() - t0;
}

/// Standalone kernel probe on `model`: per-call predict/train latency with
/// the phase timers off, then — timers on — the sweep and accumulation cost
/// per unit of work from Session::kernel_phases() ÷ activity() deltas, and
/// the exact activity counts per request (a predict, or a train sample when
/// `per_train` is set).
void probe_kernel(const runtime::CompiledModel& model,
                  const data::Dataset& samples, bool per_train, Result& r) {
    const std::size_t n = std::min<std::size_t>(samples.size(), 128);
    auto s = model.open_session();
    for (std::size_t i = 0; i < 16; ++i) s->predict(samples.samples[i % n].image);
    std::vector<double> pred, train;
    for (std::size_t i = 0; i < n; ++i)
        pred.push_back(time_us([&] { s->predict(samples.samples[i].image); }));
    auto t = model.open_session();
    for (std::size_t i = 0; i < n; ++i)
        train.push_back(time_us([&] {
            t->train(samples.samples[i].image, samples.samples[i].label);
        }));
    r.set("loihi.predict_us", perfbench::median(pred));
    r.set("loihi.train_us", perfbench::median(train));

    // Counts per request on a fresh session: exact and seed-determined.
    auto c = model.open_session();
    const loihi::ActivityTotals before = *c->activity();
    obs::set_timing(true);
    const loihi::KernelPhaseTimes k0 = *c->kernel_phases();
    for (std::size_t i = 0; i < n; ++i) {
        if (per_train)
            c->train(samples.samples[i].image, samples.samples[i].label);
        else
            c->predict(samples.samples[i].image);
    }
    const loihi::KernelPhaseTimes k1 = *c->kernel_phases();
    obs::set_timing(false);
    const loihi::ActivityTotals after = *c->activity();
    const double comps =
        static_cast<double>(after.compartment_updates - before.compartment_updates);
    const double synops =
        static_cast<double>(after.synaptic_ops - before.synaptic_ops);
    const double spikes = static_cast<double>(after.spikes - before.spikes);
    r.set("loihi.comp_updates_per_req", comps / static_cast<double>(n));
    r.set("loihi.synops_per_req", synops / static_cast<double>(n));
    r.set("loihi.spikes_per_req", spikes / static_cast<double>(n));
    r.set("loihi.sweep_ns_per_comp",
          comps > 0 ? static_cast<double>(k1.sweep_ns - k0.sweep_ns) / comps : 0.0);
    r.set("loihi.accum_ns_per_synop",
          synops > 0 ? static_cast<double>(k1.accum_ns - k0.accum_ns) / synops
                     : 0.0);
}

/// Median time of CompiledModel::publish_weights on a private model.
void probe_publish(const runtime::ModelSpec& spec, Result& r) {
    auto model = runtime::CompiledModel::compile(spec);
    const auto w = model->initial_weights();
    std::vector<double> t;
    for (int i = 0; i < 64; ++i)
        t.push_back(time_us([&] { model->publish_weights(w); }));
    r.set("runtime.publish_us", perfbench::median(t));
    r.set("runtime.weight_bytes", static_cast<double>(weight_bytes(w)));
}

// ---- serving workloads -----------------------------------------------------

struct ServingConfig {
    std::size_t side = 16;
    std::size_t hidden = 100;
    std::int32_t phase_length = 64;
    double low_rps = 0.0;
    double high_rps = 0.0;
    std::vector<double> ladder;      ///< fixed rates, ascending
};

/// Generator limit: a fixed-rate phase whose p99 send lateness exceeds this
/// did not offer the load it claims, and the run is invalid. Set above the
/// scheduler's own wake-up jitter on small VMs (a plain 1 ms sleep there
/// overshoots by about 1 ms at p99 and 5 ms at p99.9).
constexpr double kGenLagLimitUs = 10'000.0;
/// Exit code of a run that finished but failed a correctness check.
constexpr int kExitIncorrect = 3;
/// Set-up repetitions per run, each after an untimed pause. Set-up takes
/// about a millisecond (learn_serve: 40 ms), and back-to-back repetitions
/// all land in the same fast or slow stretch of the host: the run medians
/// of 15 or 41 of them spread by 0.45-0.56 IQR/median over 8 seeds. Spread
/// over four seconds, the median of 81 spread by 0.12-0.13 on infer_paper
/// and learn_serve (10 seeds).
constexpr int kSetupReps = 81;
constexpr auto kSetupPause = std::chrono::milliseconds(50);
constexpr std::size_t kPool = 256;       ///< distinct request images
constexpr std::size_t kHoldout = 64;     ///< learn_serve shadow-eval set
/// learn_serve: the learner offers a candidate every this many samples.
constexpr std::size_t kPublishInterval = 32;
/// learn_serve's feedback rate: a quarter of the learner's capacity. Each
/// feedback sample costs the learner two Session::train calls (the sample
/// and one replay draw) plus its share of a candidate's shadow evaluation,
/// kHoldout predicts per kPublishInterval samples: 2 x 2.4 ms + 64 x 0.78 ms
/// / 32, about 6.4 ms, or 160 samples/s (loihi.train_us, loihi.predict_us
/// and online.trained / online.feedback_seen of the traced run).
constexpr double kFeedbackRps = 40.0;
/// slo_rps limits: p99 latency and error_rate a ladder step may reach.
constexpr perfbench::SloLimits kSlo = {25'000.0, 0.001};
/// Fewest samples a reported p99 rests on (ten beyond it, the percentile
/// rule), with a margin for the Poisson count of a phase.
constexpr double kP99Samples = 1200.0;

runtime::ModelSpec serving_spec(const ServingConfig& c) {
    runtime::ModelSpec spec;
    spec.input(1, c.side, c.side).hidden_layers({c.hidden}).output_classes(10);
    spec.options.phase_length = c.phase_length;
    return spec;
}

struct PhaseStats {
    perfbench::ErrorCounts err;
    std::uint64_t ok = 0;
    std::vector<double> latency;  ///< Ok predicts, from due time, send order
    std::vector<double> gen_lag;
    double gen_lag_p99 = 0.0;
};

/// Classifies one phase's predict outcomes. `label_ok(i, outcome)` says
/// whether an Ok label is right.
template <typename LabelOk>
PhaseStats classify(const std::vector<perfbench::Planned>& plan,
                    const std::vector<perfbench::Outcome>& out,
                    LabelOk&& label_ok) {
    PhaseStats s;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        if (plan[i].feedback) continue;
        const auto& o = out[i];
        ++s.err.sent;
        if (o.start_us > 0.0) s.gen_lag.push_back(o.gen_lag());
        if (!o.answered) {
            ++s.err.missing;
            continue;
        }
        using neuro::netd::WireStatus;
        if (o.status == WireStatus::Error) {
            ++s.err.errors;
        } else if (o.status == WireStatus::Rejected) {
            const auto why = static_cast<serve::RejectReason>(o.reject_reason);
            if (why == serve::RejectReason::QueueFull ||
                why == serve::RejectReason::Shutdown)
                ++s.err.shed;
            else
                ++s.err.dropped;
        } else if (!label_ok(i, o)) {
            ++s.err.wrong;
        } else {
            ++s.ok;
            s.latency.push_back(o.latency_from_due());
        }
    }
    s.gen_lag_p99 = perfbench::percentile(s.gen_lag, 99.0);
    return s;
}

void report_phase(const char* name, double rate, const PhaseStats& s) {
    const auto sum = perfbench::summarize(s.latency);
    std::printf(
        "# phase %-8s %7.0f rps: sent %llu ok %llu failed %llu "
        "(shed %llu drop %llu err %llu missing %llu wrong %llu) "
        "p50 %.0f p90 %.0f p99 %.0f us, p%.4g %.0f us (n=%zu), "
        "gen_lag_p99 %.0f us\n",
        name, rate, static_cast<unsigned long long>(s.err.sent),
        static_cast<unsigned long long>(s.ok),
        static_cast<unsigned long long>(s.err.failed()),
        static_cast<unsigned long long>(s.err.shed),
        static_cast<unsigned long long>(s.err.dropped),
        static_cast<unsigned long long>(s.err.errors),
        static_cast<unsigned long long>(s.err.missing),
        static_cast<unsigned long long>(s.err.wrong), sum.p50,
        perfbench::percentile(s.latency, 90.0),
        perfbench::percentile(s.latency, 99.0), sum.tail_pct, sum.tail, sum.n,
        s.gen_lag_p99);
}

/// A running serving stack: model, neurod, and (learn_serve) the learner.
struct Stack {
    std::shared_ptr<const runtime::CompiledModel> model;
    std::unique_ptr<perfbench::Daemon> daemon;
    std::unique_ptr<online::OnlineEngine> engine;
    double compile_ms = 0.0;
    double open_ms = 0.0;
    double setup_s = 0.0;

    ~Stack() {
        if (daemon) daemon->shutdown();
        if (engine) engine->stop();
    }
};

std::unique_ptr<Stack> build_stack(const ServingConfig& c,
                                   const data::Dataset* holdout,
                                   std::uint64_t seed, int ordinal) {
    auto st = std::make_unique<Stack>();
    const double t0 = now_us();
    st->model = runtime::CompiledModel::compile(serving_spec(c));
    const double t1 = now_us();
    st->daemon = std::make_unique<perfbench::Daemon>(
        st->model, holdout ? 256 : 0,
        "perfbench-" + std::to_string(::getpid()) + "-" +
            std::to_string(ordinal) + ".sock");
    st->open_ms = st->daemon->open_ms();
    if (holdout) {
        online::OnlineOptions oopt;
        oopt.publish_interval = kPublishInterval;
        oopt.seed = seed;
        oopt.recorder = &obs::default_recorder();
        st->engine = std::make_unique<online::OnlineEngine>(
            st->model, st->daemon->router().feedback_queue(), *holdout, oopt);
        st->engine->start();
    }
    st->setup_s = (now_us() - t0) / 1e6;
    st->compile_ms = (t1 - t0) / 1e3;
    return st;
}

/// Set up kSetupReps times (all but the last torn down again) and keep the
/// last; the reported set-up figures are medians over the repetitions.
std::unique_ptr<Stack> setup_median(const ServingConfig& c,
                                    const data::Dataset* holdout,
                                    std::uint64_t seed, Result& r) {
    std::vector<double> setup, compile, open;
    std::unique_ptr<Stack> st;
    for (int i = 0; i < kSetupReps; ++i) {
        st.reset();
        std::this_thread::sleep_for(kSetupPause);
        st = build_stack(c, holdout, seed, i);
        setup.push_back(st->setup_s);
        compile.push_back(st->compile_ms);
        open.push_back(st->open_ms);
    }
    r.set("setup_s", perfbench::median(setup));
    r.set("runtime.compile_ms", perfbench::median(compile));
    r.set("runtime.open_sessions_ms", perfbench::median(open));
    return st;
}

/// Tracks weight versions the learner publishes so every served label can
/// be checked against a standalone predict under a version that was live
/// while the request was in flight.
class VersionLog {
public:
    explicit VersionLog(const runtime::CompiledModel& model) : model_(model) {
        seen_.push_back({0, 0.0, nullptr});
    }
    void poll() {
        const auto cur = model_.published_weights();
        if (cur->version != seen_.back().version)
            seen_.push_back({cur->version, now_us(), cur});
    }
    /// Indices of versions possibly live during [start, end]: the one seen
    /// last at or before `start` through the last seen by `end` plus the
    /// polling slack.
    std::pair<std::size_t, std::size_t> window(double start, double end) const {
        std::size_t lo = 0, hi = 0;
        for (std::size_t i = 0; i < seen_.size(); ++i) {
            if (seen_[i].seen_us <= start) lo = i;
            if (seen_[i].seen_us <= end + kSlackUs) hi = i;
        }
        return {lo, hi};
    }
    /// Reference label of `image` under version index `v` (memoized).
    std::size_t label(std::size_t v, std::uint32_t image,
                      const std::vector<common::Tensor>& images) {
        const auto key = std::make_pair(v, image);
        if (const auto it = memo_.find(key); it != memo_.end()) return it->second;
        if (!session_ || loaded_ != v) {
            session_ = model_.open_session();
            if (seen_[v].weights) session_->load_weights(seen_[v].weights->snapshot);
            loaded_ = v;
        }
        const std::size_t l = session_->predict(images[image]);
        memo_[key] = l;
        return l;
    }

private:
    static constexpr double kSlackUs = 5000.0;
    struct Seen {
        std::uint64_t version;
        double seen_us;
        std::shared_ptr<const runtime::WeightVersion> weights;
    };
    const runtime::CompiledModel& model_;
    std::vector<Seen> seen_;
    std::map<std::pair<std::size_t, std::uint32_t>, std::size_t> memo_;
    std::unique_ptr<runtime::Session> session_;
    std::size_t loaded_ = 0;
};

struct ServingRun {
    const ServingConfig& cfg;
    std::uint64_t seed;
    double seconds;
    Result& r;
    bool learn = false;
};

void set_phase_client(Result& r, const char* prefix, const PhaseStats& s) {
    const std::string p = std::string("client.") + prefix;
    r.set(p + ".sent", static_cast<double>(s.err.sent));
    r.set(p + ".ok", static_cast<double>(s.ok));
    r.set(p + ".failed", static_cast<double>(s.err.failed()));
    r.set(p + ".gen_lag_p99_us", s.gen_lag_p99);
}

/// The predict/feedback schedule of a learn_serve phase: Poisson predicts
/// at `rate`, plus feedback frames evenly spaced at kFeedbackRps continuing
/// the labeled stream at `*next_feedback` (stream images follow the pool's
/// in the client's image table).
std::vector<perfbench::Planned> learn_schedule(
    double rate, double seconds, std::uint64_t seed,
    const data::Dataset& stream, std::size_t* next_feedback) {
    auto plan = perfbench::poisson_schedule(rate, seconds, kPool, seed);
    const auto n_fb = static_cast<std::size_t>(kFeedbackRps * seconds);
    for (std::size_t k = 0; k < n_fb; ++k) {
        perfbench::Planned p;
        p.due_us = (static_cast<double>(k) + 0.5) / kFeedbackRps * 1e6;
        p.feedback = true;
        const std::size_t idx = *next_feedback % stream.size();
        p.image = static_cast<std::uint32_t>(kPool + idx);
        p.label = static_cast<std::uint32_t>(stream.samples[idx].label);
        ++*next_feedback;
        plan.push_back(p);
    }
    std::stable_sort(plan.begin(), plan.end(),
                     [](const perfbench::Planned& a, const perfbench::Planned& b) {
                         return a.due_us < b.due_us;
                     });
    return plan;
}

int run_serving(const std::string& workload, const ServingRun& run) {
    const ServingConfig& c = run.cfg;
    Result& r = run.r;
    const double S = run.seconds;

    // Inputs from the seed: the request pool, and for learn_serve a labeled
    // feedback stream and a held-out shadow-eval set.
    const data::Dataset pool = digits(kPool, mix(run.seed, 1), c.side);
    std::optional<data::Dataset> stream, holdout;
    if (run.learn) {
        holdout = digits(kHoldout, mix(run.seed, 2), c.side);
        const auto n_stream = static_cast<std::size_t>(
            std::max(1.0, kFeedbackRps * S * 2.0));
        stream = digits(n_stream, mix(run.seed, 3), c.side);
    }
    // Request images: the pool, then (learn_serve) the feedback stream.
    std::vector<common::Tensor> images = images_of(pool);
    if (stream)
        for (const auto& s : stream->samples) images.push_back(s.image);

    auto stack = setup_median(c, holdout ? &*holdout : nullptr, run.seed, r);
    r.set("rss_mb", 0.0);  // filled at the end (peak)

    // Reference labels for the frozen model, from a standalone session.
    std::vector<std::size_t> ref(kPool);
    {
        auto s = stack->model->open_session();
        for (std::size_t i = 0; i < kPool; ++i) ref[i] = s->predict(images[i]);
    }

    perfbench::OpenLoopClient client(stack->daemon->path(), &images,
                                     [&] { stack->daemon->abort(); });
    VersionLog versions(*stack->model);
    auto noop = [] {};
    std::uint64_t phase_salt = 100;

    auto frozen_ok = [&](const std::vector<perfbench::Planned>& plan) {
        return [&plan, &ref](std::size_t i, const perfbench::Outcome& o) {
            return o.label == ref[plan[i].image];
        };
    };

    // Warm-up: caches, page faults, the first batches; not reported.
    {
        const auto plan = perfbench::poisson_schedule(
            c.low_rps, std::min(1.0, S * 0.05), kPool, mix(run.seed, phase_salt++));
        const auto out = client.run(plan, false, noop);
        const auto ps = classify(plan, out, frozen_ok(plan));
        if (ps.err.wrong) r.fail("warm-up: wrong labels");
    }

    const auto d0 = stack->daemon->stats();
    std::uint64_t attempted = 0, failed = 0;
    // The main phase runs at `low` and gives the end-to-end latency. The
    // peak phase is the highest fixed rate the workload runs and gives
    // error_rate and the server-side view: `high` in traced infer_* runs,
    // else the main phase itself.
    PhaseStats main_phase, high_phase;
    std::vector<perfbench::Outcome> main_out, high_out;
    std::vector<perfbench::Planned> main_plan, high_plan;

    // `counted` phases add to attempted/failed. Shedding and drops near
    // the knee are what the high phase measures (error_rate), so there, as
    // on the ladder, they do not fail an operation the run must complete.
    auto check_phase = [&](const char* name, double rate, const PhaseStats& ps,
                           bool counted = true) {
        report_phase(name, rate, ps);
        if (counted) {
            attempted += ps.err.sent;
            failed += ps.err.failed();
        }
        if (ps.err.wrong) r.fail(std::string(name) + ": wrong labels");
        if (ps.err.missing) r.fail(std::string(name) + ": unanswered requests");
        if (ps.gen_lag_p99 > kGenLagLimitUs)
            r.fail(std::string(name) + ": load generator fell behind");
    };

    // learn_serve: feedback frames continue one labeled stream across
    // phases; the monitor (this thread) polls the learner for candidate
    // counts and the model for published weight versions.
    std::size_t next_fb = 0;
    std::vector<double> fb_sent, cand_seen;
    std::uint64_t cands = 0;
    auto monitor = [&] {
        versions.poll();
        const auto s = stack->engine->stats();
        while (cands < s.candidates) {
            ++cands;
            cand_seen.push_back(now_us());
        }
    };
    auto learn_phase = [&](const std::vector<perfbench::Planned>& plan,
                           bool traced) {
        auto out = client.run(plan, traced, monitor, 1000.0);
        // Let the learner finish everything sent, including the candidate
        // evaluation the last full interval triggers.
        const double give_up = now_us() + 30e6;
        auto wait_for = [&](auto&& done) {
            while (!done() && now_us() < give_up) {
                monitor();
                std::this_thread::sleep_for(std::chrono::microseconds(500));
            }
        };
        wait_for([&] { return stack->engine->stats().feedback_seen >= next_fb; });
        wait_for([&] { return cands >= next_fb / kPublishInterval; });
        // Every feedback frame must be accepted, in order, for the learning
        // trajectory to be the seed's.
        std::uint64_t fb_failed = 0;
        for (std::size_t i = 0; i < plan.size(); ++i) {
            if (!plan[i].feedback) continue;
            fb_sent.push_back(out[i].start_us);
            if (!out[i].answered || out[i].status != neuro::netd::WireStatus::Ok)
                ++fb_failed;
        }
        attempted += fb_sent.size();
        failed += fb_failed;
        if (fb_failed) r.fail("learn: feedback frames not accepted");
        return out;
    };
    auto learn_ok = [&](const std::vector<perfbench::Planned>& plan) {
        return [&](std::size_t i, const perfbench::Outcome& o) {
            const auto [lo, hi] = versions.window(o.start_us, o.end_us);
            for (std::size_t v = lo; v <= hi; ++v)
                if (versions.label(v, plan[i].image, images) == o.label)
                    return true;
            return false;
        };
    };

    if (!run.learn) {
        // ---- infer_*: the low rate; traced runs add the high rate and the
        // SLO ladder ---------------------------------------------------------
        // The traced low phase is long enough for its p99.
        const double low_s =
            run.r.trace ? std::max(S * 0.15, kP99Samples / c.low_rps) : S * 0.8;
        main_plan = perfbench::poisson_schedule(c.low_rps, low_s, kPool,
                                                mix(run.seed, phase_salt++));
        main_out = client.run(main_plan, false, noop);
        main_phase = classify(main_plan, main_out, frozen_ok(main_plan));
        check_phase("low", c.low_rps, main_phase);
        set_phase_client(r, "low", main_phase);

        if (run.r.trace) {
            const auto srv0 = stack->daemon->router().stats();
            high_plan = perfbench::poisson_schedule(c.high_rps, S * 0.15, kPool,
                                                    mix(run.seed, phase_salt++));
            high_out = client.run(high_plan, false, noop);
            high_phase = classify(high_plan, high_out, frozen_ok(high_plan));
            check_phase("high", c.high_rps, high_phase, false);
            set_phase_client(r, "high", high_phase);
            r.set("p50_us.high", perfbench::median(high_phase.latency));
            r.set("p99_us.high", perfbench::percentile(high_phase.latency, 99.0));
            const auto srv1 = stack->daemon->router().stats();
            r.set("serve.shed", static_cast<double>(srv1.rejected - srv0.rejected));
            r.set("serve.codel_dropped",
                  static_cast<double>(srv1.codel_dropped - srv0.codel_dropped));
            r.set("serve.deadline_dropped",
                  static_cast<double>(srv1.deadline_dropped - srv0.deadline_dropped));

            std::vector<perfbench::LadderStep> steps;
            PhaseStats ladder;
            for (const double rate : c.ladder) {
                const double step_s = std::max(S * 0.05, kP99Samples / rate);
                const auto plan = perfbench::poisson_schedule(
                    rate, step_s, kPool, mix(run.seed, phase_salt++));
                const auto out = client.run(plan, false, noop, 5000.0, 5.0);
                const auto ps = classify(plan, out, frozen_ok(plan));
                report_phase("ladder", rate, ps);
                if (ps.err.wrong) r.fail("ladder: wrong labels");
                if (ps.err.missing) r.fail("ladder: unanswered requests");
                // A failed request misses any latency limit.
                std::vector<double> lat = ps.latency;
                lat.insert(lat.end(), ps.err.failed(),
                           std::numeric_limits<double>::infinity());
                perfbench::LadderStep st;
                st.rate = rate;
                st.tail_us = perfbench::percentile(lat, 99.0);
                st.backlog = perfbench::backlog_growing(ps.latency);
                st.error_rate = ps.err.rate();
                st.generator_ok = ps.gen_lag_p99 <= kGenLagLimitUs;
                steps.push_back(st);
                ladder.err += ps.err;
                ladder.ok += ps.ok;
                ladder.gen_lag.insert(ladder.gen_lag.end(), ps.gen_lag.begin(),
                                      ps.gen_lag.end());
                if (!perfbench::step_passes(st, kSlo)) break;
            }
            ladder.gen_lag_p99 = perfbench::percentile(ladder.gen_lag, 99.0);
            set_phase_client(r, "ladder", ladder);
            r.set("slo_rps", perfbench::slo_rps(steps, kSlo));
            std::printf("# slo_rps %.0f (limit p99 <= %.0f us, error_rate <= %g)\n",
                        perfbench::slo_rps(steps, kSlo), kSlo.tail_us,
                        kSlo.max_error_rate);
        }
    } else {
        // ---- learn_serve: predicts at the low rate beside feedback --------
        main_plan = learn_schedule(c.low_rps,
                                   run.r.trace ? S * 0.4 : S * 0.8,
                                   mix(run.seed, phase_salt++), *stream,
                                   &next_fb);
        main_out = learn_phase(main_plan, false);
        main_phase = classify(main_plan, main_out, learn_ok(main_plan));
        check_phase("learn", c.low_rps, main_phase);
        set_phase_client(r, "low", main_phase);
    }

    // End-to-end latency at the low rate: the median over windows of about
    // a second (at least 200 requests) of each window's p50 / p90, so a
    // slow stretch of the machine does not set the figure.
    const auto per_window =
        static_cast<std::size_t>(std::max(200.0, c.low_rps * 1.0));
    const auto w = perfbench::windowed(main_phase.latency, per_window);
    r.set("p50_us", w.p50);
    r.set("p90_us", w.p90);
    r.set("p99_us", perfbench::percentile(main_phase.latency, 99.0));
    r.set("p50_us.low", perfbench::median(main_phase.latency));
    r.set("p99_us.low", perfbench::percentile(main_phase.latency, 99.0));
    std::printf("# main phase: %zu samples, %zu windows of %zu\n",
                main_phase.latency.size(), w.windows, w.per_window);

    // error_rate and the server-side view of the peak phase, from the
    // response frames.
    const bool has_high = !high_plan.empty();
    const auto& peak_plan = has_high ? high_plan : main_plan;
    const auto& peak_out = has_high ? high_out : main_out;
    r.set("error_rate", (has_high ? high_phase : main_phase).err.rate());
    {
        std::vector<double> server, sojourn;
        double batch = 0.0;
        for (std::size_t i = 0; i < peak_plan.size(); ++i) {
            const auto& o = peak_out[i];
            if (peak_plan[i].feedback || !o.answered) continue;
            server.push_back(static_cast<double>(o.latency_us));
            sojourn.push_back(static_cast<double>(o.sojourn_us));
            batch += o.batch;
        }
        r.set("serve.server_p50_us", perfbench::median(server));
        r.set("serve.sojourn_p50_us", perfbench::median(sojourn));
        r.set("serve.sojourn_p99_us", perfbench::percentile(sojourn, 99.0));
        r.set("serve.mean_batch",
              server.empty() ? 0.0 : batch / static_cast<double>(server.size()));
    }

    // Traced phase: v3 frames with the span echo, kernel timers on, the
    // client's codec calls timed. Same rate as the untraced reference.
    if (run.r.trace) {
        const double rate = c.low_rps;
        const double tr_s = run.learn ? S * 0.4 : S * 0.15;
        const auto plan =
            run.learn ? learn_schedule(rate, tr_s,
                                       mix(run.seed, phase_salt++), *stream,
                                       &next_fb)
                      : perfbench::poisson_schedule(rate, tr_s, kPool,
                                                    mix(run.seed, phase_salt++));
        obs::set_timing(true);
        const auto out = run.learn ? learn_phase(plan, true)
                                   : client.run(plan, true, noop);
        obs::set_timing(false);
        auto ok = [&](std::size_t i, const perfbench::Outcome& o) {
            return run.learn ? learn_ok(plan)(i, o)
                             : o.label == ref[plan[i].image];
        };
        const auto ps = classify(plan, out, ok);
        check_phase("traced", rate, ps);
        const double untraced_p50 = perfbench::median(main_phase.latency);
        const double traced_p50 = perfbench::median(ps.latency);
        r.set("obs.trace_tax", untraced_p50 > 0 ? traced_p50 / untraced_p50 : 0.0);
        double covered = 0.0, rtt = 0.0;
        std::vector<double> wire, enc, dec;
        for (const auto& o : out) {
            if (!o.answered || o.status != neuro::netd::WireStatus::Ok) continue;
            covered += static_cast<double>(o.span_sum_us) +
                       (o.encode_ns + o.decode_ns) / 1e3;
            rtt += o.rtt();
            wire.push_back(o.rtt() - static_cast<double>(o.latency_us));
            enc.push_back(o.encode_ns / 1e3);
            dec.push_back(o.decode_ns / 1e3);
        }
        r.set("trace.coverage", rtt > 0 ? covered / rtt : 0.0);
        r.set("netd.wire_us", perfbench::median(wire));
        r.set("netd.encode_us", perfbench::median(enc));
        r.set("netd.decode_us", perfbench::median(dec));
    }

    // Whole-run counters from the daemon, router and learner.
    const auto d1 = stack->daemon->stats();
    const double frames = static_cast<double>(d1.frames_in - d0.frames_in);
    r.set("netd.frames_in", static_cast<double>(d1.frames_in));
    r.set("netd.responses_out", static_cast<double>(d1.responses_out));
    r.set("netd.bytes_per_req",
          frames > 0 ? static_cast<double>((d1.bytes_in - d0.bytes_in) +
                                           (d1.bytes_out - d0.bytes_out)) /
                           frames
                     : 0.0);
    const auto srv = stack->daemon->router().stats();
    r.set("serve.peak_queue_depth", static_cast<double>(srv.peak_queue_depth));
    r.set("serve.feedback_dropped", static_cast<double>(srv.feedback_dropped));
    r.set("serve.weight_refreshes", static_cast<double>(srv.weight_refreshes));
    if (run.learn) {
        // Lag of candidate k: from the send of the (k * kPublishInterval)-th
        // feedback frame until the learner counted that candidate.
        std::vector<double> lag_ms;
        for (std::size_t k = 0; k < cand_seen.size(); ++k) {
            const std::size_t idx = (k + 1) * kPublishInterval - 1;
            if (idx < fb_sent.size())
                lag_ms.push_back((cand_seen[k] - fb_sent[idx]) / 1e3);
        }
        r.set("update_lag_ms", perfbench::median(lag_ms));
        r.set("serve.shed", static_cast<double>(srv.rejected));
        r.set("serve.codel_dropped", static_cast<double>(srv.codel_dropped));
        r.set("serve.deadline_dropped", static_cast<double>(srv.deadline_dropped));
        if (srv.feedback_dropped ||
            srv.class_codel_dropped[static_cast<std::size_t>(
                serve::Priority::Feedback)])
            r.fail("learn: feedback dropped by admission");
        const auto es = stack->engine->stats();
        r.set("online.feedback_seen", static_cast<double>(es.feedback_seen));
        r.set("online.trained", static_cast<double>(es.trained));
        r.set("online.candidates", static_cast<double>(es.candidates));
        r.set("online.published", static_cast<double>(es.published));
        r.set("online.rollbacks", static_cast<double>(es.rollbacks));
        r.set("online.errors", static_cast<double>(es.errors));
        r.set("learned_accuracy", es.last_good_accuracy);
        if (es.errors) r.fail("learn: learner errors");
        std::printf(
            "# learner: seen %llu trained %llu candidates %llu published %llu "
            "rollbacks %llu baseline %.4f learned %.4f update_lag p50 %.1f ms\n",
            static_cast<unsigned long long>(es.feedback_seen),
            static_cast<unsigned long long>(es.trained),
            static_cast<unsigned long long>(es.candidates),
            static_cast<unsigned long long>(es.published),
            static_cast<unsigned long long>(es.rollbacks), es.baseline_accuracy,
            es.last_good_accuracy, perfbench::median(lag_ms));
    }
    std::uint64_t sent = 0, ok = 0, bad = 0;
    for (const char* p : {"low", "high", "ladder"}) {
        const std::string n = std::string("client.") + p;
        sent += static_cast<std::uint64_t>(r.values[n + ".sent"]);
        ok += static_cast<std::uint64_t>(r.values[n + ".ok"]);
        bad += static_cast<std::uint64_t>(r.values[n + ".failed"]);
    }
    r.set("client.sent", static_cast<double>(sent));
    r.set("client.ok", static_cast<double>(ok));
    r.set("client.failed", static_cast<double>(bad));
    r.set("client.gen_lag_p99_us", perfbench::percentile(main_phase.gen_lag, 99.0));

    stack.reset();  // tears the daemon down before the standalone probes

    if (run.r.trace) {
        probe_kernel(*runtime::CompiledModel::compile(serving_spec(c)), pool,
                     false, r);
        probe_publish(serving_spec(c), r);
    }
    r.attempted = attempted;
    r.failed = failed;
    r.set("rss_mb", peak_rss_mb());
    emit(workload, r);
    return r.correct ? 0 : kExitIncorrect;
}

// ---- train_batch -----------------------------------------------------------

int run_train(const std::string& workload, std::uint64_t seed, double seconds,
              Result& r) {
    constexpr std::size_t kSide = 16, kEpochs = 5, kBatch = 8;
    // One core is left to the OS and the process's other threads: with a
    // trainer thread on every core, any preempted core stalls the whole
    // synchronous step, and the step latency swung by about 3x as much
    // between runs as with one core spare.
    const std::size_t cores = std::thread::hardware_concurrency();
    const std::size_t threads = std::clamp<std::size_t>(cores - 1, 1, 4);
    // Sized so the epochs take most of --seconds on a 4-core machine and
    // give well over 1000 mini-batch steps.
    const auto n_train = std::max<std::size_t>(
        160, static_cast<std::size_t>(seconds * 120.0) / kBatch * kBatch);
    const auto all = digits(n_train + 400, mix(seed, 1), kSide);
    const auto [train, test] = data::split(all, n_train);

    core::EmstdpOptions opt;  // the paper's network: 256 -> 100 -> 10, T=64
    core::ParallelOptions popt;
    popt.threads = threads;
    popt.batch = kBatch;

    std::vector<double> setup;
    std::unique_ptr<core::EmstdpNetwork> net;
    std::unique_ptr<core::ParallelTrainer> trainer;
    for (int i = 0; i < kSetupReps; ++i) {
        trainer.reset();
        net.reset();
        std::this_thread::sleep_for(kSetupPause);
        const double t0 = now_us();
        net = std::make_unique<core::EmstdpNetwork>(opt, 1, kSide, kSide,
                                                    nullptr,
                                                    std::vector<std::size_t>{100},
                                                    10);
        trainer = std::make_unique<core::ParallelTrainer>(*net, popt);
        setup.push_back((now_us() - t0) / 1e6);
    }
    r.set("setup_s", perfbench::median(setup));

    // Epochs of mini-batch steps: each step is one ParallelTrainer call on
    // one mini-batch of the epoch's seeded shuffle, timed on its own. In the
    // traced run every other step runs with the kernel timers on.
    common::Rng rng(mix(seed, 2));
    std::vector<double> steps, steps_off, steps_on, epoch_s;
    for (std::size_t e = 0; e < kEpochs; ++e) {
        data::Dataset order = train;
        order.shuffle(rng);
        std::vector<data::Dataset> chunks;
        for (std::size_t b = 0; b < order.size(); b += kBatch) {
            data::Dataset chunk;
            chunk.name = order.name;
            chunk.channels = order.channels;
            chunk.height = order.height;
            chunk.width = order.width;
            chunk.num_classes = order.num_classes;
            chunk.samples.assign(
                order.samples.begin() + static_cast<std::ptrdiff_t>(b),
                order.samples.begin() +
                    static_cast<std::ptrdiff_t>(std::min(b + kBatch, order.size())));
            chunks.push_back(std::move(chunk));
        }
        double epoch = 0.0;
        for (std::size_t k = 0; k < chunks.size(); ++k) {
            const bool timed = r.trace && (k % 2 == 1);
            if (timed) obs::set_timing(true);
            const double us = time_us([&] { trainer->train_epoch(chunks[k], rng); });
            if (timed) obs::set_timing(false);
            steps.push_back(us);
            (timed ? steps_on : steps_off).push_back(us);
            epoch += us / 1e6;
        }
        epoch_s.push_back(epoch);
    }
    double eval_s = 0.0;
    const double acc = [&] {
        const double t0 = now_us();
        const double a = trainer->evaluate(test);
        eval_s = (now_us() - t0) / 1e6;
        return a;
    }();
    const double train_total = std::accumulate(epoch_s.begin(), epoch_s.end(), 0.0);
    const double sps =
        static_cast<double>(n_train * kEpochs) / std::max(train_total, 1e-9);
    const std::uint32_t sum = checksum(runtime::WeightSnapshot{net->plastic_weights()});

    const auto w = perfbench::windowed(steps, 200);
    r.set("p50_us", w.p50);
    r.set("p90_us", w.p90);
    r.set("p99_us", perfbench::percentile(steps, 99.0));
    r.set("train_sps", sps);
    r.set("accuracy", acc);
    r.set("core.epoch_s", perfbench::median(epoch_s));
    r.set("core.evaluate_s", eval_s);
    r.set("core.weight_checksum", static_cast<double>(sum));
    std::printf("# train: %zu threads, batch %zu, %zu samples x %zu epochs, "
                "%zu steps; %.1f samples/s; accuracy %.4f; checksum %08x\n",
                trainer->threads(), kBatch, n_train, kEpochs, steps.size(), sps,
                acc, sum);
    // Chance is 0.1; a trainer that learned nothing is broken.
    if (!(acc >= 0.5)) r.fail("train: accuracy below 0.5");

    if (r.trace) {
        const double off = perfbench::median(steps_off);
        r.set("obs.trace_tax", off > 0 ? perfbench::median(steps_on) / off : 0.0);
        runtime::ModelSpec spec;
        spec.input(1, kSide, kSide).hidden_layers({100}).output_classes(10);
        probe_kernel(*runtime::CompiledModel::compile(spec), train, true, r);
        probe_publish(spec, r);
        // Serial train time x samples / (threads x epoch time).
        r.set("core.parallel_eff",
              r.values["loihi.train_us"] / 1e6 * static_cast<double>(n_train) /
                  (static_cast<double>(trainer->threads()) *
                   perfbench::median(epoch_s)));
        const double t0 = now_us();
        (void)runtime::CompiledModel::compile(spec);
        r.set("runtime.compile_ms", (now_us() - t0) / 1e3);
    }
    trainer.reset();
    net.reset();
    r.attempted = steps.size();
    r.failed = 0;
    r.set("rss_mb", peak_rss_mb());
    emit(workload, r);
    return r.correct ? 0 : kExitIncorrect;
}

// ---- workloads -------------------------------------------------------------
//
// The fixed rates are shares of each model's capacity: the lowest slo_rps of
// four traced runs (seeds 1, 2, 3, 7) on a 4-vCPU x86-64 VM, so the rates
// hold in the host's slow stretches too. The paper model reached 1600, 2000,
// 2500 and 3000 rps; the small one 25000 and, three times, the top of its
// ladder (40000). `high` is 60%, at the knee: in 10 untraced runs at that
// rate, a slow stretch of the host made CoDel drop requests in 2 runs of
// the paper model and 4 of the small one, and the paper model's p50 spread
// by 0.23 IQR/median. So `high` runs only in the traced run, where its
// drops are error_rate, and the end-to-end latency is taken at `low`, a
// tenth of capacity, where no request failed. At a quarter (400 rps),
// learn_serve lost a request to CoDel in 1 of 10 runs. The rates stay fixed
// in later runs, so a faster server shows as lower latency and fewer drops
// at the same load.
constexpr double kLowShare = 0.1;
constexpr double kHighShare = 0.6;

ServingConfig serving_config(std::size_t side, std::size_t hidden,
                             std::int32_t phase_length, double capacity_rps,
                             std::vector<double> ladder) {
    ServingConfig c;
    c.side = side;
    c.hidden = hidden;
    c.phase_length = phase_length;
    c.low_rps = kLowShare * capacity_rps;
    c.high_rps = kHighShare * capacity_rps;
    c.ladder = std::move(ladder);
    return c;
}

ServingConfig paper_config() {
    return serving_config(16, 100, 64, 1600.0,
                          {300, 500, 700, 1000, 1300, 1600, 2000, 2500, 3000,
                           3500, 4000});
}

ServingConfig small_config() {
    return serving_config(4, 16, 16, 25000.0,
                          {2000, 4000, 6000, 8000, 10000, 12000, 15000, 20000,
                           25000, 30000, 40000});
}

int usage() {
    std::fprintf(stderr,
                 "usage: neurobench --workload "
                 "<infer_paper|infer_small|learn_serve|train_batch> "
                 "--seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::strncmp(argv[i], "--", 2) != 0) return usage();
        args[argv[i] + 2] = argv[i + 1];
    }
    if (argc % 2 == 0 || !args.count("workload") || !args.count("seed") ||
        !args.count("seconds"))
        return usage();
    const std::string workload = args["workload"];
    const std::uint64_t seed = std::stoull(args["seed"]);
    const double seconds = std::stod(args["seconds"]);
    Result r;
    r.trace = args.count("trace") && args["trace"] == "1";

    std::printf("# neurobench workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
                "compiler=%s build=%s\n",
                workload.c_str(), static_cast<unsigned long long>(seed), seconds,
                r.trace ? 1 : 0, std::thread::hardware_concurrency(),
                NEUROBENCH_COMPILER, NEUROBENCH_BUILD_TYPE);
    try {
        if (workload == "infer_paper")
            return run_serving(workload, {paper_config(), seed, seconds, r});
        if (workload == "infer_small")
            return run_serving(workload, {small_config(), seed, seconds, r});
        if (workload == "learn_serve")
            return run_serving(workload, {paper_config(), seed, seconds, r, true});
        if (workload == "train_batch") return run_train(workload, seed, seconds, r);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "neurobench: %s\n", e.what());
        return 1;
    }
    return usage();
}
