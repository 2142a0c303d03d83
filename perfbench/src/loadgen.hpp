#pragma once
// The serving side of the benchmark: an in-process neurod (ModelRouter +
// netd::Daemon on a Unix socket, neurod's default options) and an open-loop
// client that drives it over one connection with one writer and one reader
// thread. Every request is timed on the client's clock from its due time.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/tensor.hpp"
#include "netd/client.hpp"
#include "netd/daemon.hpp"
#include "netd/protocol.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/registry.hpp"
#include "runtime/compiled_model.hpp"
#include "serve/router.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Microseconds since a process-wide origin (all client stamps use it).
inline double now_us() {
    static const Clock::time_point origin = Clock::now();
    return std::chrono::duration<double, std::micro>(Clock::now() - origin)
        .count();
}

inline void sleep_until_us(double t_us) {
    const double wait = t_us - now_us();
    if (wait > 0.0)
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::micro>(wait));
}

/// neurod's shipped router options (tools/neurod.cpp defaults), with the
/// feedback intake sized like the repository's learning-while-serving
/// examples when a learner is attached.
inline neuro::serve::RouterOptions neurod_router_options(
    std::size_t feedback_capacity) {
    neuro::serve::RouterOptions ropt;
    ropt.workers = 2;
    ropt.queue_capacity = 256;
    ropt.batch.max_batch = 8;
    ropt.batch.max_delay_us = 200;
    ropt.backpressure = neuro::serve::Backpressure::Shed;
    ropt.admission.codel.enabled = true;
    ropt.admission.codel.target_us = 5'000;
    ropt.admission.codel.interval_us = 100'000;
    ropt.admission.feedback_capacity = feedback_capacity;
    ropt.recorder = &neuro::obs::default_recorder();
    return ropt;
}

/// An in-process neurod serving `model` on a socket in the working
/// directory. Owns its metrics registry so a torn-down daemon's scrape
/// collector never outlives it.
class Daemon {
public:
    Daemon(std::shared_ptr<const neuro::runtime::CompiledModel> model,
           std::size_t feedback_capacity, const std::string& socket_path) {
        const double t0 = now_us();
        router_ = std::make_shared<neuro::serve::ModelRouter>(
            std::move(model), neurod_router_options(feedback_capacity));
        router_->start();
        open_ms_ = (now_us() - t0) / 1e3;
        neuro::netd::DaemonOptions dopt;
        dopt.data_path = socket_path;
        dopt.metrics = &metrics_;
        daemon_ = std::make_unique<neuro::netd::Daemon>(router_, dopt);
        thread_ = std::thread([this] { daemon_->run(); });
        // The loop binds on its own thread; accepting connections is the
        // end of set-up. Retrying with a yield rather than a sleep keeps a
        // timer-slack-sized wait out of the timed set-up.
        const double up0 = now_us();
        while (true) {
            try {
                neuro::netd::Client::connect_unix(socket_path);
                break;
            } catch (const std::exception&) {
                if (now_us() - up0 > 10e6) {
                    shutdown();
                    throw std::runtime_error("neurod loop never came up");
                }
                std::this_thread::yield();
            }
        }
        path_ = socket_path;
    }
    ~Daemon() { shutdown(); }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    void shutdown() {
        if (daemon_ && !daemon_->finished()) daemon_->request_shutdown();
        if (thread_.joinable()) thread_.join();
        if (router_) router_->shutdown();
        if (!path_.empty()) {
            std::error_code ec;
            std::filesystem::remove(path_, ec);
        }
    }

    /// Asks the loop to drain and exit without waiting (thread-safe).
    void abort() {
        if (daemon_) daemon_->request_shutdown();
    }

    neuro::serve::ModelRouter& router() { return *router_; }
    /// Time to construct and start the router (opens the session pool).
    double open_ms() const { return open_ms_; }
    neuro::netd::DaemonStats stats() const { return daemon_->stats(); }
    const std::string& path() const { return path_; }

private:
    neuro::obs::Registry metrics_;
    std::shared_ptr<neuro::serve::ModelRouter> router_;
    std::unique_ptr<neuro::netd::Daemon> daemon_;
    std::thread thread_;
    std::string path_;
    double open_ms_ = 0.0;
};

/// One scheduled frame of a phase.
struct Planned {
    double due_us = 0.0;  ///< relative to the phase start
    std::uint32_t image = 0;
    bool feedback = false;
    std::uint32_t label = 0;  ///< feedback label
};

/// What the client saw for one frame.
struct Outcome {
    double due_us = 0.0;    ///< absolute (now_us clock)
    double start_us = 0.0;  ///< writer began encoding
    double end_us = 0.0;    ///< reader finished decoding the response
    bool answered = false;
    neuro::netd::WireStatus status = neuro::netd::WireStatus::Rejected;
    std::uint8_t reject_reason = 0;
    std::uint32_t label = 0;
    std::uint64_t latency_us = 0;
    std::uint64_t sojourn_us = 0;
    std::uint32_t batch = 0;
    std::uint64_t span_sum_us = 0;  ///< v3 spans 1..4 (traced phases only)
    double encode_ns = 0.0;
    double decode_ns = 0.0;

    double latency_from_due() const { return end_us - due_us; }
    double rtt() const { return end_us - start_us; }
    double gen_lag() const { return start_us - due_us; }
};

/// Poisson arrivals at `rate` per second for `seconds`, images drawn
/// uniformly from [0, pool), all from `seed`.
inline std::vector<Planned> poisson_schedule(double rate, double seconds,
                                             std::size_t pool,
                                             std::uint64_t seed) {
    std::vector<Planned> out;
    neuro::common::Rng rng(seed);
    double t = 0.0;
    while (true) {
        t += -std::log(1.0 - rng.uniform()) / rate;
        if (t >= seconds) break;
        Planned p;
        p.due_us = t * 1e6;
        p.image = static_cast<std::uint32_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(pool) - 1));
        out.push_back(p);
    }
    return out;
}

/// The open-loop client: one connection for the whole run; each phase
/// spawns a writer (sleeps to each due time, encodes, writes) and a reader
/// (decodes responses as they arrive), then joins both.
class OpenLoopClient {
public:
    /// `abort` must make the daemon close the connection; it runs when
    /// responses are still missing after the grace period, so the blocked
    /// reader sees EOF.
    OpenLoopClient(const std::string& path,
                   const std::vector<neuro::common::Tensor>* images,
                   std::function<void()> abort)
        : client_(neuro::netd::Client::connect_unix(path)),
          images_(images),
          abort_(std::move(abort)) {}

    /// Runs one phase. `traced` sends v3 frames with the trace flag and
    /// times the client's own encode/decode calls. `on_wait` runs on the
    /// calling thread every `poll_us` until the phase ends (the learn_serve
    /// monitor). Responses still missing `grace_s` after the last due time
    /// stay unanswered.
    template <typename Wait>
    std::vector<Outcome> run(const std::vector<Planned>& plan, bool traced,
                             Wait&& on_wait, double poll_us = 5000.0,
                             double grace_s = 10.0) {
        std::vector<Outcome> out(plan.size());
        const double t0 = now_us() + 20'000.0;
        for (std::size_t i = 0; i < plan.size(); ++i)
            out[i].due_us = t0 + plan[i].due_us;
        std::atomic<std::size_t> answered{0};
        std::atomic<bool> reader_done{false};
        const std::uint64_t id_base = next_id_;
        next_id_ += plan.size();

        std::thread reader([&] {
            std::vector<std::uint8_t> buf(1 << 16);
            neuro::netd::ResponseFrame f;
            try {
                while (answered.load() < plan.size()) {
                    const std::size_t n = client_.recv_raw(buf.data(), buf.size());
                    if (n == 0) break;
                    const double d0 = now_us();
                    decoder_.feed(buf.data(), n);
                    std::size_t frames = 0;
                    std::vector<std::size_t> got;
                    while (true) {
                        const auto r = decoder_.next_response(f);
                        if (r == neuro::netd::Decoder::Result::Error)
                            throw std::runtime_error("response decode error");
                        if (r != neuro::netd::Decoder::Result::Frame) break;
                        const double t = now_us();
                        const std::uint64_t idx = f.request_id - id_base - 1;
                        if (f.request_id <= id_base || idx >= plan.size())
                            throw std::runtime_error("unexpected request id");
                        Outcome& o = out[idx];
                        o.end_us = t;
                        o.answered = true;
                        o.status = f.status;
                        o.reject_reason = f.reject_reason;
                        o.label = f.label;
                        o.latency_us = f.latency_us;
                        o.sojourn_us = f.sojourn_us;
                        o.batch = f.batch_size;
                        for (const auto& s : f.trace)
                            if (s.id >= 1 && s.id <= 4) o.span_sum_us += s.value;
                        got.push_back(idx);
                        ++frames;
                    }
                    if (traced && frames > 0) {
                        const double per =
                            (now_us() - d0) * 1e3 / static_cast<double>(frames);
                        for (const std::size_t idx : got) out[idx].decode_ns = per;
                    }
                    answered.fetch_add(frames);
                }
            } catch (const std::exception&) {
                // A closed or corrupt stream leaves the rest unanswered.
            }
            reader_done.store(true);
        });

        std::thread writer([&] {
            neuro::netd::RequestFrame f;
            for (std::size_t i = 0; i < plan.size(); ++i) {
                sleep_until_us(out[i].due_us);
                const Planned& p = plan[i];
                const double s0 = now_us();
                const auto& img = (*images_)[p.image];
                f.version = traced ? neuro::netd::kProtocolVersionV3
                                   : neuro::netd::kProtocolVersion;
                f.flags = traced ? neuro::netd::kFlagTrace : 0;
                f.kind = p.feedback ? neuro::netd::MsgKind::Feedback
                                    : neuro::netd::MsgKind::Predict;
                f.priority = p.feedback ? 2 : 0;
                f.label = p.label;
                f.request_id = id_base + i + 1;
                f.shape.assign(img.shape().begin(), img.shape().end());
                f.data.assign(img.data(), img.data() + img.size());
                const auto bytes = neuro::netd::encode(f);
                const double s1 = now_us();
                out[i].start_us = s0;
                if (traced) out[i].encode_ns = (s1 - s0) * 1e3;
                try {
                    client_.send_raw(bytes.data(), bytes.size());
                } catch (const std::exception&) {
                    return;
                }
            }
        });

        const double give_up =
            t0 + (plan.empty() ? 0.0 : plan.back().due_us) + grace_s * 1e6;
        while (!reader_done.load() && now_us() < give_up) {
            on_wait();
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::micro>(poll_us));
        }
        writer.join();
        if (!reader_done.load()) abort_();  // EOF unblocks the reader
        reader.join();
        return out;
    }

private:
    neuro::netd::Client client_;
    neuro::netd::Decoder decoder_;
    const std::vector<neuro::common::Tensor>* images_;
    std::function<void()> abort_;
    std::uint64_t next_id_ = 0;
};

}  // namespace perfbench
