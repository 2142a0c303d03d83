#pragma once
// The benchmark's own statistics: pure functions over latency arrays, kept
// apart from the workloads so tests/stats_test.cpp can pin them on
// synthetic data.
//
//   * percentile()        nearest-rank percentile of a sample.
//   * tail_percentile()   the percentile rule: the highest of 99.9/99/95/90/50
//                         that still has at least ten samples beyond it.
//   * summarize()         median + rule-chosen tail of one sample.
//   * windowed()          median over fixed-size windows of their p50 / p90 —
//                         how a long phase is aggregated so a slow stretch
//                         of the machine does not set the figure.
//   * backlog_growing()   whether latency climbed across a phase (the queue
//                         grew faster than it drained).
//   * slo_rps()           the ladder decision: the highest step rate whose
//                         tail meets the limit with no growing backlog and an
//                         error rate within its limit, every slower step
//                         passing too.
//   * ErrorCounts         the error_rate arithmetic.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (q in [0, 100]) of `v`; 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

inline double median(const std::vector<double>& v) {
    return percentile(v, 50.0);
}

/// Samples strictly beyond the q-th percentile of n samples.
inline double samples_beyond(std::size_t n, double q) {
    return static_cast<double>(n) * (100.0 - q) / 100.0;
}

/// The percentile rule: the highest candidate percentile with at least ten
/// samples beyond it; 0 when even the median lacks them (n < 20).
inline double tail_percentile(std::size_t n) {
    for (const double q : {99.9, 99.0, 95.0, 90.0, 50.0})
        if (samples_beyond(n, q) >= 10.0 - 1e-9) return q;
    return 0.0;
}

struct Summary {
    std::size_t n = 0;
    double p50 = 0.0;
    double tail_pct = 0.0;  ///< which percentile `tail` is (the rule's choice)
    double tail = 0.0;
};

inline Summary summarize(const std::vector<double>& v) {
    Summary s;
    s.n = v.size();
    s.p50 = median(v);
    s.tail_pct = tail_percentile(v.size());
    s.tail = s.tail_pct > 0.0 ? percentile(v, s.tail_pct) : 0.0;
    return s;
}

struct Windowed {
    std::size_t windows = 0;
    std::size_t per_window = 0;
    double p50 = 0.0;  ///< median of the windows' medians
    double p90 = 0.0;  ///< median of the windows' 90th percentiles
};

/// Splits `v` (in arrival order) into consecutive windows of `per_window`
/// samples (a short remainder joins the last window) and reports the median
/// of the per-window p50s and p90s. Short windows make the median robust to
/// a slow stretch of the run; windows hold at least 100 samples so each p90
/// has ten samples beyond it (the percentile rule). Fewer samples than one
/// window collapse to a single window.
inline Windowed windowed(const std::vector<double>& v,
                         std::size_t per_window) {
    Windowed w;
    if (v.empty()) return w;
    per_window = std::max<std::size_t>(per_window, 100);
    const std::size_t count = std::max<std::size_t>(1, v.size() / per_window);
    std::vector<double> p50s, p90s;
    for (std::size_t i = 0; i < count; ++i) {
        const auto begin = v.begin() + static_cast<std::ptrdiff_t>(i * per_window);
        const auto end = i + 1 == count
                             ? v.end()
                             : begin + static_cast<std::ptrdiff_t>(per_window);
        const std::vector<double> part(begin, end);
        p50s.push_back(percentile(part, 50.0));
        p90s.push_back(percentile(part, 90.0));
    }
    w.windows = count;
    w.per_window = v.size() / count;
    w.p50 = median(p50s);
    w.p90 = median(p90s);
    return w;
}

/// Backlog thresholds: how much the last quarter's median latency must
/// exceed the first quarter's, as a factor and in absolute terms (a queue
/// that only grows by a batch delay is not a backlog).
constexpr double kBacklogFactor = 2.0;
constexpr double kBacklogMinGrowthUs = 1000.0;

/// Backlog detection over one fixed-rate phase, latencies in send order:
/// the backlog grows when the median of the last quarter exceeds the median
/// of the first quarter by more than kBacklogFactor AND by more than
/// kBacklogMinGrowthUs. Fewer than 40 samples never count as growing.
inline bool backlog_growing(const std::vector<double>& latencies_in_send_order) {
    const std::size_t n = latencies_in_send_order.size();
    if (n < 40) return false;
    const std::size_t q = n / 4;
    const std::vector<double> first(latencies_in_send_order.begin(),
                                    latencies_in_send_order.begin() +
                                        static_cast<std::ptrdiff_t>(q));
    const std::vector<double> last(latencies_in_send_order.end() -
                                       static_cast<std::ptrdiff_t>(q),
                                   latencies_in_send_order.end());
    const double a = median(first);
    const double b = median(last);
    return b > a * kBacklogFactor && b - a > kBacklogMinGrowthUs;
}

/// Why requests failed, as the serving workloads count them. Every field is
/// a count of requests sent in the phase.
struct ErrorCounts {
    std::uint64_t sent = 0;
    std::uint64_t shed = 0;      ///< Rejected at intake (queue full / closing)
    std::uint64_t dropped = 0;   ///< CoDel or deadline head drops
    std::uint64_t errors = 0;    ///< Error frames
    std::uint64_t missing = 0;   ///< never answered
    std::uint64_t wrong = 0;     ///< Ok with a label other than the reference

    std::uint64_t failed() const {
        return shed + dropped + errors + missing + wrong;
    }
    ErrorCounts& operator+=(const ErrorCounts& o) {
        sent += o.sent;
        shed += o.shed;
        dropped += o.dropped;
        errors += o.errors;
        missing += o.missing;
        wrong += o.wrong;
        return *this;
    }
    /// failed ÷ sent; 0 for an empty phase.
    double rate() const {
        return sent == 0 ? 0.0
                         : static_cast<double>(failed()) /
                               static_cast<double>(sent);
    }
};

/// One ladder step as the SLO decision sees it.
struct LadderStep {
    double rate = 0.0;        ///< offered requests per second
    double tail_us = 0.0;     ///< latency at the step's tail percentile
    bool backlog = false;     ///< backlog_growing() over the step
    double error_rate = 0.0;  ///< ErrorCounts::rate() over the step
    bool generator_ok = true; ///< the load generator kept its schedule
};

struct SloLimits {
    double tail_us = 0.0;         ///< latency limit on the tail percentile
    double max_error_rate = 0.0;  ///< highest tolerated error_rate
};

inline bool step_passes(const LadderStep& s, const SloLimits& lim) {
    return s.generator_ok && !s.backlog && s.tail_us <= lim.tail_us &&
           s.error_rate <= lim.max_error_rate;
}

/// The highest step rate such that it and every slower step pass; steps
/// are taken in ascending rate order. 0 when the slowest step fails.
inline double slo_rps(std::vector<LadderStep> steps, const SloLimits& lim) {
    std::sort(steps.begin(), steps.end(),
              [](const LadderStep& a, const LadderStep& b) {
                  return a.rate < b.rate;
              });
    double best = 0.0;
    for (const LadderStep& s : steps) {
        if (!step_passes(s, lim)) break;
        best = s.rate;
    }
    return best;
}

}  // namespace perfbench
