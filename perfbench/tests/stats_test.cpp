// Unit tests of the benchmark's own statistics (src/stats.hpp) on synthetic
// latency arrays: the percentile rule, windowed aggregation, backlog
// detection, the slo_rps ladder decision and the error_rate arithmetic.
//
//   python3 perfbench/run.py --selftest

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
    if (!ok) {
        ++failures;
        std::printf("FAIL: %s\n", what.c_str());
    }
}

void check_near(double got, double want, const std::string& what) {
    check(std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want)),
          what + " (got " + std::to_string(got) + ", want " +
              std::to_string(want) + ")");
}

std::vector<double> ramp(std::size_t n) {  // 1, 2, ..., n
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
    return v;
}

void test_percentile() {
    using perfbench::percentile;
    check_near(percentile({}, 50), 0.0, "empty sample");
    check_near(percentile({7.0}, 99), 7.0, "single sample");
    const auto v = ramp(100);
    check_near(percentile(v, 50), 50.0, "p50 of 1..100 (nearest rank)");
    check_near(percentile(v, 99), 99.0, "p99 of 1..100");
    check_near(percentile(v, 100), 100.0, "p100 is the max");
    check_near(percentile(v, 0), 1.0, "p0 is the min");
    // Order of the input does not matter.
    std::vector<double> rev(v.rbegin(), v.rend());
    check_near(percentile(rev, 90), 90.0, "p90 of reversed 1..100");
    check_near(perfbench::median({3, 1, 2}), 2.0, "median of three");
}

void test_tail_rule() {
    using perfbench::tail_percentile;
    // The highest percentile with at least ten samples beyond it.
    check_near(tail_percentile(19), 0.0, "19 samples support nothing");
    check_near(tail_percentile(20), 50.0, "20 samples support p50");
    check_near(tail_percentile(99), 50.0, "99 samples: p90 needs 100");
    check_near(tail_percentile(100), 90.0, "100 samples support p90");
    check_near(tail_percentile(199), 90.0, "199 samples: p95 needs 200");
    check_near(tail_percentile(200), 95.0, "200 samples support p95");
    check_near(tail_percentile(999), 95.0, "999 samples: p99 needs 1000");
    check_near(tail_percentile(1000), 99.0, "1000 samples support p99");
    check_near(tail_percentile(9999), 99.0, "9999 samples: p99.9 needs 10000");
    check_near(tail_percentile(10000), 99.9, "10000 samples support p99.9");

    const auto s = perfbench::summarize(ramp(1000));
    check(s.n == 1000, "summarize counts");
    check_near(s.p50, 500.0, "summarize median");
    check_near(s.tail_pct, 99.0, "summarize picks p99 at n=1000");
    check_near(s.tail, 990.0, "summarize tail value");
}

void test_windowed() {
    // Four windows of 1000: three quiet (1 ms) and one with a stall (every
    // sample 50 ms). The median of the windows ignores the stalled one.
    std::vector<double> v;
    for (int w = 0; w < 4; ++w)
        for (int i = 0; i < 1000; ++i) v.push_back(w == 2 ? 50'000.0 : 1'000.0);
    const auto w = perfbench::windowed(v, 1000);
    check(w.windows == 4, "four windows");
    check_near(w.p50, 1000.0, "windowed p50 ignores one stalled window");
    check_near(w.p90, 1000.0, "windowed p90 ignores one stalled window");
    // A short remainder joins the last window; fewer than one window's
    // worth of samples collapses to a single window.
    v.push_back(3.0);
    check(perfbench::windowed(v, 1000).windows == 4, "remainder joins last");
    check(perfbench::windowed(ramp(500), 1000).windows == 1, "short = 1 window");
    // Windows are at least 100 samples (p90 needs ten beyond).
    const auto small = perfbench::windowed(ramp(500), 10);
    check(small.windows == 5, "p90 floor of 100 samples");
    check_near(small.p50, 250.0, "median of window medians 50,150,...,450");
    check_near(small.p90, 290.0, "median of window p90s 90,190,...,490");
}

void test_backlog() {
    using perfbench::backlog_growing;
    check(!backlog_growing(std::vector<double>(1000, 2000.0)), "flat latency");
    // Latency climbing linearly from 1 ms to 41 ms: a queue that never drains.
    std::vector<double> climb;
    for (int i = 0; i < 1000; ++i) climb.push_back(1000.0 + 40.0 * i);
    check(backlog_growing(climb), "climbing latency is a backlog");
    // Doubling from 200 us to 500 us grows by less than the 1 ms margin.
    std::vector<double> small(500, 200.0);
    small.insert(small.end(), 500, 500.0);
    check(!backlog_growing(small), "sub-millisecond growth is no backlog");
    // One stall in the middle leaves both ends quiet.
    std::vector<double> stall(1000, 1000.0);
    for (int i = 400; i < 600; ++i) stall[static_cast<std::size_t>(i)] = 30'000.0;
    check(!backlog_growing(stall), "a mid-phase stall is no backlog");
    check(!backlog_growing(std::vector<double>(39, 1e6)), "too few samples");
}

void test_error_rate() {
    perfbench::ErrorCounts e;
    check_near(e.rate(), 0.0, "empty phase");
    e.sent = 1000;
    e.shed = 3;
    e.dropped = 2;
    e.errors = 1;
    e.missing = 1;
    e.wrong = 3;
    check(e.failed() == 10, "failed sums every cause");
    check_near(e.rate(), 0.01, "10 of 1000");
    perfbench::ErrorCounts sum;
    sum += e;
    sum += e;
    check(sum.sent == 2000 && sum.failed() == 20, "phases add up");
    check_near(sum.rate(), 0.01, "rate of the sum");
}

void test_slo_ladder() {
    using perfbench::LadderStep;
    const perfbench::SloLimits lim{10'000.0, 0.001};
    auto step = [](double rate, double tail) {
        LadderStep s;
        s.rate = rate;
        s.tail_us = tail;
        return s;
    };
    std::vector<LadderStep> steps = {step(400, 3000), step(800, 5000),
                                     step(1200, 9000), step(1600, 25000)};
    check_near(perfbench::slo_rps(steps, lim), 1200.0, "tail limit");
    // Order of the input does not matter.
    std::vector<LadderStep> shuffled = {steps[3], steps[0], steps[2], steps[1]};
    check_near(perfbench::slo_rps(shuffled, lim), 1200.0, "unsorted input");
    // A limit exactly met passes.
    steps[2].tail_us = 10'000.0;
    check_near(perfbench::slo_rps(steps, lim), 1200.0, "boundary inclusive");
    // A growing backlog fails a step even when its tail meets the limit,
    // and faster steps cannot pass past a failed one.
    steps[1].backlog = true;
    steps[3].tail_us = 1000.0;
    check_near(perfbench::slo_rps(steps, lim), 400.0, "backlog fails a step");
    steps[1].backlog = false;
    steps[1].error_rate = 0.002;
    check_near(perfbench::slo_rps(steps, lim), 400.0, "error_rate limit");
    steps[1].error_rate = 0.0;
    steps[1].generator_ok = false;
    check_near(perfbench::slo_rps(steps, lim), 400.0, "late generator fails");
    steps[0].tail_us = 20'000.0;
    check_near(perfbench::slo_rps(steps, lim), 0.0, "slowest step failing");
    check_near(perfbench::slo_rps({}, lim), 0.0, "no steps");
}

}  // namespace

int main() {
    test_percentile();
    test_tail_rule();
    test_windowed();
    test_backlog();
    test_error_rate();
    test_slo_ladder();
    if (failures) {
        std::printf("stats_test: %d failure(s)\n", failures);
        return 1;
    }
    std::printf("stats_test: all checks passed\n");
    return 0;
}
