#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <thread>

#include "edgepcc/morton/morton.h"

namespace perfbench {

double
nowMs()
{
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double, std::milli>(
               Clock::now().time_since_epoch())
        .count();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

int
SpanLog::open(const char *name, int parent, std::uint32_t frame)
{
    Span span;
    span.name = name;
    span.parent = parent;
    span.frame = frame;
    span.start_ms = nowMs();
    spans_.push_back(span);
    return static_cast<int>(spans_.size()) - 1;
}

double
SpanLog::close(int index)
{
    Span &span = spans_[static_cast<std::size_t>(index)];
    span.end_ms = nowMs();
    return span.durMs();
}

int
SpanLog::add(const char *name, double start_ms, double end_ms, int parent,
             std::uint32_t frame)
{
    spans_.push_back(Span{name, start_ms, end_ms, parent, frame});
    return static_cast<int>(spans_.size()) - 1;
}

std::vector<double>
SpanLog::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &span : spans_) {
        if (name == span.name)
            out.push_back(span.durMs());
    }
    return out;
}

bool
SpanLog::writeJson(const std::string &path) const
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (file == nullptr)
        return false;
    std::fprintf(file, "{\"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        std::fprintf(file,
                     "  {\"id\": %zu, \"name\": \"%s\", "
                     "\"start_ms\": %.6f, \"end_ms\": %.6f, "
                     "\"parent\": %d, \"frame\": %u}%s\n",
                     i, span.name, span.start_ms, span.end_ms,
                     span.parent, span.frame,
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(file, "]}\n");
    return std::fclose(file) == 0;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(mid),
                     values.end());
    const double upper = values[mid];
    if (values.size() % 2 == 1)
        return upper;
    const double lower = *std::max_element(
        values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
    return 0.5 * (lower + upper);
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
tailValue(std::vector<double> values, std::size_t beyond,
          double *percentile)
{
    *percentile = 50.0;
    if (values.size() <= 2 * beyond)
        return median(std::move(values));
    std::sort(values.begin(), values.end());
    // Nearest rank r (1-based) leaves n - r samples above it.
    const std::size_t rank = values.size() - beyond;
    *percentile = 100.0 * static_cast<double>(rank) /
                  static_cast<double>(values.size());
    return values[rank - 1];
}

double
driftRatio(const std::vector<double> &values)
{
    if (values.size() < 8)
        return 1.0;
    const std::size_t quarter = values.size() / 4;
    const std::vector<double> first(
        values.begin(), values.begin() + static_cast<std::ptrdiff_t>(quarter));
    const std::vector<double> last(
        values.end() - static_cast<std::ptrdiff_t>(quarter), values.end());
    const double base = median(first);
    return base > 0.0 ? median(last) / base : 1.0;
}

std::uint64_t
digestBytes(const void *data, std::size_t size, std::uint64_t seed)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    std::uint64_t hash = seed;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::uint64_t
digestCloud(const edgepcc::VoxelCloud &cloud)
{
    const std::size_t n = cloud.size();
    std::uint64_t hash = digestBytes(&n, sizeof n);
    hash = digestBytes(cloud.x().data(), n * 2, hash);
    hash = digestBytes(cloud.y().data(), n * 2, hash);
    hash = digestBytes(cloud.z().data(), n * 2, hash);
    hash = digestBytes(cloud.r().data(), n, hash);
    hash = digestBytes(cloud.g().data(), n, hash);
    return digestBytes(cloud.b().data(), n, hash);
}

std::string
hexDigest(std::uint64_t digest)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(digest));
    return buf;
}

void
generateFrames(const edgepcc::SyntheticHumanVideo &video, int count,
               std::size_t workers,
               std::vector<edgepcc::VoxelCloud> *frames,
               std::vector<double> *generate_ms)
{
    const auto n = static_cast<std::size_t>(count);
    frames->assign(n, edgepcc::VoxelCloud(video.spec().grid_bits));
    generate_ms->assign(n, 0.0);
    std::vector<std::exception_ptr> errors(n);
    std::atomic<std::size_t> next{0};
    const auto work = [&] {
        for (std::size_t f = next++; f < n; f = next++) {
            try {
                const double t0 = nowMs();
                (*frames)[f] = video.frame(static_cast<int>(f));
                (*generate_ms)[f] = nowMs() - t0;
            } catch (...) {
                errors[f] = std::current_exception();
            }
        }
    };
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < std::max<std::size_t>(workers, 1); ++t)
        threads.emplace_back(work);
    for (std::thread &thread : threads)
        thread.join();
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
}

namespace {

std::vector<std::uint64_t>
sortedCodes(const edgepcc::VoxelCloud &cloud, bool dedupe)
{
    std::vector<std::uint64_t> codes(cloud.size());
    edgepcc::mortonEncodeBatch(cloud.x().data(), cloud.y().data(),
                               cloud.z().data(), cloud.size(),
                               codes.data());
    std::sort(codes.begin(), codes.end());
    if (dedupe)
        codes.erase(std::unique(codes.begin(), codes.end()),
                    codes.end());
    return codes;
}

}  // namespace

bool
sameVoxelSet(const edgepcc::VoxelCloud &input,
             const edgepcc::VoxelCloud &decoded)
{
    // The decoder must return every input voxel exactly once.
    return sortedCodes(input, true) == sortedCodes(decoded, false);
}

}  // namespace perfbench
