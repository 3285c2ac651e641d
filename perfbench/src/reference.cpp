// The host-speed reference kernel, the workload-only peak RSS and the
// segmented rep clock (see bench.h).
#include <sys/mman.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

volatile std::uint64_t g_sink;  // keeps the kernel's result live

}  // namespace

double reference_kernel() {
  constexpr std::size_t kTable = std::size_t{1} << 20;  // uint32: 4 MiB
  constexpr std::size_t kHeap = 16384;                  // uint64: 128 KiB
  constexpr std::size_t kPackets = 4096;                // 64-504 B each
  constexpr int kEvents = 40000;
  const std::size_t bytes = kTable * sizeof(std::uint32_t) +
                            kHeap * sizeof(std::uint64_t);
  void* mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
  if (mem == MAP_FAILED) {
    throw std::runtime_error("reference kernel: cannot map its table");
  }
  auto* table = static_cast<std::uint32_t*>(mem);
  auto* heap = reinterpret_cast<std::uint64_t*>(table + kTable);

  // xorshift64; a heap entry is an event: (due time << 16) | id.
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  // A "packet" is a malloc'd block whose first word is its length in
  // words; each event frees one and allocates its replacement.
  const auto make_packet = [&next](std::uint64_t tail) {
    const std::size_t words = 8 + next() % 56;
    auto* p = static_cast<std::uint64_t*>(std::malloc(words * 8));
    if (p == nullptr) throw std::bad_alloc();
    p[0] = words;
    p[words - 1] = tail;
    return p;
  };
  std::vector<std::uint64_t*> packets(kPackets);
  for (auto& p : packets) p = make_packet(0);
  for (std::size_t i = 0; i < kHeap; ++i) {
    heap[i] = ((next() % 1000000) << 16) | i;
  }
  const std::greater<> later;
  std::make_heap(heap, heap + kHeap, later);

  const auto start = Clock::now();
  std::uint64_t acc = 0;
  for (int i = 0; i < kEvents; ++i) {
    std::pop_heap(heap, heap + kHeap, later);
    const std::uint64_t top = heap[kHeap - 1];
    const auto id = static_cast<std::uint32_t>(top & 0xffff);
    std::uint64_t*& slot = packets[id & (kPackets - 1)];
    acc += slot[slot[0] - 1];
    std::free(slot);
    slot = make_packet(acc);
    const std::size_t k =
        (id * 2654435761u ^ static_cast<std::uint32_t>(top >> 16)) &
        (kTable - 1);
    table[k] += id;
    acc += table[(k * 7) & (kTable - 1)];
    if ((acc & 1) != 0) acc += packets[(k >> 3) & (kPackets - 1)][0];
    heap[kHeap - 1] = (((top >> 16) + 1 + next() % 200000) << 16) | id;
    std::push_heap(heap, heap + kHeap, later);
  }
  const double s = seconds_since(start);
  g_sink = acc;
  for (std::uint64_t* p : packets) std::free(p);
  munmap(mem, bytes);
  return s;
}

PeakRss& PeakRss::instance() {
  static PeakRss rss;
  return rss;
}

void PeakRss::fold() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      peak_kb_ = std::max(peak_kb_, std::stod(line.substr(6)));
      return;
    }
  }
}

void PeakRss::reset_high_water_mark() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRss::peak_mb() {
  fold();
  return peak_kb_ / 1024.0;
}

void RepClock::start() {
  ref_s_.clear();
  wall_s_ = 0;
  reference(0.0);
  segment_start_ = Clock::now();
}

void RepClock::boundary() {
  const double segment_s = seconds_since(segment_start_);
  wall_s_ += segment_s;
  reference(segment_s);
  segment_start_ = Clock::now();
}

void RepClock::stop() {
  const double segment_s = seconds_since(segment_start_);
  wall_s_ += segment_s;
  reference(segment_s);
}

void RepClock::reference(double segment_s) {
  Span s("bench.reference");
  PeakRss& rss = PeakRss::instance();
  rss.fold();
  double ran_s = 0;
  do {
    ref_s_.push_back(reference_kernel());
    ran_s += ref_s_.back();
  } while (ran_s < kShare * segment_s);
  rss.reset_high_water_mark();
}

}  // namespace perfbench
