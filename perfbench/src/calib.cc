/**
 * @file
 * The calibration kernel: a fixed piece of work, independent of the
 * translator's code, whose host time tracks how fast this machine runs
 * code like the simulator's at the moment. It interprets a small
 * register-machine program: switch dispatch over 16-byte instructions,
 * a register file, loads and stores through a set-associative tag
 * lookup into a 4 MB array, and ordered-map lookups, which are the
 * simulator's own hot patterns.
 */

#include <array>
#include <map>
#include <vector>

#include "bench.hh"

namespace perfbench
{

namespace
{

struct Op
{
    uint8_t kind;
    uint8_t dst, a, b;
    int32_t imm;
};

/** One pass over the kernel; returns a value that depends on all of it. */
uint64_t
kernel()
{
    static const std::vector<Op> prog = [] {
        std::vector<Op> p(4096);
        uint32_t x = 12345;
        for (Op &o : p) {
            x = x * 1103515245u + 12345u;
            o = {static_cast<uint8_t>((x >> 16) % 8),
                 static_cast<uint8_t>((x >> 8) % 16),
                 static_cast<uint8_t>((x >> 4) % 16),
                 static_cast<uint8_t>(x % 16), static_cast<int32_t>(x >> 20)};
        }
        return p;
    }();
    static std::vector<uint64_t> data(1 << 19);
    std::array<uint64_t, 16> r{};
    std::array<uint64_t, 256 * 4> tags{};
    std::map<uint32_t, uint32_t> blocks;
    uint64_t hits = 0;
    for (int iter = 0; iter < 160; ++iter) {
        for (const Op &o : prog) {
            switch (o.kind) {
              case 0: r[o.dst] = r[o.a] + r[o.b] + o.imm; break;
              case 1: r[o.dst] = r[o.a] ^ (r[o.b] >> 3); break;
              case 2: r[o.dst] = r[o.a] * 0x9e3779b97f4a7c15ULL; break;
              case 3:
              case 4: {
                uint64_t addr = (r[o.a] + o.imm) & (data.size() - 1);
                uint64_t line = addr >> 3, set = line & 255;
                bool hit = false;
                for (int w = 0; w < 4; ++w)
                    hit |= tags[set * 4 + w] == line;
                if (!hit)
                    tags[set * 4 + (line >> 8) % 4] = line;
                hits += hit;
                if (o.kind == 3)
                    r[o.dst] = data[addr];
                else
                    data[addr] = r[o.dst];
                break;
              }
              case 5: blocks[static_cast<uint32_t>(r[o.a]) & 4095] += 1; break;
              case 6: {
                auto it = blocks.find(static_cast<uint32_t>(r[o.a]) & 4095);
                r[o.dst] += it == blocks.end() ? 1 : it->second;
                break;
              }
              default: r[o.dst] = r[o.a] < r[o.b] ? r[o.b] : r[o.a]; break;
            }
        }
    }
    return hits + r[0] + blocks.size();
}

} // namespace

double
calibrate()
{
    static volatile uint64_t sink;
    Clock::time_point t0 = Clock::now();
    sink = sink + kernel();
    return secondsSince(t0);
}

} // namespace perfbench
