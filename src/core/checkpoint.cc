#include "core/checkpoint.hh"

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "core/layout.hh"
#include "core/runtime.hh"
#include "persist/durable.hh"
#include "support/wire.hh"

namespace el::core
{

namespace
{

// Caps on deserialized counts, same rationale as the store's.
constexpr uint32_t max_pages = 1u << 22; // 16 GiB of 4K pages.
constexpr uint64_t max_console = 256u << 20;

uint64_t
doubleBits(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

double
bitsDouble(uint64_t bits)
{
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

void
putState(wire::Writer &w, const ia32::State &s)
{
    for (uint32_t r : s.gpr)
        w.u32(r);
    w.u32(s.eip);
    w.u32(s.eflags);
    for (const long double &st : s.fpu.st) {
        // x86 extended precision: the 10 low bytes are the value, the
        // rest is in-memory padding. Serializing raw bytes keeps the
        // full 80-bit precision a double round-trip would lose.
        uint8_t raw[10];
        std::memcpy(raw, &st, sizeof(raw));
        w.bytes(raw, sizeof(raw));
    }
    for (ia32::FpTag t : s.fpu.tag)
        w.u8(static_cast<uint8_t>(t));
    w.u8(s.fpu.top);
    w.u16(s.fpu.control);
    w.u16(s.fpu.status);
    for (const ia32::XmmReg &x : s.xmm)
        w.bytes(x.bytes.data(), x.bytes.size());
    w.u32(s.mxcsr);
}

bool
getState(wire::Reader &r, ia32::State &s)
{
    for (uint32_t &g : s.gpr)
        g = r.u32();
    s.eip = r.u32();
    s.eflags = r.u32();
    for (long double &st : s.fpu.st) {
        uint8_t raw[10];
        if (!r.bytes(raw, sizeof(raw)))
            return false;
        st = 0.0L;
        std::memcpy(&st, raw, sizeof(raw));
    }
    for (ia32::FpTag &t : s.fpu.tag) {
        uint8_t v = r.u8();
        if (v > 1)
            return false;
        t = static_cast<ia32::FpTag>(v);
    }
    s.fpu.top = r.u8();
    if (s.fpu.top > 7)
        return false;
    s.fpu.control = r.u16();
    s.fpu.status = r.u16();
    for (ia32::XmmReg &x : s.xmm)
        if (!r.bytes(x.bytes.data(), x.bytes.size()))
            return false;
    s.mxcsr = r.u32();
    return r.ok;
}

void
putOs(wire::Writer &w, const btlib::OsSnapshot &os)
{
    w.u64(os.console.size());
    w.bytes(os.console.data(), os.console.size());
    w.u64(os.alloc_next);
    w.u32(os.brk);
    w.u32(os.handler_eip);
    w.u64(doubleBits(os.virtual_time_us));
    w.u64(os.syscalls);
}

bool
getOs(wire::Reader &r, btlib::OsSnapshot &os)
{
    uint64_t len = r.u64();
    if (!r.ok || len > max_console || !r.need(len))
        return false;
    os.console.assign(reinterpret_cast<const char *>(r.p + r.off), len);
    r.off += len;
    os.alloc_next = r.u64();
    os.brk = r.u32();
    os.handler_eip = r.u32();
    os.virtual_time_us = bitsDouble(r.u64());
    os.syscalls = r.u64();
    return r.ok;
}

std::string
checkpointPath(const std::string &dir, const persist::Fingerprint &fp)
{
    return dir + "/" + fp.hex() + ".elckpt";
}

} // namespace

std::string
Checkpointer::path() const
{
    return checkpointPath(cfg_.dir, cfg_.fp);
}

void
Checkpointer::maybeCheckpoint(Runtime &rt, uint32_t next_eip)
{
    if (!cfg_.period_cycles)
        return;
    double now = rt.machine().totalCycles();
    if (now < next_due_)
        return;
    checkpointNow(rt, next_eip);
    next_due_ = now + static_cast<double>(cfg_.period_cycles);
}

bool
Checkpointer::checkpointNow(Runtime &rt, uint32_t next_eip)
{
    CheckpointImage img;
    img.seq = seq_ + 1;
    img.cycles = rt.machine().totalCycles();
    rt.storeContext(&img.state, next_eip);
    if (os_source_)
        img.os = os_source_();
    img.console_hash =
        wire::fnv1a(img.os.console.data(), img.os.console.size());

    // The runtime area is the canonical never-persisted-mid-flight
    // region: it holds translator-internal state (lookup tables,
    // profile counters, speculation bytes) that a resumed runtime
    // rebuilds from scratch at its own base address.
    uint64_t rt_lo = rt.rtBase();
    uint64_t rt_hi = rt_lo + rt::area_size;
    rt.memory().forEachPage([&](uint64_t addr, mem::Perm perm,
                                bool has_code, bool dirty,
                                const std::vector<uint8_t> &data) {
        if (addr >= rt_lo && addr < rt_hi)
            return;
        PageImage p;
        p.addr = addr;
        p.perm = perm;
        p.has_code = has_code;
        if (dirty)
            p.data = data;
        img.pages.push_back(std::move(p));
    });
    std::sort(img.pages.begin(), img.pages.end(),
              [](const PageImage &a, const PageImage &b) {
                  return a.addr < b.addr;
              });

    wire::Writer body;
    body.u64(img.seq);
    body.u64(doubleBits(img.cycles));
    body.u64(img.console_hash);
    putState(body, img.state);
    putOs(body, img.os);
    body.u32(static_cast<uint32_t>(img.pages.size()));
    for (const PageImage &p : img.pages) {
        body.u64(p.addr);
        body.u8(static_cast<uint8_t>(p.perm));
        body.b(p.has_code);
        body.b(!p.data.empty());
        if (!p.data.empty())
            body.bytes(p.data.data(), p.data.size());
    }
    // The artifact store's container (persist/durable.hh): a header
    // promising one compacted frame, then that frame. The durable
    // rename makes torn files impossible to publish; the frame CRC
    // catches bit rot.
    wire::Writer w;
    persist::putHeader(w, cfg_.fp, 0, 1);
    persist::putFrame(w, persist::FrameKind::Checkpoint, body.buf);

    std::error_code ec;
    std::filesystem::create_directories(cfg_.dir, ec);
    if (!persist::writeFileDurable(path(), w.buf.data(), w.buf.size(),
                                   FaultSite::CrashCheckpoint)) {
        stats.add("ckpt.failed");
        return false;
    }
    seq_ = img.seq;
    stats.add("ckpt.written");
    stats.add("ckpt.bytes", w.buf.size());
    return true;
}

bool
Checkpointer::load(const std::string &dir, const persist::Fingerprint &fp,
                   CheckpointImage *out, std::string *error)
{
    auto fail = [error](const char *why) {
        if (error)
            *error = why;
        return false;
    };
    std::vector<uint8_t> buf;
    if (!persist::readFile(checkpointPath(dir, fp), &buf))
        return fail("no checkpoint file");
    persist::Scan scan = persist::scanContainer(buf, fp);
    switch (scan.end) {
      case persist::ScanEnd::BadHeader:
        return fail("bad checkpoint header");
      case persist::ScanEnd::Foreign:
        return fail("checkpoint fingerprint mismatch");
      case persist::ScanEnd::Truncated:
        return fail("truncated checkpoint");
      case persist::ScanEnd::BadFrame:
        return fail("corrupt checkpoint frame");
      case persist::ScanEnd::Clean:
        break;
    }
    if (scan.crc_failures)
        return fail("checkpoint CRC mismatch");
    if (scan.flags != 0 || scan.compacted != 1 || scan.frames.size() != 1 ||
        scan.frames[0].kind != persist::FrameKind::Checkpoint)
        return fail("not a checkpoint file");

    wire::Reader r(scan.frames[0].payload, scan.frames[0].size);
    CheckpointImage img;
    img.seq = r.u64();
    img.cycles = bitsDouble(r.u64());
    img.console_hash = r.u64();
    if (!getState(r, img.state) || !getOs(r, img.os))
        return fail("corrupt checkpoint state");
    uint32_t page_count = r.u32();
    if (!r.ok || page_count > max_pages)
        return fail("corrupt checkpoint page table");
    img.pages.resize(page_count);
    for (PageImage &p : img.pages) {
        p.addr = r.u64();
        uint8_t perm = r.u8();
        p.has_code = r.b();
        bool has_data = r.b();
        if (!r.ok || perm > mem::PermRWX ||
            p.addr % mem::Memory::page_size != 0)
            return fail("corrupt checkpoint page");
        p.perm = static_cast<mem::Perm>(perm);
        if (has_data) {
            p.data.resize(mem::Memory::page_size);
            if (!r.bytes(p.data.data(), p.data.size()))
                return fail("truncated checkpoint page data");
        }
    }
    if (!r.ok || r.off != r.n)
        return fail("trailing garbage in checkpoint");
    *out = std::move(img);
    return true;
}

void
applyCheckpointMemory(const CheckpointImage &image, mem::Memory &memory)
{
    for (const PageImage &p : image.pages)
        memory.restorePage(p.addr, p.perm, p.has_code,
                           p.data.empty() ? nullptr : p.data.data());
}

} // namespace el::core
