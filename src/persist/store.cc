#include "persist/store.hh"

#include <filesystem>

#include <fcntl.h>
#include <unistd.h>

#include "core/options.hh"
#include "guest/image.hh"
#include "support/faultinject.hh"

namespace el::persist
{

namespace
{

// ----- byte-oriented encoding ---------------------------------------

using Writer = wire::Writer;
using Reader = wire::Reader;

// Sanity caps: far above anything the emitter produces, low enough
// that a corrupt count can never drive a multi-gigabyte allocation.
constexpr uint32_t max_code = 1u << 20;
constexpr uint32_t max_recovery = 1u << 20;
constexpr uint32_t max_stubs = 1u << 16;
constexpr uint32_t max_covered = 1u << 16;
constexpr uint32_t max_guards = 1u << 16;

void
putLoc(Writer &w, const core::Loc &l)
{
    w.u8(static_cast<uint8_t>(l.kind));
    w.i16(l.reg);
}

bool
getLoc(Reader &r, core::Loc &l)
{
    uint8_t k = r.u8();
    l.reg = r.i16();
    if (k > static_cast<uint8_t>(core::Loc::Kind::Gr))
        return false;
    l.kind = static_cast<core::Loc::Kind>(k);
    return r.ok;
}

void
putInstr(Writer &w, const ipf::Instr &i)
{
    w.u16(static_cast<uint16_t>(i.op));
    w.u8(i.qp);
    w.u8(i.dst);
    w.u8(i.dst2);
    w.u8(i.src1);
    w.u8(i.src2);
    w.u8(i.src3);
    w.i64(i.imm);
    w.u8(i.size);
    w.u8(i.pos);
    w.u8(i.len);
    w.u8(static_cast<uint8_t>(i.crel));
    w.u8(static_cast<uint8_t>(i.prec));
    w.u8(static_cast<uint8_t>(i.spec));
    w.b(i.stop);
    w.i64(i.target);
    w.u8(static_cast<uint8_t>(i.exit_reason));
    w.i64(i.exit_payload);
    w.u8(static_cast<uint8_t>(i.meta.bucket));
    w.u32(i.meta.ia32_ip);
    w.i32(i.meta.commit_id);
}

bool
getInstr(Reader &r, ipf::Instr &i, uint32_t code_count,
         uint32_t recovery_count)
{
    uint16_t op = r.u16();
    i.qp = r.u8();
    i.dst = r.u8();
    i.dst2 = r.u8();
    i.src1 = r.u8();
    i.src2 = r.u8();
    i.src3 = r.u8();
    i.imm = r.i64();
    i.size = r.u8();
    i.pos = r.u8();
    i.len = r.u8();
    uint8_t crel = r.u8();
    uint8_t prec = r.u8();
    uint8_t spec = r.u8();
    i.stop = r.b();
    i.target = r.i64();
    uint8_t exit_reason = r.u8();
    i.exit_payload = r.i64();
    uint8_t bucket = r.u8();
    i.meta.ia32_ip = r.u32();
    i.meta.commit_id = r.i32();
    i.meta.block_id = -1; // Stamped by CodeCache::publish.
    if (!r.ok)
        return false;
    // Semantic validation: a record passing CRC can still be garbage
    // (or maliciously crafted); never let an out-of-range enum or a
    // wild staging-relative branch into the shared cache.
    if (op == 0 || op >= static_cast<uint16_t>(ipf::IpfOp::NumOps))
        return false;
    if (crel > static_cast<uint8_t>(ipf::CmpRel::Unord) ||
        prec > static_cast<uint8_t>(ipf::FpPrec::Extended) ||
        spec > static_cast<uint8_t>(ipf::Spec::S) ||
        exit_reason > static_cast<uint8_t>(ipf::ExitReason::GuestFault) ||
        bucket >= static_cast<uint8_t>(ipf::Bucket::NumBuckets))
        return false;
    if (i.target < -1 || i.target >= static_cast<int64_t>(code_count))
        return false;
    if (i.meta.commit_id < -1 ||
        i.meta.commit_id >= static_cast<int32_t>(recovery_count))
        return false;
    i.op = static_cast<ipf::IpfOp>(op);
    i.crel = static_cast<ipf::CmpRel>(crel);
    i.prec = static_cast<ipf::FpPrec>(prec);
    i.spec = static_cast<ipf::Spec>(spec);
    i.exit_reason = static_cast<ipf::ExitReason>(exit_reason);
    i.meta.bucket = static_cast<ipf::Bucket>(bucket);
    return true;
}

void
encodeRecord(Writer &w, const core::HotTrace &rec)
{
    const core::BlockInfo &p = rec.proto;

    w.u32(rec.entry_eip);
    w.u8(rec.spec.tos);
    w.u8(rec.spec.tag);
    w.u8(rec.spec.mmx_domain);
    w.u32(rec.spec.xmm_format);

    // Proto block metadata (staging-relative indices).
    w.i64(p.cache_entry);
    w.i64(p.cache_end);
    w.u32(p.insn_count);

    // Guard expectations.
    w.b(p.guard.checks_fp);
    w.u8(p.guard.expect_tos);
    w.u8(p.guard.need_valid);
    w.u8(p.guard.need_empty);
    w.b(p.guard.checks_mmx);
    w.u8(p.guard.expect_domain);
    w.b(p.guard.checks_xmm);
    w.u32(p.guard.xmm_mask);
    w.u32(p.guard.xmm_expect);

    w.u32(static_cast<uint32_t>(p.stubs.size()));
    for (const core::ExitStub &s : p.stubs) {
        w.i64(s.cache_index);
        w.u32(s.target_eip);
    }

    w.u32(static_cast<uint32_t>(p.recovery.size()));
    for (const core::RecoveryMap &m : p.recovery) {
        w.u32(m.guest_ip);
        for (const core::Loc &l : m.gpr)
            putLoc(w, l);
        w.u8(static_cast<uint8_t>(m.flags.op));
        w.u8(m.flags.size);
        w.u32(m.flags.dirty_mask);
        putLoc(w, m.flags.wide);
        putLoc(w, m.flags.a);
        putLoc(w, m.flags.b);
        putLoc(w, m.flags.res);
        w.i8(m.tos_delta);
        w.u8(m.tag_set);
        w.u8(m.tag_clear);
        w.u32(m.xmm_formats);
        w.u8(m.mmx_domain);
    }

    w.u32(static_cast<uint32_t>(rec.covered_eips.size()));
    for (uint32_t eip : rec.covered_eips)
        w.u32(eip);

    w.u32(static_cast<uint32_t>(rec.smc_guards.size()));
    for (const auto &[addr, bytes] : rec.smc_guards) {
        w.u32(addr);
        w.u64(bytes);
    }

    w.u32(static_cast<uint32_t>(rec.staging.nextIndex()));
    for (int64_t k = 0; k < rec.staging.nextIndex(); ++k)
        putInstr(w, rec.staging.at(k));
}

bool
decodeRecord(const uint8_t *data, size_t n, core::HotTrace &rec)
{
    Reader r(data, n);
    core::BlockInfo &p = rec.proto;

    rec.entry_eip = r.u32();
    rec.spec.tos = r.u8();
    rec.spec.tag = r.u8();
    rec.spec.mmx_domain = r.u8();
    rec.spec.xmm_format = r.u32();

    p.kind = core::BlockKind::Hot;
    p.entry_eip = rec.entry_eip;
    p.cache_entry = r.i64();
    p.cache_end = r.i64();
    p.insn_count = r.u32();

    p.guard.checks_fp = r.b();
    p.guard.expect_tos = r.u8();
    p.guard.need_valid = r.u8();
    p.guard.need_empty = r.u8();
    p.guard.checks_mmx = r.b();
    p.guard.expect_domain = r.u8();
    p.guard.checks_xmm = r.b();
    p.guard.xmm_mask = r.u32();
    p.guard.xmm_expect = r.u32();

    uint32_t stub_count = r.u32();
    if (!r.ok || stub_count > max_stubs)
        return false;
    p.stubs.resize(stub_count);
    for (core::ExitStub &s : p.stubs) {
        s.cache_index = r.i64();
        s.target_eip = r.u32();
        s.patched = false;
    }

    uint32_t recovery_count = r.u32();
    if (!r.ok || recovery_count > max_recovery)
        return false;
    p.recovery.resize(recovery_count);
    for (core::RecoveryMap &m : p.recovery) {
        m.guest_ip = r.u32();
        for (core::Loc &l : m.gpr)
            if (!getLoc(r, l))
                return false;
        uint8_t lazy = r.u8();
        if (lazy > static_cast<uint8_t>(core::FlagRecipe::LazyOp::Logic))
            return false;
        m.flags.op = static_cast<core::FlagRecipe::LazyOp>(lazy);
        m.flags.size = r.u8();
        m.flags.dirty_mask = r.u32();
        if (!getLoc(r, m.flags.wide) || !getLoc(r, m.flags.a) ||
            !getLoc(r, m.flags.b) || !getLoc(r, m.flags.res))
            return false;
        m.tos_delta = r.i8();
        m.tag_set = r.u8();
        m.tag_clear = r.u8();
        m.xmm_formats = r.u32();
        m.mmx_domain = r.u8();
    }

    uint32_t covered_count = r.u32();
    if (!r.ok || covered_count > max_covered)
        return false;
    rec.covered_eips.resize(covered_count);
    for (uint32_t &eip : rec.covered_eips)
        eip = r.u32();

    uint32_t guard_count = r.u32();
    if (!r.ok || guard_count > max_guards)
        return false;
    rec.smc_guards.resize(guard_count);
    for (auto &[addr, bytes] : rec.smc_guards) {
        addr = r.u32();
        bytes = r.u64();
    }

    uint32_t code_count = r.u32();
    if (!r.ok || code_count > max_code)
        return false;
    for (uint32_t k = 0; k < code_count; ++k) {
        ipf::Instr i;
        if (!getInstr(r, i, code_count, recovery_count))
            return false;
        rec.staging.emit(i);
    }

    if (!r.ok || r.off != n)
        return false;

    // Cross-field validation: cache indices must address the staged
    // code, exit stubs must point at instructions inside it.
    if (p.cache_entry < 0 || p.cache_end < p.cache_entry ||
        p.cache_end > static_cast<int64_t>(code_count))
        return false;
    for (const core::ExitStub &s : p.stubs)
        if (s.cache_index < 0 ||
            s.cache_index >= static_cast<int64_t>(code_count))
            return false;

    p.id = -1;
    p.invalidated = false;
    p.loaded_from_store = true;
    return true;
}

} // namespace

Fingerprint
fingerprintOf(const guest::Image &image, const core::Options &o)
{
    Fingerprint fp;
    fp.entry = image.entry;

    // Each hash chains FNV-1a over its fields, integers as u64s.
    uint64_t h = wire::fnv1a_basis;
    auto mix = [&h](const void *data, size_t n) {
        h = wire::fnv1a(data, n, h);
    };
    auto mixU64 = [&mix](uint64_t v) { mix(&v, sizeof(v)); };
    mixU64(image.entry);
    mixU64(image.sections.size());
    for (const guest::Section &s : image.sections) {
        mix(s.name.data(), s.name.size());
        mixU64(s.addr);
        mixU64(s.size);
        mixU64(static_cast<uint64_t>(s.perm));
        mixU64(s.bytes.size());
        mix(s.bytes.data(), s.bytes.size());
    }
    fp.image_hash = h;

    // Only emission-relevant options: toggles and code-shape limits
    // that change the bytes a hot session produces. Heat thresholds,
    // worker counts, simulated costs, and cache capacities change when
    // artifacts are built, never their contents, and are excluded so
    // an el_aot-built store (aggressive thresholds) serves a default
    // el_run.
    h = wire::fnv1a_basis;
    mixU64(format_version);
    mixU64(core::analysis_window);
    mixU64(core::max_trace_blocks);
    mixU64(core::max_trace_insns);
    mixU64(core::unroll_factor);
    uint64_t toggles = 0;
    for (bool t : {o.enable_hot_phase, o.enable_unroll, o.enable_eflags_elim,
                   o.enable_fxch_elim, o.enable_fp_stack_spec,
                   o.enable_mmx_alias_spec, o.enable_sse_format_spec,
                   o.enable_misalign_avoidance, o.enable_load_speculation,
                   o.enable_chaining, o.enable_addr_cse})
        toggles = (toggles << 1) | (t ? 1 : 0);
    mixU64(toggles);
    fp.opts_hash = h;
    return fp;
}

bool
ArtifactStore::insert(core::HotTrace &&rec)
{
    auto &vec = records_[rec.entry_eip];
    for (auto &existing : vec) {
        if (existing->spec == rec.spec) {
            *existing = std::move(rec);
            return true;
        }
    }
    vec.push_back(std::make_unique<core::HotTrace>(std::move(rec)));
    return false;
}

void
ArtifactStore::record(core::HotTrace rec)
{
    if (sealed_) {
        stats.add("persist.record_after_seal");
        return;
    }
    if (log_fd_ >= 0) {
        Writer body;
        encodeRecord(body, rec);
        logFrame(FrameKind::Add, body.buf);
    }
    stats.add(insert(std::move(rec)) ? "persist.records_replaced"
                                     : "persist.records_added");
}

void
ArtifactStore::dropAt(uint32_t eip)
{
    auto it = records_.find(eip);
    if (it == records_.end() || it->second.empty())
        return;
    if (log_fd_ >= 0) {
        // Convictions must survive a crash too: a quarantined trace
        // appended earlier this run would otherwise resurrect at the
        // next start's replay.
        Writer body;
        body.u32(eip);
        logFrame(FrameKind::Drop, body.buf);
    }
    stats.add("persist.dropped", it->second.size());
    records_.erase(it);
}

std::vector<const core::HotTrace *>
ArtifactStore::recordsAt(uint32_t eip) const
{
    std::vector<const core::HotTrace *> out;
    auto it = records_.find(eip);
    if (it == records_.end())
        return out;
    out.reserve(it->second.size());
    for (const auto &rec : it->second)
        out.push_back(rec.get());
    return out;
}

size_t
ArtifactStore::recordCount() const
{
    size_t n = 0;
    for (const auto &[eip, vec] : records_)
        n += vec.size();
    return n;
}

std::string
ArtifactStore::pathIn(const std::string &dir) const
{
    return dir + "/" + fp_.hex() + ".elstore";
}

bool
ArtifactStore::load(const std::string &dir)
{
    return loadFile(pathIn(dir));
}

bool
ArtifactStore::loadFile(const std::string &path)
{
    std::vector<uint8_t> buf;
    if (!readFile(path, &buf))
        return false;
    stats.add("persist.bytes_read", buf.size());

    Scan scan = scanContainer(buf, fp_);
    switch (scan.end) {
      case ScanEnd::BadHeader:
        stats.add("persist.rejected_header");
        return false;
      case ScanEnd::Foreign:
        stats.add("persist.rejected_fingerprint");
        return false;
      case ScanEnd::Truncated:
        // A torn tail, whether the cut landed mid-frame or cleanly
        // between two compacted frames. Exactly one tally.
        stats.add("persist.rejected_truncated");
        break;
      case ScanEnd::BadFrame:
        stats.add("persist.rejected_magic");
        break;
      case ScanEnd::Clean:
        clean_path_ = path;
        break;
    }
    if (scan.crc_failures)
        stats.add("persist.rejected_crc", scan.crc_failures);

    // Every frame applies in file order — the compacted prefix, then
    // the appended tail — so the record set ends exactly as it was in
    // memory when the last frame was written.
    uint64_t loaded = 0, applied = 0, replayed = 0;
    for (const Frame &f : scan.frames) {
        if (f.kind == FrameKind::Add) {
            core::HotTrace rec;
            if (!decodeRecord(f.payload, f.size, rec)) {
                stats.add("persist.rejected_invalid");
                continue;
            }
            insert(std::move(rec));
            ++loaded;
        } else if (f.kind == FrameKind::Drop && f.size == 4) {
            records_.erase(Reader(f.payload, f.size).u32());
        } else {
            stats.add("persist.rejected_invalid");
            continue;
        }
        ++applied;
        if (f.tail)
            ++replayed;
    }
    if (scan.flags & flag_sealed)
        sealed_ = true;
    stats.set("persist.records_loaded", loaded);
    if (replayed)
        stats.set("persist.journal_replayed", replayed);
    return applied > 0;
}

bool
ArtifactStore::save(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::string path = pathIn(dir);

    size_t count = recordCount();
    Writer w;
    putHeader(w, fp_, sealed_ ? flag_sealed : 0,
              static_cast<uint32_t>(count));
    for (const auto &[eip, vec] : records_) {
        for (const auto &rec : vec) {
            Writer body;
            encodeRecord(body, *rec);
            putFrame(w, FrameKind::Add, body.buf);
        }
    }

    // Chaos hook: flip one byte somewhere past the header, so the
    // hardened loader's CRC/validation path is exercised end to end.
    bool corrupted = w.buf.size() > header_bytes &&
                     faultInjected(FaultSite::StoreCorrupt);
    if (corrupted) {
        w.buf[header_bytes + (w.buf.size() - header_bytes) / 2] ^= 0x40;
        stats.add("persist.injected_corruption");
    }

    if (!writeFileDurable(path, w.buf.data(), w.buf.size(),
                          FaultSite::CrashStoreRename))
        return false;
    clean_path_ = corrupted ? std::string() : path;
    stats.add("persist.bytes_written", w.buf.size());
    stats.set("persist.records_saved", count);
    return true;
}

// ----- the appended tail ---------------------------------------------

bool
ArtifactStore::openLog(const std::string &dir)
{
    if (sealed_)
        return false;
    closeLog();
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::string path = pathIn(dir);
    bool exists = std::filesystem::exists(path, ec);
    // Never append behind damage: replay stops at a cut or bad frame,
    // so everything written after it would be stranded.
    if (exists && path != clean_path_ && !compact(dir))
        return false;
    int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
    if (fd < 0)
        return false;
    log_fd_ = fd;
    if (exists)
        return true;
    // A new store starts as a bare header, written through the append
    // path like every frame after it.
    putHeader(log_pending_, fp_, 0, 0);
    clean_path_ = path;
    return flushLog();
}

void
ArtifactStore::logFrame(FrameKind kind, const std::vector<uint8_t> &payload)
{
    putFrame(log_pending_, kind, payload);
    stats.add("persist.journal_frames");
}

bool
ArtifactStore::flushLog()
{
    if (log_fd_ < 0 || log_pending_.buf.empty())
        return true;
    // Injected crash: half the pending bytes land, then the process
    // dies, leaving a genuinely torn tail for the next start's replay.
    if (!writeSynced(log_fd_, log_pending_.buf.data(),
                     log_pending_.buf.size(),
                     FaultSite::CrashJournalAppend)) {
        clean_path_.clear(); // The file may now end mid-frame.
        return false;
    }
    stats.add("persist.journal_bytes", log_pending_.buf.size());
    stats.add("persist.journal_flushes");
    log_pending_.buf.clear();
    return true;
}

void
ArtifactStore::closeLog()
{
    if (log_fd_ < 0)
        return;
    flushLog();
    ::close(log_fd_);
    log_fd_ = -1;
    log_pending_.buf.clear();
}

bool
ArtifactStore::compact(const std::string &dir)
{
    bool reopen = log_fd_ >= 0;
    closeLog();
    if (!save(dir))
        return false;
    stats.add("persist.compactions");
    return !reopen || openLog(dir);
}

} // namespace el::persist
