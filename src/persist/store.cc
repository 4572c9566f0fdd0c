#include "persist/store.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

#include "core/options.hh"
#include "guest/image.hh"
#include "persist/durable.hh"
#include "support/faultinject.hh"
#include "support/strfmt.hh"
#include "support/wire.hh"

namespace el::persist
{

namespace
{

// ----- hashing ------------------------------------------------------

constexpr uint64_t fnv_offset = 0xcbf29ce484222325ULL;
constexpr uint64_t fnv_prime = 0x100000001b3ULL;

void
fnv(uint64_t &h, const void *data, size_t n)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= fnv_prime;
    }
}

void
fnvU64(uint64_t &h, uint64_t v)
{
    fnv(h, &v, sizeof(v));
}

// ----- byte-oriented encoding ---------------------------------------

using Writer = wire::Writer;
using Reader = wire::Reader;
using wire::crc32;

constexpr uint32_t file_magic = 0x53504c45u;   // "ELPS"
constexpr uint32_t record_magic = 0x52544f48u; // "HOTR"
constexpr uint32_t flag_sealed = 1u << 0;

// The hot-artifact journal: an append-only sidecar of this run's
// record()/dropAt() mutations, flushed at adoption boundaries and
// folded into the .elstore by compact(). Header (28 bytes) mirrors
// the store's fingerprint gate; each frame is
//   u32 jrec_magic | u8 kind | u32 len | u32 crc | payload[len]
// where kind 0 carries an encodeRecord() payload and kind 1 a u32
// entry EIP to drop. There is no frame count: the journal's tail is
// wherever the bytes stop, and a torn final frame is expected after a
// crash (exactly one persist.rejected_truncated, scan stops there).
constexpr uint32_t journal_magic = 0x4a504c45u; // "ELPJ"
constexpr uint32_t jrec_magic = 0x4345524au;    // "JREC"
constexpr uint8_t jkind_add = 0;
constexpr uint8_t jkind_drop = 1;
constexpr size_t jframe_header_bytes = 4 + 1 + 4 + 4;

// Sanity caps: far above anything the emitter produces, low enough
// that a corrupt length can never drive a multi-gigabyte allocation.
constexpr uint32_t max_code = 1u << 20;
constexpr uint32_t max_recovery = 1u << 20;
constexpr uint32_t max_stubs = 1u << 16;
constexpr uint32_t max_covered = 1u << 16;
constexpr uint32_t max_guards = 1u << 16;
constexpr size_t max_record_bytes = 256u << 20;

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
encodeRecord(Writer &w, const HotRecord &rec)
{
    const core::BlockInfo &p = rec.proto;

    w.u32(rec.entry_eip);
    w.u8(rec.spec_tos);
    w.u8(rec.spec_tag);
    w.u8(rec.spec_mmx_domain);
    w.u32(rec.spec_xmm_format);

    // Proto block metadata (staging-relative indices).
    w.i64(p.cache_entry);
    w.i64(p.cache_end);
    w.u32(p.insn_count);
    w.u32(p.taken_eip);
    w.u32(p.fall_eip);
    w.b(p.ends_cond);
    w.b(p.ends_indirect);
    w.b(p.smc_guarded);

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

    w.u32(static_cast<uint32_t>(rec.code.size()));
    for (const ipf::Instr &i : rec.code)
        putInstr(w, i);
}

bool
decodeRecord(const uint8_t *data, size_t n, HotRecord &rec)
{
    Reader r(data, n);
    core::BlockInfo &p = rec.proto;

    rec.entry_eip = r.u32();
    rec.spec_tos = r.u8();
    rec.spec_tag = r.u8();
    rec.spec_mmx_domain = r.u8();
    rec.spec_xmm_format = r.u32();

    p.kind = core::BlockKind::Hot;
    p.entry_eip = rec.entry_eip;
    p.cache_entry = r.i64();
    p.cache_end = r.i64();
    p.insn_count = r.u32();
    p.taken_eip = r.u32();
    p.fall_eip = r.u32();
    p.ends_cond = r.b();
    p.ends_indirect = r.b();
    p.smc_guarded = r.b();

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
    rec.code.resize(code_count);
    for (ipf::Instr &i : rec.code)
        if (!getInstr(r, i, code_count, recovery_count))
            return false;

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

std::string
Fingerprint::hex() const
{
    return strfmt("%016llx-%016llx-%08x",
                  static_cast<unsigned long long>(image_hash),
                  static_cast<unsigned long long>(opts_hash),
                  static_cast<unsigned>(entry));
}

Fingerprint
fingerprintOf(const guest::Image &image, const core::Options &o)
{
    Fingerprint fp;
    fp.entry = image.entry;

    uint64_t h = fnv_offset;
    fnvU64(h, image.entry);
    fnvU64(h, image.sections.size());
    for (const guest::Section &s : image.sections) {
        fnv(h, s.name.data(), s.name.size());
        fnvU64(h, s.addr);
        fnvU64(h, s.size);
        fnvU64(h, static_cast<uint64_t>(s.perm));
        fnvU64(h, s.bytes.size());
        fnv(h, s.bytes.data(), s.bytes.size());
    }
    fp.image_hash = h;

    // Only emission-relevant options: toggles and code-shape limits
    // that change the bytes a hot session produces. Heat thresholds,
    // worker counts, simulated costs, and cache capacities change when
    // artifacts are built, never their contents, and are excluded so
    // an el_aot-built store (aggressive thresholds) serves a default
    // el_run.
    uint64_t oh = fnv_offset;
    fnvU64(oh, format_version);
    fnvU64(oh, core::analysis_window);
    fnvU64(oh, core::max_trace_blocks);
    fnvU64(oh, core::max_trace_insns);
    fnvU64(oh, core::unroll_factor);
    uint64_t toggles = 0;
    for (bool t : {o.enable_hot_phase, o.enable_unroll, o.enable_eflags_elim,
                   o.enable_fxch_elim, o.enable_fp_stack_spec,
                   o.enable_mmx_alias_spec, o.enable_sse_format_spec,
                   o.enable_misalign_avoidance, o.enable_load_speculation,
                   o.enable_chaining, o.enable_addr_cse})
        toggles = (toggles << 1) | (t ? 1 : 0);
    fnvU64(oh, toggles);
    fp.opts_hash = oh;
    return fp;
}

void
ArtifactStore::record(HotRecord rec)
{
    if (sealed_) {
        stats.add("persist.record_after_seal");
        return;
    }
    if (journal_fd_ >= 0) {
        Writer body;
        encodeRecord(body, rec);
        journalFrame(jkind_add, body.buf);
    }
    auto &vec = records_[rec.entry_eip];
    for (auto &existing : vec) {
        if (existing->spec_tos == rec.spec_tos &&
            existing->spec_tag == rec.spec_tag &&
            existing->spec_mmx_domain == rec.spec_mmx_domain &&
            existing->spec_xmm_format == rec.spec_xmm_format) {
            *existing = std::move(rec);
            stats.add("persist.records_replaced");
            return;
        }
    }
    vec.push_back(std::make_unique<HotRecord>(std::move(rec)));
    stats.add("persist.records_added");
}

void
ArtifactStore::dropAt(uint32_t eip)
{
    auto it = records_.find(eip);
    if (it == records_.end() || it->second.empty())
        return;
    if (journal_fd_ >= 0) {
        // Convictions must survive a crash too: a quarantined trace
        // journaled earlier this run would otherwise resurrect at the
        // next start's replay.
        Writer body;
        body.u32(eip);
        journalFrame(jkind_drop, body.buf);
    }
    stats.add("persist.dropped", it->second.size());
    records_.erase(it);
}

std::vector<const HotRecord *>
ArtifactStore::recordsAt(uint32_t eip) const
{
    std::vector<const HotRecord *> out;
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
    std::error_code ec;
    std::string path = pathIn(dir);
    bool any = false;
    if (std::filesystem::exists(path, ec))
        any = loadFile(path);
    // Fold in any journal a crashed predecessor left behind. Replay
    // is idempotent (replace-by-(eip, spec)), so a journal that
    // duplicates the store is harmless. Sealed stores never journal;
    // a stray journal beside one is stale and ignored.
    journal_replayed_ = 0;
    std::string jpath = journalPathIn(dir);
    if (!sealed_ && std::filesystem::exists(jpath, ec))
        any = replayJournal(jpath) > 0 || any;
    return any;
}

bool
ArtifactStore::save(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    return saveFile(pathIn(dir));
}

bool
ArtifactStore::loadFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::vector<uint8_t> buf{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()};
    in.close();
    stats.add("persist.bytes_read", buf.size());

    Reader r(buf.data(), buf.size());
    uint32_t magic = r.u32();
    uint32_t version = r.u32();
    uint32_t flags = r.u32();
    uint64_t image_hash = r.u64();
    uint64_t opts_hash = r.u64();
    uint32_t entry = r.u32();
    uint32_t record_count = r.u32();
    if (!r.ok || magic != file_magic || version != format_version) {
        stats.add("persist.rejected_header");
        return false;
    }
    if (image_hash != fp_.image_hash || opts_hash != fp_.opts_hash ||
        entry != fp_.entry) {
        // A different image/configuration: not corruption, just not
        // our store. Treated exactly like an absent file.
        stats.add("persist.rejected_fingerprint");
        return false;
    }

    uint64_t loaded = 0;
    for (uint32_t i = 0; i < record_count; ++i) {
        if (r.remaining() < 12) {
            // The bytes ran out before the header's promised record
            // count — a torn tail, whether the cut landed mid-frame
            // or cleanly on a record boundary. Exactly one tally.
            stats.add("persist.rejected_truncated");
            break;
        }
        uint32_t rmagic = r.u32();
        uint32_t rlen = r.u32();
        uint32_t rcrc = r.u32();
        if (rmagic != record_magic) {
            // A full frame header is present but its magic is wrong:
            // corruption, not truncation. The record stream is
            // unframed beyond this point; there is no way to resync,
            // so stop scanning. Everything loaded so far is
            // individually CRC-verified and stays.
            stats.add("persist.rejected_magic");
            break;
        }
        if (rlen > max_record_bytes || !r.need(rlen)) {
            stats.add("persist.rejected_truncated");
            r.ok = true; // need() latched failure; we are done anyway.
            break;
        }
        const uint8_t *payload = buf.data() + r.off;
        r.off += rlen;
        if (crc32(payload, rlen) != rcrc) {
            stats.add("persist.rejected_crc");
            continue; // Framing is intact; the next record may be fine.
        }
        HotRecord rec;
        if (!decodeRecord(payload, rlen, rec)) {
            stats.add("persist.rejected_invalid");
            continue;
        }
        insertLoaded(std::move(rec));
        ++loaded;
    }
    if (flags & flag_sealed)
        sealed_ = true;
    stats.set("persist.records_loaded", loaded);
    return loaded > 0;
}

void
ArtifactStore::insertLoaded(HotRecord &&rec)
{
    // Same replace-by-(eip, spec) policy as record(), but bypassing
    // the sealed check: loading a sealed store is how its records get
    // in memory in the first place.
    auto &vec = records_[rec.entry_eip];
    for (auto &existing : vec) {
        if (existing->spec_tos == rec.spec_tos &&
            existing->spec_tag == rec.spec_tag &&
            existing->spec_mmx_domain == rec.spec_mmx_domain &&
            existing->spec_xmm_format == rec.spec_xmm_format) {
            *existing = std::move(rec);
            return;
        }
    }
    vec.push_back(std::make_unique<HotRecord>(std::move(rec)));
}

bool
ArtifactStore::saveFile(const std::string &path)
{
    Writer w;
    w.u32(file_magic);
    w.u32(format_version);
    w.u32(sealed_ ? flag_sealed : 0);
    w.u64(fp_.image_hash);
    w.u64(fp_.opts_hash);
    w.u32(fp_.entry);
    w.u32(static_cast<uint32_t>(recordCount()));

    uint64_t saved = 0;
    for (const auto &[eip, vec] : records_) {
        for (const auto &rec : vec) {
            Writer body;
            encodeRecord(body, *rec);
            w.u32(record_magic);
            w.u32(static_cast<uint32_t>(body.buf.size()));
            w.u32(crc32(body.buf.data(), body.buf.size()));
            w.buf.insert(w.buf.end(), body.buf.begin(), body.buf.end());
            ++saved;
        }
    }

    // Chaos hook: flip one byte somewhere past the header, so the
    // hardened loader's CRC/validation path is exercised end to end.
    constexpr size_t header_bytes = 4 + 4 + 4 + 8 + 8 + 4 + 4;
    if (w.buf.size() > header_bytes &&
        faultInjected(FaultSite::StoreCorrupt)) {
        w.buf[header_bytes + (w.buf.size() - header_bytes) / 2] ^= 0x40;
        stats.add("persist.injected_corruption");
    }

    if (!writeFileDurable(path, w.buf.data(), w.buf.size(),
                          FaultSite::CrashStoreRename))
        return false;
    stats.add("persist.bytes_written", w.buf.size());
    stats.set("persist.records_saved", saved);
    return true;
}

// ----- the hot-artifact journal -------------------------------------

std::string
ArtifactStore::journalPathIn(const std::string &dir) const
{
    return dir + "/" + fp_.hex() + ".eljournal";
}

bool
ArtifactStore::openJournal(const std::string &dir)
{
    if (sealed_)
        return false;
    closeJournal();
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::string path = journalPathIn(dir);
    // Always truncate: the journal only ever holds the current run's
    // frames. A predecessor's journal was folded into the .elstore by
    // compact() before this call; appending to it instead would strand
    // everything after its (possibly torn) tail, since replay stops at
    // the first bad frame.
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return false;
    journal_fd_ = fd;
    journal_path_ = path;
    Writer h;
    h.u32(journal_magic);
    h.u32(format_version);
    h.u64(fp_.image_hash);
    h.u64(fp_.opts_hash);
    h.u32(fp_.entry);
    journal_pending_ = std::move(h.buf);
    return flushJournal();
}

void
ArtifactStore::journalFrame(uint8_t kind,
                            const std::vector<uint8_t> &payload)
{
    Writer w;
    w.u32(jrec_magic);
    w.u8(kind);
    w.u32(static_cast<uint32_t>(payload.size()));
    w.u32(crc32(payload.data(), payload.size()));
    journal_pending_.insert(journal_pending_.end(), w.buf.begin(),
                            w.buf.end());
    journal_pending_.insert(journal_pending_.end(), payload.begin(),
                            payload.end());
    stats.add("persist.journal_frames");
}

bool
ArtifactStore::flushJournal()
{
    if (journal_fd_ < 0 || journal_pending_.empty())
        return true;
    size_t n = journal_pending_.size();

    // Injected crash: half the pending bytes land (and are durable —
    // the OS could have written them at any time), then the process
    // dies, leaving a genuinely torn tail for the next start's replay.
    bool crash = faultInjected(FaultSite::CrashJournalAppend);
    size_t write_n = crash ? n / 2 : n;

    size_t done = 0;
    bool ok = true;
    while (done < write_n) {
        ssize_t w = ::write(journal_fd_, journal_pending_.data() + done,
                            write_n - done);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            ok = false;
            break;
        }
        done += static_cast<size_t>(w);
    }
    if (ok)
        ok = ::fsync(journal_fd_) == 0;
    if (crash)
        crashNow(FaultSite::CrashJournalAppend);
    if (!ok)
        return false;
    journal_pending_.clear();
    stats.add("persist.journal_bytes", n);
    stats.add("persist.journal_flushes");
    return true;
}

void
ArtifactStore::closeJournal()
{
    if (journal_fd_ < 0)
        return;
    flushJournal();
    ::close(journal_fd_);
    journal_fd_ = -1;
    journal_path_.clear();
    journal_pending_.clear();
}

bool
ArtifactStore::compact(const std::string &dir)
{
    closeJournal();
    if (!save(dir))
        return false;
    // The store now durably holds everything the journal did; the
    // journal is redundant. Crashing before this unlink is safe —
    // replay over the fresh store is a no-op.
    std::error_code ec;
    std::filesystem::remove(journalPathIn(dir), ec);
    stats.add("persist.compactions");
    return true;
}

size_t
ArtifactStore::replayJournal(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return 0;
    std::vector<uint8_t> buf{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()};
    in.close();
    stats.add("persist.bytes_read", buf.size());

    Reader r(buf.data(), buf.size());
    uint32_t magic = r.u32();
    uint32_t version = r.u32();
    uint64_t image_hash = r.u64();
    uint64_t opts_hash = r.u64();
    uint32_t entry = r.u32();
    if (!r.ok || magic != journal_magic || version != format_version) {
        // Includes the tiny-crash case where even the 28-byte header
        // was torn: the whole journal is ignored, the run starts from
        // whatever the .elstore held.
        stats.add("persist.journal_rejected_header");
        return 0;
    }
    if (image_hash != fp_.image_hash || opts_hash != fp_.opts_hash ||
        entry != fp_.entry) {
        stats.add("persist.journal_rejected_fingerprint");
        return 0;
    }

    size_t applied = 0;
    while (r.remaining() > 0) {
        if (r.remaining() < jframe_header_bytes) {
            // Torn mid-frame-header. (A cut exactly on a frame
            // boundary is indistinguishable from clean EOF — the
            // journal carries no frame count — and loses nothing.)
            stats.add("persist.rejected_truncated");
            break;
        }
        uint32_t fmagic = r.u32();
        uint8_t kind = r.u8();
        uint32_t flen = r.u32();
        uint32_t fcrc = r.u32();
        if (fmagic != jrec_magic) {
            stats.add("persist.rejected_magic");
            break;
        }
        if (flen > max_record_bytes || !r.need(flen)) {
            stats.add("persist.rejected_truncated");
            r.ok = true;
            break;
        }
        const uint8_t *payload = buf.data() + r.off;
        r.off += flen;
        if (crc32(payload, flen) != fcrc) {
            stats.add("persist.rejected_crc");
            continue; // Framing intact; later frames may be fine.
        }
        if (kind == jkind_add) {
            HotRecord rec;
            if (!decodeRecord(payload, flen, rec)) {
                stats.add("persist.rejected_invalid");
                continue;
            }
            insertLoaded(std::move(rec));
            ++applied;
        } else if (kind == jkind_drop && flen == 4) {
            Reader pr(payload, flen);
            records_.erase(pr.u32());
            ++applied;
        } else {
            stats.add("persist.rejected_invalid");
        }
    }
    journal_replayed_ = applied;
    stats.set("persist.journal_replayed", applied);
    return applied;
}

} // namespace el::persist
