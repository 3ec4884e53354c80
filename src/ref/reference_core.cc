#include "ref/reference_core.hh"

#include <algorithm>
#include <deque>
#include <limits>
#include <unordered_map>

#include "util/logging.hh"
#include "util/rng.hh"

namespace apollo::ref {

namespace {

/** Register id space: scalar regs 0..31, vector regs 32..47. */
constexpr int vecRegBase = numScalarRegs;
constexpr int numRegIds = numScalarRegs + numVectorRegs;
constexpr uint64_t noSeq = ~0ULL;
constexpr uint64_t notDone = ~0ULL;

/** An op waiting in the fetch queue. */
struct FetchedOp
{
    MicroOp op;
    uint64_t readyCycle = 0;
};

/** An op waiting in (or issued from) the issue queue. */
struct IqEntry
{
    MicroOp op;
    uint64_t srcSeq[3] = {noSeq, noSeq, noSeq};
    int numSrcs = 0;
    bool issued = false;
};

/** Per-cycle event counters, reset every cycle. */
struct CycleEvents
{
    uint32_t fetched = 0;
    uint32_t decoded = 0;
    uint32_t issued = 0;
    uint32_t issuedAlu = 0;
    uint32_t issuedMem = 0;
    uint32_t issuedVec = 0;
    uint32_t branchesFetched = 0;
    uint32_t icacheLines = 0;
    bool icacheMiss = false;
    uint32_t dcacheAccesses = 0;
    bool dcacheMiss = false;
    uint32_t sbDrains = 0;
    uint32_t retired = 0;
    uint32_t regReads = 0;
    uint32_t regWrites = 0;
    uint32_t bypass = 0;
    bool mispredict = 0;
    float aluData = 0.f;
    float mulData = 0.f;
    float vecData = 0.f;
    float memData = 0.f;
    float fetchData = 0.f;
};

} // namespace

CoreStats
coreRun(const CoreParams &params, const Program &prog, uint64_t max_cycles,
        const FrameSink &sink, const ControlHook &control)
{
    const CoreParams &p = params;
    FunctionalExecutor exec(prog);
    CacheModel l2(p.l2, nullptr);
    CacheModel l1i(p.l1i, &l2);
    CacheModel l1d(p.l1d, &l2);
    BranchPredictor bpred;
    Throttle throttle(p.throttle);
    CoreStats stats;

    std::deque<FetchedOp> fetch_queue;
    std::deque<IqEntry> iq;
    std::deque<uint64_t> rob; // seqs in program order
    std::unordered_map<uint64_t, uint64_t> done_cycle; // in-flight seqs
    std::deque<uint64_t> store_buffer;                 // store addresses

    // Scoreboard: last writer seq per register id (noSeq = initial value).
    uint64_t last_writer[numRegIds];
    std::fill(std::begin(last_writer), std::end(last_writer), noSeq);

    // Frontend state.
    MicroOp pending_op;
    bool have_pending = false;
    bool trace_done = false;
    uint64_t fetch_stall_until = 0;
    uint64_t unresolved_mispredict = noSeq;
    uint64_t last_fetch_line = ~0ULL;

    // Long-latency unit state.
    uint64_t div_busy_until = 0;
    std::deque<uint64_t> muldiv_inflight; // done cycles
    std::deque<uint64_t> vec_inflight;    // done cycles

    // Clock-gating state.
    uint32_t idle_cycles[numUnits] = {};
    bool enabled[numUnits];
    std::fill(std::begin(enabled), std::end(enabled), true);

    auto src_regs_of = [](const MicroOp &op, int regs[3]) -> int {
        const Instruction &inst = op.inst;
        int n = 0;
        switch (inst.execClass()) {
          case ExecClass::None:
            break;
          case ExecClass::Branch:
            if (inst.op == Opcode::Bnez)
                regs[n++] = inst.rn;
            break;
          case ExecClass::Mem:
            regs[n++] = inst.rn;
            if (inst.op == Opcode::Str)
                regs[n++] = inst.rd;
            if (inst.op == Opcode::VStr)
                regs[n++] = vecRegBase + inst.rd;
            break;
          case ExecClass::Vector:
            regs[n++] = vecRegBase + inst.rn;
            regs[n++] = vecRegBase + inst.rm;
            if (inst.op == Opcode::VFma)
                regs[n++] = vecRegBase + inst.rd;
            break;
          default: // Alu / MulDiv
            switch (inst.op) {
              case Opcode::MovI:
                break;
              case Opcode::AddI:
              case Opcode::SubI:
              case Opcode::AndI:
              case Opcode::OrrI:
              case Opcode::EorI:
              case Opcode::LslI:
                regs[n++] = inst.rn;
                break;
              default:
                regs[n++] = inst.rn;
                regs[n++] = inst.rm;
                break;
            }
            break;
        }
        return n;
    };

    auto dest_reg_of = [](const MicroOp &op) -> int {
        const Instruction &inst = op.inst;
        switch (inst.execClass()) {
          case ExecClass::None:
          case ExecClass::Branch:
            return -1;
          case ExecClass::Mem:
            if (inst.op == Opcode::Ldr)
                return inst.rd;
            if (inst.op == Opcode::VLdr)
                return vecRegBase + inst.rd;
            return -1;
          case ExecClass::Vector:
            return vecRegBase + inst.rd;
          default:
            return inst.rd;
        }
    };

    uint64_t now = 0;
    uint64_t recorded = 0;
    // Saturate: a max_cycles near UINT64_MAX must not wrap the cap.
    const uint64_t hard_cap =
        max_cycles > std::numeric_limits<uint64_t>::max() - p.warmupCycles
            ? std::numeric_limits<uint64_t>::max()
            : p.warmupCycles + max_cycles;
    for (; recorded < max_cycles && now < hard_cap; ++now) {
        const bool recording = now >= p.warmupCycles;
        CycleEvents ev;

        // ---- Retire ----
        while (!rob.empty() && ev.retired < p.retireWidth) {
            auto it = done_cycle.find(rob.front());
            APOLLO_ASSERT(it != done_cycle.end(), "rob entry lost");
            if (it->second == notDone || it->second > now)
                break;
            done_cycle.erase(it);
            rob.pop_front();
            ev.retired++;
            if (recording)
                stats.retiredOps++;
        }

        // ---- Store buffer drain (one per cycle) ----
        if (!store_buffer.empty()) {
            const uint64_t addr = store_buffer.front();
            store_buffer.pop_front();
            CacheAccessResult res = l1d.access(addr, true, now);
            ev.dcacheAccesses++;
            ev.dcacheMiss |= res.startedMiss;
            ev.sbDrains = 1;
        }

        // ---- Issue ----
        {
            uint32_t alu_used = 0;
            uint32_t vec_used = 0;
            uint32_t lsu_used = 0;
            bool mul_used = false;
            const uint32_t max_issue =
                throttle.maxIssue(now, p.issueWidth);
            const uint32_t max_vec =
                throttle.maxVectorIssue(now, p.numVecPipes);
            uint32_t scanned = 0;

            for (IqEntry &entry : iq) {
                if (ev.issued >= max_issue)
                    break;
                if (scanned++ >= p.issueWindow)
                    break;
                if (entry.issued)
                    continue;

                // Dependency check.
                bool ready = true;
                bool was_bypass = false;
                for (int s = 0; s < entry.numSrcs && ready; ++s) {
                    const uint64_t src = entry.srcSeq[s];
                    if (src == noSeq)
                        continue;
                    auto it = done_cycle.find(src);
                    if (it == done_cycle.end())
                        continue; // producer retired long ago
                    if (it->second == notDone || it->second > now)
                        ready = false;
                    else if (it->second == now)
                        was_bypass = true;
                }
                if (!ready)
                    continue;

                // Structural check + latency.
                const Instruction &inst = entry.op.inst;
                uint64_t done = now + 1;
                switch (inst.execClass()) {
                  case ExecClass::None:
                    break;
                  case ExecClass::Branch:
                  case ExecClass::Alu:
                    if (alu_used >= p.numAlus)
                        continue;
                    alu_used++;
                    done = now + p.aluLatency;
                    ev.issuedAlu++;
                    ev.aluData += entry.op.dataToggle;
                    break;
                  case ExecClass::MulDiv:
                    if (inst.op == Opcode::Div) {
                        if (div_busy_until > now)
                            continue;
                        div_busy_until = now + p.divLatency;
                        done = now + p.divLatency;
                    } else {
                        if (mul_used)
                            continue;
                        mul_used = true;
                        done = now + p.mulLatency;
                    }
                    muldiv_inflight.push_back(done);
                    ev.mulData += entry.op.dataToggle;
                    break;
                  case ExecClass::Vector: {
                    if (vec_used >= max_vec)
                        continue;
                    uint32_t lat = p.vaddLatency;
                    if (inst.op == Opcode::VMul)
                        lat = p.vmulLatency;
                    else if (inst.op == Opcode::VFma)
                        lat = p.vfmaLatency;
                    vec_used++;
                    done = now + lat;
                    vec_inflight.push_back(done);
                    ev.issuedVec++;
                    ev.vecData += entry.op.dataToggle;
                    break;
                  }
                  case ExecClass::Mem: {
                    if (lsu_used >= p.numLsuPorts)
                        continue;
                    if (inst.op == Opcode::Str ||
                        inst.op == Opcode::VStr) {
                        if (store_buffer.size() >= p.storeBufferSize)
                            continue;
                        lsu_used++;
                        store_buffer.push_back(entry.op.addr);
                        done = now + 1;
                    } else {
                        lsu_used++;
                        // Store-to-load forwarding.
                        bool forwarded = false;
                        for (uint64_t a : store_buffer) {
                            if (a == entry.op.addr) {
                                forwarded = true;
                                break;
                            }
                        }
                        if (forwarded) {
                            done = now + 2;
                        } else {
                            CacheAccessResult res =
                                l1d.access(entry.op.addr, false, now);
                            ev.dcacheMiss |= res.startedMiss;
                            done = res.readyCycle;
                        }
                        ev.dcacheAccesses++;
                        if (inst.op == Opcode::Prfm)
                            done = now + 1; // non-blocking
                    }
                    ev.issuedMem++;
                    ev.memData += entry.op.dataToggle;
                    break;
                  }
                }

                // Issue accepted.
                entry.issued = true;
                ev.issued++;
                ev.regReads += static_cast<uint32_t>(entry.numSrcs);
                if (was_bypass)
                    ev.bypass++;
                if (dest_reg_of(entry.op) >= 0)
                    ev.regWrites++;
                done_cycle[entry.op.seq] = done;

                // A resolving mispredicted branch unblocks the frontend.
                if (entry.op.seq == unresolved_mispredict) {
                    unresolved_mispredict = noSeq;
                    fetch_stall_until =
                        std::max(fetch_stall_until,
                                 done + p.mispredictPenalty);
                }
            }

            // Compact: drop issued entries from the IQ head region.
            while (!iq.empty() && iq.front().issued)
                iq.pop_front();
        }

        // ---- Decode / dispatch ----
        while (ev.decoded < p.decodeWidth && !fetch_queue.empty() &&
               fetch_queue.front().readyCycle <= now &&
               iq.size() < p.issueWindow && rob.size() < p.robSize) {
            const MicroOp op = fetch_queue.front().op;
            fetch_queue.pop_front();

            IqEntry entry;
            entry.op = op;
            int regs[3];
            entry.numSrcs = src_regs_of(op, regs);
            for (int s = 0; s < entry.numSrcs; ++s)
                entry.srcSeq[s] = last_writer[regs[s]];
            const int dest = dest_reg_of(op);
            if (dest >= 0)
                last_writer[dest] = op.seq;

            done_cycle[op.seq] = notDone;
            rob.push_back(op.seq);
            iq.push_back(entry);
            ev.decoded++;
        }

        // ---- Fetch ----
        if (now >= fetch_stall_until && unresolved_mispredict == noSeq) {
            while (ev.fetched < p.fetchWidth &&
                   fetch_queue.size() < p.fetchQueueSize) {
                if (!have_pending) {
                    if (trace_done)
                        break;
                    if (!exec.next(pending_op)) {
                        trace_done = true;
                        break;
                    }
                    have_pending = true;
                }

                // Instruction cache: 4-byte instructions, 64B lines.
                const uint64_t line =
                    (static_cast<uint64_t>(pending_op.pc) * 4) / 64;
                if (line != last_fetch_line) {
                    CacheAccessResult res =
                        l1i.access(static_cast<uint64_t>(pending_op.pc) *
                                   4, false, now);
                    ev.icacheLines++;
                    last_fetch_line = line;
                    if (!res.hit) {
                        ev.icacheMiss = true;
                        fetch_stall_until =
                            std::max(fetch_stall_until, res.readyCycle);
                        break;
                    }
                }

                const MicroOp op = pending_op;
                have_pending = false;
                FetchedOp fop;
                fop.op = op;
                fop.readyCycle = now + 1;
                fetch_queue.push_back(fop);
                ev.fetched++;
                ev.fetchData += 0.2f +
                    0.3f * hashToUnitFloat(hashMix(op.pc * 0x9e37ULL));

                if (op.inst.isBranch()) {
                    ev.branchesFetched++;
                    stats.branches++;
                    const bool predicted = bpred.predict(op.pc);
                    bpred.update(op.pc, op.taken);
                    if (predicted != op.taken) {
                        stats.mispredicts++;
                        ev.mispredict = true;
                        unresolved_mispredict = op.seq;
                        break; // no wrong-path fetch modeled
                    }
                    if (op.taken)
                        break; // taken-branch redirect bubble
                }
            }
        }

        // ---- Drain expired in-flight unit occupancy ----
        while (!muldiv_inflight.empty() && muldiv_inflight.front() <= now)
            muldiv_inflight.pop_front();
        while (!vec_inflight.empty() && vec_inflight.front() <= now)
            vec_inflight.pop_front();

        // ---- Build the activity frame ----
        ActivityFrame frame;
        frame.cycle = recorded;

        auto norm = [](float v) { return std::min(1.0f, v); };
        auto avg_data = [](float acc, uint32_t n) {
            return n ? acc / static_cast<float>(n) : 0.0f;
        };

        const float iq_occ =
            static_cast<float>(iq.size()) / p.issueWindow;
        const bool l2_busy = l2.outstandingMisses(now) > 0;
        const bool l1d_busy = l1d.outstandingMisses(now) > 0;

        float act[numUnits] = {};
        float data[numUnits] = {};
        auto uidx = [](UnitId u) { return static_cast<size_t>(u); };

        act[uidx(UnitId::Fetch)] =
            norm(static_cast<float>(ev.fetched) / p.fetchWidth);
        data[uidx(UnitId::Fetch)] = avg_data(ev.fetchData, ev.fetched);
        act[uidx(UnitId::BranchPred)] =
            norm(0.5f * ev.branchesFetched + (ev.mispredict ? 0.6f : 0.f));
        data[uidx(UnitId::BranchPred)] = ev.branchesFetched ? 0.4f : 0.f;
        act[uidx(UnitId::ICache)] =
            norm(0.5f * ev.icacheLines + (ev.icacheMiss ? 0.5f : 0.f));
        data[uidx(UnitId::ICache)] = ev.icacheLines ? 0.5f : 0.f;
        act[uidx(UnitId::Decode)] =
            norm(static_cast<float>(ev.decoded) / p.decodeWidth);
        data[uidx(UnitId::Decode)] = avg_data(ev.fetchData, ev.fetched);
        act[uidx(UnitId::Rename)] =
            norm(static_cast<float>(ev.decoded) / p.decodeWidth);
        data[uidx(UnitId::Rename)] = ev.decoded ? 0.35f : 0.f;
        act[uidx(UnitId::Issue)] =
            norm(0.70f * ev.issued / p.issueWidth + 0.28f * iq_occ);
        data[uidx(UnitId::Issue)] = ev.issued ? 0.4f : 0.f;
        act[uidx(UnitId::IntAlu)] =
            norm(static_cast<float>(ev.issuedAlu) / p.numAlus);
        data[uidx(UnitId::IntAlu)] = avg_data(ev.aluData, ev.issuedAlu);
        act[uidx(UnitId::IntMulDiv)] =
            norm(static_cast<float>(muldiv_inflight.size()) / 3.0f +
                 (div_busy_until > now ? 0.3f : 0.f));
        data[uidx(UnitId::IntMulDiv)] =
            muldiv_inflight.empty() ? 0.f : norm(ev.mulData + 0.3f);
        act[uidx(UnitId::VecExec)] =
            norm(static_cast<float>(vec_inflight.size()) /
                 (2.0f * p.numVecPipes));
        data[uidx(UnitId::VecExec)] = avg_data(ev.vecData, ev.issuedVec);
        act[uidx(UnitId::RegFile)] =
            norm(static_cast<float>(ev.regReads + 2 * ev.regWrites) /
                 12.0f);
        data[uidx(UnitId::RegFile)] =
            avg_data(ev.aluData + ev.vecData + ev.memData,
                     ev.issued ? ev.issued : 1);
        act[uidx(UnitId::Bypass)] =
            norm(static_cast<float>(ev.bypass) / p.issueWidth);
        data[uidx(UnitId::Bypass)] = avg_data(ev.aluData, ev.issuedAlu);
        act[uidx(UnitId::LoadStore)] =
            norm(static_cast<float>(ev.issuedMem + ev.sbDrains) /
                 (p.numLsuPorts + 1));
        data[uidx(UnitId::LoadStore)] =
            avg_data(ev.memData, ev.issuedMem);
        act[uidx(UnitId::DCache)] =
            norm(0.45f * ev.dcacheAccesses +
                 (ev.dcacheMiss ? 0.3f : 0.f) + (l1d_busy ? 0.2f : 0.f));
        data[uidx(UnitId::DCache)] = avg_data(ev.memData, ev.issuedMem);
        act[uidx(UnitId::L2Cache)] =
            norm((ev.dcacheMiss || ev.icacheMiss ? 0.5f : 0.f) +
                 (l2_busy ? 0.4f : 0.f));
        data[uidx(UnitId::L2Cache)] = l2_busy ? 0.5f : 0.f;
        act[uidx(UnitId::Retire)] =
            norm(static_cast<float>(ev.retired) / p.retireWidth +
                 0.15f * (rob.size() > 0));
        data[uidx(UnitId::Retire)] = ev.retired ? 0.3f : 0.f;
        act[uidx(UnitId::ClockTree)] = 1.0f;
        data[uidx(UnitId::ClockTree)] = 0.f;
        act[uidx(UnitId::Misc)] =
            norm(0.05f + 0.15f * (ev.issued > 0));
        data[uidx(UnitId::Misc)] = 0.1f;

        // Clock gating: a unit's clock gates off after gateAfterIdle
        // consecutive idle cycles and re-enables the cycle work returns.
        for (size_t u = 0; u < numUnits; ++u) {
            if (act[u] > 1e-6f) {
                idle_cycles[u] = 0;
                enabled[u] = true;
            } else {
                if (idle_cycles[u] < 1000000)
                    idle_cycles[u]++;
                if (idle_cycles[u] >= p.gateAfterIdle)
                    enabled[u] = false;
            }
            frame.activity[u] = act[u];
            frame.dataToggle[u] = data[u];
            frame.clockEnabled[u] = enabled[u];
        }
        // The root clock tree is never gated while the core runs.
        frame.clockEnabled[uidx(UnitId::ClockTree)] = true;

        if (recording) {
            sink(frame);
            if (control)
                control(frame, recorded, throttle);
            stats.cycles++;
            recorded++;
        }

        // ---- Termination ----
        if (trace_done && !have_pending && fetch_queue.empty() &&
            iq.empty() && rob.empty() && store_buffer.empty()) {
            break;
        }
    }

    stats.l1iMisses = l1i.misses();
    stats.l1dMisses = l1d.misses();
    stats.l2Misses = l2.misses();
    return stats;
}

} // namespace apollo::ref
