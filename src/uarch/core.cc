#include "uarch/core.hh"

#include <algorithm>
#include <bit>
#include <limits>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/rng.hh"

namespace apollo {

namespace {

/** Hamming distance between two 64-bit words, normalized to [0, 1]. */
float
hamming01(uint64_t a, uint64_t b)
{
    return static_cast<float>(std::popcount(a ^ b)) * (1.0f / 64.0f);
}

/** Register id space: scalar regs 0..31, vector regs 32..47. */
constexpr int vecRegBase = numScalarRegs;
constexpr int numRegIds = numScalarRegs + numVectorRegs;
constexpr uint64_t noSeq = ~0ULL;
constexpr uint64_t notDone = ~0ULL;

} // namespace

//
// FunctionalExecutor
//

FunctionalExecutor::FunctionalExecutor(const Program &prog) : prog_(prog)
{
    // Seed the architectural state deterministically from the program's
    // data seed so different micro-benchmarks see different data values.
    uint64_t sm = hashMix(prog.dataSeed() + 0x5eedULL);
    for (int i = 0; i < numScalarRegs; ++i)
        x_[i] = splitMix64(sm);
    for (int i = 0; i < numVectorRegs; ++i)
        for (int l = 0; l < vectorLanes; ++l)
            v_[i][l] = splitMix64(sm);
    // x30 is the conventional memory base pointer, x31 the loop counter.
    x_[30] = 1ULL << 20;
    x_[31] = 0;
    memSeed_ = hashMix(prog.dataSeed() ^ 0x77ULL);
}

uint64_t
FunctionalExecutor::readMem(uint64_t addr)
{
    auto it = mem_.find(addr);
    if (it != mem_.end())
        return it->second;
    return hashCombine(memSeed_, addr);
}

void
FunctionalExecutor::writeMem(uint64_t addr, uint64_t value)
{
    mem_[addr] = value;
}

bool
FunctionalExecutor::next(MicroOp &out)
{
    if (pc_ >= prog_.size())
        return false;

    const Instruction inst = prog_.at(pc_);
    out = MicroOp{};
    out.inst = inst;
    out.pc = static_cast<uint32_t>(pc_);
    out.seq = seq_++;

    size_t next_pc = pc_ + 1;
    uint64_t result = 0;
    const auto cls = static_cast<size_t>(inst.execClass());

    switch (inst.op) {
      case Opcode::Nop:
        break;
      case Opcode::Add: result = x_[inst.rn] + x_[inst.rm]; break;
      case Opcode::Sub: result = x_[inst.rn] - x_[inst.rm]; break;
      case Opcode::And: result = x_[inst.rn] & x_[inst.rm]; break;
      case Opcode::Orr: result = x_[inst.rn] | x_[inst.rm]; break;
      case Opcode::Eor: result = x_[inst.rn] ^ x_[inst.rm]; break;
      case Opcode::Lsl:
        result = x_[inst.rn] << (x_[inst.rm] & 63);
        break;
      case Opcode::Lsr:
        result = x_[inst.rn] >> (x_[inst.rm] & 63);
        break;
      case Opcode::AddI:
        result = x_[inst.rn] + static_cast<uint64_t>(inst.imm);
        break;
      case Opcode::SubI:
        result = x_[inst.rn] - static_cast<uint64_t>(inst.imm);
        break;
      case Opcode::AndI:
        result = x_[inst.rn] & static_cast<uint64_t>(inst.imm);
        break;
      case Opcode::OrrI:
        result = x_[inst.rn] | static_cast<uint64_t>(inst.imm);
        break;
      case Opcode::EorI:
        result = x_[inst.rn] ^ static_cast<uint64_t>(inst.imm);
        break;
      case Opcode::LslI:
        result = x_[inst.rn] << (inst.imm & 63);
        break;
      case Opcode::MovI:
        result = static_cast<uint64_t>(static_cast<int64_t>(inst.imm));
        break;
      case Opcode::Mul: result = x_[inst.rn] * x_[inst.rm]; break;
      case Opcode::Div:
        result = x_[inst.rm] ? x_[inst.rn] / x_[inst.rm] : ~0ULL;
        break;
      case Opcode::Ldr:
        out.addr = x_[inst.rn] + static_cast<uint64_t>(inst.imm);
        result = readMem(out.addr);
        break;
      case Opcode::Str:
        out.addr = x_[inst.rn] + static_cast<uint64_t>(inst.imm);
        result = x_[inst.rd];
        writeMem(out.addr, result);
        break;
      case Opcode::Prfm:
        out.addr = x_[inst.rn] + static_cast<uint64_t>(inst.imm);
        break;
      case Opcode::VAdd:
      case Opcode::VMul:
      case Opcode::VFma:
      case Opcode::VAndNot: {
        float toggle_acc = 0.f;
        for (int l = 0; l < vectorLanes; ++l) {
            uint64_t lane;
            const uint64_t a = v_[inst.rn][l];
            const uint64_t b = v_[inst.rm][l];
            switch (inst.op) {
              case Opcode::VAdd: lane = a + b; break;
              case Opcode::VMul: lane = a * b; break;
              case Opcode::VFma: lane = v_[inst.rd][l] + a * b; break;
              default: lane = a & ~b; break;
            }
            toggle_acc += hamming01(lane, v_[inst.rd][l]);
            v_[inst.rd][l] = lane;
        }
        out.dataToggle = toggle_acc / vectorLanes;
        result = v_[inst.rd][0];
        lastValue_[cls] = result;
        pc_ = next_pc;
        return true;
      }
      case Opcode::VLdr: {
        out.addr = x_[inst.rn] + static_cast<uint64_t>(inst.imm);
        float toggle_acc = 0.f;
        for (int l = 0; l < vectorLanes; ++l) {
            const uint64_t lane = readMem(out.addr + 8ULL * l);
            toggle_acc += hamming01(lane, v_[inst.rd][l]);
            v_[inst.rd][l] = lane;
        }
        out.dataToggle =
            0.5f * toggle_acc / vectorLanes +
            0.5f * hamming01(out.addr, lastAddr_);
        lastAddr_ = out.addr;
        pc_ = next_pc;
        return true;
      }
      case Opcode::VStr: {
        out.addr = x_[inst.rn] + static_cast<uint64_t>(inst.imm);
        for (int l = 0; l < vectorLanes; ++l)
            writeMem(out.addr + 8ULL * l, v_[inst.rd][l]);
        out.dataToggle = 0.5f * hamming01(out.addr, lastAddr_) + 0.25f;
        lastAddr_ = out.addr;
        pc_ = next_pc;
        return true;
      }
      case Opcode::Bnez:
        out.taken = x_[inst.rn] != 0;
        if (out.taken)
            next_pc = static_cast<size_t>(
                static_cast<int64_t>(pc_) + inst.imm);
        out.dataToggle = 0.2f + (out.taken ? 0.2f : 0.0f);
        pc_ = next_pc;
        return true;
      case Opcode::B:
        out.taken = true;
        next_pc =
            static_cast<size_t>(static_cast<int64_t>(pc_) + inst.imm);
        out.dataToggle = 0.3f;
        pc_ = next_pc;
        return true;
      default:
        break;
    }

    // Scalar result path: data toggle vs the last value this exec class
    // produced (models operand/result bus switching).
    if (inst.isMemory()) {
        out.dataToggle = 0.5f * hamming01(result, lastValue_[cls]) +
                         0.5f * hamming01(out.addr, lastAddr_);
        lastAddr_ = out.addr;
    } else {
        out.dataToggle = hamming01(result, lastValue_[cls]);
    }
    lastValue_[cls] = result;

    if (inst.op != Opcode::Nop && inst.op != Opcode::Str &&
        inst.op != Opcode::Prfm && !inst.isBranch()) {
        x_[inst.rd] = result;
    }

    pc_ = next_pc;
    return true;
}

//
// TimingCore
//

namespace {

/**
 * A FIFO over a power-of-two slot array: push at the back, pop at the
 * front, index from the front. The fetch queue, issue queue and store
 * buffer are sized from CoreParams and never outgrow it; the
 * long-latency in-flight queues double when full. No queue allocates
 * per op.
 */
template <typename T>
class Ring
{
  public:
    explicit Ring(size_t capacity)
        : slots_(std::bit_ceil(std::max<size_t>(capacity, 1))),
          mask_(slots_.size() - 1)
    {}

    size_t size() const { return back_ - front_; }
    bool empty() const { return back_ == front_; }
    T &front() { return slots_[front_ & mask_]; }
    T &operator[](size_t i) { return slots_[(front_ + i) & mask_]; }
    void popFront() { ++front_; }

    void
    pushBack(const T &value)
    {
        if (size() == slots_.size())
            grow();
        slots_[back_++ & mask_] = value;
    }

  private:
    void
    grow()
    {
        const size_t n = size();
        std::vector<T> bigger(2 * slots_.size());
        for (size_t i = 0; i < n; ++i)
            bigger[i] = (*this)[i];
        slots_.swap(bigger);
        mask_ = slots_.size() - 1;
        front_ = 0;
        back_ = n;
    }

    std::vector<T> slots_;
    size_t mask_;
    size_t front_ = 0;
    size_t back_ = 0;
};

/**
 * An op waiting in (or issued from) the issue queue. Dispatch records
 * what the scan needs: the exec class, whether the op writes a
 * register, how many registers it reads, and the producers still in
 * flight. The scan drops a producer once it finished before the
 * current cycle: from then on it can neither block the entry nor count
 * as a bypass.
 */
struct IqEntry
{
    uint64_t seq = 0;
    uint64_t addr = 0;
    uint64_t srcSeq[3] = {};
    /** A waiting producer's done cycle: not ready before it. */
    uint64_t notBefore = 0;
    float dataToggle = 0.f;
    Opcode op = Opcode::Nop;
    ExecClass cls = ExecClass::None;
    uint8_t numReads = 0;
    uint8_t numWaiting = 0; ///< live entries of srcSeq
    bool writesReg = false;
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

/** Register ids @p inst reads; returns how many (at most 3). */
int
srcRegsOf(const Instruction &inst, ExecClass cls, int regs[3])
{
    int n = 0;
    switch (cls) {
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
}

/** Register id @p inst writes, or -1. */
int
destRegOf(const Instruction &inst, ExecClass cls)
{
    switch (cls) {
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
}

/**
 * The state of one TimingCore::run, allocated once per run, and its
 * pipeline stages in the order a cycle runs them.
 *
 * The ROB holds no ops. Ops decode and retire in seq order and no
 * wrong-path op is fetched, so the ROB is the seq range
 * [robHead, robTail). An op's completion cycle lives in doneRing at
 * seq & doneMask; the ring has at least robSize slots, so no two ops in
 * flight share one. A producer is in flight iff its seq >= robHead.
 */
struct CoreRun
{
    CoreRun(const CoreParams &params, const Program &prog)
        : p(params), exec(prog), l2(params.l2, nullptr),
          l1i(params.l1i, &l2), l1d(params.l1d, &l2),
          throttle(params.throttle), fetchQueue(params.fetchQueueSize),
          iq(params.issueWindow), storeBuffer(params.storeBufferSize),
          doneRing(std::bit_ceil(std::max<uint64_t>(params.robSize, 1))),
          doneMask(doneRing.size() - 1),
          muldivInflight(2 * (std::max(params.mulLatency,
                                       params.divLatency) + 1)),
          vecInflight(params.numVecPipes *
                      (std::max({params.vaddLatency, params.vmulLatency,
                                 params.vfmaLatency}) + 1))
    {
        std::fill(std::begin(lastWriter), std::end(lastWriter), noSeq);
        std::fill(std::begin(enabled), std::end(enabled), true);
    }

    CoreRun(const CoreRun &) = delete;
    CoreRun &operator=(const CoreRun &) = delete;

    uint64_t &done(uint64_t seq) { return doneRing[seq & doneMask]; }

    void retire(CycleEvents &ev);
    void drainStoreBuffer(CycleEvents &ev);
    void issue(CycleEvents &ev);
    void dispatch(CycleEvents &ev);
    void fetch(CycleEvents &ev);
    void drainUnits();
    void buildFrame(const CycleEvents &ev, ActivityFrame &frame);

    bool
    drained() const
    {
        return traceDone && !havePending && fetchQueue.empty() &&
               iq.empty() && robHead == robTail && storeBuffer.empty();
    }

    const CoreParams &p;
    FunctionalExecutor exec;
    CacheModel l2;
    CacheModel l1i;
    CacheModel l1d;
    BranchPredictor bpred;
    Throttle throttle;
    CoreStats stats;
    uint64_t now = 0;
    bool recording = false;

    Ring<MicroOp> fetchQueue;
    Ring<IqEntry> iq;
    Ring<uint64_t> storeBuffer; ///< store addresses
    std::vector<uint64_t> doneRing;
    uint64_t doneMask;
    uint64_t robHead = 0;
    uint64_t robTail = 0;
    /** Scoreboard: last writer seq per register id (noSeq = initial). */
    uint64_t lastWriter[numRegIds];

    // Frontend state.
    MicroOp pendingOp;
    bool havePending = false;
    bool traceDone = false;
    uint64_t fetchStallUntil = 0;
    uint64_t unresolvedMispredict = noSeq;
    uint64_t lastFetchLine = ~0ULL;

    // Long-latency unit state. The in-flight queues hold done cycles
    // in issue order and pop only from the front.
    uint64_t divBusyUntil = 0;
    Ring<uint64_t> muldivInflight;
    Ring<uint64_t> vecInflight;

    // Clock-gating state.
    uint32_t idleCycles[numUnits] = {};
    bool enabled[numUnits];
};

void
CoreRun::retire(CycleEvents &ev)
{
    while (robHead != robTail && ev.retired < p.retireWidth) {
        if (done(robHead) > now) // notDone included
            break;
        robHead++;
        ev.retired++;
        if (recording)
            stats.retiredOps++;
    }
}

void
CoreRun::drainStoreBuffer(CycleEvents &ev)
{
    // One store per cycle.
    if (storeBuffer.empty())
        return;
    const uint64_t addr = storeBuffer.front();
    storeBuffer.popFront();
    CacheAccessResult res = l1d.access(addr, true, now);
    ev.dcacheAccesses++;
    ev.dcacheMiss |= res.startedMiss;
    ev.sbDrains = 1;
}

void
CoreRun::issue(CycleEvents &ev)
{
    uint32_t alu_used = 0;
    uint32_t vec_used = 0;
    uint32_t lsu_used = 0;
    bool mul_used = false;
    const uint32_t max_issue = throttle.maxIssue(now, p.issueWidth);
    const uint32_t max_vec = throttle.maxVectorIssue(now, p.numVecPipes);

    // Oldest first. Issued entries keep their slot until they reach the
    // head; dispatch keeps the queue within issueWindow entries.
    for (size_t i = 0, n = iq.size(); i < n && ev.issued < max_issue;
         ++i) {
        IqEntry &entry = iq[i];
        if (entry.issued || now < entry.notBefore)
            continue;

        // Dependency check.
        bool ready = true;
        bool was_bypass = false;
        uint8_t waiting = 0;
        for (uint8_t s = 0; s < entry.numWaiting; ++s) {
            const uint64_t src = entry.srcSeq[s];
            if (src < robHead)
                continue; // retired
            const uint64_t src_done = done(src);
            if (src_done < now)
                continue;
            entry.srcSeq[waiting++] = src;
            if (src_done == now) {
                was_bypass = true;
            } else {
                ready = false;
                if (src_done != notDone)
                    entry.notBefore = std::max(entry.notBefore, src_done);
            }
        }
        entry.numWaiting = waiting;
        if (!ready)
            continue;

        // Structural check + latency.
        uint64_t done_at = now + 1;
        switch (entry.cls) {
          case ExecClass::None:
            break;
          case ExecClass::Branch:
          case ExecClass::Alu:
            if (alu_used >= p.numAlus)
                continue;
            alu_used++;
            done_at = now + p.aluLatency;
            ev.issuedAlu++;
            ev.aluData += entry.dataToggle;
            break;
          case ExecClass::MulDiv:
            if (entry.op == Opcode::Div) {
                if (divBusyUntil > now)
                    continue;
                divBusyUntil = now + p.divLatency;
                done_at = now + p.divLatency;
            } else {
                if (mul_used)
                    continue;
                mul_used = true;
                done_at = now + p.mulLatency;
            }
            muldivInflight.pushBack(done_at);
            ev.mulData += entry.dataToggle;
            break;
          case ExecClass::Vector: {
            if (vec_used >= max_vec)
                continue;
            uint32_t lat = p.vaddLatency;
            if (entry.op == Opcode::VMul)
                lat = p.vmulLatency;
            else if (entry.op == Opcode::VFma)
                lat = p.vfmaLatency;
            vec_used++;
            done_at = now + lat;
            vecInflight.pushBack(done_at);
            ev.issuedVec++;
            ev.vecData += entry.dataToggle;
            break;
          }
          case ExecClass::Mem: {
            if (lsu_used >= p.numLsuPorts)
                continue;
            if (entry.op == Opcode::Str || entry.op == Opcode::VStr) {
                if (storeBuffer.size() >= p.storeBufferSize)
                    continue;
                lsu_used++;
                storeBuffer.pushBack(entry.addr);
                done_at = now + 1;
            } else {
                lsu_used++;
                // Store-to-load forwarding.
                bool forwarded = false;
                for (size_t k = 0; k < storeBuffer.size(); ++k) {
                    if (storeBuffer[k] == entry.addr) {
                        forwarded = true;
                        break;
                    }
                }
                if (forwarded) {
                    done_at = now + 2;
                } else {
                    CacheAccessResult res =
                        l1d.access(entry.addr, false, now);
                    ev.dcacheMiss |= res.startedMiss;
                    done_at = res.readyCycle;
                }
                ev.dcacheAccesses++;
                if (entry.op == Opcode::Prfm)
                    done_at = now + 1; // non-blocking
            }
            ev.issuedMem++;
            ev.memData += entry.dataToggle;
            break;
          }
        }

        // Issue accepted.
        entry.issued = true;
        ev.issued++;
        ev.regReads += entry.numReads;
        if (was_bypass)
            ev.bypass++;
        if (entry.writesReg)
            ev.regWrites++;
        done(entry.seq) = done_at;

        // A resolving mispredicted branch unblocks the frontend.
        if (entry.seq == unresolvedMispredict) {
            unresolvedMispredict = noSeq;
            fetchStallUntil =
                std::max(fetchStallUntil, done_at + p.mispredictPenalty);
        }
    }

    // Compact: drop issued entries from the IQ head region.
    while (!iq.empty() && iq.front().issued)
        iq.popFront();
}

void
CoreRun::dispatch(CycleEvents &ev)
{
    // Dispatch runs before fetch, so every queued op was fetched in an
    // earlier cycle and is ready to decode.
    while (ev.decoded < p.decodeWidth && !fetchQueue.empty() &&
           iq.size() < p.issueWindow && robTail - robHead < p.robSize) {
        const MicroOp &op = fetchQueue.front();
        IqEntry entry;
        entry.seq = op.seq;
        entry.addr = op.addr;
        entry.dataToggle = op.dataToggle;
        entry.op = op.inst.op;
        entry.cls = op.inst.execClass();

        int regs[3];
        const int num_srcs = srcRegsOf(op.inst, entry.cls, regs);
        entry.numReads = static_cast<uint8_t>(num_srcs);
        for (int s = 0; s < num_srcs; ++s) {
            // The initial value and retired producers never block.
            const uint64_t src = lastWriter[regs[s]];
            if (src != noSeq && src >= robHead)
                entry.srcSeq[entry.numWaiting++] = src;
        }
        const int dest = destRegOf(op.inst, entry.cls);
        entry.writesReg = dest >= 0;
        if (dest >= 0)
            lastWriter[dest] = op.seq;

        // Ops arrive in seq order, so op.seq == robTail.
        done(op.seq) = notDone;
        robTail++;
        iq.pushBack(entry);
        fetchQueue.popFront();
        ev.decoded++;
    }
}

void
CoreRun::fetch(CycleEvents &ev)
{
    if (now < fetchStallUntil || unresolvedMispredict != noSeq)
        return;
    while (ev.fetched < p.fetchWidth &&
           fetchQueue.size() < p.fetchQueueSize) {
        if (!havePending) {
            if (traceDone)
                break;
            if (!exec.next(pendingOp)) {
                traceDone = true;
                break;
            }
            havePending = true;
        }

        // Instruction cache: 4-byte instructions, 64B lines.
        const uint64_t line =
            (static_cast<uint64_t>(pendingOp.pc) * 4) / 64;
        if (line != lastFetchLine) {
            CacheAccessResult res = l1i.access(
                static_cast<uint64_t>(pendingOp.pc) * 4, false, now);
            ev.icacheLines++;
            lastFetchLine = line;
            if (!res.hit) {
                ev.icacheMiss = true;
                fetchStallUntil = std::max(fetchStallUntil, res.readyCycle);
                break;
            }
        }

        const MicroOp op = pendingOp;
        havePending = false;
        fetchQueue.pushBack(op);
        ev.fetched++;
        ev.fetchData +=
            0.2f + 0.3f * hashToUnitFloat(hashMix(op.pc * 0x9e37ULL));

        if (op.inst.isBranch()) {
            ev.branchesFetched++;
            stats.branches++;
            const bool predicted = bpred.predict(op.pc);
            bpred.update(op.pc, op.taken);
            if (predicted != op.taken) {
                stats.mispredicts++;
                ev.mispredict = true;
                unresolvedMispredict = op.seq;
                break; // no wrong-path fetch modeled
            }
            if (op.taken)
                break; // taken-branch redirect bubble
        }
    }
}

void
CoreRun::drainUnits()
{
    // An entry leaves only from the front, even when a later one has
    // already finished.
    while (!muldivInflight.empty() && muldivInflight.front() <= now)
        muldivInflight.popFront();
    while (!vecInflight.empty() && vecInflight.front() <= now)
        vecInflight.popFront();
}

void
CoreRun::buildFrame(const CycleEvents &ev, ActivityFrame &frame)
{
    auto norm = [](float v) { return std::min(1.0f, v); };
    auto avg_data = [](float acc, uint32_t n) {
        return n ? acc / static_cast<float>(n) : 0.0f;
    };

    const float iq_occ = static_cast<float>(iq.size()) / p.issueWindow;
    const bool l2_busy = l2.outstandingMisses(now) > 0;
    const bool l1d_busy = l1d.outstandingMisses(now) > 0;

    float *act = frame.activity.data();
    float *data = frame.dataToggle.data();
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
        norm(static_cast<float>(muldivInflight.size()) / 3.0f +
             (divBusyUntil > now ? 0.3f : 0.f));
    data[uidx(UnitId::IntMulDiv)] =
        muldivInflight.empty() ? 0.f : norm(ev.mulData + 0.3f);
    act[uidx(UnitId::VecExec)] =
        norm(static_cast<float>(vecInflight.size()) /
             (2.0f * p.numVecPipes));
    data[uidx(UnitId::VecExec)] = avg_data(ev.vecData, ev.issuedVec);
    act[uidx(UnitId::RegFile)] =
        norm(static_cast<float>(ev.regReads + 2 * ev.regWrites) / 12.0f);
    data[uidx(UnitId::RegFile)] =
        avg_data(ev.aluData + ev.vecData + ev.memData,
                 ev.issued ? ev.issued : 1);
    act[uidx(UnitId::Bypass)] =
        norm(static_cast<float>(ev.bypass) / p.issueWidth);
    data[uidx(UnitId::Bypass)] = avg_data(ev.aluData, ev.issuedAlu);
    act[uidx(UnitId::LoadStore)] =
        norm(static_cast<float>(ev.issuedMem + ev.sbDrains) /
             (p.numLsuPorts + 1));
    data[uidx(UnitId::LoadStore)] = avg_data(ev.memData, ev.issuedMem);
    act[uidx(UnitId::DCache)] =
        norm(0.45f * ev.dcacheAccesses + (ev.dcacheMiss ? 0.3f : 0.f) +
             (l1d_busy ? 0.2f : 0.f));
    data[uidx(UnitId::DCache)] = avg_data(ev.memData, ev.issuedMem);
    act[uidx(UnitId::L2Cache)] =
        norm((ev.dcacheMiss || ev.icacheMiss ? 0.5f : 0.f) +
             (l2_busy ? 0.4f : 0.f));
    data[uidx(UnitId::L2Cache)] = l2_busy ? 0.5f : 0.f;
    act[uidx(UnitId::Retire)] =
        norm(static_cast<float>(ev.retired) / p.retireWidth +
             0.15f * (robTail > robHead));
    data[uidx(UnitId::Retire)] = ev.retired ? 0.3f : 0.f;
    act[uidx(UnitId::ClockTree)] = 1.0f;
    data[uidx(UnitId::ClockTree)] = 0.f;
    act[uidx(UnitId::Misc)] = norm(0.05f + 0.15f * (ev.issued > 0));
    data[uidx(UnitId::Misc)] = 0.1f;

    // Clock gating: a unit's clock gates off after gateAfterIdle
    // consecutive idle cycles and re-enables the cycle work returns.
    for (size_t u = 0; u < numUnits; ++u) {
        if (act[u] > 1e-6f) {
            idleCycles[u] = 0;
            enabled[u] = true;
        } else {
            if (idleCycles[u] < 1000000)
                idleCycles[u]++;
            if (idleCycles[u] >= p.gateAfterIdle)
                enabled[u] = false;
        }
        frame.clockEnabled[u] = enabled[u];
    }
    // The root clock tree is never gated while the core runs.
    frame.clockEnabled[uidx(UnitId::ClockTree)] = true;
}

} // namespace

TimingCore::TimingCore(const CoreParams &params) : params_(params) {}

std::vector<ActivityFrame>
TimingCore::collectFrames(const Program &prog, uint64_t max_cycles)
{
    std::vector<ActivityFrame> frames;
    run(prog, max_cycles,
        [&](const ActivityFrame &f) { frames.push_back(f); });
    return frames;
}

CoreStats
TimingCore::run(const Program &prog, uint64_t max_cycles,
                const FrameSink &sink)
{
    return run(prog, max_cycles, sink, ControlHook{});
}

CoreStats
TimingCore::run(const Program &prog, uint64_t max_cycles,
                const FrameSink &sink, const ControlHook &control)
{
    APOLLO_TRACE_SPAN("uarch.run");
    CoreRun core(params_, prog);
    const uint64_t warmup = params_.warmupCycles;
    // Saturate: a max_cycles near UINT64_MAX must not wrap the cap.
    const uint64_t hard_cap =
        max_cycles > std::numeric_limits<uint64_t>::max() - warmup
            ? std::numeric_limits<uint64_t>::max()
            : warmup + max_cycles;

    uint64_t recorded = 0;
    uint64_t simulated = 0;
    for (; recorded < max_cycles && core.now < hard_cap; ++core.now) {
        core.recording = core.now >= warmup;
        CycleEvents ev;
        core.retire(ev);
        core.drainStoreBuffer(ev);
        core.issue(ev);
        core.dispatch(ev);
        core.fetch(ev);
        core.drainUnits();

        ActivityFrame frame;
        frame.cycle = recorded;
        core.buildFrame(ev, frame);
        simulated++;
        if (core.recording) {
            sink(frame);
            if (control)
                control(frame, recorded, core.throttle);
            core.stats.cycles++;
            recorded++;
        }

        if (core.drained())
            break;
    }

    CoreStats stats = core.stats;
    stats.l1iMisses = core.l1i.misses();
    stats.l1dMisses = core.l1d.misses();
    stats.l2Misses = core.l2.misses();
    APOLLO_COUNT("apollo.uarch.runs", 1);
    APOLLO_COUNT("apollo.uarch.cycles", simulated);
    return stats;
}

} // namespace apollo
