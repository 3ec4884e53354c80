#include "trace/vcd.hh"

#include <istream>
#include <ostream>

#include "trace/stream_reader.hh"
#include "util/logging.hh"

namespace apollo {

VcdWriter::VcdWriter(std::ostream &os, const Netlist &netlist,
                     std::vector<uint32_t> signals)
    : os_(os), netlist_(netlist), signals_(std::move(signals)),
      value_(signals_.size(), 0)
{
    APOLLO_REQUIRE(!signals_.empty(), "no signals to dump");
}

std::string
VcdWriter::idCode(size_t index)
{
    // Printable identifier characters '!' (33) .. '~' (126), base 94.
    std::string id;
    do {
        id.push_back(static_cast<char>(33 + index % 94));
        index /= 94;
    } while (index);
    return id;
}

void
VcdWriter::writeHeader()
{
    os_ << "$date apollo $end\n";
    os_ << "$version apollo-vcd 1.0 $end\n";
    os_ << "$timescale 1ns $end\n";

    // One scope per functional unit, in signal order.
    UnitId current = UnitId::NumUnits;
    bool scope_open = false;
    for (size_t k = 0; k < signals_.size(); ++k) {
        const Signal &sig = netlist_.signal(signals_[k]);
        if (sig.unit != current) {
            if (scope_open)
                os_ << "$upscope $end\n";
            os_ << "$scope module u_" << unitName(sig.unit) << " $end\n";
            current = sig.unit;
            scope_open = true;
        }
        os_ << "$var wire 1 " << idCode(k) << " "
            << netlist_.signalName(signals_[k]) << " $end\n";
    }
    if (scope_open)
        os_ << "$upscope $end\n";
    os_ << "$enddefinitions $end\n";
    os_ << "$dumpvars\n";
    for (size_t k = 0; k < signals_.size(); ++k)
        os_ << "0" << idCode(k) << "\n";
    os_ << "$end\n";
    headerDone_ = true;
}

void
VcdWriter::writeCycle(const BitVector &toggled)
{
    APOLLO_REQUIRE(headerDone_, "writeHeader() must be called first");
    APOLLO_REQUIRE(toggled.size() == signals_.size(),
                   "toggle vector arity mismatch");
    os_ << "#" << cycle_ << "\n";
    for (size_t k = 0; k < signals_.size(); ++k) {
        if (toggled.get(k)) {
            value_[k] ^= 1;
            os_ << static_cast<int>(value_[k]) << idCode(k) << "\n";
        }
    }
    cycle_++;
}

void
VcdWriter::finish()
{
    os_ << "#" << cycle_ << "\n";
    os_.flush();
}

StatusOr<VcdTrace>
tryParseVcd(std::istream &is)
{
    VcdChunkReader reader(is);
    std::vector<std::pair<uint32_t, uint32_t>> set_bits;
    // No trace is longer than kMaxVcdCycles rows, so a call that may
    // serve one row more reads the dump to its end.
    const StatusOr<size_t> read =
        reader.nextSetBits(kMaxVcdCycles + 1, set_bits);
    if (!read.ok())
        return read.status();
    const uint64_t cycles = *read;

    VcdTrace trace;
    trace.names = reader.names();
    // Bound the full-matrix allocation: the streaming reader is the
    // supported path for dumps beyond in-memory size.
    if (cycles * trace.names.size() > (uint64_t{1} << 32))
        return Status::parseError(
            "VCD too large for in-memory parse (", cycles,
            " cycles x ", trace.names.size(),
            " signals); use VcdChunkReader");
    trace.toggles.reset(cycles, trace.names.size());
    for (const auto &[row, col] : set_bits)
        trace.toggles.setBit(row, col);
    return trace;
}

VcdTrace
parseVcd(std::istream &is)
{
    StatusOr<VcdTrace> trace = tryParseVcd(is);
    if (!trace.ok())
        fatal(trace.status().toString());
    return std::move(*trace);
}

} // namespace apollo
