/**
 * @file
 * Fuzz target for VCD ingestion — tryParseVcd() and the
 * VcdChunkReader it drains — on arbitrary bytes: Status errors only,
 * no throw/crash/hang/unbounded allocation. Both paths parse one
 * grammar, so whenever the chunked drain runs to its end, tryParseVcd
 * must return the same status code, unless the trace exceeds its
 * in-memory bound; a disagreement is a bug.
 */

#include "fuzz/fuzz_driver.hh"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "trace/stream_reader.hh"
#include "trace/vcd.hh"

void
apolloFuzzOne(const uint8_t *data, size_t size)
{
    const std::string text(reinterpret_cast<const char *>(data), size);

    std::istringstream parse_is(text);
    const apollo::StatusOr<apollo::VcdTrace> parsed =
        apollo::tryParseVcd(parse_is);

    std::istringstream is(text);
    apollo::VcdChunkReader reader(is);
    apollo::ProxyChunk chunk;
    apollo::Status streamed;
    bool drained = false;
    uint64_t rows = 0;
    for (int iter = 0; iter < 4096; ++iter) {
        apollo::StatusOr<size_t> got = reader.next(512, chunk);
        if (!got.ok() || *got == 0) {
            streamed = got.status();
            drained = true;
            break;
        }
        rows += *got;
        if (rows > (uint64_t{1} << 22))
            break;
    }
    const bool in_memory =
        rows * reader.proxyCount() <= (uint64_t{1} << 32);
    if (drained && (in_memory || !streamed.ok()) &&
        parsed.status().code() != streamed.code()) {
        std::fprintf(stderr,
                     "FUZZ-BUG: tryParseVcd returned '%s' but the chunk "
                     "reader '%s'\n",
                     parsed.status().toString().c_str(),
                     streamed.toString().c_str());
        std::abort();
    }
}
