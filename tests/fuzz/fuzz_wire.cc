/**
 * @file
 * Fuzz target for the serve wire codec (serve/wire.hh), the one parser
 * that reads bytes from a network peer. The input is split at '\n' and
 * each line goes through parseRequestLine; besides never crashing or
 * throwing, an accepted line must re-encode to a line that parses to
 * the same request, and an accepted chunk payload must honor the
 * packed zero-tail rule the compute kernels rely on. The whole input
 * also goes through decodeBitsHex directly, its first three bytes
 * declaring rows (16 bits) and columns (8 bits), so payload sizes and
 * tail words are reached without the JSON framing; an accepted payload
 * must re-encode to the same hex digits.
 */

#include "fuzz/fuzz_driver.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "serve/wire.hh"

namespace {

using apollo::BitColumnMatrix;

[[noreturn]] void
bug(const char *what)
{
    std::fprintf(stderr, "FUZZ-BUG: %s\n", what);
    std::abort();
}

/** True when every column keeps the bits past rows() clear. */
bool
zeroTail(const BitColumnMatrix &bits)
{
    if (bits.rows() % 64 == 0)
        return true;
    for (size_t c = 0; c < bits.cols(); ++c)
        if (bits.colWords(c)[bits.wordsPerCol() - 1] >> (bits.rows() % 64))
            return false;
    return true;
}

bool
sameBits(const BitColumnMatrix &a, const BitColumnMatrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    for (size_t c = 0; c < a.cols(); ++c)
        for (size_t w = 0; w < a.wordsPerCol(); ++w)
            if (a.colWords(c)[w] != b.colWords(c)[w])
                return false;
    return true;
}

void
fuzzLine(std::string_view line)
{
    apollo::StatusOr<apollo::serve::WireRequest> got =
        apollo::serve::parseRequestLine(line);
    if (!got.ok())
        return;
    if (!zeroTail(got->bits))
        bug("accepted chunk payload leaks tail bits");
    std::string again = apollo::serve::encodeRequest(*got);
    if (!again.empty() && again.back() == '\n')
        again.pop_back();
    apollo::StatusOr<apollo::serve::WireRequest> round =
        apollo::serve::parseRequestLine(again);
    if (!round.ok())
        bug("re-encoded request does not parse");
    if (round->op != got->op || round->session != got->session ||
        round->model != got->model || round->windowT != got->windowT ||
        !sameBits(round->bits, got->bits))
        bug("re-encoded request parses to a different request");
}

void
fuzzPayload(const uint8_t *data, size_t size)
{
    if (size < 3)
        return;
    const size_t rows = static_cast<size_t>(data[0]) |
                        static_cast<size_t>(data[1]) << 8;
    const size_t cols = data[2];
    const std::string_view hex(reinterpret_cast<const char *>(data) + 3,
                               size - 3);
    apollo::StatusOr<BitColumnMatrix> bits =
        apollo::serve::decodeBitsHex(hex, rows, cols);
    if (!bits.ok())
        return;
    if (!zeroTail(*bits))
        bug("decoded payload leaks tail bits");
    std::string lower(hex);
    for (char &c : lower)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (apollo::serve::encodeBitsHex(*bits) != lower)
        bug("decoded payload re-encodes to different hex");
}

} // namespace

void
apolloFuzzOne(const uint8_t *data, size_t size)
{
    const std::string_view input(reinterpret_cast<const char *>(data),
                                 size);
    size_t begin = 0;
    while (begin <= input.size()) {
        size_t end = input.find('\n', begin);
        if (end == std::string_view::npos)
            end = input.size();
        fuzzLine(input.substr(begin, end - begin));
        begin = end + 1;
    }
    fuzzPayload(data, size);
}
