/**
 * @file
 * Fuzz target for "APSH" column-shard files (trace/shard_store.hh):
 * arbitrary bytes are written to one scratch shard file, which
 * MappedShardSet::openFiles must either map or reject with a Status —
 * never a throw, a crash or a mapping past the file. A set that opens
 * must map exactly the file's bytes, and every column's first and last
 * word must be readable; validateTails() then reports a forged tail as
 * a Status. The same file given twice exercises the set-level checks
 * (file count, duplicate shard index).
 */

#include "fuzz/fuzz_driver.hh"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "trace/shard_store.hh"

namespace {

[[noreturn]] void
bug(const char *what)
{
    std::fprintf(stderr, "FUZZ-BUG: %s\n", what);
    std::abort();
}

/** One scratch shard file per process, removed at exit. */
struct ScratchFile
{
    std::string path =
        (std::filesystem::temp_directory_path() /
         ("apollo_fuzz_shard." + std::to_string(::getpid()) + ".apsh"))
            .string();
    ~ScratchFile() { std::remove(path.c_str()); }
};

} // namespace

void
apolloFuzzOne(const uint8_t *data, size_t size)
{
    static const ScratchFile file;
    {
        std::ofstream os(file.path, std::ios::binary | std::ios::trunc);
        os.write(reinterpret_cast<const char *>(data),
                 static_cast<std::streamsize>(size));
        if (!os)
            bug("cannot write the scratch shard file");
    }

    (void)apollo::MappedShardSet::openFiles({file.path, file.path});

    apollo::StatusOr<apollo::MappedShardSet> set =
        apollo::MappedShardSet::openFiles({file.path});
    if (!set.ok())
        return;
    if (set->bytesMapped() != size)
        bug("opened shard maps other than the file's bytes");
    const bool tails_clean = set->validateTails().ok();
    uint64_t fold = 0;
    for (size_t c = 0; c < set->cols(); ++c) {
        const uint64_t *words = set->colWords(c);
        fold ^= words[0] ^ words[set->wordsPerCol() - 1];
        if (tails_clean && !set->columnTailClean(c))
            bug("validateTails passed a column with a forged tail");
    }
    volatile uint64_t keep = fold;
    (void)keep;
}
